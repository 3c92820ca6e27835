// Shared plumbing for the benchmark binaries: JSON rows for the CI
// regression gate and strict parsing of the TDB_BENCH_* variables.
#ifndef TDB_BENCH_BENCH_RUNNER_H_
#define TDB_BENCH_BENCH_RUNNER_H_

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "util/cfile.h"
#include "util/parse_number.h"
#include "util/thread_pool.h"

namespace tdb::bench {

/// The value of a bench's one argument, `--json PATH` ("" when absent).
/// Called at the top of main, so a bad command line costs no sweep: an
/// unknown argument, `--help`/`-h` or `--json` without a value prints
/// usage and exits 2.
inline std::string JsonPathFromArgs(int argc, char** argv,
                                    const char* bench_name) {
  std::string path;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--json" && i + 1 < argc) {
      path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--json PATH]\n", bench_name);
      std::exit(2);
    }
  }
  return path;
}

/// Machine-readable benchmark output for the CI regression pipeline:
/// flat key->value rows serialized as
///   {"bench": "<name>", "rows": [{"k1": v1, ...}, ...]}
/// Enabled by a `--json <path>` argument pair (JsonPathFromArgs); a
/// bench without it runs human-readable only.
/// tools/check_bench_regression.py consumes the files and compares them
/// against bench/baselines/. A failed write (including one that only
/// surfaces when the file is closed) makes Write return false, and the
/// bench then exits 1.
class JsonSink {
 public:
  explicit JsonSink(std::string bench_name)
      : bench_(std::move(bench_name)) {}

  void BeginRow() { rows_.emplace_back(); }

  /// Appends the {"row": "host", "nproc": N, "build_type": "..."} row: a
  /// timing baseline only means something next to the host it ran on.
  void HostRow() {
    BeginRow();
    Str("row", "host");
    Num("nproc", static_cast<uint64_t>(ThreadPool::HardwareThreads()));
    Str("build_type", BuildType());
  }

  /// "Release" for optimized builds (NDEBUG), "Debug" otherwise.
  static const char* BuildType() {
#ifdef NDEBUG
    return "Release";
#else
    return "Debug";
#endif
  }

  void Num(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6g", value);
    rows_.back().emplace_back(key, buf);
  }

  void Num(const std::string& key, uint64_t value) {
    rows_.back().emplace_back(key, std::to_string(value));
  }

  void Str(const std::string& key, const std::string& value) {
    rows_.back().emplace_back(key, "\"" + Escaped(value) + "\"");
  }

  /// Writes the collected rows to `path`; no-op success when `path` is
  /// empty (JSON output not requested).
  bool Write(const std::string& path) const {
    if (path.empty()) return true;
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write JSON to %s\n", path.c_str());
      return false;
    }
    std::fprintf(f, "{\"bench\": \"%s\", \"rows\": [", bench_.c_str());
    for (size_t r = 0; r < rows_.size(); ++r) {
      std::fprintf(f, "%s{", r == 0 ? "" : ", ");
      for (size_t i = 0; i < rows_[r].size(); ++i) {
        std::fprintf(f, "%s\"%s\": %s", i == 0 ? "" : ", ",
                     Escaped(rows_[r][i].first).c_str(),
                     rows_[r][i].second.c_str());
      }
      std::fprintf(f, "}");
    }
    std::fprintf(f, "]}\n");
    if (!CloseChecked(f)) {
      std::fprintf(stderr, "failed writing JSON to %s\n", path.c_str());
      return false;
    }
    return true;
  }

 private:
  static std::string Escaped(const std::string& s) {
    std::string out;
    for (char c : s) {
      if (c == '"' || c == '\\') out.push_back('\\');
      out.push_back(c);
    }
    return out;
  }

  std::string bench_;
  /// Each row: (key, pre-rendered JSON value literal) in insert order.
  std::vector<std::vector<std::pair<std::string, std::string>>> rows_;
};

/// Environment variable `name` parsed strictly as a T; `fallback` when
/// unset. A malformed or out-of-range value prints the variable's name
/// and exits 2 — a typo in a CI floor must fail loudly, not parse as 0
/// and disable the gate.
template <typename T>
T EnvInteger(const char* name, T fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr) return fallback;
  T value{};
  if (!ParseInteger(env, &value)) {
    std::fprintf(stderr, "invalid %s value: %s\n", name, env);
    std::exit(2);
  }
  return value;
}

/// Floating-point twin of EnvInteger (finite values only).
inline double EnvDouble(const char* name, double fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr) return fallback;
  double value = 0.0;
  if (!ParseFiniteDouble(env, &value)) {
    std::fprintf(stderr, "invalid %s value: %s\n", name, env);
    std::exit(2);
  }
  return value;
}

}  // namespace tdb::bench

#endif  // TDB_BENCH_BENCH_RUNNER_H_
