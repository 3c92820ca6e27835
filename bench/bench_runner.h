// Shared plumbing for the table/figure reproduction binaries: one timed
// solver invocation with the paper's INF semantics and optional
// verification.
#ifndef TDB_BENCH_BENCH_RUNNER_H_
#define TDB_BENCH_BENCH_RUNNER_H_

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "core/solver.h"
#include "core/verifier.h"
#include "graph/csr_graph.h"
#include "util/parse_number.h"

namespace tdb::bench {

/// Machine-readable benchmark output for the CI regression pipeline:
/// flat key->value rows serialized as
///   {"bench": "<name>", "rows": [{"k1": v1, ...}, ...]}
/// Enabled by a `--json <path>` argument pair; a bench without it runs
/// human-readable only. tools/check_bench_regression.py consumes the
/// files and compares them against bench/baselines/.
class JsonSink {
 public:
  explicit JsonSink(std::string bench_name)
      : bench_(std::move(bench_name)) {}

  /// The path following "--json" in argv, or "" when absent.
  static std::string PathFromArgs(int argc, char** argv) {
    for (int i = 1; i + 1 < argc; ++i) {
      if (std::string(argv[i]) == "--json") return argv[i + 1];
    }
    return "";
  }

  void BeginRow() { rows_.emplace_back(); }

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
    std::fclose(f);
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

/// One benchmark cell: cover size + wall time, with failure markers.
struct Cell {
  uint64_t cover_size = 0;
  double seconds = 0.0;
  bool timed_out = false;
  bool failed = false;  // e.g. line-graph budget exhausted
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

/// Per-run wall-clock budget from TDB_BENCH_TIMEOUT (seconds; default
/// `fallback`). Runs over budget report the paper's "INF".
inline double BenchTimeout(double fallback = 30.0) {
  return EnvDouble("TDB_BENCH_TIMEOUT", fallback);
}

/// Set TDB_BENCH_VERIFY=1 to verify feasibility of every produced cover
/// (doubles the runtime; off by default).
inline bool BenchVerify() {
  const char* env = std::getenv("TDB_BENCH_VERIFY");
  return env != nullptr && env[0] == '1';
}

/// Runs `algo` on `graph` under the given hop bound and time limit.
inline Cell RunCovered(const CsrGraph& graph, CoverAlgorithm algo,
                       uint32_t k, double time_limit,
                       bool include_two_cycles = false) {
  CoverOptions opts;
  opts.k = k;
  opts.include_two_cycles = include_two_cycles;
  opts.time_limit_seconds = time_limit;
  CoverResult r = SolveCycleCover(graph, algo, opts);
  Cell cell;
  cell.seconds = r.stats.elapsed_seconds;
  if (r.status.IsTimedOut()) {
    cell.timed_out = true;
    return cell;
  }
  if (!r.status.ok()) {
    cell.failed = true;
    return cell;
  }
  cell.cover_size = r.cover.size();
  if (BenchVerify()) {
    VerifyReport rep = VerifyCover(graph, r.cover, opts, /*minimality=*/false);
    if (!rep.feasible) {
      std::fprintf(stderr, "VERIFICATION FAILED: %s k=%u: %s\n",
                   AlgorithmName(algo), k, rep.ToString().c_str());
      std::abort();
    }
  }
  return cell;
}

}  // namespace tdb::bench

#endif  // TDB_BENCH_BENCH_RUNNER_H_
