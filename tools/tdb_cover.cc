// tdb_cover: command-line front end.
//
//   tdb_cover --graph edges.txt --k 5 --algo TDB++ [--verify]
//             [--two-cycles] [--unconstrained] [--time-limit 60]
//             [--order deg-asc|id|deg-desc|random] [--threads N]
//             [--output cover.txt] [--stats] [--stats-json FILE]
//
// Reads a SNAP-style text edge list (or TDBG binary with --binary),
// computes a hop-constrained cycle cover, and prints it (original vertex
// ids) one per line to stdout or --output.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/solver.h"
#include "core/verifier.h"
#include "graph/graph_io.h"
#include "graph/graph_stats.h"
#include "util/cfile.h"
#include "util/metrics.h"
#include "util/parse_number.h"

namespace {

using namespace tdb;

struct CliArgs {
  std::string graph_path;
  std::string output_path;
  std::string algo = "TDB++";
  std::string order = "deg-asc";
  std::string stats_json;
  uint32_t k = 5;
  int threads = 1;
  bool binary = false;
  bool verify = false;
  bool two_cycles = false;
  bool unconstrained = false;
  bool stats = false;
  double time_limit = 0.0;
};

void PrintUsage() {
  std::fprintf(
      stderr,
      "usage: tdb_cover --graph FILE [options]\n"
      "  --graph FILE        SNAP-style edge list (or TDBG with --binary)\n"
      "  --binary            input is TDBG binary\n"
      "  --k N               hop constraint (default 5)\n"
      "  --algo NAME         BUR | BUR+ | TDB | TDB+ | TDB++ | DARC-DV\n"
      "  --order NAME        deg-asc | id | deg-desc | random\n"
      "  --threads N         SCC-parallel workers (0 = all cores, "
      "default 1)\n"
      "  --two-cycles        also cover 2-cycles\n"
      "  --unconstrained     cover cycles of every length\n"
      "  --time-limit SEC    wall-clock budget (0 = unlimited)\n"
      "  --verify            check feasibility + minimality afterwards\n"
      "  --stats             print solver statistics to stderr\n"
      "  --stats-json FILE   write CoverStats as JSON (the metric-registry\n"
      "                      dump schema)\n"
      "  --output FILE       write the cover here instead of stdout\n");
}

bool ParseArgs(int argc, char** argv, CliArgs* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--graph") {
      const char* v = next();
      if (v == nullptr) return false;
      args->graph_path = v;
    } else if (arg == "--output") {
      const char* v = next();
      if (v == nullptr) return false;
      args->output_path = v;
    } else if (arg == "--algo") {
      const char* v = next();
      if (v == nullptr) return false;
      args->algo = v;
    } else if (arg == "--order") {
      const char* v = next();
      if (v == nullptr) return false;
      args->order = v;
    } else if (arg == "--k") {
      const char* v = next();
      if (v == nullptr) return false;
      if (!ParseInteger(v, &args->k)) {
        std::fprintf(stderr, "invalid --k value: %s\n", v);
        return false;
      }
    } else if (arg == "--threads") {
      const char* v = next();
      if (v == nullptr) return false;
      if (!ParseInteger(v, &args->threads)) {
        std::fprintf(stderr, "invalid --threads value: %s\n", v);
        return false;
      }
    } else if (arg == "--time-limit") {
      const char* v = next();
      if (v == nullptr) return false;
      if (!ParseFiniteDouble(v, &args->time_limit)) {
        std::fprintf(stderr, "invalid --time-limit value: %s\n", v);
        return false;
      }
    } else if (arg == "--binary") {
      args->binary = true;
    } else if (arg == "--verify") {
      args->verify = true;
    } else if (arg == "--two-cycles") {
      args->two_cycles = true;
    } else if (arg == "--unconstrained") {
      args->unconstrained = true;
    } else if (arg == "--stats") {
      args->stats = true;
    } else if (arg == "--stats-json") {
      const char* v = next();
      if (v == nullptr) return false;
      args->stats_json = v;
    } else if (arg == "--help" || arg == "-h") {
      return false;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return false;
    }
  }
  return !args->graph_path.empty();
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args;
  if (!ParseArgs(argc, argv, &args)) {
    PrintUsage();
    return 2;
  }

  CsrGraph graph;
  std::vector<uint64_t> original_ids;
  Status st = args.binary
                  ? LoadBinary(args.graph_path, &graph)
                  : LoadEdgeListText(args.graph_path, &graph, &original_ids);
  if (!st.ok()) {
    std::fprintf(stderr, "cannot load graph: %s\n", st.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "loaded: %s\n",
               ComputeStats(graph).ToString().c_str());

  CoverAlgorithm algo;
  st = ParseAlgorithm(args.algo, &algo);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 2;
  }

  CoverOptions options;
  options.k = args.k;
  options.include_two_cycles = args.two_cycles;
  options.unconstrained = args.unconstrained;
  options.time_limit_seconds = args.time_limit;
  options.num_threads = args.threads;
  if (args.order == "deg-asc") {
    options.order = VertexOrder::kByDegreeAsc;
  } else if (args.order == "id") {
    options.order = VertexOrder::kById;
  } else if (args.order == "deg-desc") {
    options.order = VertexOrder::kByDegreeDesc;
  } else if (args.order == "random") {
    options.order = VertexOrder::kRandom;
  } else {
    std::fprintf(stderr, "unknown order: %s\n", args.order.c_str());
    return 2;
  }

  if (args.stats) {
    std::fprintf(stderr, "%s\n", ComputeStats(graph).FootprintString().c_str());
  }

  CoverResult result = SolveCycleCover(graph, algo, options);
  if (result.status.ok()) {
    std::fprintf(stderr, "%s k=%u: cover of %zu vertices in %.3fs\n",
                 AlgorithmName(algo), args.k, result.cover.size(),
                 result.stats.elapsed_seconds);
  } else {
    std::fprintf(stderr, "solve failed: %s\n",
                 result.status.ToString().c_str());
  }
  // The stats go out before any failure exit: the partial counters of a
  // timed-out solve are what a budget post-mortem needs.
  if (args.stats) {
    std::fprintf(stderr, "%s\n", FormatCoverStats(result.stats).c_str());
  }
  if (!args.stats_json.empty()) {
    // Populate a private registry and reuse its JSON renderer, so the
    // dump shares its schema with tdb_serve's /metrics.json and
    // --metrics-dump files.
    MetricRegistry registry;
    ExportCoverStats(result.stats, &registry);
    registry.AddGauge("tdb_cover_cover_size", "Cover size in vertices")
        ->Set(static_cast<double>(result.cover.size()));
    const std::string body = registry.RenderJson();
    std::FILE* jf = std::fopen(args.stats_json.c_str(), "w");
    if (jf == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", args.stats_json.c_str());
      return 1;
    }
    std::fwrite(body.data(), 1, body.size(), jf);
    if (!CloseChecked(jf)) {
      std::fprintf(stderr, "cannot write %s\n", args.stats_json.c_str());
      return 1;
    }
  }
  if (!result.status.ok()) return 1;

  if (args.verify) {
    VerifyReport report = VerifyCover(graph, result.cover, options);
    std::fprintf(stderr, "verify: %s\n", report.ToString().c_str());
    if (!report.feasible) return 1;
  }

  std::FILE* out = stdout;
  if (!args.output_path.empty()) {
    out = std::fopen(args.output_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", args.output_path.c_str());
      return 1;
    }
  }
  for (VertexId v : result.cover) {
    const unsigned long long id =
        v < original_ids.size() ? original_ids[v] : v;
    std::fprintf(out, "%llu\n", id);
  }
  const bool written =
      out == stdout ? std::fflush(out) == 0 && std::ferror(out) == 0
                    : CloseChecked(out);
  if (!written) {
    std::fprintf(stderr, "cannot write %s\n",
                 args.output_path.empty() ? "cover to stdout"
                                          : args.output_path.c_str());
    return 1;
  }
  return 0;
}
