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
#include "graph/compressed_csr.h"
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
  bool compressed_base = false;
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
      "  --compressed-base   solve from the delta/varint CompressedCsr\n"
      "                      backend (identical cover, smaller residency)\n"
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
    } else if (arg == "--compressed-base") {
      args->compressed_base = true;
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

  options.compressed_base = args.compressed_base;
  CompressedCsr cgraph;
  if (args.compressed_base) {
    cgraph = CompressedCsr::FromCsr(graph);
  }
  if (args.stats) {
    const GraphStats gs = ComputeStats(graph);
    std::fprintf(stderr, "%s\n", gs.FootprintString().c_str());
    if (args.compressed_base) {
      const CompressedCsrFootprint fp = cgraph.MemoryFootprint();
      std::fprintf(
          stderr,
          "compressed_bytes=%llu (offsets=%llu out_stream=%llu "
          "out_headers=%llu in_stream=%llu in_headers=%llu) ratio=%.2fx\n",
          static_cast<unsigned long long>(fp.total()),
          static_cast<unsigned long long>(fp.offset_bytes),
          static_cast<unsigned long long>(fp.out_stream_bytes),
          static_cast<unsigned long long>(fp.out_header_bytes),
          static_cast<unsigned long long>(fp.in_stream_bytes),
          static_cast<unsigned long long>(fp.in_header_bytes),
          fp.total() > 0 ? static_cast<double>(gs.total_bytes()) /
                               static_cast<double>(fp.total())
                         : 0.0);
    }
  }

  CoverResult result = args.compressed_base
                           ? SolveCycleCover(cgraph, algo, options)
                           : SolveCycleCover(graph, algo, options);
  if (!result.status.ok()) {
    std::fprintf(stderr, "solve failed: %s\n",
                 result.status.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "%s k=%u: cover of %zu vertices in %.3fs\n",
               AlgorithmName(algo), args.k, result.cover.size(),
               result.stats.elapsed_seconds);
  if (args.stats) {
    std::fprintf(stderr,
                 "searches=%llu cycles=%llu expansions=%llu "
                 "block_prunes=%llu bfs_filtered=%llu pruned=%llu\n",
                 static_cast<unsigned long long>(result.stats.searches),
                 static_cast<unsigned long long>(result.stats.cycles_found),
                 static_cast<unsigned long long>(result.stats.expansions),
                 static_cast<unsigned long long>(result.stats.block_prunes),
                 static_cast<unsigned long long>(result.stats.bfs_filtered),
                 static_cast<unsigned long long>(
                     result.stats.prune_removed));
    std::fprintf(stderr, "scc: %.3fs, %llu components\n",
                 result.stats.scc_seconds,
                 static_cast<unsigned long long>(result.stats.scc_components));
  }

  if (args.verify) {
    VerifyReport report = VerifyCover(graph, result.cover, options);
    std::fprintf(stderr, "verify: %s\n", report.ToString().c_str());
    if (!report.feasible) return 1;
  }

  if (!args.stats_json.empty()) {
    // Populate a private registry and reuse its JSON renderer, so the
    // dump shares its schema with tdb_serve's /metrics.json and
    // --metrics-dump files.
    MetricRegistry registry;
    const CoverStats& cs = result.stats;
    const auto counter = [&](const char* name, const char* help,
                             uint64_t value) {
      registry
          .AddCounter(std::string("tdb_cover_") + name + "_total", help)
          ->Increment(value);
    };
    counter("searches", "Candidate validations / cycle searches",
            cs.searches);
    counter("cycles_found", "Qualifying cycles materialized",
            cs.cycles_found);
    counter("expansions", "Adjacency entries scanned", cs.expansions);
    counter("block_prunes", "Extensions suppressed by block bounds",
            cs.block_prunes);
    counter("bfs_filtered", "Candidates discharged by the BFS filter",
            cs.bfs_filtered);
    counter("scc_filtered", "Candidates discharged by the SCC prefilter",
            cs.scc_filtered);
    counter("prune_removed", "Vertices removed by minimal pruning",
            cs.prune_removed);
    counter("components_timed_out",
            "Components that exhausted their budget share",
            cs.components_timed_out);
    counter("scc_components", "Components from condensation",
            cs.scc_components);
    registry
        .AddGauge("tdb_cover_elapsed_seconds", "Solve wall-clock seconds")
        ->Set(cs.elapsed_seconds);
    registry
        .AddGauge("tdb_cover_scc_seconds",
                  "Wall-clock seconds in SCC condensation")
        ->Set(cs.scc_seconds);
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
