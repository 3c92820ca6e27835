// Thread-scaling sweep of the SCC-partitioned engine: one multi-SCC graph,
// TDB++ solved at 1/2/4/8 worker threads, wall time and speedup per row.
// The graph is a disjoint union of strongly connected blocks (a cycle
// backbone per block keeps each one a single SCC, random chords make the
// per-component solve non-trivial), so the engine has independent work for
// every worker. Each block solves in place on the parent graph, so the
// sweep runs concurrent in-place pool tasks, one per block, each with its
// worker's own masks. Covers are asserted identical
// across thread counts — the engine's exactness guarantee, measured rather
// than assumed.
//
//   TDB_BENCH_BLOCKS       number of SCC blocks             (default 16)
//   TDB_BENCH_BLOCK_N      vertices per block               (default 4000)
//   TDB_BENCH_DEGREE       extra chords per vertex          (default 8)
//   TDB_BENCH_REPEATS      runs per thread count, best kept (default 3)
//   TDB_BENCH_MIN_SPEEDUP  if set, fail unless TDB++ at 4 threads reaches
//                          this speedup; checked only on hosts with at
//                          least 4 hardware threads
//
// `--json <path>` additionally writes machine-readable rows for
// tools/check_bench_regression.py, including a host row (hardware threads
// and build type).
#include <cstdio>
#include <string>
#include <vector>

#include "bench_runner.h"
#include "core/solver.h"
#include "graph/csr_graph.h"
#include "graph/scc.h"
#include "table_printer.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace {

using namespace tdb;
using namespace tdb::bench;

/// `blocks` disjoint strongly connected blocks of `block_n` vertices: a
/// cycle backbone (guarantees one SCC per block) plus `chords_per_vertex`
/// random intra-block chords (makes validation work meaningful).
CsrGraph MakeMultiSccGraph(VertexId blocks, VertexId block_n,
                           VertexId chords_per_vertex, uint64_t seed) {
  Rng rng(seed);
  std::vector<Edge> edges;
  edges.reserve(static_cast<size_t>(blocks) * block_n *
                (1 + chords_per_vertex));
  for (VertexId b = 0; b < blocks; ++b) {
    const VertexId base = b * block_n;
    for (VertexId i = 0; i < block_n; ++i) {
      edges.push_back({base + i, base + (i + 1) % block_n});
    }
    const EdgeId chords = static_cast<EdgeId>(block_n) * chords_per_vertex;
    for (EdgeId c = 0; c < chords; ++c) {
      const VertexId u = static_cast<VertexId>(rng.NextBounded(block_n));
      const VertexId v = static_cast<VertexId>(rng.NextBounded(block_n));
      if (u != v) edges.push_back({base + u, base + v});
    }
  }
  return CsrGraph::FromEdges(blocks * block_n, std::move(edges));
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path =
      JsonPathFromArgs(argc, argv, "bench_parallel_scaling");
  const VertexId blocks = EnvInteger<VertexId>("TDB_BENCH_BLOCKS", 16);
  const VertexId block_n = EnvInteger<VertexId>("TDB_BENCH_BLOCK_N", 4000);
  const VertexId degree = EnvInteger<VertexId>("TDB_BENCH_DEGREE", 8);
  const int repeats = EnvInteger<int>("TDB_BENCH_REPEATS", 3);
  const double min_speedup = EnvDouble("TDB_BENCH_MIN_SPEEDUP", 0.0);
  const int nproc = ThreadPool::HardwareThreads();

  CsrGraph g = MakeMultiSccGraph(blocks, block_n, degree, /*seed=*/71);
  SccResult scc = ComputeScc(g);
  VertexId nontrivial = 0;
  for (VertexId c = 0; c < scc.num_components; ++c) {
    if (scc.component_size[c] >= 3) ++nontrivial;
  }
  std::printf(
      "== Parallel scaling: TDB++ over %u SCC blocks "
      "(%u vertices, %llu edges, %u non-trivial SCCs; host: %d hardware "
      "threads, %s build) ==\n",
      blocks, g.num_vertices(),
      static_cast<unsigned long long>(g.num_edges()), nontrivial, nproc,
      JsonSink::BuildType());

  CoverOptions opts;
  opts.k = 5;

  JsonSink json("parallel_scaling");
  json.BeginRow();
  json.Str("row", "params");
  json.Num("blocks", static_cast<uint64_t>(blocks));
  json.Num("block_n", static_cast<uint64_t>(block_n));
  json.Num("degree", static_cast<uint64_t>(degree));
  json.HostRow();

  TablePrinter table({"threads", "seconds", "speedup", "cover"});
  double base_seconds = 0.0;
  double speedup_at_4 = 0.0;
  std::vector<VertexId> base_cover;
  for (int threads : {1, 2, 4, 8}) {
    opts.num_threads = threads;
    // Best of `repeats`: scheduling noise only ever inflates a run.
    double best_seconds = 0.0;
    CoverResult r;
    for (int rep = 0; rep < repeats; ++rep) {
      r = SolveCycleCover(g, CoverAlgorithm::kTdbPlusPlus, opts);
      if (!r.status.ok()) {
        std::fprintf(stderr, "solve failed: %s\n",
                     r.status.ToString().c_str());
        return 1;
      }
      if (rep == 0 || r.stats.elapsed_seconds < best_seconds) {
        best_seconds = r.stats.elapsed_seconds;
      }
    }
    if (threads == 1) {
      base_seconds = best_seconds;
      base_cover = r.cover;
    } else if (r.cover != base_cover) {
      std::fprintf(stderr,
                   "DETERMINISM VIOLATION: cover at %d threads differs "
                   "from the sequential cover\n",
                   threads);
      return 1;
    }
    const double speedup = base_seconds / best_seconds;
    if (threads == 4) speedup_at_4 = speedup;
    char seconds[32], speedup_text[32];
    std::snprintf(seconds, sizeof seconds, "%.3f", best_seconds);
    std::snprintf(speedup_text, sizeof speedup_text, "%.2fx", speedup);
    table.AddRow({std::to_string(threads), seconds, speedup_text,
                  FormatCount(r.cover.size())});
    json.BeginRow();
    json.Num("threads", static_cast<uint64_t>(threads));
    json.Num("seconds", best_seconds);
    json.Num("speedup", speedup);
    json.Num("cover", static_cast<uint64_t>(r.cover.size()));
  }
  table.Print();

  bool ok = true;
  if (min_speedup > 0) {
    if (nproc < 4) {
      std::printf(
          "speedup floor %.2fx skipped: %d hardware threads, need 4\n",
          min_speedup, nproc);
    } else if (speedup_at_4 < min_speedup) {
      std::fprintf(stderr,
                   "SPEEDUP REGRESSION: TDB++ at 4 threads reached %.2fx, "
                   "below the %.2fx floor\n",
                   speedup_at_4, min_speedup);
      ok = false;
    }
  }
  return json.Write(json_path) && ok ? 0 : 1;
}
