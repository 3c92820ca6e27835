// Thread-scaling sweep on a graph that is ONE giant SCC — the adversarial
// shape for across-component parallelism (a single component pins a
// single worker) and the paper's target workload shape (billion-scale
// transaction graphs are dominated by one huge SCC). This bench measures
// the intra-component speculative probing engine: candidates validate in
// parallel batches against a frozen mask and commit sequentially in
// canonical order, so every cover is asserted bit-identical to the
// 1-thread run — a determinism violation exits non-zero and fails CI.
//
//   TDB_BENCH_N            vertices                     (default 3000)
//   TDB_BENCH_DEGREE       extra chords per vertex      (default 10)
//   TDB_BENCH_K            hop constraint               (default 5)
//   TDB_BENCH_REPEATS      runs per cell, best kept     (default 3)
//   TDB_BENCH_MIN_SPEEDUP  if set, fail unless TDB++ at 4 threads
//                          reaches this speedup (CI perf floor; leave
//                          unset on single-core machines)
//
// `--json <path>` additionally writes machine-readable rows for
// tools/check_bench_regression.py.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_runner.h"
#include "core/solver.h"
#include "graph/csr_graph.h"
#include "graph/generators.h"
#include "graph/scc.h"
#include "table_printer.h"
#include "util/thread_pool.h"

namespace {

using namespace tdb;
using namespace tdb::bench;

}  // namespace

int main(int argc, char** argv) {
  const VertexId n = EnvInteger<VertexId>("TDB_BENCH_N", 3000);
  const VertexId degree = EnvInteger<VertexId>("TDB_BENCH_DEGREE", 10);
  const uint32_t k = EnvInteger<uint32_t>("TDB_BENCH_K", 5);
  const int repeats = EnvInteger<int>("TDB_BENCH_REPEATS", 3);
  const double min_speedup = EnvDouble("TDB_BENCH_MIN_SPEEDUP", 0.0);

  CsrGraph g = GenerateChordedCycle(n, degree, /*seed=*/97);
  const SccResult scc = ComputeScc(g);
  if (scc.num_components != 1) {
    std::fprintf(stderr, "expected one SCC, got %u\n", scc.num_components);
    return 1;
  }
  std::printf(
      "== Giant-SCC scaling: intra-component parallel probing "
      "(%u vertices, %llu edges, 1 SCC, k=%u, %d hardware threads) ==\n",
      g.num_vertices(), static_cast<unsigned long long>(g.num_edges()), k,
      ThreadPool::HardwareThreads());

  JsonSink json("giant_scc");
  json.BeginRow();
  json.Str("row", "params");
  json.Num("n", static_cast<uint64_t>(n));
  json.Num("degree", static_cast<uint64_t>(degree));
  json.Num("k", static_cast<uint64_t>(k));

  bool ok = true;
  for (CoverAlgorithm algo :
       {CoverAlgorithm::kTdbPlusPlus, CoverAlgorithm::kBur}) {
    CoverOptions opts;
    opts.k = k;
    opts.min_intra_parallel_size = 2;  // always probe in place

    TablePrinter table({"algo", "threads", "seconds", "speedup", "probes",
                        "restarts", "cover"});
    double base_seconds = 0.0;
    std::vector<VertexId> base_cover;
    for (int threads : {1, 2, 4, 8}) {
      opts.num_threads = threads;
      // Best of `repeats`: scheduling noise only ever inflates a run.
      double best_seconds = 0.0;
      CoverResult r;
      for (int rep = 0; rep < repeats; ++rep) {
        r = SolveCycleCover(g, algo, opts);
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
                     "DETERMINISM VIOLATION: %s cover at %d threads "
                     "differs from the sequential cover\n",
                     AlgorithmName(algo), threads);
        ok = false;
      }
      char seconds[32], speedup[32];
      std::snprintf(seconds, sizeof seconds, "%.3f", best_seconds);
      std::snprintf(speedup, sizeof speedup, "%.2fx",
                    base_seconds / best_seconds);
      table.AddRow({AlgorithmName(algo), std::to_string(threads), seconds,
                    speedup, FormatCount(r.stats.intra_probes),
                    FormatCount(r.stats.intra_restarts),
                    FormatCount(r.cover.size())});
      json.BeginRow();
      json.Str("algo", AlgorithmName(algo));
      json.Num("threads", static_cast<uint64_t>(threads));
      json.Num("seconds", best_seconds);
      json.Num("speedup", base_seconds / best_seconds);
      json.Num("cover", static_cast<uint64_t>(r.cover.size()));
      if (algo == CoverAlgorithm::kTdbPlusPlus && threads == 4 &&
          base_seconds / best_seconds < min_speedup) {
        std::fprintf(stderr,
                     "SPEEDUP REGRESSION: TDB++ at 4 threads reached "
                     "%.2fx, below the %.2fx floor\n",
                     base_seconds / best_seconds, min_speedup);
        ok = false;
      }
    }
    table.Print();
  }

  if (!json.Write(JsonSink::PathFromArgs(argc, argv))) ok = false;
  return ok ? 0 : 1;
}
