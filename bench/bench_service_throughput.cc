// Serving-layer throughput: batched ingest + concurrent admission QPS of
// the CycleBreakService, swept over admission reader thread counts.
//
// Each row replays the identical deterministic workload — a power-law
// base snapshot plus a seeded random edge stream ingested in batches with
// synchronous compactions — while N reader threads each fire a fixed
// number of admission queries. The final transversal size ("cover") must
// be identical across rows (readers never mutate; ingest is
// deterministic); any drift is a correctness bug and the bench exits
// non-zero, mirroring bench_parallel_scaling's determinism hard-fail.
//
// A second sweep measures steady-state admission QPS at a fixed 4 reader
// threads over one post-ingest state, in two modes over the one
// admission path (prechecks, then the meet-in-the-middle probe):
// "per_query" (CheckAdmission) and "batched" (CheckAdmissionBatch, one
// pinned snapshot per batch). Both evaluate the identical seeded query
// list and their verdict bitvectors must be byte-identical — any
// divergence is a correctness bug and the bench exits non-zero.
//
// Knobs: TDB_BENCH_SERVICE_N (vertices), TDB_BENCH_SERVICE_BASE_M (base
// edges), TDB_BENCH_SERVICE_STREAM_M (stream edges),
// TDB_BENCH_SERVICE_BATCH, TDB_BENCH_SERVICE_QUERIES (per reader),
// TDB_BENCH_SERVICE_ADMIT_Q (steady-state query count),
// TDB_BENCH_SERVICE_ADMIT_BATCH.
// --json PATH emits rows for tools/check_bench_regression.py.
#include <algorithm>
#include <cstdio>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_runner.h"
#include "graph/generators.h"
#include "service/cycle_break_service.h"
#include "table_printer.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/timer.h"

namespace {

using namespace tdb;
using namespace tdb::bench;

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path =
      JsonPathFromArgs(argc, argv, "bench_service_throughput");
  const VertexId n =
      EnvInteger<VertexId>("TDB_BENCH_SERVICE_N", 2000);
  const EdgeId base_m = EnvInteger<EdgeId>("TDB_BENCH_SERVICE_BASE_M", 6000);
  const EdgeId stream_m =
      EnvInteger<EdgeId>("TDB_BENCH_SERVICE_STREAM_M", 8000);
  const size_t batch = EnvInteger<size_t>("TDB_BENCH_SERVICE_BATCH", 256);
  const uint64_t queries =
      EnvInteger<uint64_t>("TDB_BENCH_SERVICE_QUERIES", 40000);
  const uint64_t admit_q =
      EnvInteger<uint64_t>("TDB_BENCH_SERVICE_ADMIT_Q", 80000);
  const size_t admit_batch =
      EnvInteger<size_t>("TDB_BENCH_SERVICE_ADMIT_BATCH", 256);
  constexpr uint32_t kHop = 4;

  // Deterministic workload shared by every row.
  PowerLawParams params;
  params.n = n;
  params.m = base_m;
  params.theta = 0.6;
  params.reciprocity = 0.2;
  params.seed = 7;
  const CsrGraph base = GeneratePowerLaw(params);
  std::vector<Edge> stream;
  {
    Rng rng(11);
    stream.reserve(stream_m);
    for (EdgeId i = 0; i < stream_m; ++i) {
      VertexId u = static_cast<VertexId>(rng.NextBounded(n));
      VertexId v = static_cast<VertexId>(rng.NextBounded(n));
      if (u == v) v = (v + 1) % n;
      stream.push_back(Edge{u, v});
    }
  }

  std::printf("== Service throughput: ingest %llu edges + admission sweep "
              "(n=%u, k=%u) ==\n",
              static_cast<unsigned long long>(stream_m), n, kHop);
  TablePrinter table({"admit threads", "seconds", "ingest eps",
                      "admit qps", "cover", "epochs", "compactions"});
  JsonSink json("service_throughput");
  json.BeginRow();
  json.Str("row", "params");
  json.Num("n", static_cast<uint64_t>(n));
  json.Num("base_m", base_m);
  json.Num("stream_m", stream_m);
  json.Num("batch", static_cast<uint64_t>(batch));
  json.Num("queries", queries);
  json.Num("k", static_cast<uint64_t>(kHop));

  // Content digest of the final transversal (sorted S pairs + base cover
  // + delta size): size-preserving drift across rows must fail too.
  const auto transversal_digest = [](const TransversalImage& image) {
    uint64_t digest = 1469598103934665603ull;  // FNV-1a
    const auto mix = [&digest](uint64_t x) {
      digest = (digest ^ x) * 1099511628211ull;
    };
    std::vector<std::pair<VertexId, VertexId>> s_edges;
    s_edges.reserve(image.covered.size());
    for (const auto& e : image.covered) s_edges.push_back({e.src, e.dst});
    std::sort(s_edges.begin(), s_edges.end());
    for (const auto& [u, v] : s_edges) {
      mix(u);
      mix(v);
    }
    for (VertexId v : image.cover_vertices) mix(v);
    mix(image.delta.size());
    return digest;
  };
  bool have_reference = false;
  uint64_t reference_digest = 0;
  bool determinism_ok = true;
  // Per-row latency histograms live in a bench-local registry; the JSON
  // rows read their percentiles back from the registry instruments, the
  // same data path tdb_serve's /metrics exports.
  MetricRegistry bench_registry;
  for (const int threads : {1, 2, 4, 8}) {
    ServiceOptions options;
    options.cover.k = kHop;
    options.compact_delta_threshold = 2048;
    options.synchronous_compaction = true;  // deterministic epoch count
    CsrGraph base_copy = base;  // the service takes ownership per row
    Timer timer;
    CycleBreakService service(std::move(base_copy), options);
    LatencyHistogram* admit_lat = bench_registry.AddHistogram(
        "bench_admit_t" + std::to_string(threads) + "_seconds",
        "Per-query admission latency during the ingest sweep");
    std::vector<std::thread> readers;
    readers.reserve(threads);
    for (int t = 0; t < threads; ++t) {
      readers.emplace_back([&service, admit_lat, t, queries, n] {
        Rng rng(500 + static_cast<uint64_t>(t));
        for (uint64_t q = 0; q < queries; ++q) {
          const VertexId u = static_cast<VertexId>(rng.NextBounded(n));
          const VertexId v = static_cast<VertexId>(rng.NextBounded(n));
          Timer query_timer;
          (void)service.CheckAdmission(u, v);
          admit_lat->Record(query_timer.ElapsedSeconds());
        }
      });
    }
    for (size_t at = 0; at < stream.size(); at += batch) {
      const size_t len = std::min(batch, stream.size() - at);
      service.SubmitEdges(std::span<const Edge>(stream.data() + at, len));
    }
    for (auto& r : readers) r.join();
    const double seconds = timer.ElapsedSeconds();

    const ServiceStatsSnapshot stats = service.Stats();
    const TransversalImage image = service.Image();
    const uint64_t cover =
        image.covered.size() + image.cover_vertices.size();
    const uint64_t digest = transversal_digest(image);
    if (!have_reference) {
      have_reference = true;
      reference_digest = digest;
    } else if (digest != reference_digest) {
      determinism_ok = false;
    }
    const double eps =
        seconds > 0 ? static_cast<double>(stream.size()) / seconds : 0;
    const double qps =
        seconds > 0
            ? static_cast<double>(queries) * threads / seconds
            : 0;

    char sec_s[32], eps_s[32], qps_s[32];
    std::snprintf(sec_s, sizeof sec_s, "%.3f", seconds);
    std::snprintf(eps_s, sizeof eps_s, "%.0f", eps);
    std::snprintf(qps_s, sizeof qps_s, "%.0f", qps);
    table.AddRow({std::to_string(threads), sec_s, eps_s, qps_s,
                  FormatCount(cover),
                  std::to_string(stats.epochs_published),
                  std::to_string(stats.compactions)});
    std::fflush(stdout);

    // Identity keys (threads/epochs/compactions) are deterministic;
    // throughput rates are machine-dependent and stay out of the JSON so
    // the regression checker matches rows across runners.
    json.BeginRow();
    json.Num("threads", static_cast<uint64_t>(threads));
    json.Num("epochs", stats.epochs_published);
    json.Num("compactions", stats.compactions);
    json.Num("seconds", seconds);
    json.Num("cover", cover);
    json.Num("admit_p50_us", admit_lat->PercentileSeconds(0.50) * 1e6);
    json.Num("admit_p95_us", admit_lat->PercentileSeconds(0.95) * 1e6);
    json.Num("admit_p99_us", admit_lat->PercentileSeconds(0.99) * 1e6);
  }
  table.Print();

  if (!determinism_ok) {
    std::fprintf(stderr,
                 "DETERMINISM VIOLATION: final transversal content "
                 "drifted across reader thread counts\n");
    return 1;
  }

  // ---- Steady-state admission mode sweep (fixed 4 reader threads) ----
  constexpr int kAdmitThreads = 4;
  json.BeginRow();
  json.Str("row", "admit_params");
  json.Num("admit_q", admit_q);
  json.Num("admit_batch", static_cast<uint64_t>(admit_batch));
  json.Num("admit_threads", static_cast<uint64_t>(kAdmitThreads));

  ServiceOptions steady_options;
  steady_options.cover.k = kHop;
  steady_options.compact_delta_threshold = 2048;
  steady_options.synchronous_compaction = true;
  CycleBreakService steady(CsrGraph(base), steady_options);
  for (size_t at = 0; at < stream.size(); at += batch) {
    const size_t len = std::min(batch, stream.size() - at);
    steady.SubmitEdges(std::span<const Edge>(stream.data() + at, len));
  }
  if (transversal_digest(steady.Image()) != reference_digest) {
    std::fprintf(stderr,
                 "DETERMINISM VIOLATION: steady-state ingest drifted from "
                 "the sweep rows\n");
    return 1;
  }
  const uint64_t steady_cover = [&] {
    const TransversalImage image = steady.Image();
    return image.covered.size() + image.cover_vertices.size();
  }();

  std::vector<Edge> admit_queries;
  admit_queries.reserve(admit_q);
  {
    Rng rng(900);
    for (uint64_t i = 0; i < admit_q; ++i) {
      admit_queries.push_back(
          Edge{static_cast<VertexId>(rng.NextBounded(n)),
               static_cast<VertexId>(rng.NextBounded(n))});
    }
  }

  // Runs one mode: kAdmitThreads threads over disjoint slices of the
  // query list, verdict bits recorded for cross-mode comparison and
  // per-query latency recorded into the mode's registry histogram
  // (batched mode samples batch latency / batch length per query, so
  // percentiles stay comparable across modes).
  const auto run_mode = [&](CycleBreakService& service, bool batched,
                            std::vector<uint8_t>* verdicts,
                            LatencyHistogram* lat) {
    verdicts->assign(admit_queries.size(), 0);
    Timer timer;
    std::vector<std::thread> workers;
    workers.reserve(kAdmitThreads);
    const size_t per =
        (admit_queries.size() + kAdmitThreads - 1) / kAdmitThreads;
    for (int t = 0; t < kAdmitThreads; ++t) {
      workers.emplace_back([&, t] {
        const size_t begin = std::min(per * t, admit_queries.size());
        const size_t end = std::min(begin + per, admit_queries.size());
        if (batched) {
          for (size_t at = begin; at < end; at += admit_batch) {
            const size_t len = std::min(admit_batch, end - at);
            Timer batch_timer;
            const std::vector<AdmissionVerdict> out =
                service.CheckAdmissionBatch(
                    std::span<const Edge>(admit_queries.data() + at, len));
            const double per_query = batch_timer.ElapsedSeconds() /
                                     static_cast<double>(len);
            for (size_t j = 0; j < len; ++j) {
              (*verdicts)[at + j] = out[j].would_close ? 1 : 0;
              lat->Record(per_query);
            }
          }
        } else {
          for (size_t i = begin; i < end; ++i) {
            Timer query_timer;
            const AdmissionVerdict v = service.CheckAdmission(
                admit_queries[i].src, admit_queries[i].dst);
            lat->Record(query_timer.ElapsedSeconds());
            (*verdicts)[i] = v.would_close ? 1 : 0;
          }
        }
      });
    }
    for (auto& w : workers) w.join();
    return timer.ElapsedSeconds();
  };

  std::printf("\n== Steady-state admission modes (%llu queries, %d "
              "threads, batch %zu) ==\n",
              static_cast<unsigned long long>(admit_q), kAdmitThreads,
              admit_batch);
  TablePrinter admit_table(
      {"mode", "seconds", "admit qps", "speedup", "would close"});
  struct ModeResult {
    const char* mode;
    bool batched = false;
    double seconds = 0;
    std::vector<uint8_t> verdicts;
    LatencyHistogram* lat = nullptr;
  };
  ModeResult modes[2] = {{"per_query", false}, {"batched", true}};
  for (ModeResult& m : modes) {
    m.lat = bench_registry.AddHistogram(
        std::string("bench_admit_") + m.mode + "_seconds",
        "Per-query admission latency in the steady-state sweep");
    m.seconds = run_mode(steady, m.batched, &m.verdicts, m.lat);
  }
  if (modes[1].verdicts != modes[0].verdicts) {
    std::fprintf(stderr,
                 "DETERMINISM VIOLATION: batched verdicts differ from the "
                 "per-query path\n");
    return 1;
  }
  const uint64_t would_close = static_cast<uint64_t>(
      std::count(modes[0].verdicts.begin(), modes[0].verdicts.end(), 1));
  for (const ModeResult& m : modes) {
    const double speedup =
        m.seconds > 0 ? modes[0].seconds / m.seconds : 0;
    const double qps =
        m.seconds > 0
            ? static_cast<double>(admit_queries.size()) / m.seconds
            : 0;
    char sec_s[32], qps_s[32], spd_s[32];
    std::snprintf(sec_s, sizeof sec_s, "%.3f", m.seconds);
    std::snprintf(qps_s, sizeof qps_s, "%.0f", qps);
    std::snprintf(spd_s, sizeof spd_s, "%.2fx", speedup);
    admit_table.AddRow({m.mode, sec_s, qps_s, spd_s,
                        std::to_string(would_close)});

    json.BeginRow();
    json.Str("mode", m.mode);
    json.Num("admit_threads", static_cast<uint64_t>(kAdmitThreads));
    json.Num("seconds", m.seconds);
    json.Num("speedup", speedup);
    json.Num("would_close", would_close);
    json.Num("cover", steady_cover);
    json.Num("admit_p50_us", m.lat->PercentileSeconds(0.50) * 1e6);
    json.Num("admit_p95_us", m.lat->PercentileSeconds(0.95) * 1e6);
    json.Num("admit_p99_us", m.lat->PercentileSeconds(0.99) * 1e6);
  }
  admit_table.Print();
  {
    const ServiceStatsSnapshot s = steady.Stats();
    std::printf("probe: %llu of %llu queries passed the prechecks, %llu "
                "ran the DFS\n",
                static_cast<unsigned long long>(s.admission_probes),
                static_cast<unsigned long long>(s.admission_queries),
                static_cast<unsigned long long>(s.admission_probe_dfs));
  }

  if (!json.Write(json_path)) return 1;
  std::printf(
      "\nReading: admission readers scale with threads while the single\n"
      "writer ingests at a fixed batch cadence; \"cover\" identical on\n"
      "every row is the concurrency-safety certificate.\n");
  return 0;
}
