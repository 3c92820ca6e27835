// tdb_serve: stream-replay driver for the online cycle-break service.
//
//   tdb_serve --stream FILE [--base FILE] [--k 5] [--batch 256]
//             [--admit-threads 2] [--threads 1] [--algo TDB++]
//             [--compact-threshold 4096] [--sync-compaction] [--gate]
//             [--two-cycles] [--seed 42] [--compact-budget SEC]
//             [--data-dir DIR] [--durability none|batch|always]
//             [--kill-after N] [--state-dump FILE]
//
// Replays a timestamped edge stream (tdb_graphgen --stream) through a
// CycleBreakService: the main thread ingests in batches while
// --admit-threads reader threads fire CheckAdmission queries drawn from
// the same vertex universe, concurrently and without coordination. With
// --gate, each stream edge is admission-checked first and dropped when it
// would close an uncovered cycle — the fraud-prevention deployment shape.
// Gate verdicts come from the last *published* snapshot, so admitted
// edges still pending in the current batch window are invisible to the
// check (a cycle completed entirely within one batch passes the gate and
// is covered at ingest instead); run with --batch 1 for exact per-edge
// gating. Reports ingest/admission throughput and latency percentiles.
//
// Durability & the kill/restart drill: --data-dir makes the service
// durable (snapshot + write-ahead journal under DIR; --durability picks
// the fsync policy). A rerun against a DIR that already holds a store
// RECOVERS it — replays the journal tail — and resumes the stream at the
// recovered event offset, so killing the process at any point and
// rerunning the same command line converges to the same final state as
// one uninterrupted run (with --sync-compaction, bit-identically;
// tools/crash_recovery_drill.py asserts exactly that in CI).
// --kill-after N raises SIGKILL after the Nth ingested batch of THIS
// process — no flush, no destructor, the honest crash. --state-dump
// writes the final graph + transversal in a canonical text form for
// state-equality comparison across runs. Resume arithmetic assumes the
// stream is consumed verbatim, so --gate cannot be combined with
// --data-dir.
#include <csignal>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "graph/graph_io.h"
#include "service/cycle_break_service.h"
#include "service/ingest_batcher.h"
#include "service/service_metrics.h"
#include "service/stats.h"
#include "util/cfile.h"
#include "util/metrics.h"
#include "util/metrics_http.h"
#include "util/parse_number.h"
#include "util/rng.h"
#include "util/timer.h"
#include "util/trace.h"

namespace {

using namespace tdb;

/// SIGTERM/SIGINT request a graceful wind-down: the replay loop and the
/// --metrics-hold wait both break out, so the exit path still writes the
/// final metrics dump and the trace (what the CI scrape smoke relies on
/// to stop the server). SIGKILL (--kill-after) stays the honest crash.
std::atomic<bool> g_shutdown{false};

void OnShutdownSignal(int) { g_shutdown.store(true); }

struct CliArgs {
  std::string stream_path;
  std::string base_path;
  std::string algo = "TDB++";
  std::string data_dir;
  std::string durability = "batch";
  std::string state_dump;
  std::string metrics_dump;
  std::string trace_out;
  int metrics_port = -1;  // -1 = off, 0 = kernel-assigned
  double metrics_interval = 5.0;
  double metrics_hold = 0.0;
  uint32_t k = 5;
  size_t batch = 256;
  int admit_threads = 2;
  int threads = 1;
  EdgeId compact_threshold = 4096;
  double compact_budget = 0.0;
  uint64_t seed = 42;
  uint64_t kill_after = 0;  // 0 = never
  bool sync_compaction = false;
  bool gate = false;
  bool two_cycles = false;
};

void PrintUsage() {
  std::fprintf(
      stderr,
      "usage: tdb_serve --stream FILE [options]\n"
      "  --stream FILE         timestamped edge stream (tdb_graphgen "
      "--stream)\n"
      "  --base FILE           SNAP-style edge list to preload as the "
      "snapshot\n"
      "  --k N                 hop constraint (default 5)\n"
      "  --batch N             ingest batch size (default 256)\n"
      "  --admit-threads N     concurrent admission reader threads "
      "(default 2)\n"
      "  --threads N           engine workers for compaction solves\n"
      "                        (default 1, 0 = all cores)\n"
      "  --algo NAME           compaction algorithm (default TDB++)\n"
      "  --compact-threshold N delta size triggering compaction "
      "(default 4096, 0 = never)\n"
      "  --compact-budget SEC  work-budget-split deadline per compaction\n"
      "  --data-dir DIR        durable store (snapshot + WAL journal);\n"
      "                        reruns recover the store and resume the\n"
      "                        stream at the recovered offset\n"
      "  --durability POLICY   journal fsync policy: none | batch |\n"
      "                        always (default batch)\n"
      "  --kill-after N        drill mode: SIGKILL self after the Nth\n"
      "                        ingested batch of this process\n"
      "  --state-dump FILE     write the final graph + transversal in\n"
      "                        canonical text form (crash-drill oracle)\n"
      "  --sync-compaction     compact inline instead of in background\n"
      "  --gate                drop stream edges that would close an\n"
      "                        uncovered cycle instead of ingesting them\n"
      "                        (verdicts see the last published batch;\n"
      "                        use --batch 1 for exact per-edge gating)\n"
      "  --two-cycles          also treat 2-cycles as cycles\n"
      "  --seed S              admission query workload seed\n"
      "  --metrics-port N      serve GET /metrics (Prometheus text) and\n"
      "                        /metrics.json on 127.0.0.1:N (0 = pick a\n"
      "                        free port; printed on stderr)\n"
      "  --metrics-hold SEC    keep serving /metrics for SEC seconds\n"
      "                        after the replay finishes\n"
      "  --metrics-dump FILE   write the registry as JSON to FILE every\n"
      "                        --metrics-interval seconds and at exit\n"
      "  --metrics-interval S  dump period in seconds (default 5)\n"
      "  --trace-out FILE      enable span tracing; write Chrome\n"
      "                        trace_event JSON to FILE at exit\n");
}

/// Strict numeric flag values: anything ParseInteger / ParseFiniteDouble
/// rejects prints "invalid FLAG value: V" and fails the parse.
template <typename T>
bool IntFlag(const std::string& flag, const char* v, T* out,
             T lo = std::numeric_limits<T>::min(),
             T hi = std::numeric_limits<T>::max()) {
  if (ParseInteger(v, out, lo, hi)) return true;
  std::fprintf(stderr, "invalid %s value: %s\n", flag.c_str(), v);
  return false;
}

bool DoubleFlag(const std::string& flag, const char* v, double* out) {
  if (ParseFiniteDouble(v, out)) return true;
  std::fprintf(stderr, "invalid %s value: %s\n", flag.c_str(), v);
  return false;
}

bool ParseArgs(int argc, char** argv, CliArgs* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    bool ok = true;
    if (arg == "--stream" && (v = next()) != nullptr) {
      args->stream_path = v;
    } else if (arg == "--base" && (v = next()) != nullptr) {
      args->base_path = v;
    } else if (arg == "--algo" && (v = next()) != nullptr) {
      args->algo = v;
    } else if (arg == "--k" && (v = next()) != nullptr) {
      ok = IntFlag(arg, v, &args->k);
    } else if (arg == "--batch" && (v = next()) != nullptr) {
      ok = IntFlag(arg, v, &args->batch);
    } else if (arg == "--admit-threads" && (v = next()) != nullptr) {
      ok = IntFlag(arg, v, &args->admit_threads, 0, 4096);
    } else if (arg == "--threads" && (v = next()) != nullptr) {
      ok = IntFlag(arg, v, &args->threads);
    } else if (arg == "--compact-threshold" && (v = next()) != nullptr) {
      ok = IntFlag(arg, v, &args->compact_threshold);
    } else if (arg == "--compact-budget" && (v = next()) != nullptr) {
      ok = DoubleFlag(arg, v, &args->compact_budget);
    } else if (arg == "--seed" && (v = next()) != nullptr) {
      ok = IntFlag(arg, v, &args->seed);
    } else if (arg == "--data-dir" && (v = next()) != nullptr) {
      args->data_dir = v;
    } else if (arg == "--durability" && (v = next()) != nullptr) {
      args->durability = v;
    } else if (arg == "--kill-after" && (v = next()) != nullptr) {
      ok = IntFlag(arg, v, &args->kill_after);
    } else if (arg == "--state-dump" && (v = next()) != nullptr) {
      args->state_dump = v;
    } else if (arg == "--metrics-port" && (v = next()) != nullptr) {
      ok = IntFlag(arg, v, &args->metrics_port, 0, 65535);
    } else if (arg == "--metrics-hold" && (v = next()) != nullptr) {
      ok = DoubleFlag(arg, v, &args->metrics_hold);
    } else if (arg == "--metrics-dump" && (v = next()) != nullptr) {
      args->metrics_dump = v;
    } else if (arg == "--metrics-interval" && (v = next()) != nullptr) {
      ok = DoubleFlag(arg, v, &args->metrics_interval);
    } else if (arg == "--trace-out" && (v = next()) != nullptr) {
      args->trace_out = v;
    } else if (arg == "--sync-compaction") {
      args->sync_compaction = true;
    } else if (arg == "--gate") {
      args->gate = true;
    } else if (arg == "--two-cycles") {
      args->two_cycles = true;
    } else {
      if (arg != "--help" && arg != "-h") {
        std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      }
      return false;
    }
    if (!ok) return false;
  }
  return !args->stream_path.empty();
}

/// Canonical text form of the final service state, for byte-equality
/// comparison across runs (the crash drill's oracle). Everything that
/// defines the served state is included: epoch, graph (base checksum +
/// delta sorted by (src, dst)), base cover and the S/W edge sets, all
/// read from the service's canonical TransversalImage. Fails on any
/// write error, so a truncated dump never passes as an oracle.
bool WriteStateDump(const CycleBreakService& service,
                    const std::string& path) {
  const TransversalImage image = service.Image();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write state dump %s\n", path.c_str());
    return false;
  }
  std::fprintf(f,
               "tdb-state v1\n"
               "epoch %llu\nuniverse %u\nevents %llu\n"
               "base_edges %llu\nbase_crc %08x\ndelta_edges %llu\n",
               static_cast<unsigned long long>(image.epoch),
               image.universe,
               static_cast<unsigned long long>(service.events_ingested()),
               static_cast<unsigned long long>(image.base_edges),
               image.base_crc,
               static_cast<unsigned long long>(image.delta.size()));
  for (const Edge& e : image.delta) {
    std::fprintf(f, "D %u %u\n", e.src, e.dst);
  }
  std::fprintf(f, "cover %zu\n", image.cover_vertices.size());
  for (VertexId v : image.cover_vertices) {
    std::fprintf(f, "C %u\n", v);
  }
  // Endpoint pairs only: the pairs identify the edges, and the dump stays
  // independent of overlay id assignment.
  auto dump_set = [&](const char* tag,
                      const std::vector<TransversalImage::EdgeEntry>& set) {
    std::fprintf(f, "%s_count %zu\n", tag, set.size());
    for (const TransversalImage::EdgeEntry& e : set) {
      std::fprintf(f, "%s %u %u\n", tag, e.src, e.dst);
    }
  };
  dump_set("S", image.covered);
  dump_set("W", image.reusable);
  if (!CloseChecked(f)) {
    std::fprintf(stderr, "cannot write state dump %s\n", path.c_str());
    return false;
  }
  return true;
}

/// Write-temp + rename so a concurrent reader never sees a torn dump.
bool WriteMetricsJson(MetricRegistry& registry, const std::string& path) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) return false;
  const std::string body = registry.RenderJson();
  const bool ok =
      std::fwrite(body.data(), 1, body.size(), f) == body.size();
  const bool closed = std::fclose(f) == 0;
  if (!ok || !closed || std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args;
  if (!ParseArgs(argc, argv, &args)) {
    PrintUsage();
    return 2;
  }
  std::signal(SIGTERM, OnShutdownSignal);
  std::signal(SIGINT, OnShutdownSignal);
  // Enable tracing before the service exists so the initial solve and
  // publish are captured too.
  if (!args.trace_out.empty()) trace::SetEnabled(true);

  std::vector<TimedEdge> stream;
  Status st = LoadEdgeStreamText(args.stream_path, &stream);
  if (!st.ok()) {
    std::fprintf(stderr, "cannot load stream: %s\n", st.ToString().c_str());
    return 1;
  }
  std::stable_sort(stream.begin(), stream.end(),
                   [](const TimedEdge& a, const TimedEdge& b) {
                     return a.timestamp < b.timestamp;
                   });

  // The stream format addresses raw (non-densified) vertex ids, so the
  // base must be re-expressed over the same raw ids — LoadEdgeListText
  // densifies in first-appearance order, which would silently renumber a
  // base whose file order is not already dense.
  std::vector<Edge> base_edges;
  VertexId universe = 0;
  if (!args.base_path.empty()) {
    CsrGraph dense;
    std::vector<uint64_t> original_ids;
    st = LoadEdgeListText(args.base_path, &dense, &original_ids);
    if (!st.ok()) {
      std::fprintf(stderr, "cannot load base: %s\n", st.ToString().c_str());
      return 1;
    }
    for (uint64_t raw : original_ids) {
      if (raw >= kInvalidVertex) {
        std::fprintf(stderr,
                     "base vertex id %llu does not fit the stream's "
                     "32-bit universe\n",
                     static_cast<unsigned long long>(raw));
        return 1;
      }
      universe = std::max(universe, static_cast<VertexId>(raw) + 1);
    }
    base_edges.reserve(dense.num_edges());
    for (VertexId u = 0; u < dense.num_vertices(); ++u) {
      for (const VertexId v : dense.OutNeighbors(u)) {
        base_edges.push_back(Edge{static_cast<VertexId>(original_ids[u]),
                                  static_cast<VertexId>(original_ids[v])});
      }
    }
  }
  for (const TimedEdge& e : stream) {
    universe = std::max(universe, std::max(e.src, e.dst) + 1);
  }
  CsrGraph base = CsrGraph::FromEdges(universe, std::move(base_edges));

  ServiceOptions options;
  options.cover.k = args.k;
  options.cover.include_two_cycles = args.two_cycles;
  options.compact_delta_threshold = args.compact_threshold;
  options.synchronous_compaction = args.sync_compaction;
  options.cover.num_threads = args.threads;
  options.compact_time_limit_seconds = args.compact_budget;
  options.data_dir = args.data_dir;
  st = ParseAlgorithm(args.algo, &options.compact_algorithm);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 2;
  }
  st = ParseDurabilityPolicy(args.durability, &options.durability);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 2;
  }
  if (args.gate && !args.data_dir.empty()) {
    // Resume arithmetic assumes every stream event reached SubmitEdges;
    // gating drops events before ingest, so a recovered offset would
    // desynchronize the replay.
    std::fprintf(stderr, "--gate cannot be combined with --data-dir\n");
    return 2;
  }
  st = options.Validate();
  if (!st.ok()) {
    std::fprintf(stderr, "bad options: %s\n", st.ToString().c_str());
    return 2;
  }

  std::fprintf(stderr,
               "serving universe of %u vertices: base %llu edges, stream "
               "%zu events\n",
               universe, static_cast<unsigned long long>(base.num_edges()),
               stream.size());

  Timer setup_timer;
  std::unique_ptr<CycleBreakService> service_ptr;
  size_t resume_offset = 0;
  if (!args.data_dir.empty()) {
    // An existing store is recovered; a fresh directory is initialized.
    st = CycleBreakService::Open(options, &service_ptr);
    if (st.ok()) {
      const auto& rec = service_ptr->recovery_info();
      resume_offset = static_cast<size_t>(service_ptr->events_ingested());
      std::fprintf(stderr,
                   "recovered %s: snapshot epoch %llu + %llu journal "
                   "batches (%llu events, %llu torn bytes dropped), "
                   "resuming stream at event %zu\n",
                   args.data_dir.c_str(),
                   static_cast<unsigned long long>(rec.snapshot_epoch),
                   static_cast<unsigned long long>(rec.replayed_batches),
                   static_cast<unsigned long long>(rec.replayed_events),
                   static_cast<unsigned long long>(
                       rec.journal_truncated_bytes),
                   resume_offset);
      if (resume_offset > stream.size()) {
        std::fprintf(stderr,
                     "store is ahead of the stream (%zu > %zu events)\n",
                     resume_offset, stream.size());
        return 1;
      }
    } else if (st.IsNotFound()) {
      st = CycleBreakService::Create(std::move(base), options,
                                     &service_ptr);
      if (!st.ok()) {
        std::fprintf(stderr, "cannot create store: %s\n",
                     st.ToString().c_str());
        return 1;
      }
    } else {
      std::fprintf(stderr, "cannot recover store: %s\n",
                   st.ToString().c_str());
      return 1;
    }
  } else {
    service_ptr = std::make_unique<CycleBreakService>(std::move(base),
                                                      options);
  }
  CycleBreakService& service = *service_ptr;
  if (service.universe() != universe) {
    std::fprintf(stderr,
                 "store universe (%u) does not match the stream's "
                 "(%u) — wrong --data-dir for this workload?\n",
                 service.universe(), universe);
    return 1;
  }
  std::fprintf(stderr, "initial solve + publish: %.3fs (epoch %llu)\n",
               setup_timer.ElapsedSeconds(),
               static_cast<unsigned long long>(service.epoch()));

  LatencyHistogram ingest_lat;
  LatencyHistogram admit_lat;
  std::atomic<bool> done{false};
  std::atomic<uint64_t> background_queries{0};

  // ---------------------------------------------------- observability
  // Counter views over the service's existing atomics plus histogram
  // views over the locals above: registering costs one mutex'd append
  // per metric at startup and nothing per Record — the ingest and
  // admission hot paths are untouched.
  MetricRegistry& registry = MetricRegistry::Global();
  std::vector<MetricRegistry::Registration> metric_regs =
      BindServiceStats(&registry, service.raw_stats(), "tdb_service_");
  metric_regs.push_back(registry.AddHistogramView(
      "tdb_serve_ingest_batch_seconds",
      "Per-batch SubmitEdges wall-clock", &ingest_lat));
  metric_regs.push_back(registry.AddHistogramView(
      "tdb_serve_admission_seconds",
      "Per-query CheckAdmission wall-clock", &admit_lat));
  metric_regs.push_back(registry.AddGaugeFn(
      "tdb_service_epoch", "Epoch of the last published snapshot",
      [&service] { return static_cast<double>(service.epoch()); }));
  metric_regs.push_back(registry.AddGaugeFn(
      "tdb_service_delta_edges",
      "Delta edges in the published snapshot's overlay", [&service] {
        return static_cast<double>(service.delta_edges());
      }));

  MetricsHttpServer metrics_server(&registry, args.metrics_port);
  if (args.metrics_port >= 0) {
    st = metrics_server.Start();
    if (!st.ok()) {
      std::fprintf(stderr, "metrics server: %s\n", st.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "metrics: http://127.0.0.1:%d/metrics\n",
                 metrics_server.port());
  }

  std::mutex dump_mu;
  std::condition_variable dump_cv;
  bool dump_stop = false;
  std::thread dumper;
  if (!args.metrics_dump.empty()) {
    dumper = std::thread([&] {
      const auto period = std::chrono::duration<double>(
          args.metrics_interval > 0 ? args.metrics_interval : 5.0);
      std::unique_lock<std::mutex> lock(dump_mu);
      while (!dump_cv.wait_for(lock, period, [&] { return dump_stop; })) {
        lock.unlock();
        if (!WriteMetricsJson(registry, args.metrics_dump)) {
          std::fprintf(stderr, "cannot write metrics dump %s\n",
                       args.metrics_dump.c_str());
        }
        lock.lock();
      }
    });
  }

  // Background admission readers: uniform random pairs over the universe,
  // each thread with a private seeded stream.
  std::vector<std::thread> readers;
  for (int t = 0; t < args.admit_threads; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(args.seed + 1000 + static_cast<uint64_t>(t));
      uint64_t count = 0;
      while (!done.load(std::memory_order_relaxed)) {
        const VertexId u = static_cast<VertexId>(rng.NextBounded(universe));
        const VertexId v = static_cast<VertexId>(rng.NextBounded(universe));
        Timer timer;
        (void)service.CheckAdmission(u, v);
        admit_lat.Record(timer.ElapsedSeconds());
        ++count;
      }
      background_queries.fetch_add(count, std::memory_order_relaxed);
    });
  }

  // Foreground replay: batch ingest, optionally admission-gated. In
  // drill mode the process SIGKILLs itself after the Nth batch of this
  // run — no flush, no destructor, the honest crash the recovery path
  // must survive.
  Timer run_timer;
  IngestBatcher batcher(&service, args.batch);
  uint64_t gated = 0;
  uint64_t batches_this_run = 0;
  auto after_submit = [&](const SubmitResult& r, const Timer& timer) {
    if (r.epoch == 0 && !r.status.ok()) {
      std::fprintf(stderr, "ingest failed: %s\n",
                   r.status.ToString().c_str());
      std::exit(1);
    }
    if (r.epoch == 0) return;
    ingest_lat.Record(timer.ElapsedSeconds());
    if (args.kill_after > 0 && ++batches_this_run >= args.kill_after) {
      ::raise(SIGKILL);
    }
  };
  for (size_t i = resume_offset; i < stream.size(); ++i) {
    if (g_shutdown.load(std::memory_order_relaxed)) break;
    const TimedEdge& e = stream[i];
    if (args.gate) {
      const AdmissionVerdict verdict = service.CheckAdmission(e.src, e.dst);
      if (verdict.would_close) {
        ++gated;
        continue;
      }
    }
    Timer timer;
    after_submit(batcher.Add(e.src, e.dst), timer);
  }
  {
    Timer timer;
    after_submit(batcher.Flush(), timer);
  }
  service.WaitForCompaction();
  const double ingest_seconds = run_timer.ElapsedSeconds();
  done.store(true, std::memory_order_relaxed);
  for (std::thread& r : readers) r.join();

  const ServiceStatsSnapshot s = service.Stats();
  const TransversalImage image = service.Image();
  const double qps =
      ingest_seconds > 0
          ? static_cast<double>(s.admission_queries) / ingest_seconds
          : 0.0;
  const double eps =
      ingest_seconds > 0 ? static_cast<double>(stream.size()) / ingest_seconds
                         : 0.0;
  std::printf("== tdb_serve replay: %s ==\n", args.stream_path.c_str());
  std::printf("ingest:     %zu events in %.3fs (%.0f events/s), "
              "%llu batches, %llu inserted, %llu rejected%s\n",
              stream.size(), ingest_seconds, eps,
              static_cast<unsigned long long>(s.batches),
              static_cast<unsigned long long>(s.edges_inserted),
              static_cast<unsigned long long>(s.edges_rejected),
              args.gate ? " (gated)" : "");
  if (args.gate) {
    std::printf("gate:       %llu edges dropped as cycle-closing\n",
                static_cast<unsigned long long>(gated));
  }
  std::printf("admission:  %llu queries (%.0f/s), %llu would close an "
              "uncovered cycle\n",
              static_cast<unsigned long long>(s.admission_queries), qps,
              static_cast<unsigned long long>(s.admission_would_close));
  std::printf("probe:      %llu admission queries probed, %llu ran the "
              "DFS\n",
              static_cast<unsigned long long>(s.admission_probes),
              static_cast<unsigned long long>(s.admission_probe_dfs));
  std::printf("latency:    ingest batch p50 %.1fus p95 %.1fus p99 %.1fus | "
              "admission p50 %.1fus p95 %.1fus p99 %.1fus\n",
              ingest_lat.PercentileSeconds(0.50) * 1e6,
              ingest_lat.PercentileSeconds(0.95) * 1e6,
              ingest_lat.PercentileSeconds(0.99) * 1e6,
              admit_lat.PercentileSeconds(0.50) * 1e6,
              admit_lat.PercentileSeconds(0.95) * 1e6,
              admit_lat.PercentileSeconds(0.99) * 1e6);
  std::printf("state:      epoch %llu, %llu compactions (%llu failed), "
              "cycles covered %llu, |S| %zu, base cover %zu, delta %zu\n",
              static_cast<unsigned long long>(service.epoch()),
              static_cast<unsigned long long>(s.compactions),
              static_cast<unsigned long long>(s.compactions_failed),
              static_cast<unsigned long long>(s.cycles_covered),
              image.covered.size(), image.cover_vertices.size(),
              image.delta.size());
  if (!args.data_dir.empty()) {
    std::printf("store:      %llu journal records, %llu rotations, "
                "%llu snapshots, %llu persist failures (durability %s)\n",
                static_cast<unsigned long long>(s.journal_records),
                static_cast<unsigned long long>(s.journal_rotations),
                static_cast<unsigned long long>(s.snapshots_written),
                static_cast<unsigned long long>(s.persist_failures),
                args.durability.c_str());
  }
  // Observability teardown: hold the scrape port open if asked (lets an
  // external scraper take its two samples after a short replay), then
  // stop the exporter threads, flush the final dump, and serialize the
  // trace now that every recording thread is quiescent.
  if (args.metrics_hold > 0 && args.metrics_port >= 0) {
    std::fprintf(stderr, "metrics: holding the port for %.1fs\n",
                 args.metrics_hold);
    const auto hold_deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(args.metrics_hold));
    while (!g_shutdown.load(std::memory_order_relaxed) &&
           std::chrono::steady_clock::now() < hold_deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }
  metrics_server.Stop();
  if (dumper.joinable()) {
    {
      std::lock_guard<std::mutex> lock(dump_mu);
      dump_stop = true;
    }
    dump_cv.notify_all();
    dumper.join();
    if (!WriteMetricsJson(registry, args.metrics_dump)) {
      std::fprintf(stderr, "cannot write metrics dump %s\n",
                   args.metrics_dump.c_str());
      return 1;
    }
  }
  if (!args.trace_out.empty()) {
    trace::SetEnabled(false);
    st = trace::WriteChromeTrace(args.trace_out);
    if (!st.ok()) {
      std::fprintf(stderr, "cannot write trace: %s\n",
                   st.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "trace:      %llu spans -> %s\n",
                 static_cast<unsigned long long>(trace::TotalSpanCount()),
                 args.trace_out.c_str());
  }
  if (!args.state_dump.empty() &&
      !WriteStateDump(service, args.state_dump)) {
    return 1;
  }
  return 0;
}
