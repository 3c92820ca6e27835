// End-to-end benchmark: an offline TDB++ solve and a durable cycle-break
// service, driven only through the library's public calls.
//
// One process runs one workload from one seed. Setup builds the inputs
// (Generate), the serving base and a durable service over it — kSetups
// times, so setup_s is a median. Then slices run until --seconds is spent
// (at least one whole round). Each slice runs every phase once, so every
// metric samples the whole run, not one stretch of it: the host's speed
// drifts over tens of seconds, and a phase that ran only once or twice in
// a run would report the stretch it happened to land on.
//   solve    SolveCycleCover(TDB++) at 1 thread;
//   ingest   one writer submits the slice's share of the stream in
//            256-edge batches while an open-loop client calls
//            CheckAdmission at a fixed rate;
//   recover  close the service and Open its store;
//   admit    one closed-loop client calls CheckAdmissionBatch(64) on the
//            recovered service, which nothing writes to until the next
//            slice.
// A round is kSlices slices: the whole stream, into a freshly Created
// service. After the slices it checks the invariants every run must keep
// and, when the outputs do not match the pinned digests, runs independent
// oracles. A traced run (--trace) then runs one more round with tracing on,
// whose slices also solve at min(4, nproc) threads. Everything lands in one
// JSON object (--json); bench/e2e/run.py turns it into the benchmark's
// metrics and verdict.
//
// Usage:
//   bench_e2e --workload NAME --seed S --seconds T --json FILE
//             --work-dir DIR [--trace FILE] [--expect-inputs STR]
//             [--expect-outputs STR]
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/solver.h"
#include "core/verifier.h"
#include "datasets.h"
#include "graph/scc.h"
#include "service/cycle_break_service.h"
#include "service/snapshot.h"
#include "util/crc32.h"
#include "util/rng.h"
#include "util/trace.h"

namespace {

using namespace tdb;
using Clock = std::chrono::steady_clock;

double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

std::string Format(const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  return buf;
}

// ------------------------------------------------------------- workloads

struct Workload {
  const char* name;
  /// Dataset-registry proxy (bench/datasets.h) behind both the offline
  /// solve and the serving graph.
  const char* proxy;
  /// Scale of the offline solve input.
  double solve_scale;
  /// Share of steady-state queries that re-ask one of the last
  /// kRepeatWindow queries. A synthetic choice, not taken from traffic
  /// data: it gives one workload repeats for the verdict cache and leaves
  /// the other with only the repeats its degree skew makes.
  double repeat_share;
};

// Both workloads run every phase; they differ in the shapes the phases
// see. WGO-like graphs make the solve BFS-filter heavy (the filter
// discharges most candidates); WBS-like graphs make it block-DFS heavy.
constexpr Workload kWorkloads[] = {
    {"sparse", "WGO", 10.0, 0.2},
    {"dense", "WBS", 5.0, 0.0},
};

// The serving graph is the registry proxy at this scale, split into the
// base (what is left after the stream and the held-out edges), the stream
// and the held-out edges.
constexpr double kServeScale = 3.0;
constexpr uint32_t kHop = 5;
constexpr size_t kStreamEdges = 30000;
constexpr size_t kHeldOutEdges = 30000;
constexpr size_t kMixedBatch = 256;
constexpr int kLandmarks = 16;
constexpr int kCacheLog2 = 16;
constexpr EdgeId kCompactAt = 4096;
// The stream's batches are cut into kSlices slices of kSliceBatches, the
// first slice also taking the remainder. A compaction runs every
// kSliceBatches batches, so every slice ends the same number of batches
// past one, and every Open replays a journal tail of the same length.
static_assert(kCompactAt % kMixedBatch == 0);
constexpr size_t kStreamBatches = (kStreamEdges + kMixedBatch - 1) / kMixedBatch;
constexpr size_t kSliceBatches = kCompactAt / kMixedBatch;
constexpr size_t kSlices = kStreamBatches / kSliceBatches;
// Queries per second. Low enough that the client is mostly idle, so its
// tail reflects service time rather than queues behind a slow probe.
constexpr double kOpenLoopRate = 2000.0;
// Untraced slices keep at most two threads busy (the writer and the
// open-loop client during ingest). On a shared host that takes vCPUs away
// for tens of milliseconds at a time, multi-threaded phases measured the
// host's scheduler: the median of a run's 2-thread solves spread by up to
// 40% across runs and two closed-loop clients by 20%, while 1-thread work
// spread by about 10%. The parallel solve therefore runs only in the
// traced round and is a per-layer metric.
constexpr unsigned kParThreads = 4;
constexpr size_t kAdmitBatch = 64;
// Closed-loop passes per slice: one warm-up pass, whose verdicts are
// pinned and re-checked by the oracle, then kAdmitPasses timed passes.
constexpr size_t kWarmupQueries = 20000;
constexpr size_t kAdmitQueries = 25000;  // per timed pass
constexpr size_t kAdmitPasses = 2;
constexpr size_t kRepeatWindow = 4096;  // how recent a re-asked pair is
constexpr int kSetups = 5;

uint64_t SubSeed(uint64_t seed, uint64_t salt) {
  // SplitMix64 finalizer: independent streams per input from one seed.
  uint64_t z = seed * 0x9E3779B97F4A7C15ull + salt;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// First and one-past-last batch of slice `slice`.
size_t SliceEnd(size_t slice) {
  return kStreamBatches - (kSlices - 1 - slice) * kSliceBatches;
}
size_t SliceBegin(size_t slice) { return slice == 0 ? 0 : SliceEnd(slice - 1); }

struct Inputs {
  CsrGraph solve;
  VertexId serve_n = 0;
  /// The serving graph's edges, shuffled and split: the service's base,
  /// the ingest stream and the held-out edges the open-loop client asks
  /// about. All edges are distinct, so every stream edge is inserted.
  std::vector<Edge> base;
  std::vector<Edge> stream;
  std::vector<Edge> held_out;
  /// Steady-state admission queries: the warm-up pass, then the timed
  /// passes. Each list is drawn on its own (QueryPass), so repeats come
  /// from the degree skew and repeat_share, never from replaying a list
  /// on the same cache.
  std::vector<std::vector<Edge>> query_passes;
};

/// The steady-state query list of pass `pass` (0 is the warm-up pass). A
/// fresh query pairs the source of one random base edge with the target of
/// another, so its endpoints are as skewed as the graph's own edges (the
/// generator draws an edge's two endpoints independently).
std::vector<Edge> QueryPass(const std::vector<Edge>& base, uint64_t seed,
                            double repeat_share, uint64_t pass) {
  Rng rng(SubSeed(seed, 100 + pass));
  std::vector<Edge> queries(pass == 0 ? kWarmupQueries : kAdmitQueries);
  for (size_t i = 0; i < queries.size(); ++i) {
    if (i > 0 && rng.NextBool(repeat_share)) {
      queries[i] =
          queries[i - 1 - rng.NextBounded(std::min(i, kRepeatWindow))];
      continue;
    }
    do {
      queries[i] = Edge{base[rng.NextBounded(base.size())].src,
                        base[rng.NextBounded(base.size())].dst};
    } while (queries[i].src == queries[i].dst);
  }
  return queries;
}

void Shuffle(std::vector<Edge>* edges, Rng& rng) {
  for (size_t i = edges->size(); i > 1; --i) {
    std::swap((*edges)[i - 1], (*edges)[rng.NextBounded(i)]);
  }
}

/// The graphs are the registry's fixed proxies, as the paper's datasets are
/// fixed, and so is the split of the serving graph into base, stream and
/// held-out edges: which edges the base holds sets how costly the probes
/// are, and a split drawn from the seed spread the open-loop p90 by ~20%
/// across seeds. The seed draws the order the stream arrives in, the
/// order the held-out edges are asked about, and the steady-state queries.
/// So the solve, and its cover, are the same for every seed.
Inputs Generate(const Workload& w, uint64_t seed) {
  const bench::DatasetSpec& spec = *bench::FindDataset(w.proxy);
  Inputs in;
  in.solve = bench::BuildProxy(spec, w.solve_scale);
  const CsrGraph serve = bench::BuildProxy(spec, kServeScale);
  std::vector<Edge> edges(serve.num_edges());
  for (EdgeId e = 0; e < serve.num_edges(); ++e) {
    edges[e] = Edge{serve.EdgeSrc(e), serve.EdgeDst(e)};
  }
  Rng split(SubSeed(0, 3));
  Shuffle(&edges, split);
  const auto base_end = edges.end() - kStreamEdges - kHeldOutEdges;
  in.serve_n = serve.num_vertices();
  in.base.assign(edges.begin(), base_end);
  in.stream.assign(base_end, base_end + kStreamEdges);
  in.held_out.assign(base_end + kStreamEdges, edges.end());
  Rng rng(SubSeed(seed, 3));
  Shuffle(&in.stream, rng);
  Shuffle(&in.held_out, rng);
  for (uint64_t pass = 0; pass <= kAdmitPasses; ++pass) {
    in.query_passes.push_back(QueryPass(in.base, seed, w.repeat_share, pass));
  }
  return in;
}

// --------------------------------------------------------------- digests

uint32_t CrcEdges(std::span<const Edge> edges) {
  Crc32 crc;
  for (const Edge& e : edges) {
    const VertexId pair[2] = {e.src, e.dst};
    crc.Update(pair, sizeof pair);
  }
  return crc.value();
}

uint32_t CrcGraph(const CsrGraph& g) {
  Crc32 crc;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const VertexId pair[2] = {g.EdgeSrc(e), g.EdgeDst(e)};
    crc.Update(pair, sizeof pair);
  }
  return crc.value();
}

uint32_t CrcImage(const TransversalImage& image) {
  Crc32 crc;
  const uint64_t header[4] = {image.epoch, image.universe, image.base_edges,
                              image.base_crc};
  crc.Update(header, sizeof header);
  const uint32_t delta = CrcEdges(image.delta);
  crc.Update(&delta, sizeof delta);
  crc.Update(image.cover_vertices.data(),
             image.cover_vertices.size() * sizeof(VertexId));
  for (const auto* set : {&image.covered, &image.reusable}) {
    const uint64_t size = set->size();
    crc.Update(&size, sizeof size);
    for (const TransversalImage::EdgeEntry& e : *set) {
      const uint64_t entry[3] = {e.id, e.src, e.dst};
      crc.Update(entry, sizeof entry);
    }
  }
  return crc.value();
}

bool SameImage(const TransversalImage& a, const TransversalImage& b) {
  return a.epoch == b.epoch && a.universe == b.universe &&
         a.base_edges == b.base_edges && a.base_crc == b.base_crc &&
         a.delta == b.delta && a.cover_vertices == b.cover_vertices &&
         a.covered == b.covered && a.reusable == b.reusable;
}

std::string SolveInputDigest(const CsrGraph& g) {
  return Format("solve=n:%u,m:%llu,crc:%08x", g.num_vertices(),
                static_cast<unsigned long long>(g.num_edges()), CrcGraph(g));
}

std::string CoverDigest(const std::vector<VertexId>& cover) {
  return Format("cover=size:%zu,crc:%08x", cover.size(),
                Crc32cOf(cover.data(), cover.size() * sizeof(VertexId)));
}

std::string InputsDigest(const Inputs& in) {
  const std::vector<Edge>& warmup = in.query_passes.front();
  return SolveInputDigest(in.solve) +
         Format(";serve=n:%u,base:%zu,crc:%08x;stream=m:%zu,crc:%08x;"
                "held_out=m:%zu,crc:%08x;queries=m:%zu,crc:%08x",
                in.serve_n, in.base.size(), CrcEdges(in.base),
                in.stream.size(), CrcEdges(in.stream), in.held_out.size(),
                CrcEdges(in.held_out), warmup.size(), CrcEdges(warmup));
}

// ------------------------------------------------------------ statistics

/// Nearest-rank percentile of raw samples (q in (0, 1]).
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const size_t i = std::clamp<size_t>(static_cast<size_t>(rank), 1, v.size());
  return v[i - 1];
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

void Append(std::vector<double>* to, const std::vector<double>& from) {
  to->insert(to->end(), from.begin(), from.end());
}

/// Restarts the kernel's peak-RSS count (Linux), so the peak read later
/// covers only what ran in between.
void ResetPeakRss() {
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

double PeakRssMb() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kb = -1;
    while (std::fgets(line, sizeof line, f) != nullptr) {
      if (std::strncmp(line, "VmHWM:", 6) == 0) kb = std::atol(line + 6);
    }
    std::fclose(f);
    if (kb >= 0) return static_cast<double>(kb) / 1024.0;
  }
  struct rusage usage = {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Adds what `after` counted beyond `before` to `sum`. The base_bytes
/// gauge takes `after`'s value.
void AddDelta(const ServiceStatsSnapshot& after,
              const ServiceStatsSnapshot& before, ServiceStatsSnapshot* sum) {
  using S = ServiceStatsSnapshot;
  for (uint64_t S::*field :
       {&S::cycles_covered, &S::path_queries, &S::speculative_probes,
        &S::prunes, &S::admission_queries, &S::admission_would_close,
        &S::admission_cache_hits, &S::admission_cache_misses, &S::index_hits,
        &S::index_fallbacks, &S::index_builds, &S::epochs_published,
        &S::compactions, &S::journal_records}) {
    sum->*field += after.*field - before.*field;
  }
  sum->index_build_seconds +=
      after.index_build_seconds - before.index_build_seconds;
  sum->base_bytes = after.base_bytes;
}

// ------------------------------------------------------------------ runs

struct CheckResult {
  std::string name;
  bool ok = true;
  std::string detail;
};

/// State shared by every phase of one process.
struct Run {
  const Workload* workload = nullptr;
  uint64_t seed = 0;
  double seconds = 0;
  std::string work_dir;
  int par_threads = 1;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  int stores = 0;
  std::vector<CheckResult> checks;
  std::map<std::string, double> metrics;

  void Count(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  void Check(std::string name, bool ok, std::string detail = "") {
    checks.push_back({std::move(name), ok, std::move(detail)});
  }
  bool AllOk() const {
    return std::all_of(checks.begin(), checks.end(),
                       [](const CheckResult& c) { return c.ok; });
  }
  /// A fresh, empty store directory for one durable service.
  std::string NewStore() {
    const std::string dir = work_dir + "/store-" + std::to_string(stores++);
    std::filesystem::remove_all(dir);
    return dir;
  }
};

/// The raw samples of every slice, in the order they were taken.
struct Samples {
  std::vector<double> seq_s;  // 1-thread solves
  std::vector<double> par_s;  // par_threads solves (traced round only)
  std::vector<double> ingest_eps;
  /// SubmitEdges latency of every batch, and of the batches that ran a
  /// compaction.
  std::vector<double> submit_s;
  std::vector<double> compact_s;
  /// Open-loop client: each query's latency and the client's own lag
  /// (see IngestPhase), and the latency p75, p90 and p99 of each slice.
  std::vector<double> latency_s;
  std::vector<double> lag_s;
  std::vector<double> slice_p75_s;
  std::vector<double> slice_p90_s;
  std::vector<double> slice_p99_s;
  uint64_t probed = 0;
  std::vector<double> open_s;
  /// Closed loop: wall time and p99 call latency of each timed pass, and
  /// every call's latency.
  std::vector<double> pass_s;
  std::vector<double> pass_p99_s;
  std::vector<double> batch_s;

  /// Queries per second over all timed passes. Later slices serve a
  /// larger graph and answer more slowly, so the total, unlike a median
  /// over passes, weighs every slice of a round in.
  double admit_qps() const {
    double total_s = 0;
    for (const double s : pass_s) total_s += s;
    return Ratio(static_cast<double>(pass_s.size() * kAdmitQueries), total_s);
  }
};

/// The cover every solve must return, and the counters of the first
/// solve at each thread count.
struct Solves {
  size_t count = 0;
  std::vector<VertexId> cover;
  bool identical = true;
  std::optional<CoverStats> seq_stats;
  std::optional<CoverStats> par_stats;
};

/// What one round produced, for the checks, the pinned outputs and the
/// per-layer counters.
struct Round {
  size_t slices = 0;
  /// Per slice: a CRC of the image before the close, and a CRC of the
  /// verdicts of each admission pass (warm-up first).
  std::vector<uint32_t> image_crcs;
  std::vector<uint32_t> verdict_crcs;
  bool recovered_identical = true;
  /// Counters of the ingest and of the admission passes, summed over the
  /// slices; what a recovery replays itself is left out.
  ServiceStatsSnapshot ingest;
  ServiceStatsSnapshot admit;
  uint64_t replayed_batches = 0;
  /// Held-out edge the open-loop client asks about next.
  size_t next_query = 0;
  /// The last slice's image, warm-up verdicts and served snapshot.
  TransversalImage image;
  std::vector<uint8_t> verdicts;
  std::shared_ptr<const ServiceSnapshot> snapshot;

  bool complete() const { return slices == kSlices; }
};

ServiceOptions ServeOptions(const std::string& data_dir) {
  ServiceOptions options;
  options.cover.k = kHop;
  options.compact_delta_threshold = kCompactAt;
  // Synchronous compaction keeps epochs, compactions and the final image
  // deterministic, so they can be pinned.
  options.synchronous_compaction = true;
  options.admission_index_landmarks = kLandmarks;
  options.admission_cache_log2 = kCacheLog2;
  options.data_dir = data_dir;
  options.durability = DurabilityPolicy::kBatch;
  return options;
}

std::unique_ptr<CycleBreakService> TimedCreate(Run& run, const Inputs& in,
                                               const ServiceOptions& options) {
  std::unique_ptr<CycleBreakService> service;
  Status st;
  {
    trace::Span span("bench.create");
    st = CycleBreakService::Create(CsrGraph::FromEdges(in.serve_n, in.base),
                                   options, &service);
  }
  run.Count(st.ok());
  if (!st.ok()) run.Check("create_ok", false, st.ToString());
  return st.ok() ? std::move(service) : nullptr;
}

struct GraphShape {
  double condense_s = 0;
  uint64_t components = 0;
  double largest_frac = 0;
};

GraphShape TimedCondense(const CsrGraph& g) {
  GraphShape shape;
  const auto start = Clock::now();
  SccResult scc;
  {
    trace::Span span("bench.condense");
    scc = CondenseScc(g, SccOptions{});
  }
  shape.condense_s = Since(start);
  shape.components = scc.num_components;
  const VertexId largest =
      scc.component_size.empty()
          ? 0
          : *std::max_element(scc.component_size.begin(),
                              scc.component_size.end());
  shape.largest_frac = Ratio(largest, g.num_vertices());
  return shape;
}

/// One solve at 1 thread and, with `with_parallel`, one at par_threads.
void SolvePhase(Run& run, const CsrGraph& g, bool with_parallel,
                Solves* solves, Samples* out) {
  for (const bool parallel : {false, true}) {
    if (parallel && !with_parallel) break;
    CoverOptions options;
    options.k = kHop;
    options.num_threads = parallel ? run.par_threads : 1;
    const auto start = Clock::now();
    CoverResult r;
    {
      trace::Span span("bench.solve");
      r = SolveCycleCover(g, CoverAlgorithm::kTdbPlusPlus, options);
    }
    (parallel ? out->par_s : out->seq_s).push_back(Since(start));
    run.Count(r.status.ok());
    std::optional<CoverStats>& stats =
        parallel ? solves->par_stats : solves->seq_stats;
    if (!stats) stats = r.stats;
    if (solves->count++ == 0) {
      solves->cover = std::move(r.cover);
    } else if (r.cover != solves->cover) {
      solves->identical = false;
    }
  }
}

/// Submits batches [first, last) of the stream while an open-loop client
/// asks about held-out edges.
void IngestPhase(Run& run, CycleBreakService* service, const Inputs& in,
                 size_t first, size_t last, Round* round, Samples* out) {
  std::vector<double> latency_s;
  std::vector<double> lag_s;
  uint64_t probed = 0;
  std::atomic<bool> done{false};
  const size_t query0 = round->next_query;
  const auto start = Clock::now();
  std::thread client([&] {
    const std::chrono::duration<double> period(1.0 / kOpenLoopRate);
    Clock::time_point prev_end = start;
    for (uint64_t i = 0; !done.load(std::memory_order_relaxed); ++i) {
      const Clock::time_point due =
          start + std::chrono::duration_cast<Clock::duration>(
                      period * static_cast<double>(i));
      // Spin rather than sleep: a sleeping client adds its own wake-up
      // latency (milliseconds on a virtual machine) to every sample.
      while (Clock::now() < due) {
      }
      const Clock::time_point issued = Clock::now();
      const Edge& q = in.held_out[(query0 + i) % in.held_out.size()];
      const AdmissionVerdict verdict = service->CheckAdmission(q.src, q.dst);
      const Clock::time_point end = Clock::now();
      if (verdict.probed) ++probed;
      // The query was ready at its due time or, if the previous call ran
      // past that, when the previous call returned. Issuing any later
      // means the host descheduled the idle client: that lag is the
      // generator's, not a wait the service imposed, so it is reported
      // apart and left out of the latency.
      const Clock::time_point ready = std::max(due, prev_end);
      lag_s.push_back(Seconds(issued - ready));
      latency_s.push_back(Seconds(end - due - (issued - ready)));
      prev_end = end;
    }
  });
  size_t edges = 0;
  uint64_t compactions = service->Stats().compactions;
  for (size_t b = first; b < last; ++b) {
    const size_t at = b * kMixedBatch;
    const size_t len = std::min(kMixedBatch, in.stream.size() - at);
    const auto t = Clock::now();
    SubmitResult r;
    {
      trace::Span span("bench.submit");
      r = service->SubmitEdges(
          std::span<const Edge>(in.stream.data() + at, len));
    }
    const double submit_s = Since(t);
    out->submit_s.push_back(submit_s);
    run.Count(r.status.ok());
    edges += len;
    const uint64_t now_compacted = service->Stats().compactions;
    if (now_compacted != compactions) out->compact_s.push_back(submit_s);
    compactions = now_compacted;
  }
  const double ingest_s = Since(start);
  done.store(true, std::memory_order_relaxed);
  client.join();
  round->next_query += latency_s.size();
  run.attempted += latency_s.size();
  out->ingest_eps.push_back(Ratio(static_cast<double>(edges), ingest_s));
  out->slice_p75_s.push_back(Percentile(latency_s, 0.75));
  out->slice_p90_s.push_back(Percentile(latency_s, 0.90));
  out->slice_p99_s.push_back(Percentile(latency_s, 0.99));
  Append(&out->latency_s, latency_s);
  Append(&out->lag_s, lag_s);
  out->probed += probed;
}

/// Closes `*service` and Opens its store again. Leaves null in `*service`
/// if the Open failed.
void RecoverPhase(Run& run, const ServiceOptions& options,
                  const TransversalImage& before,
                  std::unique_ptr<CycleBreakService>* service, Round* round,
                  Samples* out) {
  service->reset();
  const auto t = Clock::now();
  Status st;
  {
    trace::Span span("bench.open");
    st = CycleBreakService::Open(options, service);
  }
  out->open_s.push_back(Since(t));
  run.Count(st.ok());
  if (!st.ok()) {
    run.Check("open_ok", false, st.ToString());
    service->reset();
    return;
  }
  round->replayed_batches = (*service)->recovery_info().replayed_batches;
  if (!SameImage((*service)->Image(), before)) {
    round->recovered_identical = false;
  }
}

/// One closed-loop pass over `queries`: the client sends the next batch as
/// soon as its previous call returns. Returns the pass's wall time.
double AdmitPass(Run& run, const CycleBreakService& service,
                 const std::vector<Edge>& queries,
                 std::vector<uint8_t>* verdicts,
                 std::vector<double>* batch_s) {
  verdicts->assign(queries.size(), 0);
  const auto start = Clock::now();
  for (size_t at = 0; at < queries.size(); at += kAdmitBatch) {
    const size_t len = std::min(kAdmitBatch, queries.size() - at);
    const auto t = Clock::now();
    const std::vector<AdmissionVerdict> out = service.CheckAdmissionBatch(
        std::span<const Edge>(queries.data() + at, len));
    batch_s->push_back(Since(t));
    for (size_t j = 0; j < len; ++j) {
      (*verdicts)[at + j] = out[j].would_close ? 1 : 0;
    }
    ++run.attempted;
  }
  return Since(start);
}

/// The warm-up pass (per-thread scratch and the verdict cache fill here),
/// then kAdmitPasses timed passes.
void AdmitPhase(Run& run, const CycleBreakService& service, const Inputs& in,
                Round* round, Samples* out) {
  std::vector<uint8_t> verdicts;
  for (size_t pass = 0; pass <= kAdmitPasses; ++pass) {
    const std::vector<Edge>& queries = in.query_passes[pass];
    std::vector<double> batch_s;
    if (pass == 0) {
      AdmitPass(run, service, queries, &verdicts, &batch_s);
      if (round->complete()) round->verdicts = verdicts;
    } else {
      out->pass_s.push_back(
          AdmitPass(run, service, queries, &verdicts, &batch_s));
      out->pass_p99_s.push_back(Percentile(batch_s, 0.99));
      Append(&out->batch_s, batch_s);
    }
    round->verdict_crcs.push_back(Crc32cOf(verdicts.data(), verdicts.size()));
  }
}

/// Runs the round's next slice on `*service`: every phase once. Leaves
/// the recovered service in `*service` (null if the Open failed).
void RunSlice(Run& run, const Inputs& in, const ServiceOptions& options,
              bool with_parallel, std::unique_ptr<CycleBreakService>* service,
              Round* round, Solves* solves, Samples* out) {
  const size_t slice = round->slices++;
  SolvePhase(run, in.solve, with_parallel, solves, out);
  ServiceStatsSnapshot before = (*service)->Stats();
  IngestPhase(run, service->get(), in, SliceBegin(slice), SliceEnd(slice),
              round, out);
  AddDelta((*service)->Stats(), before, &round->ingest);
  const TransversalImage image = (*service)->Image();
  round->image_crcs.push_back(CrcImage(image));
  RecoverPhase(run, options, image, service, round, out);
  if (*service == nullptr) return;
  before = (*service)->Stats();
  AdmitPhase(run, **service, in, round, out);
  AddDelta((*service)->Stats(), before, &round->admit);
  if (round->complete()) {
    round->image = image;
    round->snapshot = (*service)->PinSnapshot();
  }
}

// ---------------------------------------------------------------- checks

/// The paper's exactness claim and the engine's determinism contract, on
/// the x1 proxies: TDB, TDB+ and TDB++ agree, and so do 1 and N threads.
void CheckCoversAgree(Run& run) {
  for (const char* proxy : {"WGO", "WBS"}) {
    const CsrGraph g = bench::BuildProxy(*bench::FindDataset(proxy), 1.0);
    CoverOptions options;
    options.k = kHop;
    const CoverResult ref =
        SolveCycleCover(g, CoverAlgorithm::kTdbPlusPlus, options);
    bool ok = ref.status.ok();
    for (const CoverAlgorithm algo :
         {CoverAlgorithm::kTdb, CoverAlgorithm::kTdbPlus}) {
      const CoverResult r = SolveCycleCover(g, algo, options);
      ok = ok && r.status.ok() && r.cover == ref.cover;
    }
    options.num_threads = run.par_threads;
    const CoverResult par =
        SolveCycleCover(g, CoverAlgorithm::kTdbPlusPlus, options);
    ok = ok && par.status.ok() && par.cover == ref.cover;
    run.Check(std::string("x1_") + proxy + "_covers_agree", ok,
              Format("cover %zu", ref.cover.size()));
  }
}

/// Checks that every slice of every round produced the same outputs as
/// the same slice of the first round, and kept its own invariants
/// (ingest, recovery and steady admission are deterministic).
void CheckRounds(Run& run, const std::vector<Round>& rounds,
                 const Solves& solves) {
  const Round& first = rounds.front();
  // A failed Open cuts a round short; it is compared on the slices it ran.
  const auto prefix_equal = [](const std::vector<uint32_t>& a,
                               const std::vector<uint32_t>& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.begin() + a.size());
  };
  bool recovered = true, verdicts = true;
  for (const Round& r : rounds) {
    recovered = recovered && r.recovered_identical &&
                prefix_equal(r.image_crcs, first.image_crcs);
    verdicts = verdicts && prefix_equal(r.verdict_crcs, first.verdict_crcs);
  }
  run.Check("solves_identical", solves.identical,
            Format("%zu solves", solves.count));
  run.Check("recovered_image_identical", recovered,
            Format("epoch %llu",
                   static_cast<unsigned long long>(first.image.epoch)));
  run.Check("admission_verdicts_stable", verdicts,
            Format("%zu rounds", rounds.size()));
  run.Check("no_failed_operations", run.failed == 0,
            Format("%llu failed", static_cast<unsigned long long>(run.failed)));
}

/// Independent oracle for the solve, run when its cover does not match
/// the pin.
void CoverOracle(Run& run, const Inputs& in,
                 const std::vector<VertexId>& cover) {
  CoverOptions options;
  options.k = kHop;
  const VerifyReport rep = VerifyCover(in.solve, cover, options,
                                       /*check_minimality=*/true);
  run.Check("oracle_solve_cover", rep.feasible && rep.minimal,
            rep.ToString());
}

/// Independent oracles for the service, run when its outputs do not match
/// the pins.
void ServiceOracles(Run& run, const Inputs& in, const Round& round) {
  CoverOptions options;
  options.k = kHop;
  {
    // The service's transversal is its base cover vertices plus the
    // covered edges S: dropping S from everything ingested must leave a
    // graph the vertices alone cover.
    const TransversalImage& image = round.image;
    std::unordered_set<uint64_t> covered;
    for (const TransversalImage::EdgeEntry& e : image.covered) {
      covered.insert(uint64_t{e.src} << 32 | e.dst);
    }
    std::vector<Edge> edges;
    edges.reserve(in.base.size() + in.stream.size());
    for (const auto* part : {&in.base, &in.stream}) {
      for (const Edge& e : *part) {
        if (covered.count(uint64_t{e.src} << 32 | e.dst) == 0) {
          edges.push_back(e);
        }
      }
    }
    const bool sizes = image.base_edges + image.delta.size() ==
                       in.base.size() + in.stream.size();
    const CsrGraph rest = CsrGraph::FromEdges(in.serve_n, std::move(edges));
    const VerifyReport rep = VerifyCover(rest, image.cover_vertices, options,
                                         /*check_minimality=*/false);
    run.Check("oracle_service_image", sizes && rep.feasible,
              Format("sizes %s; ", sizes ? "ok" : "differ") + rep.ToString());
  }
  {
    // Plain probes on an index- and cache-free copy of the served state.
    const ServiceSnapshot& served = *round.snapshot;
    ServiceSnapshot plain(served.graph, served.cover, served.options);
    plain.epoch = served.epoch;
    PathProber prober(plain.options);
    const std::vector<Edge>& queries = in.query_passes.front();
    size_t mismatches = 0;
    for (size_t i = 0; i < queries.size(); ++i) {
      const AdmissionVerdict v =
          CheckAdmissionOn(plain, queries[i].src, queries[i].dst, &prober);
      if ((v.would_close ? 1 : 0) != round.verdicts[i]) ++mismatches;
    }
    run.Check("oracle_admission_sample", mismatches == 0,
              Format("%zu of %zu verdicts differ", mismatches, queries.size()));
  }
}

// ----------------------------------------------------------------- metrics

/// The benchmark's metrics from the untraced slices. run.py reports the
/// ones BENCHMARK.json lists; self times come from the trace there.
void AddMetrics(Run& run, const Samples& s, const Solves& solves,
                const Round& first, const std::vector<double>& setup_s,
                const std::vector<double>& generate_s,
                const GraphShape& shape, double peak_rss_mb) {
  auto& m = run.metrics;
  m["setup_s"] = Median(setup_s);
  m["solve_s"] = Median(s.seq_s);
  m["cover_size"] = static_cast<double>(solves.cover.size());
  m["peak_rss_mb"] = peak_rss_mb;
  m["ingest_eps"] = Median(s.ingest_eps);
  m["submit_p50_ms"] = Percentile(s.submit_s, 0.50) * 1e3;
  m["submit_compact_ms"] = Median(s.compact_s) * 1e3;
  // Open-loop percentiles are the median of the per-slice percentiles, so
  // that one stalled stretch of the host cannot dominate.
  m["admit_p75_us"] = Median(s.slice_p75_s) * 1e6;
  m["recover_s"] = Median(s.open_s);
  m["admit_qps"] = s.admit_qps();

  m["graph.generate_s"] = Median(generate_s);
  m["graph.condense_s"] = shape.condense_s;
  m["graph.components"] = static_cast<double>(shape.components);
  m["graph.largest_scc_frac"] = shape.largest_frac;
  const CoverStats s1 = solves.seq_stats.value_or(CoverStats{});
  const auto num = [](uint64_t v) { return static_cast<double>(v); };
  m["search.searches"] = num(s1.searches);
  m["search.expansions"] = num(s1.expansions);
  m["search.block_prunes"] = num(s1.block_prunes);
  m["search.bfs_filtered"] = num(s1.bfs_filtered);
  m["search.filter_ratio"] =
      Ratio(num(s1.bfs_filtered), num(s1.bfs_filtered + s1.searches));
  m["submit.p95_ms"] = Percentile(s.submit_s, 0.95) * 1e3;
  const ServiceStatsSnapshot& si = first.ingest;
  m["service.path_queries"] = num(si.path_queries);
  m["service.speculative_probes"] = num(si.speculative_probes);
  m["service.cycles_covered"] = num(si.cycles_covered);
  m["service.prunes"] = num(si.prunes);
  m["service.index_builds"] = num(si.index_builds);
  m["service.index_build_s"] = si.index_build_seconds;
  m["service.epochs_published"] = num(si.epochs_published);
  m["service.compactions"] = num(si.compactions);
  m["service.journal_records"] = num(si.journal_records);
  m["service.base_bytes"] = num(si.base_bytes);
  m["recovery.replayed_batches"] = num(first.replayed_batches);
  const ServiceStatsSnapshot& sa = first.admit;
  m["service.admission_queries"] = num(sa.admission_queries);
  m["service.would_close"] = num(sa.admission_would_close);
  m["service.index_hit_rate"] =
      Ratio(num(sa.index_hits), num(sa.index_hits + sa.index_fallbacks));
  m["service.cache_hit_rate"] =
      Ratio(num(sa.admission_cache_hits),
            num(sa.admission_cache_hits + sa.admission_cache_misses));
  m["service.probe_frac"] =
      Ratio(num(sa.index_fallbacks), num(sa.admission_queries));
  m["admit.p50_us"] = Percentile(s.latency_s, 0.50) * 1e6;
  m["admit.p90_us"] = Median(s.slice_p90_s) * 1e6;
  m["admit.p99_us"] = Median(s.slice_p99_s) * 1e6;
  m["admit.batch_p50_us"] = Percentile(s.batch_s, 0.50) * 1e6;
  m["admit.batch_p99_us"] = Median(s.pass_p99_s) * 1e6;
  m["admit.open_loop_probe_frac"] =
      Ratio(num(s.probed), static_cast<double>(s.latency_s.size()));
  m["admit.gen_lag_p99_us"] = Percentile(s.lag_s, 0.99) * 1e6;
  m["admit.window_p99_max_us"] =
      s.slice_p99_s.empty()
          ? 0.0
          : *std::max_element(s.slice_p99_s.begin(), s.slice_p99_s.end()) *
                1e6;
  m["admit.open_loop_queries"] = static_cast<double>(s.latency_s.size());
  m["admit.mixed_cache_hits"] = num(si.admission_cache_hits);
}

/// Runs one more round with tracing on, its slices also solving at
/// par_threads; writes the Chrome trace and adds the tracing and parallel
/// solve metrics (after AddMetrics, whose untraced numbers the overhead
/// compares against). Admission calls get no spans: at these rates they
/// would overflow the per-thread rings, so counters cover them.
void TracedRound(Run& run, const Inputs& in, Solves* solves,
                 const std::string& path) {
  trace::Reset();
  trace::SetEnabled(true);
  TimedCondense(in.solve);
  const ServiceOptions options = ServeOptions(run.NewStore());
  std::unique_ptr<CycleBreakService> service = TimedCreate(run, in, options);
  Round round;
  Samples traced;
  while (service != nullptr && !round.complete()) {
    RunSlice(run, in, options, /*with_parallel=*/true, &service, &round,
             solves, &traced);
  }
  service.reset();
  trace::SetEnabled(false);
  run.Check("traced_round_ok",
            round.complete() && solves->identical && run.failed == 0);
  auto& m = run.metrics;
  m["trace.total_spans"] = static_cast<double>(trace::TotalSpanCount());
  const Status st = trace::WriteChromeTrace(path);
  run.Check("trace_written", st.ok(), st.ToString());
  // The same three quantities, traced and untraced.
  const double traced_s = Median(traced.seq_s) +
                          Ratio(kStreamEdges, Median(traced.ingest_eps)) +
                          Ratio(kAdmitQueries, traced.admit_qps());
  const double untraced_s = m.at("solve_s") +
                            Ratio(kStreamEdges, m.at("ingest_eps")) +
                            Ratio(kAdmitQueries, m.at("admit_qps"));
  m["trace.overhead_frac"] = Ratio(traced_s, untraced_s) - 1.0;

  m["solve.par_s"] = Median(traced.par_s);
  const CoverStats s1 = solves->seq_stats.value_or(CoverStats{});
  const CoverStats sp = solves->par_stats.value_or(CoverStats{});
  const auto num = [](uint64_t v) { return static_cast<double>(v); };
  m["core.intra_probes"] = num(sp.intra_probes);
  m["core.intra_restarts"] = num(sp.intra_restarts);
  m["core.restart_ratio"] = Ratio(num(sp.intra_restarts), num(sp.intra_probes));
  m["core.par_expansion_ratio"] = Ratio(num(sp.expansions), num(s1.expansions));
}

// ------------------------------------------------------------------- json

std::string Escaped(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out.push_back(' ');
    } else {
      out.push_back(c);
    }
  }
  return out;
}

std::string Compiler() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

bool WriteJson(const std::string& path, const Run& run,
               const std::string& inputs, const std::string& outputs,
               bool oracle_ran) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
#ifdef NDEBUG
  const char* build_type = "Release";
#else
  const char* build_type = "Debug";
#endif
  std::fprintf(f, "{\"workload\": \"%s\", \"seed\": %llu,\n",
               run.workload->name, static_cast<unsigned long long>(run.seed));
  std::fprintf(f,
               " \"host\": {\"nproc\": %u, \"par_threads\": %d, "
               "\"build_type\": \"%s\", \"compiler\": \"%s\"},\n",
               std::thread::hardware_concurrency(), run.par_threads,
               build_type, Escaped(Compiler()).c_str());
  std::fprintf(f, " \"inputs\": \"%s\",\n \"outputs\": \"%s\",\n",
               Escaped(inputs).c_str(), Escaped(outputs).c_str());
  std::fprintf(f, " \"oracle\": %s,\n", oracle_ran ? "true" : "false");
  std::fprintf(f, " \"attempted\": %llu, \"failed\": %llu,\n",
               static_cast<unsigned long long>(run.attempted),
               static_cast<unsigned long long>(run.failed));
  std::fprintf(f, " \"checks\": [");
  for (size_t i = 0; i < run.checks.size(); ++i) {
    const CheckResult& c = run.checks[i];
    std::fprintf(f, "%s\n  {\"name\": \"%s\", \"ok\": %s, \"detail\": \"%s\"}",
                 i == 0 ? "" : ",", Escaped(c.name).c_str(),
                 c.ok ? "true" : "false", Escaped(c.detail).c_str());
  }
  std::fprintf(f, "],\n \"metrics\": {");
  bool first = true;
  for (const auto& [name, value] : run.metrics) {
    std::fprintf(f, "%s\n  \"%s\": %.17g", first ? "" : ",", name.c_str(),
                 value);
    first = false;
  }
  std::fprintf(f, "}}\n");
  return std::fclose(f) == 0;
}

// ------------------------------------------------------------------- main

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20;
  std::string json;
  std::string work_dir;
  std::string trace;
  std::string expect_solve;
  std::string expect_inputs;
  std::string expect_outputs;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty() || value[0] == '-') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args->seconds > 0)) return false;
    } else if (flag == "--json") {
      args->json = value;
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else if (flag == "--trace") {
      args->trace = value;
    } else if (flag == "--expect-solve") {
      args->expect_solve = value;
    } else if (flag == "--expect-inputs") {
      args->expect_inputs = value;
    } else if (flag == "--expect-outputs") {
      args->expect_outputs = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && !args->json.empty() &&
         !args->work_dir.empty();
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: bench_e2e --workload NAME --seed S --seconds T "
                 "--json FILE --work-dir DIR [--trace FILE] "
                 "[--expect-solve STR] [--expect-inputs STR] "
                 "[--expect-outputs STR]\n");
    return 2;
  }
  Run run;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) run.workload = &w;
  }
  if (run.workload == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  run.seed = args.seed;
  run.seconds = args.seconds;
  run.work_dir = args.work_dir;
  run.par_threads = static_cast<int>(
      std::clamp(std::thread::hardware_concurrency(), 1u, kParThreads));
  std::filesystem::create_directories(run.work_dir);

  // Setup, kSetups times: inputs from the seed, then the serving base and
  // a durable Create. The last service serves the first round.
  std::vector<double> setup_s;
  std::vector<double> generate_s;
  Inputs in;
  ServiceOptions options;
  std::unique_ptr<CycleBreakService> service;
  for (int i = 0; i < kSetups; ++i) {
    service.reset();
    in = Inputs{};
    if (!options.data_dir.empty()) {
      std::filesystem::remove_all(options.data_dir);
    }
    options = ServeOptions(run.NewStore());
    const auto start = Clock::now();
    in = Generate(*run.workload, run.seed);
    generate_s.push_back(Since(start));
    service = TimedCreate(run, in, options);
    setup_s.push_back(Since(start));
    if (service == nullptr) break;
  }
  // The solve input does not depend on the seed, so its pin (and that of
  // its cover) holds for every seed; the other pins hold for the pinned
  // seed only.
  const std::string inputs = InputsDigest(in);
  const std::string solve_input = SolveInputDigest(in.solve);
  if (!args.expect_solve.empty()) {
    const std::string pinned =
        args.expect_solve.substr(0, args.expect_solve.find(';'));
    run.Check("solve_input_matches_pinned", solve_input == pinned,
              "pinned " + pinned);
  }
  if (!args.expect_inputs.empty()) {
    run.Check("inputs_match_pinned", inputs == args.expect_inputs,
              "pinned " + args.expect_inputs);
  }
  if (service == nullptr || !run.AllOk()) {
    WriteJson(args.json, run, inputs, "", false);
    return 1;
  }

  ResetPeakRss();
  const GraphShape shape = TimedCondense(in.solve);
  Samples samples;
  Solves solves;
  // Whole rounds only, as many as best fill --seconds (at least one): the
  // served graph grows over a round, and with it what a slice's ingest,
  // recovery and admission cost, so every run must weigh each slice of a
  // round alike.
  std::vector<Round> rounds(1);
  const auto measure_start = Clock::now();
  auto round_start = measure_start;
  while (service != nullptr) {
    RunSlice(run, in, options, /*with_parallel=*/false, &service,
             &rounds.back(), &solves, &samples);
    if (service == nullptr || !rounds.back().complete()) continue;
    if (Since(measure_start) + 0.5 * Since(round_start) >= run.seconds) {
      break;
    }
    service.reset();
    std::filesystem::remove_all(options.data_dir);
    options = ServeOptions(run.NewStore());
    round_start = Clock::now();
    service = TimedCreate(run, in, options);
    rounds.emplace_back();
  }
  service.reset();
  const double peak_rss_mb = PeakRssMb();
  const Round& first = rounds.front();
  if (!first.complete()) {
    run.Check("first_round_complete", false,
              Format("%zu of %zu slices", first.slices, kSlices));
    WriteJson(args.json, run, inputs, "", false);
    return 1;
  }

  CheckRounds(run, rounds, solves);
  CheckCoversAgree(run);
  const uint64_t would_close = static_cast<uint64_t>(
      std::count(first.verdicts.begin(), first.verdicts.end(), 1));
  const std::string cover = CoverDigest(solves.cover);
  const std::string outputs =
      cover +
      Format(";image=epoch:%llu,compactions:%llu,crc:%08x;"
             "verdicts=would_close:%llu,crc:%08x",
             static_cast<unsigned long long>(first.image.epoch),
             static_cast<unsigned long long>(first.ingest.compactions),
             CrcImage(first.image),
             static_cast<unsigned long long>(would_close),
             Crc32cOf(first.verdicts.data(), first.verdicts.size()));
  const bool outputs_pinned = outputs == args.expect_outputs;
  const bool cover_pinned =
      outputs_pinned || solve_input + ";" + cover == args.expect_solve;
  if (!cover_pinned) CoverOracle(run, in, solves.cover);
  if (!outputs_pinned) ServiceOracles(run, in, first);

  AddMetrics(run, samples, solves, first, setup_s, generate_s, shape,
             peak_rss_mb);
  rounds.clear();
  if (!args.trace.empty()) TracedRound(run, in, &solves, args.trace);

  std::error_code ec;
  std::filesystem::remove_all(run.work_dir, ec);
  if (!WriteJson(args.json, run, inputs, outputs, !outputs_pinned)) {
    std::fprintf(stderr, "cannot write %s\n", args.json.c_str());
    return 1;
  }
  return run.AllOk() ? 0 : 1;
}
