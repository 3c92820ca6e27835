#include "service/cycle_break_service.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <numeric>
#include <utility>
#include <vector>

#include "core/solver.h"
#include "util/check.h"
#include "util/trace.h"

namespace tdb {

namespace {

constexpr auto kRelaxed = std::memory_order_relaxed;

using Clock = std::chrono::steady_clock;

/// Adds the nanoseconds elapsed since `start` to a phase counter.
void AddNanosSince(Clock::time_point start, std::atomic<uint64_t>* counter) {
  const auto elapsed = std::chrono::duration_cast<std::chrono::nanoseconds>(
      Clock::now() - start);
  counter->fetch_add(static_cast<uint64_t>(elapsed.count()), kRelaxed);
}

/// File names are keyed by the cut sequence so every generation is
/// unique within a store directory and self-describing in a listing.
std::string SnapshotFileName(uint64_t cut_seq) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "snapshot-%020" PRIu64 ".tdbs", cut_seq);
  return buf;
}

std::string JournalFileName(uint64_t cut_seq) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "journal-%020" PRIu64 ".tdbj", cut_seq);
  return buf;
}

}  // namespace

Status ServiceOptions::Validate() const {
  Status st = cover.Validate();
  if (!st.ok()) return st;
  if (cover.unconstrained) {
    return Status::InvalidArgument(
        "the service maintains hop-constrained covers only");
  }
  return Status::OK();
}

CycleBreakService::CycleBreakService(const ServiceOptions& options)
    : options_(options),
      working_(std::make_shared<const CsrGraph>(CsrGraph())) {
  TDB_CHECK(options_.Validate().ok());
}

CycleBreakService::CycleBreakService(CsrGraph base,
                                     const ServiceOptions& options)
    : CycleBreakService(options) {
  // Persistence setup can fail; a constructor cannot report that. The
  // factories route around this — direct construction is in-memory only.
  TDB_CHECK(options_.data_dir.empty());
  BootstrapFresh(std::move(base));
}

void CycleBreakService::BootstrapFresh(CsrGraph base) {
  working_ = OverlayGraph(std::make_shared<const CsrGraph>(std::move(base)));
  const VertexId n = working_.num_vertices();
  CoverResult solved = SolveBase(working_.base());
  std::vector<VertexId> cover = std::move(solved.cover);
  if (!solved.status.ok()) {
    // Always-valid service: fall back to the trivially feasible
    // all-vertices cover and record the failure.
    cover.resize(n);
    std::iota(cover.begin(), cover.end(), VertexId{0});
    stats_.compactions_failed.fetch_add(1, kRelaxed);
  }
  state_.base =
      BaseCover::FromVertexCover(n, std::move(cover), solved.status);
  stats_.compaction_components_timed_out.fetch_add(
      solved.stats.components_timed_out, kRelaxed);
  std::lock_guard<std::mutex> lock(writer_mu_);
  StampBaseBytesLocked();
  PublishLocked();
}

void CycleBreakService::StampBaseBytesLocked() const {
  stats_.base_bytes.store(working_.base().memory_bytes(), kRelaxed);
}

Status CycleBreakService::Create(CsrGraph base,
                                 const ServiceOptions& options,
                                 std::unique_ptr<CycleBreakService>* out) {
  Status st = options.Validate();
  if (!st.ok()) return st;
  std::unique_ptr<CycleBreakService> service(new CycleBreakService(options));
  service->BootstrapFresh(std::move(base));
  if (!options.data_dir.empty()) {
    st = service->InitStoreFresh();
    if (!st.ok()) return st;
  }
  *out = std::move(service);
  return Status::OK();
}

Status CycleBreakService::Open(const ServiceOptions& options,
                               std::unique_ptr<CycleBreakService>* out) {
  Status st = options.Validate();
  if (!st.ok()) return st;
  if (options.data_dir.empty()) {
    return Status::InvalidArgument("Open requires options.data_dir");
  }
  StoreManifest manifest;
  st = ReadStoreManifest(options.data_dir, &manifest);
  if (!st.ok()) return st;
  SnapshotState snap;
  st = ReadSnapshotFile(options.data_dir + "/" + manifest.snapshot_file,
                        &snap);
  if (!st.ok()) return st;
  std::unique_ptr<CycleBreakService> service(new CycleBreakService(options));
  st = service->RecoverFromStore(manifest, std::move(snap));
  if (!st.ok()) return st;
  *out = std::move(service);
  return Status::OK();
}

Status CycleBreakService::InitStoreFresh() {
  const std::string& dir = options_.data_dir;
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::IOError(dir + ": cannot create store directory");
  }
  StoreManifest existing;
  const Status probe = ReadStoreManifest(dir, &existing);
  if (probe.ok()) {
    return Status::InvalidArgument(
        dir + ": store already exists (recover it with Open)");
  }
  if (!probe.IsNotFound()) {
    // A damaged manifest is still evidence of a store — reinitializing
    // would clobber snapshot/journal files that may well be recoverable
    // by hand. Only a genuinely absent manifest means "fresh directory".
    return probe;
  }
  std::lock_guard<std::mutex> lock(writer_mu_);
  SnapshotState snap;
  snap.epoch = published_.epoch();  // 1: the bootstrap publish
  snap.last_seq = 0;
  snap.events_ingested = 0;
  snap.base = working_.shared_base();
  snap.cover = state_.base;
  const std::string snapshot_file = SnapshotFileName(0);
  Status st = WriteSnapshotFile(snap, dir + "/" + snapshot_file);
  if (!st.ok()) return st;
  const std::string journal_file = JournalFileName(0);
  std::unique_ptr<Journal> journal;
  st = Journal::Create(dir + "/" + journal_file, /*base_seq=*/0,
                       options_.durability, /*tail=*/{}, &journal);
  if (!st.ok()) return st;
  journal_ = std::move(journal);
  st = WriteStoreManifest(dir, {snapshot_file, journal_file});
  if (!st.ok()) return st;
  snapshot_file_ = snapshot_file;
  stats_.snapshots_written.fetch_add(1, kRelaxed);
  return Status::OK();
}

Status CycleBreakService::RecoverFromStore(const StoreManifest& manifest,
                                           SnapshotState snap) {
  const std::string& dir = options_.data_dir;
  if (snap.epoch == 0) {
    return Status::InvalidArgument(dir + ": snapshot carries epoch 0");
  }
  std::vector<JournalRecord> records;
  JournalOpenInfo info;
  std::unique_ptr<Journal> journal;
  Status st = Journal::Open(dir + "/" + manifest.journal_file,
                            options_.durability, &records, &info,
                            &journal);
  if (!st.ok()) return st;
  journal_ = std::move(journal);
  if (journal_->base_seq() != snap.last_seq) {
    return Status::InvalidArgument(
        dir + ": journal base sequence does not match the snapshot");
  }
  snapshot_file_ = manifest.snapshot_file;
  recovery_.snapshot_epoch = snap.epoch;
  recovery_.journal_truncated_bytes = info.truncated_bytes;

  std::lock_guard<std::mutex> lock(writer_mu_);
  working_ = OverlayGraph(std::move(snap.base));
  StampBaseBytesLocked();
  state_ = TransversalState{};
  state_.base = std::move(snap.cover);
  for (const EdgeId e : snap.covered) {
    state_.covered.insert(working_.EdgeSrc(e), e);
  }
  state_.reusable.insert(snap.reusable.begin(), snap.reusable.end());
  last_seq_ = snap.last_seq;
  events_at_cut_ = snap.events_ingested;
  total_events_.store(snap.events_ingested, kRelaxed);

  // Replay the journal tail through the normal ingest path. Compactions
  // re-trigger at the same batch boundaries (forced synchronous), so the
  // replayed state sequence is bit-identical to a never-crashed
  // sequential run of the same batches — but nothing is re-journaled and
  // no snapshot is cut: until the next live compaction, the durable
  // truth stays "this snapshot + this journal", which replays to exactly
  // the state being built here. No reader can pin a state before Open
  // returns, so replay publishes nothing; the one publish after it lands
  // at the epoch a live run reached (the snapshot's, plus one per
  // replayed batch).
  replaying_ = true;
  for (const JournalRecord& record : records) {
    SubmitLocked(record.edges);
    ++recovery_.replayed_batches;
    recovery_.replayed_events += record.edges.size();
  }
  replaying_ = false;
  published_.SeedEpoch(snap.epoch - 1 + records.size());
  PublishLocked();
  return Status::OK();
}

CycleBreakService::~CycleBreakService() { WaitForCompaction(); }

SubmitResult CycleBreakService::SubmitEdges(std::span<const Edge> batch) {
  std::lock_guard<std::mutex> lock(writer_mu_);
  return SubmitLocked(batch);
}

SubmitResult CycleBreakService::SubmitLocked(std::span<const Edge> batch) {
  TDB_TRACE_SPAN("service.submit");
  SubmitResult result;
  const uint64_t seq = last_seq_ + 1;
  if (journal_ != nullptr && !replaying_) {
    // WAL discipline: the batch becomes durable before it is applied, so
    // a crash at any later point replays it instead of losing it. On
    // append failure nothing is applied — the journal must never lag the
    // live state.
    result.status = journal_->Append(seq, batch);
    if (!result.status.ok()) {
      stats_.persist_failures.fetch_add(1, kRelaxed);
      return result;
    }
    stats_.journal_records.fetch_add(1, kRelaxed);
  }
  last_seq_ = seq;
  total_events_.fetch_add(batch.size(), kRelaxed);
  if (journal_ != nullptr || options_.compact_delta_threshold > 0) {
    pending_.push_back(PendingBatch{
        seq, total_events_.load(kRelaxed),
        std::vector<Edge>(batch.begin(), batch.end())});
  }
  const BatchAugmentStats s = AugmentLocked(batch);
  stats_.batches.fetch_add(1, kRelaxed);
  stats_.edges_submitted.fetch_add(s.submitted, kRelaxed);
  stats_.edges_inserted.fetch_add(s.inserted, kRelaxed);
  stats_.edges_rejected.fetch_add(s.rejected, kRelaxed);
  stats_.cycles_covered.fetch_add(s.cycles_covered, kRelaxed);
  stats_.path_queries.fetch_add(s.path_queries, kRelaxed);
  stats_.probe_dfs.fetch_add(s.probe_dfs, kRelaxed);
  stats_.prunes.fetch_add(s.prunes, kRelaxed);
  if (ShouldCompactLocked()) CompactLocked();
  result.stats = s;
  // Recovery publishes once, after the whole replay.
  if (!replaying_) result.epoch = PublishLocked();
  return result;
}

AdmissionVerdict CycleBreakService::CheckAdmission(VertexId u,
                                                   VertexId v) const {
  // A thin wrapper over a batch of one: single and batched admission
  // share CheckAdmissionBatch's evaluation path (prechecks, probe,
  // stats), so the two call shapes cannot drift.
  const Edge one{u, v};
  return CheckAdmissionBatch(std::span<const Edge>(&one, 1)).front();
}

std::vector<AdmissionVerdict> CycleBreakService::CheckAdmissionBatch(
    std::span<const Edge> queries) const {
  const auto pinned = published_.Load();
  const ServiceSnapshot& snapshot = *pinned.state;
  // Per-reader-thread probe scratch, warm after the first call.
  static thread_local SearchContext ctx;
  PathProber prober(snapshot.options, &ctx);
  std::vector<AdmissionVerdict> verdicts;
  CheckAdmissionBatchOn(snapshot, queries, &prober, &verdicts);
  const uint64_t would_close = static_cast<uint64_t>(std::count_if(
      verdicts.begin(), verdicts.end(),
      [](const AdmissionVerdict& v) { return v.would_close; }));
  stats_.admission_queries.fetch_add(queries.size(), kRelaxed);
  stats_.admission_batches.fetch_add(1, kRelaxed);
  stats_.admission_probes.fetch_add(prober.queries(), kRelaxed);
  stats_.admission_probe_dfs.fetch_add(prober.dfs_runs(), kRelaxed);
  stats_.admission_would_close.fetch_add(would_close, kRelaxed);
  return verdicts;
}

std::shared_ptr<const ServiceSnapshot> CycleBreakService::PinSnapshot()
    const {
  return published_.Load().state;
}

VertexId CycleBreakService::universe() const {
  return published_.Load().state->graph.num_vertices();
}

uint64_t CycleBreakService::delta_edges() const {
  return published_.Load().state->graph.delta_edges();
}

TransversalImage CycleBreakService::Image() const {
  return MakeTransversalImage(*published_.Load().state);
}

void CycleBreakService::WaitForCompaction() {
  std::lock_guard<std::mutex> lock(compact_mu_);
  if (compact_thread_.joinable()) compact_thread_.join();
}

BatchAugmentStats CycleBreakService::AugmentLocked(
    std::span<const Edge> batch) {
  const Clock::time_point start = Clock::now();
  const BatchAugmentStats s =
      BatchAugment(&working_, &state_, options_.cover, batch, &ingest_ctx_);
  AddNanosSince(start, &stats_.augment_nanoseconds);
  return s;
}

uint64_t CycleBreakService::PublishLocked() {
  TDB_TRACE_SPAN("service.publish");
  const Clock::time_point start = Clock::now();
  auto snapshot = std::make_shared<ServiceSnapshot>(working_, state_,
                                                    options_.cover);
  // writer_mu_ serializes every Store, so the pre-stamped epoch and the
  // one EpochPtr assigns must agree; the check pins that invariant.
  const uint64_t next_epoch = published_.epoch() + 1;
  snapshot->epoch = next_epoch;
  const uint64_t epoch = published_.Store(std::move(snapshot));
  TDB_CHECK(epoch == next_epoch);
  stats_.epochs_published.fetch_add(1, kRelaxed);
  AddNanosSince(start, &stats_.publish_nanoseconds);
  return epoch;
}

bool CycleBreakService::ShouldCompactLocked() const {
  return options_.compact_delta_threshold > 0 &&
         working_.delta_edges() >= options_.compact_delta_threshold &&
         !compact_running_.load(std::memory_order_acquire);
}

void CycleBreakService::CompactLocked() {
  const uint64_t cut_seq = last_seq_;
  auto solve_input = [this](const OverlayGraph& frozen,
                            CoverResult* solved) -> OverlayGraph {
    TDB_TRACE_SPAN("service.compact_solve");
    auto input = std::make_shared<const CsrGraph>(frozen.ToCsr());
    *solved = SolveBase(*input);
    return OverlayGraph(std::move(input));
  };
  if (options_.synchronous_compaction || replaying_) {
    CoverResult solved;
    OverlayGraph fresh = solve_input(working_, &solved);
    InstallCompactionLocked(std::move(fresh), cut_seq, std::move(solved));
    return;  // the caller's publish covers the swap
  }
  compact_running_.store(true, std::memory_order_release);
  std::lock_guard<std::mutex> lock(compact_mu_);
  // A previous compaction thread can only be joinable here if it already
  // finished (compact_running_ was false), so this join is immediate.
  if (compact_thread_.joinable()) compact_thread_.join();
  // Under writer_mu_ only an O(1) view of the overlay is taken (the
  // writer keeps appending past its length); the O(n + m) base
  // materialization and the solve run on the compaction thread.
  compact_thread_ = std::thread([this, cut_seq, solve_input,
                                 frozen = working_] {
    CoverResult solved;
    OverlayGraph fresh = solve_input(frozen, &solved);  // no locks held
    {
      std::lock_guard<std::mutex> writer_lock(writer_mu_);
      InstallCompactionLocked(std::move(fresh), cut_seq, std::move(solved));
      PublishLocked();
    }
    compact_running_.store(false, std::memory_order_release);
  });
}

void CycleBreakService::InstallCompactionLocked(OverlayGraph base,
                                                uint64_t cut_seq,
                                                CoverResult solved) {
  TDB_TRACE_SPAN("service.compact_install");
  const VertexId n = base.num_vertices();
  std::vector<VertexId> cover = std::move(solved.cover);
  if (!solved.status.ok()) {
    cover.resize(n);
    std::iota(cover.begin(), cover.end(), VertexId{0});
    stats_.compactions_failed.fetch_add(1, kRelaxed);
  }
  working_ = std::move(base);
  StampBaseBytesLocked();
  state_ = TransversalState{};
  state_.base = BaseCover::FromVertexCover(n, std::move(cover),
                                           solved.status);
  // Batches up to the cut are folded into the new base; no install or
  // rotation will ever need them again. This also advances
  // events_at_cut_ to the cut, which the snapshot writer records as the
  // stream-resume offset.
  while (!pending_.empty() && pending_.front().seq <= cut_seq) {
    events_at_cut_ = pending_.front().events_after;
    pending_.pop_front();
  }
  // Durable cut: the snapshot captures exactly this state (everything
  // through cut_seq folded into the base, empty incremental layer), and
  // the rotated journal re-appends the post-cut tail (= all of
  // pending_). During recovery replay the old (snapshot, journal) pair
  // is already the durable truth for everything being rebuilt, so
  // nothing is written.
  if (journal_ != nullptr && !replaying_) PersistCutLocked(cut_seq);
  // Edges that arrived after the compaction cut are replayed against the
  // fresh base — batch by batch, at the original submission boundaries,
  // so the installed state is bit-identical to what a restart would
  // rebuild by replaying the rotated journal onto the new snapshot (and
  // to a never-crashed sequential run). This also restores the invariant
  // for cycles mixing pre- and post-cut edges: the new vertex cover only
  // accounts for pre-cut ones.
  for (const PendingBatch& b : pending_) {
    const BatchAugmentStats replay = AugmentLocked(b.edges);
    // Replayed edges were already counted at their original submission;
    // only the fresh search work is new.
    stats_.cycles_covered.fetch_add(replay.cycles_covered, kRelaxed);
    stats_.path_queries.fetch_add(replay.path_queries, kRelaxed);
    stats_.probe_dfs.fetch_add(replay.probe_dfs, kRelaxed);
    stats_.prunes.fetch_add(replay.prunes, kRelaxed);
  }
  stats_.compactions.fetch_add(1, kRelaxed);
  stats_.compaction_components_timed_out.fetch_add(
      solved.stats.components_timed_out, kRelaxed);
}

void CycleBreakService::PersistCutLocked(uint64_t cut_seq) {
  TDB_TRACE_SPAN("service.persist_cut");
  const std::string& dir = options_.data_dir;
  const std::string snapshot_file = SnapshotFileName(cut_seq);
  const std::string snapshot_path = dir + "/" + snapshot_file;
  const std::string journal_file = JournalFileName(cut_seq);
  const std::string journal_path = dir + "/" + journal_file;
  // On any failure the old (snapshot, journal) pair stays live in the
  // manifest — and the half-built new generation is removed so repeated
  // transient failures do not accumulate orphaned base-sized files.
  auto fail = [&](bool remove_snapshot, bool remove_journal) {
    if (remove_journal) std::remove(journal_path.c_str());
    if (remove_snapshot) std::remove(snapshot_path.c_str());
    stats_.persist_failures.fetch_add(1, kRelaxed);
  };
  SnapshotState snap;
  // Recovery publishes at snap.epoch plus one per replayed journal batch.
  // The installing publish comes next (epoch + 1), and the tail batches
  // re-appended below (pending_) were already published before it, so
  // the stamp leaves them out: recovery then lands at the epoch this
  // process reaches. A synchronous compaction has an empty tail.
  snap.epoch = published_.epoch() + 1 - pending_.size();
  snap.last_seq = cut_seq;
  snap.events_ingested = events_at_cut_;  // maintained by the drop loop
  snap.base = working_.shared_base();
  snap.cover = state_.base;
  Status st = WriteSnapshotFile(snap, snapshot_path);
  if (!st.ok()) {
    fail(/*remove_snapshot=*/false, /*remove_journal=*/false);
    return;
  }
  // Fresh journal for the post-cut era, seeded with the tail batches the
  // new snapshot does not cover (they were durable in the old journal;
  // rotation must not orphan them). The drop loop already removed
  // everything <= cut_seq, so pending_ is exactly that tail, and Create
  // makes it durable with one fsync whatever the policy.
  std::vector<std::span<const Edge>> tail;
  tail.reserve(pending_.size());
  for (const PendingBatch& b : pending_) tail.emplace_back(b.edges);
  std::unique_ptr<Journal> fresh;
  st = Journal::Create(journal_path, cut_seq, options_.durability, tail,
                       &fresh);
  if (!st.ok()) {
    fail(/*remove_snapshot=*/true, /*remove_journal=*/true);
    return;
  }
  // Commit point: after this rename a recovery uses the new pair; before
  // it, the old pair (which still replays to the same state) stays live.
  st = WriteStoreManifest(dir, {snapshot_file, journal_file});
  if (!st.ok()) {
    fail(/*remove_snapshot=*/true, /*remove_journal=*/true);
    return;
  }
  const std::string old_journal = journal_->path();
  const std::string old_snapshot = dir + "/" + snapshot_file_;
  journal_ = std::move(fresh);
  snapshot_file_ = snapshot_file;
  std::remove(old_journal.c_str());
  std::remove(old_snapshot.c_str());
  stats_.snapshots_written.fetch_add(1, kRelaxed);
  stats_.journal_rotations.fetch_add(1, kRelaxed);
}

CoverResult CycleBreakService::SolveBase(const CsrGraph& graph) const {
  CoverOptions opts = options_.cover;
  opts.time_limit_seconds = options_.compact_time_limit_seconds;
  opts.split_budget_by_work = opts.time_limit_seconds > 0;
  return SolveCycleCover(graph, options_.compact_algorithm, opts);
}

}  // namespace tdb
