// Durable CycleBreakService: snapshot + journal recovery must rebuild a
// state bit-identical to a never-crashed sequential replay — at every
// journal prefix, across compactions (journal rotations), for
// journaled-but-never-applied tail batches, and for a store written by
// concurrent submitters under durability=always; and a rotation under
// durability=always syncs its re-appended tail once.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "graph/generators.h"
#include "service/cycle_break_service.h"
#include "util/rng.h"
#include "util/trace.h"

namespace tdb {
namespace {

std::string FreshDir(const std::string& name) {
  static int counter = 0;
  std::string dir = testing::TempDir() + "tdb_persist_test_" +
                    std::to_string(counter++) + "_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

ServiceOptions BaseOptions() {
  ServiceOptions options;
  options.cover.k = 4;
  options.compact_delta_threshold = 0;
  return options;
}

/// Everything that defines the served state, in comparable form.
struct StateImage {
  uint64_t epoch = 0;
  uint64_t events = 0;
  std::vector<Edge> base_edges;
  std::vector<VertexId> cover;
  std::vector<EdgeId> covered;
  std::vector<EdgeId> reusable;
  std::vector<Edge> delta;

  friend bool operator==(const StateImage&, const StateImage&) = default;
};

StateImage ImageOf(const CycleBreakService& service) {
  const auto snap = service.PinSnapshot();
  StateImage image;
  image.epoch = snap->epoch;
  image.events = service.events_ingested();
  const OverlayGraph& graph = snap->graph;
  for (EdgeId e = 0; e < graph.base_edges(); ++e) {
    image.base_edges.push_back(Edge{graph.EdgeSrc(e), graph.EdgeDst(e)});
  }
  image.cover = snap->cover.base->vertices;
  image.covered.assign(snap->cover.covered.begin(),
                       snap->cover.covered.end());
  image.reusable.assign(snap->cover.reusable.begin(),
                        snap->cover.reusable.end());
  std::sort(image.covered.begin(), image.covered.end());
  std::sort(image.reusable.begin(), image.reusable.end());
  const auto delta = graph.delta();
  image.delta.assign(delta.begin(), delta.end());
  return image;
}

std::vector<std::vector<Edge>> MakeBatches(VertexId n, size_t batches,
                                           size_t batch, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<Edge>> result;
  for (size_t b = 0; b < batches; ++b) {
    std::vector<Edge> edges;
    for (size_t i = 0; i < batch; ++i) {
      VertexId u = static_cast<VertexId>(rng.NextBounded(n));
      VertexId v = static_cast<VertexId>(rng.NextBounded(n));
      edges.push_back(Edge{u, v});  // self-loops/dups exercise rejection
    }
    result.push_back(std::move(edges));
  }
  return result;
}

TEST(PersistenceTest, CreateRejectsExistingStoreAndOpenNeedsOne) {
  const std::string dir = FreshDir("exists");
  ServiceOptions options = BaseOptions();
  options.data_dir = dir;
  std::unique_ptr<CycleBreakService> service;
  ASSERT_TRUE(CycleBreakService::Create(GenerateErdosRenyi(20, 40, 1),
                                        options, &service)
                  .ok());
  service.reset();
  std::unique_ptr<CycleBreakService> second;
  EXPECT_TRUE(CycleBreakService::Create(GenerateErdosRenyi(20, 40, 1),
                                        options, &second)
                  .IsInvalidArgument());
  ServiceOptions missing = BaseOptions();
  missing.data_dir = FreshDir("missing");
  EXPECT_TRUE(CycleBreakService::Open(missing, &second).IsNotFound());
  std::filesystem::remove_all(dir);
}

/// The acceptance-criterion property: reopen at EVERY batch prefix and
/// compare against an uninterrupted in-memory replay of that prefix.
void RunPrefixEquivalence(EdgeId compact_threshold, uint64_t seed) {
  constexpr VertexId kN = 40;
  const auto batches = MakeBatches(kN, 14, 9, seed);
  const CsrGraph base = GenerateErdosRenyi(kN, 120, seed + 1);

  for (size_t prefix = 0; prefix <= batches.size(); ++prefix) {
    // Durable run of the prefix, killed by destruction (clean close; the
    // torn variants live in the journal tests and the CI drill).
    const std::string dir = FreshDir("prefix");
    ServiceOptions durable = BaseOptions();
    durable.data_dir = dir;
    durable.compact_delta_threshold = compact_threshold;
    durable.synchronous_compaction = true;
    std::unique_ptr<CycleBreakService> service;
    ASSERT_TRUE(CycleBreakService::Create(base, durable, &service).ok());
    for (size_t b = 0; b < prefix; ++b) {
      const SubmitResult r = service->SubmitEdges(batches[b]);
      ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    }
    const StateImage before = ImageOf(*service);
    service.reset();

    // Recover and compare against both the pre-close state and a fresh
    // in-memory sequential replay of the same prefix.
    std::unique_ptr<CycleBreakService> recovered;
    ASSERT_TRUE(CycleBreakService::Open(durable, &recovered).ok())
        << "prefix " << prefix;
    EXPECT_EQ(ImageOf(*recovered), before) << "prefix " << prefix;

    ServiceOptions memory = BaseOptions();
    memory.compact_delta_threshold = compact_threshold;
    memory.synchronous_compaction = true;
    CycleBreakService reference(base, memory);
    for (size_t b = 0; b < prefix; ++b) {
      reference.SubmitEdges(batches[b]);
    }
    EXPECT_EQ(ImageOf(*recovered), ImageOf(reference))
        << "prefix " << prefix;

    // Verdicts are a pure function of the state, but compare a sample
    // anyway — it is the contract the serving layer actually exposes.
    Rng rng(99);
    for (int q = 0; q < 50; ++q) {
      const VertexId u = static_cast<VertexId>(rng.NextBounded(kN));
      const VertexId v = static_cast<VertexId>(rng.NextBounded(kN));
      EXPECT_EQ(recovered->CheckAdmission(u, v).would_close,
                reference.CheckAdmission(u, v).would_close);
    }
    recovered.reset();
    std::filesystem::remove_all(dir);
  }
}

TEST(PersistenceTest, EveryPrefixRecoversToSequentialReplay) {
  RunPrefixEquivalence(/*compact_threshold=*/0, /*seed=*/5);
}

TEST(PersistenceTest, EveryPrefixRecoversAcrossCompactions) {
  // Threshold low enough that several compactions (and journal
  // rotations) land inside the prefix sweep.
  RunPrefixEquivalence(/*compact_threshold=*/24, /*seed=*/6);
}

TEST(PersistenceTest, JournaledButUnappliedBatchIsReplayed) {
  // The WAL discipline appends before applying: simulate a crash in that
  // window by appending a record directly to the closed store's journal,
  // then recovering — the batch must be applied exactly as if SubmitEdges
  // had completed.
  const std::string dir = FreshDir("unapplied");
  const CsrGraph base = GenerateErdosRenyi(30, 90, 9);
  const auto batches = MakeBatches(30, 4, 8, 17);
  ServiceOptions durable = BaseOptions();
  durable.data_dir = dir;
  std::unique_ptr<CycleBreakService> service;
  ASSERT_TRUE(CycleBreakService::Create(base, durable, &service).ok());
  for (size_t b = 0; b + 1 < batches.size(); ++b) {
    service->SubmitEdges(batches[b]);
  }
  service.reset();

  StoreManifest manifest;
  ASSERT_TRUE(ReadStoreManifest(dir, &manifest).ok());
  {
    std::vector<JournalRecord> records;
    std::unique_ptr<Journal> journal;
    ASSERT_TRUE(Journal::Open(dir + "/" + manifest.journal_file,
                              DurabilityPolicy::kBatch, &records, nullptr,
                              &journal)
                    .ok());
    ASSERT_TRUE(
        journal->Append(journal->last_seq() + 1, batches.back()).ok());
  }

  std::unique_ptr<CycleBreakService> recovered;
  ASSERT_TRUE(CycleBreakService::Open(durable, &recovered).ok());
  EXPECT_EQ(recovered->recovery_info().replayed_batches, batches.size());

  CycleBreakService reference(base, BaseOptions());
  for (const auto& batch : batches) reference.SubmitEdges(batch);
  EXPECT_EQ(ImageOf(*recovered), ImageOf(reference));
  recovered.reset();
  std::filesystem::remove_all(dir);
}

TEST(PersistenceTest, RecoveryPublishesOnceAtThePreCloseEpoch) {
  // Replay applies the whole journal tail before anything is visible, so
  // Open publishes exactly once — at the epoch the closed process had
  // reached, with the same verdicts.
  constexpr VertexId kN = 40;
  const std::string dir = FreshDir("publish_once");
  const CsrGraph base = GenerateErdosRenyi(kN, 120, 21);
  const auto batches = MakeBatches(kN, 6, 10, 37);
  ServiceOptions durable = BaseOptions();
  durable.data_dir = dir;
  std::unique_ptr<CycleBreakService> service;
  ASSERT_TRUE(CycleBreakService::Create(base, durable, &service).ok());
  for (const auto& batch : batches) service->SubmitEdges(batch);
  const uint64_t closed_epoch = service->epoch();
  service.reset();

  std::unique_ptr<CycleBreakService> recovered;
  ASSERT_TRUE(CycleBreakService::Open(durable, &recovered).ok());
  EXPECT_EQ(recovered->recovery_info().replayed_batches, batches.size());
  EXPECT_EQ(recovered->epoch(), closed_epoch);
  const ServiceStatsSnapshot stats = recovered->Stats();
  EXPECT_EQ(stats.epochs_published, 1u);

  CycleBreakService reference(base, BaseOptions());
  for (const auto& batch : batches) reference.SubmitEdges(batch);
  EXPECT_EQ(ImageOf(*recovered), ImageOf(reference));
  for (VertexId u = 0; u < kN; ++u) {
    for (VertexId v = 0; v < kN; ++v) {
      const AdmissionVerdict got = recovered->CheckAdmission(u, v);
      const AdmissionVerdict want = reference.CheckAdmission(u, v);
      EXPECT_EQ(got.would_close, want.would_close) << u << "->" << v;
      EXPECT_EQ(got.epoch, want.epoch);
    }
  }
  recovered.reset();
  std::filesystem::remove_all(dir);
}

TEST(PersistenceTest, RecoveryAfterBackgroundInstallWithTailKeepsTheEpoch) {
  // A background compaction cuts at the first batch; the batches submitted
  // while it solves are the tail its install replays and the rotated
  // journal re-appends. Recovery replays that tail onto the snapshot and
  // must publish at the epoch the closed process reached, not that epoch
  // plus the tail length.
  constexpr VertexId kN = 3000;
  const std::string dir = FreshDir("background_tail");
  ServiceOptions durable = BaseOptions();
  durable.data_dir = dir;
  durable.compact_delta_threshold = 1;
  // A plain-DFS solve of a few thousand edges keeps the compaction busy
  // far longer than the two submits that form the tail.
  durable.compact_algorithm = CoverAlgorithm::kBur;
  durable.cover.k = 5;
  const auto batches = MakeBatches(kN, 3, 10, /*seed=*/91);
  std::unique_ptr<CycleBreakService> service;
  ASSERT_TRUE(CycleBreakService::Create(GenerateErdosRenyi(kN, 15000, 92),
                                        durable, &service)
                  .ok());
  for (const auto& batch : batches) {
    ASSERT_TRUE(service->SubmitEdges(batch).status.ok());
  }
  // Still uninstalled after the last submit: the tail is not empty.
  ASSERT_EQ(service->Stats().compactions, 0u);
  service->WaitForCompaction();
  ASSERT_EQ(service->Stats().compactions, 1u);
  ASSERT_EQ(service->Stats().journal_rotations, 1u);
  const StateImage before = ImageOf(*service);
  const uint64_t closed_epoch = service->epoch();
  service.reset();

  std::unique_ptr<CycleBreakService> recovered;
  ASSERT_TRUE(CycleBreakService::Open(durable, &recovered).ok());
  ASSERT_GT(recovered->recovery_info().replayed_batches, 0u);
  EXPECT_EQ(recovered->epoch(), closed_epoch);
  // The state is not compared: replay compacts synchronously, so it cuts
  // where the live run's background compaction did not.
  EXPECT_EQ(recovered->events_ingested(), before.events);
  recovered.reset();
  std::filesystem::remove_all(dir);
}

TEST(PersistenceTest, SubmitResultReportsJournalFailure) {
  // Once the journal cannot be appended to (here: its file is replaced
  // by a directory to force the write error), SubmitEdges must refuse to
  // apply the batch — the WAL may never lag the live state.
  const std::string dir = FreshDir("fail");
  ServiceOptions durable = BaseOptions();
  durable.data_dir = dir;
  std::unique_ptr<CycleBreakService> service;
  ASSERT_TRUE(CycleBreakService::Create(GenerateErdosRenyi(20, 60, 3),
                                        durable, &service)
                  .ok());
  const std::vector<Edge> batch = {{0, 1}, {1, 2}};
  ASSERT_TRUE(service->SubmitEdges(batch).status.ok());
  const StateImage before = ImageOf(*service);

  // Sabotage the journal's backing file descriptor by closing the file
  // out from under it is not portable; instead exhaust the record-size
  // limit, which fails validation before any write.
  std::vector<Edge> huge((1u << 26) + 1, Edge{0, 1});
  const SubmitResult r = service->SubmitEdges(huge);
  EXPECT_FALSE(r.status.ok());
  EXPECT_EQ(r.epoch, 0u);
  EXPECT_EQ(ImageOf(*service), before);  // nothing applied
  EXPECT_GE(service->Stats().persist_failures, 1u);
  service.reset();
  std::filesystem::remove_all(dir);
}

TEST(PersistenceTest, ConcurrentSubmittersRecoverBitIdentically) {
  // Under durability=always every submit appends, fsyncs and applies
  // under the writer mutex, so racing submitters serialize into one
  // journal order, and that order is what recovery replays.
  constexpr size_t kThreads = 4;
  constexpr size_t kBatchesPerThread = 6;
  const std::string dir = FreshDir("concurrent");
  const CsrGraph base = GenerateErdosRenyi(40, 120, /*seed=*/61);
  ServiceOptions durable = BaseOptions();
  durable.data_dir = dir;
  durable.durability = DurabilityPolicy::kAlways;
  std::unique_ptr<CycleBreakService> service;
  ASSERT_TRUE(CycleBreakService::Create(base, durable, &service).ok());

  std::atomic<size_t> failures{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const auto batches =
          MakeBatches(40, kBatchesPerThread, 8, /*seed=*/70 + t);
      for (const auto& batch : batches) {
        if (!service->SubmitEdges(batch).status.ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  ASSERT_EQ(failures.load(), 0u);

  const ServiceStatsSnapshot stats = service->Stats();
  EXPECT_EQ(stats.batches, kThreads * kBatchesPerThread);
  const StateImage before = ImageOf(*service);
  service.reset();

  // The journal captured the actual interleaving, so recovery replays it
  // bit-identically even though the interleaving itself was racy.
  std::unique_ptr<CycleBreakService> recovered;
  ASSERT_TRUE(CycleBreakService::Open(durable, &recovered).ok());
  EXPECT_EQ(ImageOf(*recovered), before);
  recovered.reset();
  std::filesystem::remove_all(dir);
}

/// Spans named `name` in the Chrome trace at `path`.
size_t CountSpans(const std::string& path, const std::string& name) {
  std::ifstream in(path);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  const std::string key = "\"" + name + "\"";
  size_t count = 0;
  for (size_t at = text.find(key); at != std::string::npos;
       at = text.find(key, at + 1)) {
    ++count;
  }
  return count;
}

TEST(PersistenceTest, RotationUnderAlwaysSyncsTheTailOnce) {
  // Under durability=always each journaled batch costs one fsync. Store
  // creation adds two (journal header, manifest), and so does a rotation:
  // the new journal's header and re-appended tail share one, the manifest
  // takes the other, however many batches the tail holds.
  const std::string dir = FreshDir("rotation_sync");
  const std::string trace_path = dir + ".trace.json";
  ServiceOptions durable = BaseOptions();
  durable.data_dir = dir;
  durable.durability = DurabilityPolicy::kAlways;
  durable.compact_delta_threshold = 40;
  const auto batches = MakeBatches(40, 60, 8, /*seed=*/83);
  trace::Reset();
  trace::SetEnabled(true);
  std::unique_ptr<CycleBreakService> service;
  ASSERT_TRUE(CycleBreakService::Create(GenerateErdosRenyi(40, 120, 84),
                                        durable, &service)
                  .ok());
  // Submit until a background compaction has installed, so the batches
  // submitted while it solved form the rotated journal's tail. A submit
  // racing the install may start a second compaction; each rotation
  // costs the same two fsyncs.
  size_t submitted = 0;
  while (submitted < batches.size() && service->Stats().compactions == 0) {
    ASSERT_TRUE(service->SubmitEdges(batches[submitted++]).status.ok());
  }
  service->WaitForCompaction();
  const ServiceStatsSnapshot stats = service->Stats();
  const StateImage before = ImageOf(*service);
  service.reset();
  trace::SetEnabled(false);
  ASSERT_TRUE(trace::WriteChromeTrace(trace_path).ok());
  ASSERT_GE(stats.journal_rotations, 1u);
  ASSERT_EQ(stats.persist_failures, 0u);
  EXPECT_EQ(stats.journal_records, submitted);
  EXPECT_EQ(CountSpans(trace_path, "journal.append"), submitted);
  EXPECT_EQ(CountSpans(trace_path, "journal.fsync"),
            submitted + 2 + 2 * stats.journal_rotations);

  std::unique_ptr<CycleBreakService> recovered;
  ASSERT_TRUE(CycleBreakService::Open(durable, &recovered).ok());
  // The rotated store opens and replays every journaled event. Its
  // state is not compared: recovery compacts synchronously, so it may
  // cut where the background compaction of the live run did not.
  EXPECT_EQ(recovered->events_ingested(), before.events);
  recovered.reset();
  std::remove(trace_path.c_str());
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace tdb
