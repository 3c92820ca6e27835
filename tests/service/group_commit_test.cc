// Durability=always group commit: every appended record must be
// accounted to exactly one led fsync, and a store written under
// concurrent submitters must recover bit-identically.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "graph/generators.h"
#include "service/cycle_break_service.h"
#include "util/rng.h"

namespace tdb {
namespace {

std::string FreshDir(const std::string& name) {
  static int counter = 0;
  std::string dir = testing::TempDir() + "tdb_group_commit_test_" +
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

TEST(GroupCommitTest, AccountsEverySequentialAppend) {
  // With one submitter there is never a commit to share: every batch
  // leads its own fsync and the group size telescopes to one per batch.
  const std::string dir = FreshDir("group_seq");
  const CsrGraph base = GenerateErdosRenyi(30, 90, /*seed=*/51);
  const auto batches = MakeBatches(30, 7, 6, /*seed=*/52);
  ServiceOptions durable = BaseOptions();
  durable.data_dir = dir;
  durable.durability = DurabilityPolicy::kAlways;
  std::unique_ptr<CycleBreakService> service;
  ASSERT_TRUE(CycleBreakService::Create(base, durable, &service).ok());
  for (const auto& batch : batches) {
    ASSERT_TRUE(service->SubmitEdges(batch).status.ok());
  }
  const ServiceStatsSnapshot stats = service->Stats();
  EXPECT_EQ(stats.journal_group_commits, batches.size());
  EXPECT_EQ(stats.journal_group_size, batches.size());
  service.reset();
  std::filesystem::remove_all(dir);
}

TEST(GroupCommitTest, ConcurrentSubmittersRecoverBitIdentically) {
  constexpr size_t kThreads = 4;
  constexpr size_t kBatchesPerThread = 6;
  const std::string dir = FreshDir("group_conc");
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

  const size_t total = kThreads * kBatchesPerThread;
  const ServiceStatsSnapshot stats = service->Stats();
  EXPECT_EQ(stats.batches, total);
  // Every appended record becomes durable through exactly one led fsync,
  // so the group sizes partition the appends; sharing can only reduce
  // the number of led commits, never the records they cover.
  EXPECT_EQ(stats.journal_group_size, total);
  EXPECT_GE(stats.journal_group_commits, 1u);
  EXPECT_LE(stats.journal_group_commits, total);
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

}  // namespace
}  // namespace tdb
