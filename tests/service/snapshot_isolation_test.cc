// A published snapshot shares its generation's delta log with the writer
// and every later snapshot of that generation. These tests pin a snapshot
// and then keep ingesting — on the same vertices, past the log's chunk
// boundaries, across a compaction, and with readers running concurrently
// — and require the pinned snapshot to observe exactly what it observed
// when it was published.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "graph/generators.h"
#include "service/cycle_break_service.h"
#include "service/snapshot.h"
#include "util/rng.h"

namespace tdb {
namespace {

constexpr VertexId kN = 400;

/// Everything a reader can observe of a snapshot's graph, in iteration
/// order with edge ids, plus its canonical image.
struct Observed {
  std::vector<std::vector<std::pair<VertexId, EdgeId>>> out;
  std::vector<std::vector<std::pair<VertexId, EdgeId>>> in;
  std::vector<Edge> by_id;
  std::vector<uint8_t> has;
  EdgeId delta_edges = 0;
  TransversalImage image;

  bool operator==(const Observed&) const = default;
};

Observed Observe(const ServiceSnapshot& snap) {
  const OverlayGraph& g = snap.graph;
  Observed o;
  o.out.resize(g.num_vertices());
  o.in.resize(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    g.ForEachOut(v, [&](VertexId w, EdgeId e) {
      o.out[v].push_back({w, e});
      return true;
    });
    g.ForEachIn(v, [&](VertexId w, EdgeId e) {
      o.in[v].push_back({w, e});
      return true;
    });
    // HasEdge over a fixed row of pairs per vertex.
    for (VertexId w = 0; w < g.num_vertices(); w += 7) {
      o.has.push_back(g.HasEdge(v, w) ? 1 : 0);
    }
  }
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    o.by_id.push_back(Edge{g.EdgeSrc(e), g.EdgeDst(e)});
  }
  o.delta_edges = g.delta_edges();
  o.image = MakeTransversalImage(snap);
  return o;
}

/// Batches whose sources are mostly a handful of hot vertices, so the
/// delta chains that pinned snapshots walk keep growing.
std::vector<std::vector<Edge>> HotBatches(size_t batches, size_t batch,
                                          uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<Edge>> result(batches);
  for (auto& b : result) {
    for (size_t i = 0; i < batch; ++i) {
      const VertexId u = rng.NextBool(0.5)
                             ? static_cast<VertexId>(rng.NextBounded(3))
                             : static_cast<VertexId>(rng.NextBounded(kN));
      b.push_back(Edge{u, static_cast<VertexId>(rng.NextBounded(kN))});
    }
  }
  return result;
}

ServiceOptions Options(EdgeId compact_at, bool synchronous) {
  ServiceOptions options;
  options.cover.k = 4;
  options.cover.num_threads = 1;
  options.compact_delta_threshold = compact_at;
  options.synchronous_compaction = synchronous;
  return options;
}

TEST(SnapshotIsolationTest, PinnedSnapshotSurvivesAppendsAndCompaction) {
  // Compaction at 2500 delta edges; pins at 0, inside the first chunk
  // (256 entries), and past the first and second chunk boundaries. The
  // later batches append to the same log (and its later chunks) until the
  // compaction starts a new generation, then keep ingesting on top.
  CycleBreakService service(GenerateErdosRenyi(kN, 1000, 21),
                            Options(2500, /*synchronous=*/true));
  const auto batches = HotBatches(40, 100, 22);
  std::vector<std::pair<std::shared_ptr<const ServiceSnapshot>, Observed>>
      pinned;
  for (size_t b = 0; b < batches.size(); ++b) {
    if (b == 0 || b == 2 || b == 5 || b == 9 || b == 20) {
      auto snap = service.PinSnapshot();
      Observed seen = Observe(*snap);
      EXPECT_EQ(seen.image, service.Image());
      pinned.emplace_back(std::move(snap), std::move(seen));
    }
    ASSERT_TRUE(service.SubmitEdges(batches[b]).status.ok());
  }
  ASSERT_GE(service.Stats().compactions, 1u);
  ASSERT_GT(pinned[3].second.delta_edges, 768u);  // past two chunks
  for (const auto& [snap, seen] : pinned) {
    EXPECT_EQ(Observe(*snap), seen) << "snapshot at epoch " << snap->epoch;
  }
}

TEST(SnapshotIsolationTest, ConcurrentReadersKeepTheirSnapshotStable) {
  // Readers pin the latest snapshot, observe it, probe admission on it,
  // and observe it again while the writer keeps appending to the shared
  // log and background compactions install new generations.
  CycleBreakService service(GenerateErdosRenyi(kN, 1000, 31),
                            Options(1200, /*synchronous=*/false));
  const auto batches = HotBatches(30, 80, 32);
  std::atomic<bool> done{false};
  std::atomic<uint64_t> checked{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(100 + t);
      bool last = false;
      while (!last) {
        last = done.load(std::memory_order_acquire);
        const auto snap = service.PinSnapshot();
        const Observed before = Observe(*snap);
        ASSERT_EQ(before.image.base_edges + before.image.delta.size(),
                  snap->graph.num_edges());
        PathProber prober(snap->options);
        for (int q = 0; q < 20; ++q) {
          CheckAdmissionOn(*snap, static_cast<VertexId>(rng.NextBounded(kN)),
                           static_cast<VertexId>(rng.NextBounded(kN)),
                           &prober);
        }
        ASSERT_EQ(Observe(*snap), before) << "epoch " << snap->epoch;
        checked.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (const auto& batch : batches) {
    EXPECT_TRUE(service.SubmitEdges(batch).status.ok());
    std::this_thread::yield();  // give readers a slice mid-ingest
  }
  done.store(true, std::memory_order_release);
  for (auto& r : readers) r.join();
  service.WaitForCompaction();
  EXPECT_GE(checked.load(), 3u);
  EXPECT_GE(service.Stats().compactions, 1u);
}

}  // namespace
}  // namespace tdb
