#include "service/cycle_break_service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "graph/generators.h"
#include "search/cycle_enumerator.h"
#include "service/ingest_batcher.h"
#include "util/rng.h"

namespace tdb {
namespace {

ServiceOptions MakeOptions(uint32_t k) {
  ServiceOptions options;
  options.cover.k = k;
  options.compact_delta_threshold = 0;  // tests opt in explicitly
  return options;
}

/// Exhaustive oracle on a pinned snapshot: the two-layer transversal
/// intersects every constrained cycle of the snapshot's graph.
bool SnapshotInvariantHolds(const ServiceSnapshot& snap) {
  CsrGraph graph = snap.graph.ToCsr();
  std::set<std::pair<VertexId, VertexId>> covered_pairs;
  for (EdgeId e : snap.cover.covered) {
    covered_pairs.insert({snap.graph.EdgeSrc(e), snap.graph.EdgeDst(e)});
  }
  std::vector<std::vector<VertexId>> cycles;
  const CycleConstraint c{
      .max_hops = snap.options.k,
      .min_len = snap.options.include_two_cycles ? 2u : 3u};
  if (!EnumerateConstrainedCycles(graph, c, 1 << 20, &cycles).ok()) {
    ADD_FAILURE() << "instance too big for the oracle";
    return false;
  }
  for (const auto& cyc : cycles) {
    bool hit = false;
    for (size_t i = 0; i < cyc.size() && !hit; ++i) {
      hit = snap.cover.VertexCovered(cyc[i]) ||
            covered_pairs.count({cyc[i], cyc[(i + 1) % cyc.size()]}) > 0;
    }
    if (!hit) return false;
  }
  return true;
}

/// Stream of batches shared by the concurrency tests: `total` random
/// non-self-loop pairs over `n` vertices (duplicates are fine — the
/// service counts and skips them).
std::vector<std::vector<Edge>> MakeBatches(VertexId n, size_t total,
                                           size_t batch, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<Edge>> batches;
  for (size_t at = 0; at < total; at += batch) {
    std::vector<Edge> b;
    for (size_t i = at; i < std::min(total, at + batch); ++i) {
      VertexId u = static_cast<VertexId>(rng.NextBounded(n));
      VertexId v = static_cast<VertexId>(rng.NextBounded(n));
      if (u == v) v = (v + 1) % n;
      b.push_back(Edge{u, v});
    }
    batches.push_back(std::move(b));
  }
  return batches;
}

TEST(ServiceOptionsTest, Validation) {
  ServiceOptions options = MakeOptions(4);
  EXPECT_TRUE(options.Validate().ok());
  options.cover.unconstrained = true;
  EXPECT_FALSE(options.Validate().ok());
  options = MakeOptions(4);
  options.cover.num_threads = -1;
  EXPECT_FALSE(options.Validate().ok());
  options = MakeOptions(2);  // k below minimum cycle length
  EXPECT_FALSE(options.Validate().ok());
}

TEST(ServiceOptionsTest, LargeHopBudgetsServe) {
  // Every hop budget the cover options accept serves: the probe's
  // one-byte labels cap only its reverse-ball radius, not k. The
  // admission_index_landmarks compatibility field has no effect.
  ServiceOptions options = MakeOptions(300);
  options.admission_index_landmarks = 4;
  options.admission_cache_log2 = 10;
  EXPECT_TRUE(options.Validate().ok());
  CsrGraph path = CsrGraph::FromEdges(4, {{0, 1}, {1, 2}, {2, 3}});
  CycleBreakService service(std::move(path), options);
  EXPECT_TRUE(service.CheckAdmission(3, 0).would_close);
  EXPECT_TRUE(service.CheckAdmission(0, 3).admissible);
}

TEST(CycleBreakServiceTest, AdmissionSemanticsOnAPath) {
  // Base path 0 -> 1 -> 2 -> 3, k = 4.
  CsrGraph base = CsrGraph::FromEdges(4, {{0, 1}, {1, 2}, {2, 3}});
  CycleBreakService service(std::move(base), MakeOptions(4));
  EXPECT_EQ(service.epoch(), 1u);

  // 3 -> 0 closes the uncovered 4-cycle; 0 -> 3 closes nothing.
  EXPECT_TRUE(service.CheckAdmission(3, 0).would_close);
  EXPECT_TRUE(service.CheckAdmission(0, 3).admissible);
  // 2 -> 0 would close the uncovered triangle 0,1,2.
  EXPECT_TRUE(service.CheckAdmission(2, 0).would_close);
  // Self-loops, duplicates and out-of-universe edges are no-ops.
  EXPECT_TRUE(service.CheckAdmission(1, 1).admissible);
  EXPECT_TRUE(service.CheckAdmission(0, 1).admissible);
  EXPECT_TRUE(service.CheckAdmission(7, 0).admissible);

  // Ingest the closing edge: the service covers the new cycle, and the
  // triangle-closing edge becomes admissible (its cycle is now broken).
  const std::vector<Edge> batch = {{3, 0}};
  const SubmitResult r = service.SubmitEdges(batch);
  EXPECT_EQ(r.epoch, 2u);
  EXPECT_EQ(r.stats.cycles_covered, 1u);
  EXPECT_TRUE(service.CheckAdmission(2, 0).admissible);
  EXPECT_TRUE(SnapshotInvariantHolds(*service.PinSnapshot()));
}

TEST(CycleBreakServiceTest, AdmissionFollowsEachPublish) {
  // Path 0 -> 1 -> 2 -> 3 with k = 4: "3 -> 0 closes a cycle" is true at
  // epoch 1 and must not survive into epoch 2, where ingesting 3 -> 0 has
  // covered the cycle and a duplicate insert closes nothing.
  CsrGraph base = CsrGraph::FromEdges(4, {{0, 1}, {1, 2}, {2, 3}});
  CycleBreakService service(std::move(base), MakeOptions(4));

  const AdmissionVerdict before = service.CheckAdmission(3, 0);
  EXPECT_TRUE(before.would_close);
  EXPECT_TRUE(before.probed);
  EXPECT_EQ(before.epoch, 1u);
  EXPECT_EQ(service.Stats().admission_probes, 1u);

  const std::vector<Edge> batch = {{3, 0}};
  ASSERT_EQ(service.SubmitEdges(batch).epoch, 2u);
  // The edge exists now, so inserting it again is a no-op, decided by a
  // precheck without a probe.
  const AdmissionVerdict after = service.CheckAdmission(3, 0);
  EXPECT_EQ(after.epoch, 2u);
  EXPECT_TRUE(after.admissible);
  EXPECT_FALSE(after.probed);
  EXPECT_EQ(service.Stats().admission_probes, 1u);
  // And the triangle-closing probe is answered against the new state too.
  EXPECT_TRUE(service.CheckAdmission(2, 0).admissible);
}

TEST(CycleBreakServiceTest, WriterPhaseCountersTimeAugmentAndPublish) {
  CycleBreakService service(CsrGraph::FromEdges(4, {{0, 1}, {1, 2}}),
                            MakeOptions(4));
  const ServiceStatsSnapshot boot = service.Stats();
  EXPECT_EQ(boot.augment_nanoseconds, 0u);  // the bootstrap only publishes
  EXPECT_GT(boot.publish_nanoseconds, 0u);
  const std::vector<Edge> batch = {{2, 3}, {3, 0}};
  ASSERT_TRUE(service.SubmitEdges(batch).status.ok());
  const ServiceStatsSnapshot after = service.Stats();
  EXPECT_GT(after.augment_nanoseconds, 0u);
  EXPECT_GT(after.publish_nanoseconds, boot.publish_nanoseconds);
}

TEST(CycleBreakServiceTest, CheckAdmissionIsABatchOfOne) {
  // CheckAdmission is documented as CheckAdmissionBatch over one query:
  // both call shapes must produce the same verdict, provenance included,
  // and both must be counted as batches and, when they probe, as probes.
  constexpr VertexId kN = 40;
  constexpr int kQueries = 60;
  CycleBreakService service(GenerateErdosRenyi(kN, 120, /*seed=*/14),
                            MakeOptions(4));
  // A delta with covered edges, so verdicts depend on both layers.
  for (const auto& batch : MakeBatches(kN, 40, 10, /*seed=*/16)) {
    ASSERT_TRUE(service.SubmitEdges(batch).status.ok());
  }
  const ServiceStatsSnapshot before = service.Stats();
  Rng rng(15);
  uint64_t probed = 0;
  for (int q = 0; q < kQueries; ++q) {
    const VertexId u = static_cast<VertexId>(rng.NextBounded(kN));
    const VertexId v = static_cast<VertexId>(rng.NextBounded(kN));
    const AdmissionVerdict single = service.CheckAdmission(u, v);
    const Edge one{u, v};
    const AdmissionVerdict batched =
        service.CheckAdmissionBatch(std::span<const Edge>(&one, 1)).front();
    EXPECT_EQ(single.admissible, batched.admissible) << u << "->" << v;
    EXPECT_EQ(single.would_close, batched.would_close) << u << "->" << v;
    EXPECT_EQ(single.probed, batched.probed) << u << "->" << v;
    EXPECT_EQ(single.epoch, batched.epoch);
    probed += single.probed ? 1 : 0;
  }
  EXPECT_GT(probed, 0u);
  // Both call shapes went through the one batched path.
  const ServiceStatsSnapshot after = service.Stats();
  EXPECT_EQ(after.admission_batches - before.admission_batches,
            2u * kQueries);
  EXPECT_EQ(after.admission_queries - before.admission_queries,
            2u * kQueries);
  EXPECT_EQ(after.admission_probes - before.admission_probes, 2 * probed);
  EXPECT_LE(after.admission_probe_dfs - before.admission_probe_dfs,
            2 * probed);
}

TEST(CycleBreakServiceTest, ConstructorCoversTheBaseSnapshot) {
  // A base that already contains cycles: the initial solve must cover
  // them, and admission against epoch 1 must see them as broken.
  CsrGraph base = GeneratePowerLaw(
      {.n = 60, .m = 400, .theta = 0.6, .reciprocity = 0.3, .seed = 11});
  CycleBreakService service(std::move(base), MakeOptions(4));
  const auto snap = service.PinSnapshot();
  EXPECT_EQ(snap->epoch, 1u);
  EXPECT_FALSE(snap->cover.base->vertices.empty());
  EXPECT_TRUE(snap->cover.base->solve_status.ok());
  EXPECT_TRUE(SnapshotInvariantHolds(*snap));
}

TEST(CycleBreakServiceTest, SynchronousCompactionFoldsDeltaIntoBase) {
  ServiceOptions options = MakeOptions(4);
  options.synchronous_compaction = true;
  options.compact_delta_threshold = 20;
  CsrGraph base = GenerateErdosRenyi(40, 120, /*seed=*/3);
  CycleBreakService service(std::move(base), options);

  const auto batches = MakeBatches(40, 100, 10, /*seed=*/5);
  for (const auto& batch : batches) service.SubmitEdges(batch);

  const ServiceStatsSnapshot stats = service.Stats();
  EXPECT_GT(stats.compactions, 0u);
  EXPECT_EQ(stats.compactions_failed, 0u);
  const auto snap = service.PinSnapshot();
  // The last compaction folded everything up to its cut into the base.
  EXPECT_LT(snap->graph.delta_edges(), 20u + 10u);
  EXPECT_GT(snap->graph.base_edges(), 120u);
  EXPECT_TRUE(SnapshotInvariantHolds(*snap));
  // One publish per SubmitEdges + the constructor's: deterministic.
  EXPECT_EQ(service.epoch(), 1u + batches.size());
}

/// The acceptance-criterion test: concurrent CheckAdmission readers
/// during ingest and during compaction always observe a coherent
/// (snapshot, cover) pair — every verdict equals what a sequential replay
/// of the same batches computes for the same epoch. With `batched`, the
/// readers go through CheckAdmissionBatch, and every verdict of one batch
/// must come from one pinned epoch.
void RunConsistencyTest(int reader_threads, bool batched = false) {
  constexpr VertexId kN = 50;
  ServiceOptions options = MakeOptions(4);
  options.synchronous_compaction = true;  // deterministic epoch sequence
  options.compact_delta_threshold = 48;
  const auto batches = MakeBatches(kN, 240, 12, /*seed=*/31);

  struct Recorded {
    uint64_t epoch;
    VertexId u, v;
    bool would_close;
  };
  std::vector<std::vector<Recorded>> per_thread(reader_threads);

  {
    CycleBreakService service(GenerateErdosRenyi(kN, 140, /*seed=*/32),
                              options);
    std::atomic<bool> done{false};
    std::vector<std::thread> readers;
    for (int t = 0; t < reader_threads; ++t) {
      readers.emplace_back([&, t] {
        Rng rng(900 + static_cast<uint64_t>(t));
        uint64_t last_epoch = 0;
        // Keep querying until ingest is done, with a floor so every
        // reader contributes even when ingest outruns the scheduler.
        for (uint64_t q = 0;
             q < 400 || !done.load(std::memory_order_relaxed); ++q) {
          if (batched) {
            // One small batch per iteration: every verdict in it must
            // come from the SAME pinned epoch.
            std::vector<Edge> queries;
            for (int b = 0; b < 8; ++b) {
              queries.push_back(
                  Edge{static_cast<VertexId>(rng.NextBounded(kN)),
                       static_cast<VertexId>(rng.NextBounded(kN))});
            }
            const std::vector<AdmissionVerdict> verdicts =
                service.CheckAdmissionBatch(queries);
            ASSERT_EQ(verdicts.size(), queries.size());
            for (size_t i = 0; i < verdicts.size(); ++i) {
              EXPECT_EQ(verdicts[i].epoch, verdicts[0].epoch);
              EXPECT_GE(verdicts[i].epoch, last_epoch);
              per_thread[t].push_back(Recorded{verdicts[i].epoch,
                                               queries[i].src,
                                               queries[i].dst,
                                               verdicts[i].would_close});
            }
            last_epoch = verdicts[0].epoch;
            continue;
          }
          const VertexId u = static_cast<VertexId>(rng.NextBounded(kN));
          const VertexId v = static_cast<VertexId>(rng.NextBounded(kN));
          const AdmissionVerdict verdict = service.CheckAdmission(u, v);
          // Epochs can only move forward under a reader's feet.
          EXPECT_GE(verdict.epoch, last_epoch);
          EXPECT_GE(verdict.epoch, 1u);
          last_epoch = verdict.epoch;
          per_thread[t].push_back(
              Recorded{verdict.epoch, u, v, verdict.would_close});
        }
      });
    }
    for (const auto& batch : batches) {
      service.SubmitEdges(batch);
      std::this_thread::yield();  // give readers a slice mid-ingest
    }
    done.store(true, std::memory_order_relaxed);
    for (auto& r : readers) r.join();
  }

  // Sequential replay of the same batches, capturing every published
  // epoch. Ingest is deterministic, so epoch e's state here is
  // byte-for-byte the state the readers pinned under that epoch above.
  std::map<uint64_t, std::shared_ptr<const ServiceSnapshot>> replay;
  {
    CycleBreakService service(GenerateErdosRenyi(kN, 140, /*seed=*/32),
                              options);
    auto snap = service.PinSnapshot();
    replay[snap->epoch] = snap;
    for (const auto& batch : batches) {
      service.SubmitEdges(batch);
      snap = service.PinSnapshot();
      replay[snap->epoch] = snap;
    }
  }

  size_t checked = 0;
  for (const auto& records : per_thread) {
    for (const Recorded& r : records) {
      const auto it = replay.find(r.epoch);
      ASSERT_NE(it, replay.end()) << "reader pinned unknown epoch "
                                  << r.epoch;
      PathProber prober(it->second->options);
      const AdmissionVerdict expected =
          CheckAdmissionOn(*it->second, r.u, r.v, &prober);
      ASSERT_EQ(expected.would_close, r.would_close)
          << "epoch " << r.epoch << " query " << r.u << "->" << r.v;
      ++checked;
    }
  }
  EXPECT_GT(checked, 0u);
}

TEST(CycleBreakServiceTest, ConcurrentAdmissionConsistent1Reader) {
  RunConsistencyTest(1);
}

TEST(CycleBreakServiceTest, ConcurrentAdmissionConsistent2Readers) {
  RunConsistencyTest(2);
}

TEST(CycleBreakServiceTest, ConcurrentAdmissionConsistent8Readers) {
  RunConsistencyTest(8);
}

TEST(CycleBreakServiceTest, BatchedAdmissionConsistent1Reader) {
  RunConsistencyTest(1, /*batched=*/true);
}

TEST(CycleBreakServiceTest, BatchedAdmissionConsistent2Readers) {
  RunConsistencyTest(2, /*batched=*/true);
}

TEST(CycleBreakServiceTest, BatchedAdmissionConsistent8Readers) {
  RunConsistencyTest(8, /*batched=*/true);
}

TEST(CycleBreakServiceTest, AdmissionShortCircuitsWhenDstIsCovered) {
  // Symmetric counterpart of the VertexCovered(u) early-out: when the
  // queried edge's DST is covered, every candidate cycle routes through
  // a covered vertex, so the edge is admissible without any probe.
  // Base triangle 1 -> 2 -> 3 -> 1 plus chain 0 -> 1, k = 4: the solve
  // must cover some triangle vertex; query edges INTO that vertex.
  CsrGraph base =
      CsrGraph::FromEdges(5, {{0, 1}, {1, 2}, {2, 3}, {3, 1}});
  CycleBreakService service(std::move(base), MakeOptions(4));
  const auto snap = service.PinSnapshot();
  ASSERT_FALSE(snap->cover.base->vertices.empty());
  const VertexId covered = snap->cover.base->vertices.front();
  // 4 -> covered: vertex 4 has no edges at all, so without the cover
  // there is trivially no path back — but covered -> 1 -> ... -> covered
  // cycles exist in the graph; the early-out must not change the
  // verdict, only skip the probe.
  const AdmissionVerdict into_covered = service.CheckAdmission(4, covered);
  EXPECT_TRUE(into_covered.admissible);
  EXPECT_FALSE(into_covered.probed);
  // A query whose dst is covered is admissible even when the uncovered
  // graph WOULD have a closing path: 1 -> 2 -> 3 closes 3 -> 1's cycle,
  // yet each such query hits either the u- or the v-side early-out
  // (the cover holds a triangle vertex, and every cycle edge touches
  // the triangle).
  for (VertexId u = 0; u < 5; ++u) {
    if (u == covered || snap->graph.HasEdge(u, covered)) continue;
    const AdmissionVerdict verdict = service.CheckAdmission(u, covered);
    EXPECT_TRUE(verdict.admissible) << u << " -> " << covered;
    EXPECT_FALSE(verdict.probed) << u << " -> " << covered;
  }
}

TEST(CycleBreakServiceTest, BackgroundCompactionKeepsServiceCoherent) {
  // Async mode: readers hammer admission while background compactions
  // install new bases. Verdicts must always come from a coherent pinned
  // snapshot (checked by recomputation), and the final state must cover
  // every cycle of everything ingested. Two workers put the compaction
  // solve's engine pool under the concurrent readers.
  constexpr VertexId kN = 50;
  ServiceOptions options = MakeOptions(4);
  options.compact_delta_threshold = 40;
  options.cover.num_threads = 2;
  CycleBreakService service(GenerateErdosRenyi(kN, 140, /*seed=*/41),
                            options);
  std::atomic<bool> done{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(700 + static_cast<uint64_t>(t));
      while (!done.load(std::memory_order_relaxed)) {
        const VertexId u = static_cast<VertexId>(rng.NextBounded(kN));
        const VertexId v = static_cast<VertexId>(rng.NextBounded(kN));
        // Pin once, verdict twice: both computations must agree — the
        // pinned state cannot change under a reader.
        const auto snap = service.PinSnapshot();
        PathProber p1(snap->options);
        PathProber p2(snap->options);
        const AdmissionVerdict a = CheckAdmissionOn(*snap, u, v, &p1);
        const AdmissionVerdict b = CheckAdmissionOn(*snap, u, v, &p2);
        EXPECT_EQ(a.would_close, b.would_close);
      }
    });
  }
  IngestBatcher batcher(&service, 12);
  Rng rng(42);
  for (size_t i = 0; i < 300; ++i) {
    VertexId u = static_cast<VertexId>(rng.NextBounded(kN));
    VertexId v = static_cast<VertexId>(rng.NextBounded(kN));
    if (u == v) v = (v + 1) % kN;
    batcher.Add(u, v);
  }
  batcher.Flush();
  service.WaitForCompaction();
  done.store(true, std::memory_order_relaxed);
  for (auto& r : readers) r.join();

  EXPECT_GT(service.Stats().compactions, 0u);
  EXPECT_TRUE(SnapshotInvariantHolds(*service.PinSnapshot()));
}

TEST(CycleBreakServiceTest, IngestBatcherFlushesAtBatchSize) {
  CycleBreakService service(CsrGraph::FromEdges(6, {}), MakeOptions(4));
  IngestBatcher batcher(&service, 3);
  EXPECT_EQ(batcher.Add(0, 1).epoch, 0u);
  EXPECT_EQ(batcher.Add(1, 2).epoch, 0u);
  EXPECT_EQ(batcher.Add(2, 3).epoch, 2u);  // flush publishes epoch 2
  EXPECT_EQ(batcher.pending(), 0u);
  EXPECT_EQ(batcher.Add(3, 4).epoch, 0u);
  EXPECT_EQ(batcher.Flush().epoch, 3u);
  EXPECT_EQ(batcher.batches_flushed(), 2u);
  EXPECT_EQ(service.Stats().edges_inserted, 4u);
}

}  // namespace
}  // namespace tdb
