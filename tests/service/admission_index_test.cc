#include "service/admission_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "graph/generators.h"
#include "search/bounded_reach.h"
#include "search/search_context.h"
#include "service/cycle_break_service.h"
#include "service/snapshot.h"
#include "util/rng.h"

namespace tdb {
namespace {

/// Wraps a pinned snapshot's state in a new ServiceSnapshot carrying an
/// index built over exactly that state (the service-side publish hook,
/// reproduced at test level so snapshots with and without the index can
/// be probed side by side).
std::unique_ptr<ServiceSnapshot> WithIndex(const ServiceSnapshot& snap,
                                           int num_landmarks) {
  auto indexed = std::make_unique<ServiceSnapshot>(snap.graph, snap.cover,
                                                   snap.options);
  indexed->epoch = snap.epoch;
  indexed->admission_index = AdmissionIndex::Build(
      snap.graph, snap.cover, snap.options, num_landmarks, nullptr);
  return indexed;
}

TEST(AdmissionIndexTest, ProbeSoundOnAllPairs) {
  // Every forced verdict of the index must agree with the exact prober;
  // kUnknown carries no claim. Checked for every (v, u) pair.
  CsrGraph base = GeneratePowerLaw(
      {.n = 40, .m = 220, .theta = 0.6, .reciprocity = 0.3, .seed = 7});
  ServiceOptions options;
  options.cover.k = 4;
  options.compact_delta_threshold = 0;
  CycleBreakService service(std::move(base), options);
  const auto snap = service.PinSnapshot();
  const auto index = AdmissionIndex::Build(snap->graph, snap->cover,
                                           snap->options, 8, nullptr);
  ASSERT_NE(index, nullptr);
  EXPECT_GT(index->num_landmarks(), 0u);
  uint64_t forced = 0;
  PathProber prober(snap->options);
  for (VertexId v = 0; v < 40; ++v) {
    for (VertexId u = 0; u < 40; ++u) {
      if (u == v) continue;
      const bool exists =
          prober.FindPath(snap->graph, snap->cover, v, u, nullptr);
      switch (index->Query(v, u)) {
        case AdmissionIndex::Probe::kNoPath:
          EXPECT_FALSE(exists) << v << " ->* " << u;
          ++forced;
          break;
        case AdmissionIndex::Probe::kWouldClose:
          EXPECT_TRUE(exists) << v << " ->* " << u;
          ++forced;
          break;
        case AdmissionIndex::Probe::kUnknown:
          break;
      }
    }
  }
  // The index must actually force a useful share of the pair space —
  // otherwise the fast path is dead weight.
  EXPECT_GT(forced, 0u);
}

/// Builds with and without a pool must agree on landmarks and on every
/// pair's probe answer. Counts past 64 split the landmarks over several
/// bit-parallel BFS chunks, i.e. several pool tasks per direction.
void RunLandmarkDeterminism(VertexId n, EdgeId m, int num_landmarks) {
  CsrGraph base = GenerateErdosRenyi(n, m, /*seed=*/13);
  ServiceOptions options;
  options.cover.k = 4;
  options.compact_delta_threshold = 0;
  CycleBreakService service(std::move(base), options);
  const auto snap = service.PinSnapshot();
  const auto a = AdmissionIndex::Build(snap->graph, snap->cover,
                                       snap->options, num_landmarks, nullptr);
  ThreadPool pool(4);
  const auto b = AdmissionIndex::Build(snap->graph, snap->cover,
                                       snap->options, num_landmarks, &pool);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(a->num_landmarks(), static_cast<size_t>(num_landmarks));
  // Same landmarks regardless of the build pool...
  ASSERT_EQ(a->num_landmarks(), b->num_landmarks());
  for (size_t i = 0; i < a->num_landmarks(); ++i) {
    EXPECT_EQ(a->landmarks()[i], b->landmarks()[i]);
  }
  // ...and the same probe answer for every pair (the level arrays are
  // filled by disjoint-byte tasks, so pool size cannot matter).
  for (VertexId v = 0; v < n; ++v) {
    for (VertexId u = 0; u < n; ++u) {
      if (u != v) EXPECT_EQ(a->Query(v, u), b->Query(v, u));
    }
  }
}

TEST(AdmissionIndexTest, LandmarkChoiceIsDeterministic) {
  RunLandmarkDeterminism(60, 300, 6);
}

TEST(AdmissionIndexTest, LandmarkChoiceIsDeterministicAtChunkBoundaries) {
  for (const int num_landmarks : {64, 65, 130}) {
    RunLandmarkDeterminism(200, 1000, num_landmarks);
  }
}

/// Exact BFS distances in the uncovered subgraph from `source`, along
/// out-edges (kForward) or in-edges (kReverse); kUnreached where none.
constexpr uint32_t kUnreached = 0xffffffffu;
std::vector<uint32_t> ReferenceDistances(const ServiceSnapshot& snap,
                                         VertexId source,
                                         ReachDirection direction) {
  std::vector<uint32_t> dist(snap.graph.num_vertices(), kUnreached);
  SearchContext ctx;
  BoundedReach(
      snap.graph, direction, std::span<const VertexId>(&source, 1),
      snap.graph.num_vertices(), &ctx,
      [&](EdgeId e) { return !snap.cover.EdgeCovered(snap.graph, e); },
      [&](VertexId w, uint32_t d) { dist[w] = d; });
  return dist;
}

TEST(AdmissionIndexTest, HubRowsAreExactOverDeltaAndIncrementalCover) {
  // Landmark rows must hold the exact uncovered distances on a state
  // that uses every covering layer: a base vertex cover, delta edges in
  // the overlay and a non-empty incremental S set. A hub-endpoint query
  // decides from one row alone, so its verdict is pinned by the
  // reference distance d: d > k - 1 (or unreached) forces kNoPath, d in
  // [min_len - 1, k - 1] forces kWouldClose, and only d below the band
  // stays kUnknown. 70 landmarks span two BFS chunks.
  constexpr VertexId kN = 90;
  constexpr int kLandmarks = 70;
  for (const uint32_t k : {3u, 4u, 6u}) {
    for (const bool two_cycles : {false, true}) {
      ServiceOptions options;
      options.cover.k = k;
      options.cover.include_two_cycles = two_cycles;
      options.compact_delta_threshold = 0;
      CycleBreakService service(
          GeneratePowerLaw({.n = kN,
                            .m = 360,
                            .theta = 0.6,
                            .reciprocity = 0.3,
                            .seed = 201 + k}),
          options);
      Rng rng(300 + k);
      for (int b = 0; b < 6; ++b) {
        std::vector<Edge> batch;
        for (int i = 0; i < 20; ++i) {
          batch.push_back(Edge{static_cast<VertexId>(rng.NextBounded(kN)),
                               static_cast<VertexId>(rng.NextBounded(kN))});
        }
        service.SubmitEdges(batch);
      }
      const auto snap = service.PinSnapshot();
      ASSERT_GT(snap->graph.delta_edges(), 0u);
      ASSERT_FALSE(snap->cover.covered.empty()) << "k=" << k;
      ASSERT_FALSE(snap->cover.base->vertices.empty());
      const auto index = AdmissionIndex::Build(
          snap->graph, snap->cover, snap->options, kLandmarks, nullptr);
      ASSERT_NE(index, nullptr);
      ASSERT_GT(index->num_landmarks(), 64u);
      const uint32_t max_path = k - 1;
      const uint32_t min_path = two_cycles ? 1 : 2;
      const auto expected = [&](uint32_t d) {
        if (d == kUnreached || d > max_path) {
          return AdmissionIndex::Probe::kNoPath;
        }
        return d >= min_path ? AdmissionIndex::Probe::kWouldClose
                             : AdmissionIndex::Probe::kUnknown;
      };
      for (const VertexId h : index->landmarks()) {
        const std::vector<uint32_t> from_h =
            ReferenceDistances(*snap, h, ReachDirection::kForward);
        const std::vector<uint32_t> to_h =
            ReferenceDistances(*snap, h, ReachDirection::kReverse);
        for (VertexId x = 0; x < kN; ++x) {
          if (x == h) continue;
          EXPECT_EQ(index->Query(h, x), expected(from_h[x]))
              << h << " ->* " << x << " k=" << k << " 2c=" << two_cycles;
          EXPECT_EQ(index->Query(x, h), expected(to_h[x]))
              << x << " ->* " << h << " k=" << k << " 2c=" << two_cycles;
        }
      }
    }
  }
}

TEST(AdmissionIndexTest, UnrepresentableHopBudgetRefusesToBuild) {
  CsrGraph base = GenerateErdosRenyi(10, 30, /*seed=*/3);
  ServiceOptions options;
  options.cover.k = 254;  // k - 1 would collide with the kFar sentinel
  options.compact_delta_threshold = 0;
  CycleBreakService service(std::move(base), options);
  const auto snap = service.PinSnapshot();
  EXPECT_EQ(AdmissionIndex::Build(snap->graph, snap->cover, snap->options,
                                  4, nullptr),
            nullptr);
}

/// The tentpole property: for random graphs x k x landmark counts, the
/// indexed per-query path, the batched path, and the plain probe return
/// identical verdicts at EVERY published epoch.
void RunEquivalenceSweep(uint32_t k, bool include_two_cycles,
                         int num_landmarks, uint64_t seed,
                         VertexId n = 36) {
  ServiceOptions plain_options;
  plain_options.cover.k = k;
  plain_options.cover.include_two_cycles = include_two_cycles;
  plain_options.synchronous_compaction = true;
  plain_options.compact_delta_threshold = 40;
  ServiceOptions indexed_options = plain_options;
  indexed_options.admission_index_landmarks = num_landmarks;

  CsrGraph base = GeneratePowerLaw({.n = n,
                                    .m = 4 * EdgeId{n} + 6,
                                    .theta = 0.6,
                                    .reciprocity = 0.2,
                                    .seed = seed});
  CsrGraph base_copy = base;
  CycleBreakService plain(std::move(base), plain_options);
  CycleBreakService indexed(std::move(base_copy), indexed_options);

  Rng rng(seed * 31 + 1);
  std::vector<std::vector<Edge>> batches;
  for (int b = 0; b < 10; ++b) {
    std::vector<Edge> batch;
    for (int i = 0; i < 12; ++i) {
      VertexId u = static_cast<VertexId>(rng.NextBounded(n));
      VertexId v = static_cast<VertexId>(rng.NextBounded(n));
      if (u == v) v = (v + 1) % n;
      batch.push_back(Edge{u, v});
    }
    batches.push_back(std::move(batch));
  }

  // Epoch 1 and every post-submit epoch: all-pairs agreement between
  // the three paths, batched in one big span (prechecked no-ops, index
  // hits and grouped probes all mixed together).
  const auto check_epoch = [&]() {
    ASSERT_EQ(plain.epoch(), indexed.epoch());
    std::vector<Edge> all_pairs;
    for (VertexId u = 0; u < n; ++u) {
      for (VertexId v = 0; v < n; ++v) {
        all_pairs.push_back(Edge{u, v});
      }
    }
    const std::vector<AdmissionVerdict> batched =
        indexed.CheckAdmissionBatch(all_pairs);
    ASSERT_EQ(batched.size(), all_pairs.size());
    for (size_t i = 0; i < all_pairs.size(); ++i) {
      const VertexId u = all_pairs[i].src;
      const VertexId v = all_pairs[i].dst;
      const AdmissionVerdict expected = plain.CheckAdmission(u, v);
      const AdmissionVerdict single = indexed.CheckAdmission(u, v);
      EXPECT_EQ(expected.would_close, single.would_close)
          << "per-query " << u << "->" << v << " k=" << k
          << " landmarks=" << num_landmarks;
      EXPECT_EQ(expected.would_close, batched[i].would_close)
          << "batched " << u << "->" << v << " k=" << k
          << " landmarks=" << num_landmarks;
      EXPECT_EQ(expected.epoch, batched[i].epoch);
    }
  };

  check_epoch();
  if (num_landmarks > 64) {
    // The sweep is only meaningful past one 64-landmark BFS chunk if the
    // graph really yields that many hubs.
    EXPECT_GT(indexed.PinSnapshot()->admission_index->num_landmarks(), 64u);
  }
  for (const auto& batch : batches) {
    const SubmitResult a = plain.SubmitEdges(batch);
    const SubmitResult b = indexed.SubmitEdges(batch);
    ASSERT_EQ(a.epoch, b.epoch);
    check_epoch();
  }
  const ServiceStatsSnapshot stats = indexed.Stats();
  EXPECT_EQ(stats.index_builds, stats.epochs_published);
  // The sweep covers the full pair space repeatedly; the index must
  // have short-circuited at least part of it.
  EXPECT_GT(stats.index_hits, 0u);
}

TEST(AdmissionIndexTest, EquivalenceK3OneLandmark) {
  RunEquivalenceSweep(3, false, 1, 101);
}

TEST(AdmissionIndexTest, EquivalenceK4FourLandmarks) {
  RunEquivalenceSweep(4, false, 4, 102);
}

TEST(AdmissionIndexTest, EquivalenceK4TwoCyclesSixteenLandmarks) {
  RunEquivalenceSweep(4, true, 16, 103);
}

TEST(AdmissionIndexTest, EquivalenceK6SixteenLandmarks) {
  RunEquivalenceSweep(6, false, 16, 104);
}

TEST(AdmissionIndexTest, EquivalenceK4SixtyFourLandmarks) {
  RunEquivalenceSweep(4, false, 64, 105, /*n=*/100);
}

TEST(AdmissionIndexTest, EquivalenceK5TwoCyclesSixtyFiveLandmarks) {
  RunEquivalenceSweep(5, true, 65, 106, /*n=*/100);
}

TEST(AdmissionIndexTest, EquivalenceK6HundredThirtyLandmarks) {
  RunEquivalenceSweep(6, false, 130, 107, /*n=*/170);
}

/// The published index must equal a fresh Build of its own snapshot
/// byte for byte after EVERY publish: the bootstrap build, each patched
/// publish, and the full build of a synchronous compaction install.
/// Half of every batch closes a walk of 1..k-1 hops in the published
/// graph, so the stream covers cycles (and PRUNE runs) at every k.
void RunPatchSweep(uint32_t k, bool include_two_cycles, int num_landmarks,
                   uint64_t seed, uint64_t* prunes) {
  constexpr VertexId kN = 3000;
  ServiceOptions options;
  options.cover.k = k;
  options.cover.include_two_cycles = include_two_cycles;
  options.synchronous_compaction = true;
  options.compact_delta_threshold = 160;
  options.admission_index_landmarks = num_landmarks;
  CycleBreakService service(GeneratePowerLaw({.n = kN,
                                              .m = 4 * EdgeId{kN},
                                              .theta = 0.6,
                                              .reciprocity = 0.2,
                                              .seed = seed}),
                            options);
  const std::string where = "k=" + std::to_string(k) +
                            " 2c=" + std::to_string(include_two_cycles) +
                            " L=" + std::to_string(num_landmarks);
  const auto check_publish = [&](const ServiceSnapshot& snap) {
    ASSERT_NE(snap.admission_index, nullptr) << where;
    const auto fresh = AdmissionIndex::Build(
        snap.graph, snap.cover, snap.options, num_landmarks, nullptr);
    ASSERT_NE(fresh, nullptr);
    EXPECT_TRUE(snap.admission_index->SameContents(*fresh))
        << where << " epoch=" << snap.epoch
        << " patched=" << snap.admission_index->patched();
  };

  auto snap = service.PinSnapshot();
  check_publish(*snap);
  if (num_landmarks > 64) {
    EXPECT_GT(snap->admission_index->num_landmarks(), 64u) << where;
  }
  Rng rng(seed * 17 + 3);
  std::vector<VertexId> next;
  for (int b = 0; b < 14; ++b) {
    std::vector<Edge> batch;
    for (int i = 0; i < 15; ++i) {
      const VertexId u = static_cast<VertexId>(rng.NextBounded(kN));
      batch.push_back(Edge{static_cast<VertexId>(rng.NextBounded(kN)), u});
      VertexId w = u;
      const uint64_t hops = 1 + rng.NextBounded(k - 1);
      for (uint64_t h = 0; h < hops; ++h) {
        next.clear();
        snap->graph.ForEachOut(w, [&](VertexId x, EdgeId) {
          next.push_back(x);
          return true;
        });
        if (next.empty()) break;
        w = next[rng.NextBounded(next.size())];
      }
      if (w != u) batch.push_back(Edge{w, u});
    }
    service.SubmitEdges(batch);
    snap = service.PinSnapshot();
    check_publish(*snap);
  }
  const ServiceStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.index_builds, stats.epochs_published) << where;
  EXPECT_GT(stats.cycles_covered, 0u) << where;
  EXPECT_GE(stats.compactions, 1u) << where;
  // Bootstrap and every compaction install are full builds; some of
  // the other publishes must have been patched.
  EXPECT_GT(stats.index_patches, 0u) << where;
  EXPECT_LE(stats.index_patches + 1 + stats.compactions, stats.index_builds)
      << where;
  *prunes += stats.prunes;
}

TEST(AdmissionIndexTest, PatchedIndexEqualsFreshBuildAfterEveryPublish) {
  uint64_t prunes = 0;
  uint64_t seed = 400;
  for (const int num_landmarks : {16, 64, 65, 130}) {
    for (const uint32_t k : {3u, 4u, 6u}) {
      for (const bool two_cycles : {false, true}) {
        RunPatchSweep(k, two_cycles, num_landmarks, ++seed, &prunes);
      }
    }
  }
  EXPECT_GT(prunes, 0u);
}

TEST(AdmissionIndexTest, PatchMatchesFreshBuildWhenEdgesLeaveAndReenterS) {
  // The service only grows S between compactions, but Build's patch
  // contract covers any step that appends delta edges over the same
  // base and BaseCover: here every step also moves random edges into
  // and out of S, so edges leave U (raising levels) and re-enter it
  // (lowering them) at once. A base vertex cover hides whole rows. Odd
  // steps repair the two directions as two pool tasks.
  constexpr VertexId kN = 150;
  ThreadPool pool(2);
  auto base = std::make_shared<const CsrGraph>(GeneratePowerLaw(
      {.n = kN, .m = 700, .theta = 0.6, .reciprocity = 0.3, .seed = 61}));
  for (const int num_landmarks : {16, 65}) {
    for (const uint32_t k : {3u, 5u}) {
      for (const bool two_cycles : {false, true}) {
        CoverOptions options;
        options.k = k;
        options.include_two_cycles = two_cycles;
        Rng rng(62 + k + static_cast<uint64_t>(num_landmarks));
        OverlayGraph graph(base);
        TransversalState cover;
        std::vector<VertexId> covered_vertices;
        for (VertexId v = 0; v < kN; v += 11) covered_vertices.push_back(v);
        cover.base = BaseCover::FromVertexCover(kN, covered_vertices,
                                                Status::OK());
        auto index = AdmissionIndex::Build(graph, cover, options,
                                           num_landmarks, nullptr);
        uint64_t patches = 0;
        for (int step = 0; step < 25; ++step) {
          const OverlayGraph prior_graph = graph;
          const TransversalState prior_cover = cover;
          for (int i = 0; i < 4; ++i) {
            graph.AddEdge(static_cast<VertexId>(rng.NextBounded(kN)),
                          static_cast<VertexId>(rng.NextBounded(kN)));
          }
          for (int i = 0; i < 6; ++i) {
            const EdgeId e = rng.NextBounded(graph.num_edges());
            if (cover.covered.count(e) != 0) {
              cover.covered.erase(e);
            } else {
              cover.covered.insert(e);
            }
          }
          const AdmissionIndex::Prior prior{index.get(), &prior_graph,
                                            &prior_cover};
          index = AdmissionIndex::Build(graph, cover, options,
                                        num_landmarks,
                                        step % 2 == 1 ? &pool : nullptr,
                                        &prior);
          const auto fresh = AdmissionIndex::Build(graph, cover, options,
                                                   num_landmarks, nullptr);
          ASSERT_TRUE(index->SameContents(*fresh))
              << "k=" << k << " 2c=" << two_cycles
              << " L=" << num_landmarks << " step=" << step
              << " patched=" << index->patched();
          if (index->patched()) ++patches;
        }
        EXPECT_GT(patches, 0u) << "k=" << k << " L=" << num_landmarks;
      }
    }
  }
}

TEST(AdmissionIndexTest, PatchRefusesADifferentBase) {
  // Same edges, different base object: not an append-only step of one
  // overlay, so Build must not patch.
  CsrGraph g = GenerateErdosRenyi(40, 160, /*seed=*/5);
  OverlayGraph a(std::make_shared<const CsrGraph>(g));
  OverlayGraph b(std::make_shared<const CsrGraph>(g));
  TransversalState cover;
  CoverOptions options;
  options.k = 4;
  const auto index = AdmissionIndex::Build(a, cover, options, 4, nullptr);
  const AdmissionIndex::Prior prior{index.get(), &a, &cover};
  const auto rebuilt =
      AdmissionIndex::Build(b, cover, options, 4, nullptr, &prior);
  EXPECT_FALSE(rebuilt->patched());
  EXPECT_TRUE(rebuilt->SameContents(*index));
  const auto patched =
      AdmissionIndex::Build(a, cover, options, 4, nullptr, &prior);
  EXPECT_TRUE(patched->patched());
  EXPECT_TRUE(patched->SameContents(*index));
}

TEST(AdmissionIndexTest, LandmarkSetChangeFallsBackToFullBuild) {
  // A DAG base (no cycles, so nothing is covered) where vertex 0 is the
  // lone landmark. A first small batch keeps it and is patched; a
  // second gives vertex 7 a larger uncovered degree, so the landmark
  // set changes between two non-compaction publishes and the publish
  // must take the counted full-build fallback.
  ServiceOptions options;
  options.cover.k = 4;
  options.compact_delta_threshold = 0;
  options.admission_index_landmarks = 1;
  std::vector<Edge> base_edges = {{0, 1}, {0, 2}, {0, 3}, {0, 4}, {1, 2}};
  CycleBreakService service(CsrGraph::FromEdges(20, base_edges), options);
  ASSERT_EQ(service.PinSnapshot()->admission_index->landmarks()[0], 0u);

  service.SubmitEdges(std::vector<Edge>{{5, 6}});
  ServiceStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.index_builds, 2u);
  EXPECT_EQ(stats.index_patches, 1u);
  EXPECT_TRUE(service.PinSnapshot()->admission_index->patched());

  std::vector<Edge> fan;
  for (VertexId w = 8; w < 16; ++w) fan.push_back(Edge{7, w});
  service.SubmitEdges(fan);
  stats = service.Stats();
  EXPECT_EQ(stats.compactions, 0u);
  EXPECT_EQ(stats.index_builds, 3u);
  EXPECT_EQ(stats.index_patches, 1u);
  const auto snap = service.PinSnapshot();
  EXPECT_FALSE(snap->admission_index->patched());
  ASSERT_EQ(snap->admission_index->num_landmarks(), 1u);
  EXPECT_EQ(snap->admission_index->landmarks()[0], 7u);
  const auto fresh =
      AdmissionIndex::Build(snap->graph, snap->cover, snap->options, 1,
                            nullptr);
  EXPECT_TRUE(snap->admission_index->SameContents(*fresh));
}

TEST(AdmissionIndexTest, LandmarksAreStoredInAscendingIdOrder) {
  CsrGraph base = GeneratePowerLaw(
      {.n = 120, .m = 600, .theta = 0.7, .reciprocity = 0.2, .seed = 9});
  ServiceOptions options;
  options.cover.k = 4;
  options.compact_delta_threshold = 0;
  CycleBreakService service(std::move(base), options);
  const auto snap = service.PinSnapshot();
  const auto index = AdmissionIndex::Build(snap->graph, snap->cover,
                                           snap->options, 20, nullptr);
  ASSERT_EQ(index->num_landmarks(), 20u);
  EXPECT_TRUE(std::is_sorted(index->landmarks().begin(),
                             index->landmarks().end()));
}

TEST(AdmissionIndexTest, BatchGroupingMatchesPerQueryOnSharedSources) {
  // Batches engineered to exercise the grouping machinery: many queries
  // sharing a probe source (same dst), duplicates, self-loops and
  // out-of-universe endpoints interleaved.
  constexpr VertexId kN = 30;
  ServiceOptions options;
  options.cover.k = 5;
  options.compact_delta_threshold = 0;
  options.admission_index_landmarks = 4;
  CycleBreakService service(
      GeneratePowerLaw(
          {.n = kN, .m = 160, .theta = 0.6, .reciprocity = 0.3, .seed = 55}),
      options);

  Rng rng(56);
  std::vector<Edge> queries;
  for (int i = 0; i < 300; ++i) {
    const VertexId u = static_cast<VertexId>(rng.NextBounded(kN));
    // Skew dst heavily so groups share probe sources.
    const VertexId v = static_cast<VertexId>(rng.NextBounded(4));
    queries.push_back(Edge{u, v});
  }
  queries.push_back(Edge{3, 3});                    // self-loop
  queries.push_back(Edge{kN + 5, 1});               // out of universe
  queries.push_back(queries.front());               // duplicate
  queries.push_back(queries.front());               // duplicate again

  const auto snap = service.PinSnapshot();
  AdmissionBatchScratch scratch;
  std::vector<AdmissionVerdict> batched;
  AdmissionBatchStats stats;
  CheckAdmissionBatchOn(*snap, queries, &scratch, &batched, &stats);
  ASSERT_EQ(batched.size(), queries.size());
  PathProber prober(snap->options);
  for (size_t i = 0; i < queries.size(); ++i) {
    const AdmissionVerdict expected = CheckAdmissionOn(
        *snap, queries[i].src, queries[i].dst, &prober);
    EXPECT_EQ(expected.would_close, batched[i].would_close)
        << queries[i].src << "->" << queries[i].dst;
    EXPECT_EQ(expected.admissible, batched[i].admissible);
    EXPECT_EQ(expected.via_index, batched[i].via_index);
    EXPECT_EQ(expected.probed, batched[i].probed);
  }
  // Grouping by shared probe source (the queried dst, drawn from only 4
  // values) collapses the surviving probes into at most 4 BFS sweeps.
  EXPECT_LE(stats.bfs_groups, stats.index_fallbacks);
  EXPECT_LE(stats.bfs_groups, 4u);
}

TEST(AdmissionIndexTest, IndexedSnapshotAgreesWithPlainOnAllPairs) {
  // Snapshot-level exactness, independent of service wiring: attach an
  // index to a copy of a pinned snapshot and compare CheckAdmissionOn
  // across every pair and several landmark counts.
  constexpr VertexId kN = 32;
  ServiceOptions options;
  options.cover.k = 4;
  options.compact_delta_threshold = 0;
  CycleBreakService service(GenerateErdosRenyi(kN, 170, /*seed=*/77),
                            options);
  Rng rng(78);
  std::vector<Edge> extra;
  for (int i = 0; i < 25; ++i) {
    extra.push_back(Edge{static_cast<VertexId>(rng.NextBounded(kN)),
                         static_cast<VertexId>(rng.NextBounded(kN))});
  }
  service.SubmitEdges(extra);
  const auto snap = service.PinSnapshot();
  for (const int landmarks : {0, 1, 3, 16, 64}) {
    const auto indexed = WithIndex(*snap, landmarks);
    uint64_t via_index = 0;
    for (VertexId u = 0; u < kN; ++u) {
      for (VertexId v = 0; v < kN; ++v) {
        PathProber p1(snap->options);
        PathProber p2(snap->options);
        const AdmissionVerdict expected =
            CheckAdmissionOn(*snap, u, v, &p1);
        const AdmissionVerdict got = CheckAdmissionOn(*indexed, u, v, &p2);
        ASSERT_EQ(expected.would_close, got.would_close)
            << u << "->" << v << " landmarks=" << landmarks;
        if (got.via_index) ++via_index;
      }
    }
    if (landmarks > 0) EXPECT_GT(via_index, 0u);
  }
}

}  // namespace
}  // namespace tdb
