#include "core/batch_augment.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "core/solver.h"
#include "graph/generators.h"
#include "search/cycle_enumerator.h"
#include "util/rng.h"

namespace tdb {
namespace {

CoverOptions Opts(uint32_t k) {
  CoverOptions o;
  o.k = k;
  return o;
}

std::shared_ptr<const CsrGraph> MakeBase(VertexId n,
                                         std::vector<Edge> edges) {
  return std::make_shared<const CsrGraph>(
      CsrGraph::FromEdges(n, std::move(edges)));
}

/// Exhaustive oracle: the two-layer transversal (base vertex cover + S)
/// intersects every constrained cycle of base + delta.
bool InvariantHolds(const OverlayGraph& g, const TransversalState& state,
                    const CoverOptions& opts) {
  CsrGraph snapshot = g.ToCsr();
  std::set<std::pair<VertexId, VertexId>> covered_pairs;
  for (EdgeId e : state.covered) {
    covered_pairs.insert({g.EdgeSrc(e), g.EdgeDst(e)});
  }
  std::vector<std::vector<VertexId>> cycles;
  const CycleConstraint c{.max_hops = opts.k,
                          .min_len = opts.include_two_cycles ? 2u : 3u};
  if (!EnumerateConstrainedCycles(snapshot, c, 1 << 20, &cycles).ok()) {
    ADD_FAILURE() << "instance too big for the oracle";
    return false;
  }
  for (const auto& cyc : cycles) {
    bool hit = false;
    for (size_t i = 0; i < cyc.size() && !hit; ++i) {
      hit = state.VertexCovered(cyc[i]) ||
            covered_pairs.count({cyc[i], cyc[(i + 1) % cyc.size()]}) > 0;
    }
    if (!hit) return false;
  }
  return true;
}

TEST(BatchAugmentTest, TriangleClosureGetsCovered) {
  OverlayGraph g(MakeBase(3, {}));
  TransversalState state;
  SearchContext ctx;
  const std::vector<Edge> batch = {{0, 1}, {1, 2}, {2, 0}};
  const BatchAugmentStats stats =
      BatchAugment(&g, &state, Opts(3), batch, &ctx);
  EXPECT_EQ(stats.inserted, 3u);
  EXPECT_EQ(stats.cycles_covered, 1u);
  EXPECT_EQ(state.covered.size(), 1u);
  EXPECT_TRUE(InvariantHolds(g, state, Opts(3)));
}

TEST(BatchAugmentTest, RejectsDuplicatesAgainstBaseAndBatch) {
  OverlayGraph g(MakeBase(3, {{0, 1}}));
  TransversalState state;
  SearchContext ctx;
  const std::vector<Edge> batch = {{0, 1}, {1, 2}, {1, 2}, {2, 2}};
  const BatchAugmentStats stats =
      BatchAugment(&g, &state, Opts(3), batch, &ctx);
  EXPECT_EQ(stats.inserted, 1u);
  EXPECT_EQ(stats.rejected, 3u);
}

TEST(BatchAugmentTest, BaseVertexCoverSuppressesAugment) {
  // Base 0 -> 1 -> 2 with vertex 0 covered: closing 2 -> 0 creates only a
  // cycle already broken by the base layer, so S stays empty.
  OverlayGraph g(MakeBase(3, {{0, 1}, {1, 2}}));
  TransversalState state;
  SearchContext ctx;
  state.base = BaseCover::FromVertexCover(3, {0}, Status::OK());
  const std::vector<Edge> batch = {{2, 0}};
  const BatchAugmentStats stats =
      BatchAugment(&g, &state, Opts(3), batch, &ctx);
  EXPECT_EQ(stats.cycles_covered, 0u);
  EXPECT_TRUE(state.covered.empty());
  EXPECT_TRUE(InvariantHolds(g, state, Opts(3)));
}

TEST(BatchAugmentTest, InvariantHoldsAlongBatchedStreams) {
  // Batch size 1 is per-edge dynamic DARC, the streaming mode the
  // baseline was published for.
  for (const size_t batch_size : {size_t{1}, size_t{16}}) {
    for (uint64_t seed = 0; seed < 3; ++seed) {
      CsrGraph target = GenerateErdosRenyi(25, 120, seed);
      // A third of the edges form the solved base snapshot; the rest
      // arrive in batches.
      Rng rng(seed + 13);
      std::vector<Edge> base_edges;
      std::vector<Edge> incoming;
      for (EdgeId e = 0; e < target.num_edges(); ++e) {
        (rng.NextBool(0.33) ? base_edges : incoming)
            .push_back(Edge{target.EdgeSrc(e), target.EdgeDst(e)});
      }
      for (size_t i = incoming.size(); i > 1; --i) {
        std::swap(incoming[i - 1], incoming[rng.NextBounded(i)]);
      }
      auto base = MakeBase(target.num_vertices(), base_edges);
      const CoverOptions opts = Opts(4);
      CoverResult solved =
          SolveCycleCover(*base, CoverAlgorithm::kTdbPlusPlus, opts);
      ASSERT_TRUE(solved.status.ok());
      OverlayGraph g(base);
      TransversalState state;
      SearchContext ctx;
      state.base = BaseCover::FromVertexCover(target.num_vertices(),
                                              solved.cover, solved.status);
      for (size_t at = 0; at < incoming.size(); at += batch_size) {
        const size_t len = std::min(batch_size, incoming.size() - at);
        BatchAugment(&g, &state, opts,
                     std::span<const Edge>(incoming.data() + at, len), &ctx);
        ASSERT_TRUE(InvariantHolds(g, state, opts))
            << "batch=" << batch_size << " seed=" << seed << " after "
            << at + len << " edges";
      }
    }
  }
}

TEST(BatchAugmentTest, PruneDemotesAndWReusePromotes) {
  // Dense instance: one big batch over a complete digraph exercises both
  // PRUNE demotions and W-edge reuse in AUGMENT.
  CsrGraph full = MakeCompleteDigraph(7);
  std::vector<Edge> batch;
  for (EdgeId e = 0; e < full.num_edges(); ++e) {
    batch.push_back(Edge{full.EdgeSrc(e), full.EdgeDst(e)});
  }
  OverlayGraph g(MakeBase(7, {}));
  TransversalState state;
  SearchContext ctx;
  const BatchAugmentStats stats =
      BatchAugment(&g, &state, Opts(3), batch, &ctx);
  EXPECT_GT(stats.prunes, 0u);
  EXPECT_TRUE(InvariantHolds(g, state, Opts(3)));
}

TEST(BatchAugmentTest, TwoCycleModeCoversPairs) {
  CoverOptions opts = Opts(4);
  opts.include_two_cycles = true;
  OverlayGraph g(MakeBase(2, {{0, 1}}));
  TransversalState state;
  SearchContext ctx;
  const std::vector<Edge> batch = {{1, 0}};
  const BatchAugmentStats stats =
      BatchAugment(&g, &state, opts, batch, &ctx);
  EXPECT_EQ(stats.cycles_covered, 1u);
  EXPECT_TRUE(InvariantHolds(g, state, opts));
}

}  // namespace
}  // namespace tdb
