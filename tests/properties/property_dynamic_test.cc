// Streaming-maintenance properties: per-edge dynamic DARC (BatchAugment
// fed one edge per batch over an empty-base OverlayGraph) vs the static
// solvers along randomized edge streams.
//   1. at every checkpoint of the stream, the maintained edge set
//      intersects every constrained cycle of the graph so far (the
//      invariant the static DARC guarantees only at the end);
//   2. the 2-cycle variant maintains the same invariant under min_len 2;
//   3. the final dynamic cover is feasible on the same graph the static
//      solver sees, with sizes in the same ballpark.
#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <vector>

#include "core/batch_augment.h"
#include "core/darc.h"
#include "graph/generators.h"
#include "graph/overlay_graph.h"
#include "search/cycle_enumerator.h"
#include "util/rng.h"

namespace tdb {
namespace {

struct DynamicSweepParam {
  uint64_t seed;
  VertexId n;
  EdgeId m;
  double reciprocity;
  uint32_t k;
};

/// Per-edge dynamic DARC: an insert-only graph plus its S/W edge sets,
/// with no base vertex cover.
struct PerEdgeDarc {
  PerEdgeDarc(VertexId n, const CoverOptions& opts)
      : graph(std::make_shared<const CsrGraph>(CsrGraph::FromEdges(n, {}))),
        options(opts) {}

  void Insert(const Edge& e) {
    BatchAugment(&graph, &state, options, std::span<const Edge>(&e, 1),
                 &ctx);
  }

  OverlayGraph graph;
  TransversalState state;
  CoverOptions options;
  SearchContext ctx;
};

class DynamicStreamPropertyTest
    : public ::testing::TestWithParam<DynamicSweepParam> {
 protected:
  CsrGraph MakeGraph() const {
    const auto& p = GetParam();
    if (p.reciprocity == 0.0) {
      return GenerateErdosRenyi(p.n, p.m, p.seed);
    }
    PowerLawParams params;
    params.n = p.n;
    params.m = p.m;
    params.reciprocity = p.reciprocity;
    params.seed = p.seed;
    return GeneratePowerLaw(params);
  }

  std::vector<Edge> MakeStream(const CsrGraph& g) const {
    std::vector<Edge> stream;
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      stream.push_back(Edge{g.EdgeSrc(e), g.EdgeDst(e)});
    }
    Rng rng(GetParam().seed + 77);
    for (size_t i = stream.size(); i > 1; --i) {
      std::swap(stream[i - 1], stream[rng.NextBounded(i)]);
    }
    return stream;
  }
};

/// Exhaustive oracle: the maintained edge set intersects every cycle with
/// hop count in [min_len, k] of the accumulated graph.
bool InvariantHolds(const PerEdgeDarc& darc, uint32_t k, uint32_t min_len) {
  CsrGraph snapshot = darc.graph.ToCsr();
  std::vector<uint8_t> covered(snapshot.num_edges(), 0);
  for (EdgeId e : darc.state.covered) {
    const EdgeId csr_id =
        snapshot.FindEdge(darc.graph.EdgeSrc(e), darc.graph.EdgeDst(e));
    if (csr_id == kInvalidEdge) return false;
    covered[csr_id] = 1;
  }
  std::vector<std::vector<VertexId>> cycles;
  const CycleConstraint c{.max_hops = k, .min_len = min_len};
  if (!EnumerateConstrainedCycles(snapshot, c, 1 << 20, &cycles).ok()) {
    ADD_FAILURE() << "instance too big for the oracle";
    return false;
  }
  for (const auto& cyc : cycles) {
    bool hit = false;
    for (size_t i = 0; i < cyc.size() && !hit; ++i) {
      hit = covered[snapshot.FindEdge(cyc[i], cyc[(i + 1) % cyc.size()])];
    }
    if (!hit) return false;
  }
  return true;
}

TEST_P(DynamicStreamPropertyTest,
       TransversalIntersectsEveryCycleAtCheckpoints) {
  const auto& p = GetParam();
  const std::vector<Edge> stream = MakeStream(MakeGraph());
  CoverOptions opts;
  opts.k = p.k;
  PerEdgeDarc darc(p.n, opts);
  const size_t step = stream.size() < 4 ? 1 : stream.size() / 4;
  size_t next_check = step;
  for (size_t i = 0; i < stream.size(); ++i) {
    darc.Insert(stream[i]);
    if (i == next_check) {
      ASSERT_TRUE(InvariantHolds(darc, p.k, 3))
          << "after " << i + 1 << " of " << stream.size() << " edges";
      next_check += step;
    }
  }
  ASSERT_TRUE(InvariantHolds(darc, p.k, 3)) << "final";
}

TEST_P(DynamicStreamPropertyTest, TwoCycleVariantMaintainsInvariant) {
  const auto& p = GetParam();
  const std::vector<Edge> stream = MakeStream(MakeGraph());
  CoverOptions opts;
  opts.k = p.k;
  opts.include_two_cycles = true;
  PerEdgeDarc darc(p.n, opts);
  const size_t half = stream.size() / 2;
  for (size_t i = 0; i < stream.size(); ++i) {
    darc.Insert(stream[i]);
    if (i == half) {
      ASSERT_TRUE(InvariantHolds(darc, p.k, 2)) << "at the midpoint";
    }
  }
  ASSERT_TRUE(InvariantHolds(darc, p.k, 2)) << "final";
}

TEST_P(DynamicStreamPropertyTest, FinalCoverComparableToStaticDarc) {
  const auto& p = GetParam();
  CsrGraph g = MakeGraph();
  const std::vector<Edge> stream = MakeStream(g);
  CoverOptions opts;
  opts.k = p.k;
  PerEdgeDarc darc(p.n, opts);
  for (const Edge& e : stream) darc.Insert(e);
  DarcEdgeResult fixed = SolveDarcEdgeCover(g, opts);
  ASSERT_TRUE(fixed.status.ok());
  // Different edge orders pick different transversals, but neither should
  // be wildly larger than the other (both prune to per-edge minimality).
  EXPECT_LE(darc.state.covered.size(), 3 * fixed.edge_cover.size() + 3);
  EXPECT_LE(fixed.edge_cover.size(), 3 * darc.state.covered.size() + 3);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DynamicStreamPropertyTest,
    ::testing::Values(DynamicSweepParam{1, 20, 80, 0.0, 3},
                      DynamicSweepParam{2, 24, 110, 0.0, 4},
                      DynamicSweepParam{3, 30, 120, 0.3, 4},
                      DynamicSweepParam{4, 26, 100, 0.5, 5},
                      DynamicSweepParam{5, 32, 130, 0.2, 4}));

}  // namespace
}  // namespace tdb
