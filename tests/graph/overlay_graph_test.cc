#include "graph/overlay_graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "graph/generators.h"
#include "util/rng.h"

namespace tdb {
namespace {

std::shared_ptr<const CsrGraph> MakeBase(VertexId n,
                                         std::vector<Edge> edges) {
  return std::make_shared<const CsrGraph>(
      CsrGraph::FromEdges(n, std::move(edges)));
}

/// All (src, dst) pairs reachable through ForEachOut, with edge ids.
std::vector<std::pair<Edge, EdgeId>> CollectOut(const OverlayGraph& g) {
  std::vector<std::pair<Edge, EdgeId>> out;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    g.ForEachOut(v, [&](VertexId w, EdgeId e) {
      out.push_back({Edge{v, w}, e});
      return true;
    });
  }
  return out;
}

TEST(OverlayGraphTest, DeltaIdsExtendBaseIds) {
  auto base = MakeBase(4, {{0, 1}, {1, 2}});
  OverlayGraph g(base);
  EXPECT_EQ(g.base_edges(), 2u);
  EXPECT_EQ(g.AddEdge(2, 3), 2u);
  EXPECT_EQ(g.AddEdge(3, 0), 3u);
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_EQ(g.delta_edges(), 2u);
  EXPECT_EQ(g.EdgeSrc(0), 0u);
  EXPECT_EQ(g.EdgeDst(1), 2u);
  EXPECT_EQ(g.EdgeSrc(2), 2u);
  EXPECT_EQ(g.EdgeDst(3), 0u);
}

TEST(OverlayGraphTest, RejectsDuplicatesSelfLoopsAndOutOfUniverse) {
  auto base = MakeBase(3, {{0, 1}});
  OverlayGraph g(base);
  EXPECT_EQ(g.AddEdge(0, 1), kInvalidEdge);  // duplicate of a base edge
  EXPECT_EQ(g.AddEdge(1, 1), kInvalidEdge);  // self-loop
  EXPECT_EQ(g.AddEdge(0, 3), kInvalidEdge);  // outside the universe
  EXPECT_EQ(g.AddEdge(3, 0), kInvalidEdge);
  ASSERT_NE(g.AddEdge(1, 2), kInvalidEdge);
  EXPECT_EQ(g.AddEdge(1, 2), kInvalidEdge);  // duplicate of a delta edge
  EXPECT_EQ(g.delta_edges(), 1u);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 2));
  EXPECT_FALSE(g.HasEdge(2, 1));
}

TEST(OverlayGraphTest, UnifiedIterationVisitsBaseThenDelta) {
  auto base = MakeBase(4, {{0, 2}, {0, 1}});
  OverlayGraph g(base);
  g.AddEdge(0, 3);
  std::vector<VertexId> neighbors;
  std::vector<EdgeId> ids;
  g.ForEachOut(0, [&](VertexId w, EdgeId e) {
    neighbors.push_back(w);
    ids.push_back(e);
    return true;
  });
  // Base neighbors come sorted (CSR), delta follows in insertion order.
  EXPECT_EQ(neighbors, (std::vector<VertexId>{1, 2, 3}));
  EXPECT_EQ(ids.size(), 3u);
  EXPECT_EQ(ids[2], g.base_edges());
  // In-edges of 3: only the delta edge.
  std::vector<VertexId> sources;
  g.ForEachIn(3, [&](VertexId w, EdgeId) {
    sources.push_back(w);
    return true;
  });
  EXPECT_EQ(sources, (std::vector<VertexId>{0}));
}

TEST(OverlayGraphTest, EarlyStopIsHonored) {
  auto base = MakeBase(3, {{0, 1}, {0, 2}});
  OverlayGraph g(base);
  int visited = 0;
  const bool completed = g.ForEachOut(0, [&](VertexId, EdgeId) {
    ++visited;
    return false;
  });
  EXPECT_FALSE(completed);
  EXPECT_EQ(visited, 1);
}

TEST(OverlayGraphTest, CopyIsIndependent) {
  auto base = MakeBase(4, {{0, 1}});
  OverlayGraph g(base);
  g.AddEdge(1, 2);
  OverlayGraph frozen = g;  // the service's publish copy
  g.AddEdge(2, 3);
  EXPECT_EQ(frozen.delta_edges(), 1u);
  EXPECT_EQ(g.delta_edges(), 2u);
  EXPECT_FALSE(frozen.HasEdge(2, 3));
  EXPECT_TRUE(g.HasEdge(2, 3));
  EXPECT_EQ(&frozen.base(), &g.base());  // base snapshot is shared
}

TEST(OverlayGraphTest, RandomSplitMatchesFullCsr) {
  // Partition a random graph's edges into base and delta; the overlay
  // must present exactly the full edge set, and ToCsr must round-trip.
  for (uint64_t seed = 0; seed < 3; ++seed) {
    CsrGraph full = GenerateErdosRenyi(40, 300, seed);
    Rng rng(seed * 7 + 1);
    std::vector<Edge> base_edges;
    std::vector<Edge> delta_edges;
    for (EdgeId e = 0; e < full.num_edges(); ++e) {
      (rng.NextBool(0.7) ? base_edges : delta_edges)
          .push_back(Edge{full.EdgeSrc(e), full.EdgeDst(e)});
    }
    OverlayGraph g(MakeBase(full.num_vertices(), base_edges));
    for (const Edge& e : delta_edges) {
      ASSERT_NE(g.AddEdge(e.src, e.dst), kInvalidEdge);
    }
    ASSERT_EQ(g.num_edges(), full.num_edges());

    std::set<std::pair<VertexId, VertexId>> expected;
    for (EdgeId e = 0; e < full.num_edges(); ++e) {
      expected.insert({full.EdgeSrc(e), full.EdgeDst(e)});
    }
    std::set<std::pair<VertexId, VertexId>> seen;
    std::set<EdgeId> seen_ids;
    for (const auto& [edge, id] : CollectOut(g)) {
      seen.insert({edge.src, edge.dst});
      seen_ids.insert(id);
      EXPECT_EQ(g.EdgeSrc(id), edge.src);
      EXPECT_EQ(g.EdgeDst(id), edge.dst);
    }
    EXPECT_EQ(seen, expected);
    EXPECT_EQ(seen_ids.size(), full.num_edges());  // ids are distinct

    // In-iteration covers the same edge set.
    std::set<std::pair<VertexId, VertexId>> seen_in;
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      g.ForEachIn(v, [&](VertexId w, EdgeId) {
        seen_in.insert({w, v});
        return true;
      });
      EXPECT_EQ(g.OutDegree(v), full.out_degree(v));
    }
    EXPECT_EQ(seen_in, expected);

    CsrGraph round_trip = g.ToCsr();
    ASSERT_EQ(round_trip.num_edges(), full.num_edges());
    for (EdgeId e = 0; e < full.num_edges(); ++e) {
      EXPECT_TRUE(round_trip.HasEdge(full.EdgeSrc(e), full.EdgeDst(e)));
    }
  }
}

TEST(OverlayGraphTest, InEdgeIdsMatchOutEdgeIds) {
  // ForEachIn rebuilds a base in-edge's id from its out-list rank; it
  // must equal the id ForEachOut reports for the same edge (FindEdge for
  // base edges, the insertion id for delta edges).
  for (uint64_t seed = 0; seed < 3; ++seed) {
    const CsrGraph full = GenerateErdosRenyi(80, 300, seed);
    Rng rng(seed * 11 + 5);
    std::vector<Edge> base_edges;
    std::vector<Edge> delta_edges;
    for (VertexId u = 0; u < full.num_vertices(); ++u) {
      for (const VertexId v : full.OutNeighbors(u)) {
        (rng.NextBool(0.6) ? base_edges : delta_edges).push_back({u, v});
      }
    }
    OverlayGraph g(MakeBase(full.num_vertices(), base_edges));
    for (const Edge& e : delta_edges) {
      ASSERT_NE(g.AddEdge(e.src, e.dst), kInvalidEdge);
    }
    std::map<std::pair<VertexId, VertexId>, EdgeId> out_ids;
    for (const auto& [edge, id] : CollectOut(g)) {
      out_ids[{edge.src, edge.dst}] = id;
    }
    size_t base_seen = 0;
    size_t delta_seen = 0;
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      g.ForEachIn(v, [&](VertexId w, EdgeId id) {
        EXPECT_EQ(id, out_ids.at({w, v}));
        EXPECT_EQ(g.EdgeSrc(id), w);
        EXPECT_EQ(g.EdgeDst(id), v);
        if (id < g.base_edges()) {
          EXPECT_EQ(id, g.base().FindEdge(w, v));
          ++base_seen;
        } else {
          ++delta_seen;
        }
        return true;
      });
    }
    EXPECT_EQ(base_seen, base_edges.size());
    EXPECT_EQ(delta_seen, delta_edges.size());
  }
}

}  // namespace
}  // namespace tdb
