#include "graph/overlay_graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "graph/generators.h"
#include "util/epoch_ptr.h"
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

/// Everything a reader can observe of an overlay: both iteration orders
/// with ids, every edge's endpoints by id, the delta, and HasEdge over
/// `probes`.
struct View {
  std::vector<std::vector<std::pair<VertexId, EdgeId>>> out;
  std::vector<std::vector<std::pair<VertexId, EdgeId>>> in;
  std::vector<Edge> by_id;
  std::vector<Edge> delta;
  EdgeId delta_edges = 0;
  std::vector<bool> has;

  bool operator==(const View&) const = default;
};

View Observe(const OverlayGraph& g, const std::vector<Edge>& probes) {
  View view;
  view.out.resize(g.num_vertices());
  view.in.resize(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    g.ForEachOut(v, [&](VertexId w, EdgeId e) {
      view.out[v].push_back({w, e});
      return true;
    });
    g.ForEachIn(v, [&](VertexId w, EdgeId e) {
      view.in[v].push_back({w, e});
      return true;
    });
  }
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    view.by_id.push_back(Edge{g.EdgeSrc(e), g.EdgeDst(e)});
  }
  view.delta = g.delta();
  view.delta_edges = g.delta_edges();
  for (const Edge& p : probes) view.has.push_back(g.HasEdge(p.src, p.dst));
  return view;
}

/// `count` distinct pairs absent from `base`, with sources drawn mostly
/// from a few hot vertices so their delta chains grow long.
std::vector<Edge> FreshEdges(const CsrGraph& base, size_t count,
                             uint64_t seed) {
  const VertexId n = base.num_vertices();
  Rng rng(seed);
  std::set<Edge> seen;
  std::vector<Edge> edges;
  while (edges.size() < count) {
    const VertexId u = rng.NextBool(0.5)
                           ? static_cast<VertexId>(rng.NextBounded(4))
                           : static_cast<VertexId>(rng.NextBounded(n));
    const VertexId v = static_cast<VertexId>(rng.NextBounded(n));
    if (u == v || base.HasEdge(u, v) || !seen.insert({u, v}).second) {
      continue;
    }
    edges.push_back(Edge{u, v});
  }
  return edges;
}

void ExpectSameCsr(const CsrGraph& a, const CsrGraph& b) {
  ASSERT_EQ(a.num_vertices(), b.num_vertices());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (VertexId v = 0; v < a.num_vertices(); ++v) {
    ASSERT_EQ(a.OutEdgeBegin(v), b.OutEdgeBegin(v));
    const auto ao = a.OutNeighbors(v), bo = b.OutNeighbors(v);
    ASSERT_TRUE(std::equal(ao.begin(), ao.end(), bo.begin(), bo.end()));
    const auto ai = a.InNeighbors(v), bi = b.InNeighbors(v);
    ASSERT_TRUE(std::equal(ai.begin(), ai.end(), bi.begin(), bi.end()));
    const auto ar = a.InEdgeRanks(v), br = b.InEdgeRanks(v);
    ASSERT_TRUE(std::equal(ar.begin(), ar.end(), br.begin(), br.end()));
  }
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

TEST(OverlayGraphTest, ToCsrMatchesFromEdges) {
  // ToCsr merges the sorted delta into the base instead of re-sorting
  // everything; the CSR must equal a FromEdges build of all edges in
  // arbitrary order, including vertices with no base edges and delta
  // edges that sort before, between and after a vertex's base edges.
  for (uint64_t seed = 0; seed < 6; ++seed) {
    const VertexId n = 20 + static_cast<VertexId>(seed * 17);
    const CsrGraph full = GenerateErdosRenyi(n, n * (2 + seed), seed);
    Rng rng(seed * 13 + 3);
    std::vector<Edge> base_edges;
    std::vector<Edge> delta_edges;
    for (VertexId u = 0; u < full.num_vertices(); ++u) {
      for (const VertexId v : full.OutNeighbors(u)) {
        (rng.NextBool(0.5) ? base_edges : delta_edges).push_back({u, v});
      }
    }
    for (size_t i = delta_edges.size(); i > 1; --i) {
      std::swap(delta_edges[i - 1], delta_edges[rng.NextBounded(i)]);
    }
    OverlayGraph g(MakeBase(n, base_edges));
    for (const Edge& e : delta_edges) {
      ASSERT_NE(g.AddEdge(e.src, e.dst), kInvalidEdge);
    }
    std::vector<Edge> all = delta_edges;
    all.insert(all.end(), base_edges.begin(), base_edges.end());
    ExpectSameCsr(g.ToCsr(), CsrGraph::FromEdges(n, std::move(all)));
  }
  // Empty base and empty delta.
  OverlayGraph empty_base(MakeBase(5, {}));
  empty_base.AddEdge(4, 0);
  empty_base.AddEdge(0, 4);
  ExpectSameCsr(empty_base.ToCsr(),
                CsrGraph::FromEdges(5, {{0, 4}, {4, 0}}));
  const OverlayGraph empty_delta(MakeBase(3, {{2, 1}, {0, 2}}));
  ExpectSameCsr(empty_delta.ToCsr(),
                CsrGraph::FromEdges(3, {{2, 1}, {0, 2}}));
}

TEST(OverlayGraphTest, PinnedCopyIsIsolatedFromLaterAppends) {
  // Copies pinned at several lengths — inside the first chunk, exactly at
  // a chunk boundary (256, 768) and past it — must observe exactly what
  // they observed when taken, however far the writer appends on the
  // same vertices and across later chunk allocations.
  const auto base =
      std::make_shared<const CsrGraph>(GenerateErdosRenyi(60, 240, 7));
  const std::vector<Edge> stream = FreshEdges(*base, 2000, 11);
  std::vector<Edge> probes(stream.begin(), stream.begin() + 100);
  probes.insert(probes.end(), stream.end() - 100, stream.end());
  probes.push_back({0, 1});
  probes.push_back({1, 0});

  OverlayGraph g(base);
  std::vector<std::pair<OverlayGraph, View>> pinned;
  const std::set<size_t> pin_at = {0, 1, 100, 256, 257, 768, 1500};
  for (size_t i = 0; i <= stream.size(); ++i) {
    if (pin_at.count(i) > 0) {
      OverlayGraph copy = g;
      View view = Observe(copy, probes);
      pinned.emplace_back(std::move(copy), std::move(view));
    }
    if (i == stream.size()) break;
    ASSERT_EQ(g.AddEdge(stream[i].src, stream[i].dst),
              base->num_edges() + i);
  }
  for (const auto& [copy, view] : pinned) {
    EXPECT_EQ(Observe(copy, probes), view)
        << "copy of length " << view.delta_edges;
    EXPECT_EQ(&copy.base(), &g.base());
  }
  EXPECT_EQ(g.delta_edges(), stream.size());
  EXPECT_EQ(g.delta(), stream);
}

TEST(OverlayGraphTest, CopiesAreReadOnlyViews) {
  auto base = MakeBase(6, {{0, 1}, {1, 2}});
  OverlayGraph g(base);
  g.AddEdge(2, 3);
  OverlayGraph copy = g;
  EXPECT_DEATH(copy.AddEdge(2, 5), "read-only overlay copy");
  // Copy-assignment drops the target's append state as well; a move
  // carries it.
  OverlayGraph assigned(MakeBase(6, {}));
  assigned = g;
  EXPECT_DEATH(assigned.AddEdge(5, 4), "read-only overlay copy");
  OverlayGraph moved = std::move(g);
  EXPECT_EQ(moved.AddEdge(5, 4), 3u);
  EXPECT_EQ(copy.delta_edges(), 1u);
  EXPECT_EQ(assigned.delta_edges(), 1u);
}

TEST(OverlayGraphTest, ConcurrentReadersSeeExactlyTheirPrefix) {
  // One writer appends a known stream and publishes a copy every few
  // edges; readers pin copies and check each against the stream prefix
  // of its length while the writer keeps linking new entries into the
  // chains they walk. Under TSan this races the shared log directly.
  const auto base =
      std::make_shared<const CsrGraph>(GenerateErdosRenyi(200, 800, 3));
  const std::vector<Edge> stream = FreshEdges(*base, 1200, 5);
  const EdgeId m = base->num_edges();

  OverlayGraph writer(base);
  EpochPtr<OverlayGraph> published;
  published.Store(std::make_shared<const OverlayGraph>(writer));
  std::atomic<bool> done{false};
  std::atomic<uint64_t> checked{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      const VertexId hot = static_cast<VertexId>(t);
      bool last = false;
      while (!last) {
        last = done.load(std::memory_order_acquire);
        const auto pinned = published.Load().state;
        const OverlayGraph& g = *pinned;
        const EdgeId len = g.delta_edges();
        ASSERT_LE(len, stream.size());
        std::vector<std::pair<VertexId, EdgeId>> want_out;
        std::vector<std::pair<VertexId, EdgeId>> want_in;
        for (EdgeId i = 0; i < len; ++i) {
          if (stream[i].src == hot) want_out.push_back({stream[i].dst, m + i});
          if (stream[i].dst == hot) want_in.push_back({stream[i].src, m + i});
        }
        std::vector<std::pair<VertexId, EdgeId>> got_out;
        std::vector<std::pair<VertexId, EdgeId>> got_in;
        g.ForEachOut(hot, [&](VertexId w, EdgeId e) {
          if (e >= m) got_out.push_back({w, e});
          return true;
        });
        g.ForEachIn(hot, [&](VertexId w, EdgeId e) {
          if (e >= m) got_in.push_back({w, e});
          return true;
        });
        ASSERT_EQ(got_out, want_out) << "length " << len;
        ASSERT_EQ(got_in, want_in) << "length " << len;
        if (len > 0) {
          const Edge newest = stream[len - 1];
          ASSERT_TRUE(g.HasEdge(newest.src, newest.dst));
          ASSERT_EQ(g.EdgeSrc(m + len - 1), newest.src);
          ASSERT_EQ(g.EdgeDst(m + len - 1), newest.dst);
        }
        if (len < stream.size()) {
          ASSERT_FALSE(g.HasEdge(stream[len].src, stream[len].dst));
        }
        checked.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (size_t i = 0; i < stream.size(); ++i) {
    ASSERT_NE(writer.AddEdge(stream[i].src, stream[i].dst), kInvalidEdge);
    if (i % 7 == 6) {
      published.Store(std::make_shared<const OverlayGraph>(writer));
      std::this_thread::yield();  // let readers pin mid-stream
    }
  }
  published.Store(std::make_shared<const OverlayGraph>(writer));
  done.store(true, std::memory_order_release);
  for (auto& r : readers) r.join();
  EXPECT_GE(checked.load(), 3u);
  EXPECT_EQ(published.Load().state->delta_edges(), stream.size());
}

}  // namespace
}  // namespace tdb
