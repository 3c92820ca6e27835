// Exactness of the meet-in-the-middle ingest probe. On random power-law
// overlays (a CSR base plus delta edges) with a random base vertex cover
// and a random S:
//   1. BidirectionalDistance equals a plain BFS's shortest uncovered
//      distance whenever that is at most k - 1, and reports kNoJoin
//      otherwise;
//   2. PathProber::FindPath returns the same verdict and the same vertex
//      path as the plain first-path DFS it replaced (kept below as the
//      reference), with and without a path out-parameter;
//   3. PathProber::FindPathsFrom agrees with the reference per target.
// The sweep covers k in 3..7 and both 2-cycle settings, probes along
// existing edges (the below-band bare edge when 2-cycles are excluded)
// and toward base-cover hubs, and shares one warm context across every
// probe so stale labels would show.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "core/batch_augment.h"
#include "graph/generators.h"
#include "graph/overlay_graph.h"
#include "search/bidirectional_reach.h"
#include "util/rng.h"

namespace tdb {
namespace {

/// The probe as it was before the ball join: a plain DFS to k - 1 hops
/// over uncovered edges, first path in adjacency order.
class ReferenceProber {
 public:
  ReferenceProber(uint32_t min_path, uint32_t max_path)
      : min_path_(min_path), max_path_(max_path) {}

  bool FindPath(const OverlayGraph& graph, const TransversalState& state,
                VertexId src, VertexId dst, std::vector<VertexId>* path) {
    path->clear();
    on_path_.assign(1, src);
    const bool found = Dfs(graph, state, src, dst, 0, path);
    if (found) {
      std::reverse(path->begin(), path->end());
      path->insert(path->begin(), src);
    }
    return found;
  }

 private:
  bool Dfs(const OverlayGraph& graph, const TransversalState& state,
           VertexId u, VertexId dst, uint32_t depth,
           std::vector<VertexId>* path) {
    if (state.VertexCovered(u)) return false;
    bool found = false;
    graph.ForEachOut(u, [&](VertexId w, EdgeId e) {
      if (state.covered.count(e) > 0) return true;
      if (w == dst) {
        const uint32_t len = depth + 1;
        if (len < min_path_ || len > max_path_) return true;
        path->push_back(dst);
        found = true;
        return false;
      }
      if (depth + 2 > max_path_) return true;
      if (std::find(on_path_.begin(), on_path_.end(), w) != on_path_.end()) {
        return true;
      }
      on_path_.push_back(w);
      found = Dfs(graph, state, w, dst, depth + 1, path);
      on_path_.pop_back();
      if (found) {
        path->push_back(w);
        return false;
      }
      return true;
    });
    return found;
  }

  uint32_t min_path_;
  uint32_t max_path_;
  std::vector<VertexId> on_path_;
};

/// Shortest uncovered distance src ->* dst by plain BFS, kNoJoin when it
/// exceeds max_hops.
uint32_t ReferenceDistance(const OverlayGraph& graph,
                           const TransversalState& state, VertexId src,
                           VertexId dst, uint32_t max_hops) {
  std::vector<uint32_t> dist(graph.num_vertices(), kNoJoin);
  std::queue<VertexId> queue;
  dist[src] = 0;
  queue.push(src);
  while (!queue.empty()) {
    const VertexId x = queue.front();
    queue.pop();
    if (x == dst) return dist[x] <= max_hops ? dist[x] : kNoJoin;
    if (state.VertexCovered(x) || dist[x] >= max_hops) continue;
    graph.ForEachOut(x, [&](VertexId w, EdgeId e) {
      if (state.covered.count(e) == 0 && dist[w] == kNoJoin) {
        dist[w] = dist[x] + 1;
        queue.push(w);
      }
      return true;
    });
  }
  return kNoJoin;
}

struct Instance {
  std::unique_ptr<OverlayGraph> graph;
  TransversalState state;
  std::vector<VertexId> hubs;
};

/// A power-law graph split into a CSR base and shuffled delta edges, with
/// half of its top hubs and a few random vertices in the base cover and
/// about a tenth of the edges in S.
Instance MakeInstance(uint64_t seed) {
  PowerLawParams params;
  params.n = 160;
  params.m = 640;
  params.theta = 0.7;
  params.reciprocity = 0.3;
  params.seed = seed;
  const CsrGraph full = GeneratePowerLaw(params);
  const VertexId n = full.num_vertices();
  Rng rng(seed * 7919 + 3);
  std::vector<Edge> base_edges;
  std::vector<Edge> delta_edges;
  for (EdgeId e = 0; e < full.num_edges(); ++e) {
    (rng.NextBool(0.6) ? base_edges : delta_edges)
        .push_back(Edge{full.EdgeSrc(e), full.EdgeDst(e)});
  }
  for (size_t i = delta_edges.size(); i > 1; --i) {
    std::swap(delta_edges[i - 1], delta_edges[rng.NextBounded(i)]);
  }
  Instance inst;
  inst.graph = std::make_unique<OverlayGraph>(std::make_shared<const CsrGraph>(
      CsrGraph::FromEdges(n, std::move(base_edges))));
  for (const Edge& e : delta_edges) inst.graph->AddEdge(e.src, e.dst);

  std::vector<VertexId> by_degree(n);
  for (VertexId v = 0; v < n; ++v) by_degree[v] = v;
  std::stable_sort(by_degree.begin(), by_degree.end(),
                   [&](VertexId a, VertexId b) {
                     return inst.graph->OutDegree(a) >
                            inst.graph->OutDegree(b);
                   });
  inst.hubs.assign(by_degree.begin(), by_degree.begin() + n / 16);
  std::vector<VertexId> cover;
  for (VertexId h : inst.hubs) {
    if (rng.NextBool(0.5)) cover.push_back(h);
  }
  for (VertexId v = 0; v < n; ++v) {
    if (rng.NextBool(0.03)) cover.push_back(v);
  }
  std::sort(cover.begin(), cover.end());
  cover.erase(std::unique(cover.begin(), cover.end()), cover.end());
  inst.state.base = BaseCover::FromVertexCover(n, cover, Status::OK());
  for (EdgeId e = 0; e < inst.graph->num_edges(); ++e) {
    if (rng.NextBool(0.1)) inst.state.covered.insert(e);
  }
  return inst;
}

/// Probe pairs: random pairs, pairs along existing edges (the bare
/// below-band edge when 2-cycles are excluded), and pairs ending at hubs.
std::vector<Edge> MakeProbes(const Instance& inst, uint64_t seed) {
  const OverlayGraph& g = *inst.graph;
  const VertexId n = g.num_vertices();
  Rng rng(seed * 104729 + 11);
  std::vector<Edge> probes;
  for (int i = 0; i < 120; ++i) {
    const VertexId a = static_cast<VertexId>(rng.NextBounded(n));
    const VertexId b = static_cast<VertexId>(rng.NextBounded(n));
    if (a != b) probes.push_back(Edge{a, b});
  }
  for (int i = 0; i < 120; ++i) {
    const EdgeId e = rng.NextBounded(g.num_edges());
    probes.push_back(Edge{g.EdgeSrc(e), g.EdgeDst(e)});
  }
  for (int i = 0; i < 40; ++i) {
    const VertexId a = static_cast<VertexId>(rng.NextBounded(n));
    const VertexId h = inst.hubs[rng.NextBounded(inst.hubs.size())];
    if (a != h) probes.push_back(Edge{a, h});
  }
  return probes;
}

TEST(ProbeExactnessTest, BallJoinAndPrunedDfsMatchPlainDfs) {
  SearchContext ctx;  // shared by every prober: labels must not leak
  uint64_t found = 0;
  uint64_t not_found = 0;
  uint64_t dfs_runs = 0;
  uint64_t below_band_found = 0;
  uint64_t below_band_not_found = 0;
  uint64_t hub_paths = 0;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    const Instance inst = MakeInstance(seed);
    const OverlayGraph& g = *inst.graph;
    const std::vector<Edge> probes = MakeProbes(inst, seed);
    for (uint32_t k = 3; k <= 7; ++k) {
      for (const bool two_cycles : {false, true}) {
        CoverOptions options;
        options.k = k;
        options.include_two_cycles = two_cycles;
        const uint32_t min_path = two_cycles ? 1 : 2;
        const uint32_t max_path = k - 1;
        PathProber prober(options, &ctx);
        ReferenceProber reference(min_path, max_path);
        std::vector<VertexId> path;
        std::vector<VertexId> expected_path;
        for (const Edge& p : probes) {
          const std::string where =
              "seed=" + std::to_string(seed) + " k=" + std::to_string(k) +
              " two_cycles=" + std::to_string(two_cycles) +
              " src=" + std::to_string(p.src) +
              " dst=" + std::to_string(p.dst);
          const uint32_t expected_dist =
              ReferenceDistance(g, inst.state, p.src, p.dst, max_path);
          const uint32_t dist = BidirectionalDistance(
              g, p.src, p.dst, max_path, &ctx,
              [&](VertexId v) { return !inst.state.VertexCovered(v); },
              [&](EdgeId e) { return inst.state.covered.count(e) == 0; });
          ASSERT_EQ(dist, expected_dist) << where;

          const bool expected = reference.FindPath(g, inst.state, p.src,
                                                   p.dst, &expected_path);
          ASSERT_EQ(prober.FindPath(g, inst.state, p.src, p.dst, &path),
                    expected)
              << where;
          ASSERT_EQ(path, expected ? expected_path : std::vector<VertexId>{})
              << where;
          ASSERT_EQ(prober.FindPath(g, inst.state, p.src, p.dst, nullptr),
                    expected)
              << where;

          (expected ? found : not_found) += 1;
          if (expected && inst.state.VertexCovered(p.dst)) ++hub_paths;
          if (!two_cycles && expected_dist == 1) {
            (expected ? below_band_found : below_band_not_found) += 1;
          }
        }
        dfs_runs += prober.dfs_runs();

        // Shared-source form: group every probe by its source.
        for (const Edge& p : probes) {
          std::vector<VertexId> targets;
          for (const Edge& q : probes) {
            if (q.src == p.src) targets.push_back(q.dst);
          }
          std::vector<uint8_t> batch(targets.size(), 0xAA);
          prober.FindPathsFrom(g, inst.state, p.src, targets, batch.data());
          for (size_t j = 0; j < targets.size(); ++j) {
            ASSERT_EQ(batch[j] != 0, reference.FindPath(g, inst.state, p.src,
                                                        targets[j], &path))
                << "seed=" << seed << " k=" << k
                << " two_cycles=" << two_cycles << " src=" << p.src
                << " dst=" << targets[j];
            ASSERT_LE(batch[j], 1);
          }
        }
      }
    }
  }
  // The sweep must reach every regime it is meant to check.
  EXPECT_GT(found, 0u);
  EXPECT_GT(not_found, found);
  EXPECT_GT(dfs_runs, 0u);
  EXPECT_GT(below_band_found, 0u);
  EXPECT_GT(below_band_not_found, 0u);
  EXPECT_GT(hub_paths, 0u);
}

TEST(ProbeExactnessTest, BandEdgesOfTheHopBudget) {
  // A directed path 0 -> 1 -> ... -> 6 plus the shortcut 0 -> 6: the
  // only qualifying path 0 ->* 6 is the long one once 2-cycles are
  // excluded and the bare edge is below the band, and it needs the full
  // k - 1 = 6 hops.
  std::vector<Edge> edges;
  for (VertexId v = 0; v < 6; ++v) edges.push_back(Edge{v, v + 1});
  edges.push_back(Edge{0, 6});
  OverlayGraph g(
      std::make_shared<const CsrGraph>(CsrGraph::FromEdges(7, edges)));
  TransversalState state;
  CoverOptions options;
  std::vector<VertexId> path;
  for (uint32_t k = 3; k <= 8; ++k) {
    options.k = k;
    PathProber prober(options);
    EXPECT_EQ(prober.FindPath(g, state, 0, 6, &path), k >= 7) << "k=" << k;
    EXPECT_EQ(prober.FindPath(g, state, 0, 6, nullptr), k >= 7) << "k=" << k;
    EXPECT_EQ(prober.FindPath(g, state, 0, 5, nullptr), k >= 6) << "k=" << k;
  }
  options.k = 7;
  PathProber prober(options);
  ASSERT_TRUE(prober.FindPath(g, state, 0, 6, &path));
  EXPECT_EQ(path, (std::vector<VertexId>{0, 1, 2, 3, 4, 5, 6}));
  // An S edge in the middle, or a base-cover vertex on the way, cuts it.
  TransversalState cut = state;
  g.ForEachOut(3, [&](VertexId w, EdgeId e) {
    if (w == 4) cut.covered.insert(e);
    return true;
  });
  EXPECT_FALSE(prober.FindPath(g, cut, 0, 6, nullptr));
  TransversalState hub;
  hub.base = BaseCover::FromVertexCover(7, {4}, Status::OK());
  EXPECT_FALSE(prober.FindPath(g, hub, 0, 6, nullptr));
  // The target itself may be base-covered: edges into it stay uncovered.
  hub.base = BaseCover::FromVertexCover(7, {6}, Status::OK());
  EXPECT_TRUE(prober.FindPath(g, hub, 0, 6, nullptr));
}

}  // namespace
}  // namespace tdb
