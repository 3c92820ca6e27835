// Exactness of the meet-in-the-middle probe behind ingest and admission.
// overlays (a CSR base plus delta edges) with a random base vertex cover
// and a random S:
//   1. BidirectionalDistance equals a plain BFS's shortest uncovered
//      distance whenever that is at most k - 1, and reports kNoJoin
//      otherwise;
//   2. PathProber::FindPath returns the same verdict and the same vertex
//      path as the plain first-path DFS it replaced (kept below as the
//      reference), with and without a path out-parameter;
//   3. admission: CheckAdmissionBatchOn equals per-query
//      CheckAdmissionOn, which equals a brute-force reference that
//      enumerates every uncovered path the new edge would close, at
//      several batch sizes and query orders;
//   4. S's source filter stays exact: for a source that shares a filter
//      slot with an S edge's source, for an S edge demoted to W that
//      leaves a stale bit, and for a service recovered from a snapshot
//      that carries a non-empty S.
// The references test S membership against an exact copy of S, never
// through the filter. The sweep covers k in 3..7 (admission: 3..6) and both 2-cycle
// settings, probes along existing edges (the below-band bare edge when
// 2-cycles are excluded), around S edges and toward base-cover hubs, and
// shares one warm context across every probe so stale labels would show.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <queue>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/batch_augment.h"
#include "graph/generators.h"
#include "graph/overlay_graph.h"
#include "search/bidirectional_reach.h"
#include "service/cycle_break_service.h"
#include "service/journal.h"
#include "service/snapshot.h"
#include "util/rng.h"

namespace tdb {
namespace {

/// An exact copy of S, for references that must not share the filter.
std::unordered_set<EdgeId> ExactS(const TransversalState& state) {
  return {state.covered.begin(), state.covered.end()};
}

/// The probe as it was before the ball join: a plain DFS to k - 1 hops
/// over uncovered edges, first path in adjacency order.
class ReferenceProber {
 public:
  ReferenceProber(uint32_t min_path, uint32_t max_path)
      : min_path_(min_path), max_path_(max_path) {}

  bool FindPath(const OverlayGraph& graph, const TransversalState& state,
                VertexId src, VertexId dst, std::vector<VertexId>* path) {
    path->clear();
    s_edges_ = ExactS(state);
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
      if (s_edges_.count(e) > 0) return true;
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
  std::unordered_set<EdgeId> s_edges_;
  std::vector<VertexId> on_path_;
};

/// Shortest uncovered distance src ->* dst by plain BFS, kNoJoin when it
/// exceeds max_hops.
uint32_t ReferenceDistance(const OverlayGraph& graph,
                           const TransversalState& state, VertexId src,
                           VertexId dst, uint32_t max_hops) {
  const std::unordered_set<EdgeId> s_edges = ExactS(state);
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
      if (s_edges.count(e) == 0 && dist[w] == kNoJoin) {
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
  for (VertexId u = 0; u < n; ++u) {
    for (const VertexId v : full.OutNeighbors(u)) {
      (rng.NextBool(0.6) ? base_edges : delta_edges).push_back(Edge{u, v});
    }
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
    if (rng.NextBool(0.1)) {
      inst.state.covered.insert(inst.graph->EdgeSrc(e), e);
    }
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
              [&](VertexId from, EdgeId e) {
                return !inst.state.covered.contains(from, e);
              });
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

/// Brute-force admission reference, straight from the definition: would
/// inserting u -> v close a simple cycle of [min_len, k] hops none of
/// whose edges is covered? An edge a -> b is covered when a is in the
/// base cover or the edge is in S; the new edge is covered when u is.
/// Counts every uncovered simple path v ->* u of [min_len - 1, k - 1]
/// hops by exhaustive DFS (no distance pruning, no early stop).
class BruteForceAdmission {
 public:
  BruteForceAdmission(const OverlayGraph& graph,
                      const TransversalState& state,
                      const CoverOptions& options)
      : graph_(graph),
        state_(state),
        s_edges_(ExactS(state)),
        min_path_(options.include_two_cycles ? 1 : 2),
        max_path_(options.k - 1) {}

  bool WouldClose(VertexId u, VertexId v) {
    const VertexId n = graph_.num_vertices();
    // No-op insertions close nothing new.
    if (u == v || u >= n || v >= n || graph_.HasEdge(u, v)) return false;
    if (state_.VertexCovered(u)) return false;  // the new edge is covered
    paths_ = 0;
    on_path_.assign(n, 0);
    on_path_[v] = 1;
    Extend(v, u, 0);
    return paths_ > 0;
  }

 private:
  void Extend(VertexId x, VertexId target, uint32_t depth) {
    if (depth == max_path_ || state_.VertexCovered(x)) return;
    graph_.ForEachOut(x, [&](VertexId w, EdgeId e) {
      if (s_edges_.count(e) > 0 || on_path_[w] != 0) return true;
      if (w == target) {
        if (depth + 1 >= min_path_) ++paths_;
        return true;
      }
      on_path_[w] = 1;
      Extend(w, target, depth + 1);
      on_path_[w] = 0;
      return true;
    });
  }

  const OverlayGraph& graph_;
  const TransversalState& state_;
  const std::unordered_set<EdgeId> s_edges_;
  uint32_t min_path_;
  uint32_t max_path_;
  std::vector<uint8_t> on_path_;
  uint64_t paths_ = 0;
};

/// Admission queries: random pairs, reversed edges (the bare below-band
/// edge when 2-cycles are excluded), reversed S edges, existing edges
/// (no-ops), pairs into and out of base-cover vertices, and out-of-range
/// or self-loop pairs.
std::vector<Edge> MakeAdmissionQueries(const Instance& inst, uint64_t seed) {
  const OverlayGraph& g = *inst.graph;
  const VertexId n = g.num_vertices();
  Rng rng(seed * 65537 + 29);
  std::vector<Edge> queries;
  for (int i = 0; i < 100; ++i) {
    queries.push_back(Edge{static_cast<VertexId>(rng.NextBounded(n)),
                           static_cast<VertexId>(rng.NextBounded(n))});
  }
  for (int i = 0; i < 100; ++i) {
    const EdgeId e = rng.NextBounded(g.num_edges());
    queries.push_back(Edge{g.EdgeDst(e), g.EdgeSrc(e)});
  }
  for (const EdgeId e : inst.state.covered) {
    if (queries.size() >= 260) break;
    queries.push_back(Edge{g.EdgeDst(e), g.EdgeSrc(e)});
  }
  for (int i = 0; i < 20; ++i) {
    const EdgeId e = rng.NextBounded(g.num_edges());
    queries.push_back(Edge{g.EdgeSrc(e), g.EdgeDst(e)});
  }
  for (int i = 0; i < 20; ++i) {
    const VertexId a = static_cast<VertexId>(rng.NextBounded(n));
    const VertexId h = inst.hubs[rng.NextBounded(inst.hubs.size())];
    queries.push_back(i % 2 == 0 ? Edge{a, h} : Edge{h, a});
  }
  queries.push_back(Edge{3, 3});
  queries.push_back(Edge{n, 0});
  queries.push_back(Edge{0, n + 7});
  return queries;
}

TEST(ProbeExactnessTest, AdmissionBatchMatchesPerQueryAndBruteForce) {
  SearchContext ctx;  // shared by every prober: labels must not leak
  uint64_t would_close = 0;
  uint64_t probed_clear = 0;
  uint64_t prechecked = 0;
  uint64_t below_band_closing = 0;
  uint64_t below_band_clear = 0;
  uint64_t s_edge_queries = 0;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    const Instance inst = MakeInstance(seed);
    std::vector<Edge> queries = MakeAdmissionQueries(inst, seed);
    for (uint32_t k = 3; k <= 6; ++k) {
      for (const bool two_cycles : {false, true}) {
        CoverOptions options;
        options.k = k;
        options.include_two_cycles = two_cycles;
        ServiceSnapshot snapshot(*inst.graph, inst.state, options);
        snapshot.epoch = seed * 100 + k;
        const OverlayGraph& g = snapshot.graph;
        BruteForceAdmission brute(g, snapshot.cover, options);
        PathProber single(options, &ctx);
        std::vector<uint8_t> expected(queries.size());
        for (size_t i = 0; i < queries.size(); ++i) {
          const Edge q = queries[i];
          const std::string where =
              "seed=" + std::to_string(seed) + " k=" + std::to_string(k) +
              " two_cycles=" + std::to_string(two_cycles) +
              " u=" + std::to_string(q.src) + " v=" + std::to_string(q.dst);
          const AdmissionVerdict verdict =
              CheckAdmissionOn(snapshot, q.src, q.dst, &single);
          const bool reference = brute.WouldClose(q.src, q.dst);
          ASSERT_EQ(verdict.would_close, reference) << where;
          ASSERT_EQ(verdict.admissible, !reference) << where;
          ASSERT_EQ(verdict.epoch, snapshot.epoch) << where;
          expected[i] = reference ? 1 : 0;
          if (reference) {
            ++would_close;
          } else if (verdict.probed) {
            ++probed_clear;
          } else {
            ++prechecked;
          }
          if (q.src < g.num_vertices() && q.dst < g.num_vertices() &&
              g.HasEdge(q.dst, q.src) && !two_cycles) {
            (reference ? below_band_closing : below_band_clear) += 1;
          }
        }
        s_edge_queries += inst.state.covered.size();

        // Batched, over several batch sizes and query orders: the same
        // verdict for every query wherever it sits in whichever batch.
        Rng rng(seed * 31 + k * 2 + (two_cycles ? 1 : 0));
        std::vector<size_t> order(queries.size());
        for (size_t i = 0; i < order.size(); ++i) order[i] = i;
        for (const int pass : {0, 1, 2}) {
          if (pass == 1) std::reverse(order.begin(), order.end());
          if (pass == 2) {
            for (size_t i = order.size(); i > 1; --i) {
              std::swap(order[i - 1], order[rng.NextBounded(i)]);
            }
          }
          for (const size_t batch_size :
               {size_t{1}, size_t{7}, size_t{64}, queries.size()}) {
            PathProber prober(options, &ctx);
            std::vector<AdmissionVerdict> verdicts;
            uint64_t probed = 0;
            for (size_t at = 0; at < order.size(); at += batch_size) {
              const size_t len = std::min(batch_size, order.size() - at);
              std::vector<Edge> batch;
              for (size_t j = at; j < at + len; ++j) {
                batch.push_back(queries[order[j]]);
              }
              verdicts.assign(3, AdmissionVerdict{});  // stale contents
              CheckAdmissionBatchOn(snapshot, batch, &prober, &verdicts);
              ASSERT_EQ(verdicts.size(), len);
              for (size_t j = 0; j < len; ++j) {
                const size_t i = order[at + j];
                ASSERT_EQ(verdicts[j].would_close ? 1 : 0, expected[i])
                    << "seed=" << seed << " k=" << k
                    << " two_cycles=" << two_cycles << " pass=" << pass
                    << " batch=" << batch_size << " query=" << i;
                ASSERT_EQ(verdicts[j].admissible, expected[i] == 0);
                ASSERT_EQ(verdicts[j].epoch, snapshot.epoch);
                if (verdicts[j].probed) ++probed;
              }
            }
            // The prober counts exactly the queries that reached it.
            EXPECT_EQ(prober.queries(), probed);
          }
        }
      }
    }
  }
  // The sweep must reach every regime it is meant to check.
  EXPECT_GT(would_close, 0u);
  EXPECT_GT(probed_clear, 0u);
  EXPECT_GT(prechecked, 0u);
  EXPECT_GT(below_band_closing, 0u);
  EXPECT_GT(below_band_clear, 0u);
  EXPECT_GT(s_edge_queries, 0u);
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
    if (w == 4) cut.covered.insert(3, e);
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

/// Checks CheckAdmissionOn against the brute-force reference for every
/// query of `queries` over `snapshot`; returns how many would close.
uint64_t ExpectAdmissionMatchesBruteForce(const ServiceSnapshot& snapshot,
                                          const std::vector<Edge>& queries,
                                          PathProber* prober,
                                          const std::string& where) {
  BruteForceAdmission brute(snapshot.graph, snapshot.cover,
                            snapshot.options);
  uint64_t closing = 0;
  for (const Edge& q : queries) {
    const bool reference = brute.WouldClose(q.src, q.dst);
    const AdmissionVerdict verdict =
        CheckAdmissionOn(snapshot, q.src, q.dst, prober);
    EXPECT_EQ(verdict.would_close, reference)
        << where << " u=" << q.src << " v=" << q.dst;
    if (reference) ++closing;
  }
  return closing;
}

TEST(ProbeExactnessTest, FilterSlotSharedWithAnSEdgeSource) {
  // Two sources in one filter slot (pigeonhole: among kFilterBits + 1
  // ids two collide), of which only `a` owns an S edge. Every test of
  // b's out-edges hits the filter and must fall through to "open".
  std::vector<VertexId> owner(CoveredEdgeSet::kFilterBits, kInvalidVertex);
  VertexId a = kInvalidVertex;
  VertexId b = kInvalidVertex;
  for (VertexId v = 0; a == kInvalidVertex; ++v) {
    VertexId& first = owner[CoveredEdgeSet::FilterSlot(v)];
    if (first != kInvalidVertex) {
      a = first;
      b = v;
    }
    first = v;
  }
  ASSERT_EQ(CoveredEdgeSet::FilterSlot(a), CoveredEdgeSet::FilterSlot(b));
  // x and y sit in slots of their own, so only a's bit is ever set.
  std::vector<VertexId> others;
  for (VertexId v = b + 1; others.size() < 2; ++v) {
    if (CoveredEdgeSet::FilterSlot(v) != CoveredEdgeSet::FilterSlot(a)) {
      others.push_back(v);
    }
  }
  const VertexId x = others[0];
  const VertexId y = others[1];
  const VertexId n = y + 1;
  // The 4-cycle a -> x -> b -> y -> a, with b -> y in the delta.
  OverlayGraph graph(std::make_shared<const CsrGraph>(
      CsrGraph::FromEdges(n, {{a, x}, {x, b}, {y, a}})));
  const EdgeId by = graph.AddEdge(b, y);
  TransversalState state;
  state.base = BaseCover::FromVertexCover(n, {}, Status::OK());
  graph.ForEachOut(a, [&](VertexId, EdgeId e) {
    state.covered.insert(a, e);
    return true;
  });
  ASSERT_EQ(state.covered.size(), 1u);
  EXPECT_TRUE(state.covered.MayHaveSource(b));
  EXPECT_FALSE(state.covered.contains(b, by));

  const std::vector<VertexId> vertices = {a, b, x, y};
  std::vector<Edge> queries;
  for (const VertexId u : vertices) {
    for (const VertexId v : vertices) queries.push_back(Edge{u, v});
  }
  SearchContext ctx;
  uint64_t closing = 0;
  for (uint32_t k = 3; k <= 5; ++k) {
    for (const bool two_cycles : {false, true}) {
      CoverOptions options;
      options.k = k;
      options.include_two_cycles = two_cycles;
      const ServiceSnapshot snapshot(graph, state, options);
      PathProber prober(options, &ctx);
      closing += ExpectAdmissionMatchesBruteForce(
          snapshot, queries, &prober,
          "k=" + std::to_string(k) + " two_cycles=" +
              std::to_string(two_cycles));
      // y -> x closes x -> b -> y -> x through b's open out-edge.
      EXPECT_TRUE(CheckAdmissionOn(snapshot, y, x, &prober).would_close)
          << "k=" << k;
    }
  }
  EXPECT_GT(closing, 0u);
}

TEST(ProbeExactnessTest, DemotedSEdgeLeavesAStaleFilterBit) {
  // A stream ingested batch by batch: AUGMENT commits whole cycles to S
  // and PRUNE demotes the unneeded edges to W, leaving their sources'
  // filter bits set. Admission must still treat every W edge as open.
  SearchContext ctx;
  uint64_t stale = 0;
  uint64_t closing = 0;
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    PowerLawParams params;
    params.n = 160;
    params.m = 640;
    params.theta = 0.7;
    params.reciprocity = 0.3;
    params.seed = seed;
    const CsrGraph full = GeneratePowerLaw(params);
    const VertexId n = full.num_vertices();
    std::vector<Edge> stream;
    for (VertexId u = 0; u < n; ++u) {
      for (const VertexId v : full.OutNeighbors(u)) stream.push_back({u, v});
    }
    Rng rng(seed * 4099 + 5);
    for (size_t i = stream.size(); i > 1; --i) {
      std::swap(stream[i - 1], stream[rng.NextBounded(i)]);
    }
    for (uint32_t k = 3; k <= 5; ++k) {
      CoverOptions options;
      options.k = k;
      OverlayGraph graph(std::make_shared<const CsrGraph>(
          CsrGraph::FromEdges(n, std::vector<Edge>{})));
      TransversalState state;
      state.base = BaseCover::FromVertexCover(n, {}, Status::OK());
      for (size_t at = 0; at < stream.size(); at += 16) {
        const size_t len = std::min<size_t>(16, stream.size() - at);
        BatchAugment(&graph, &state, options,
                     std::span<const Edge>(stream.data() + at, len), &ctx);
      }
      std::unordered_set<uint32_t> s_slots;
      for (const EdgeId e : state.covered) {
        s_slots.insert(CoveredEdgeSet::FilterSlot(graph.EdgeSrc(e)));
      }
      std::vector<Edge> queries;
      for (const EdgeId e : state.reusable) {
        const VertexId src = graph.EdgeSrc(e);
        ASSERT_TRUE(state.covered.MayHaveSource(src));
        ASSERT_FALSE(state.covered.contains(src, e));
        if (s_slots.count(CoveredEdgeSet::FilterSlot(src)) == 0) ++stale;
        queries.push_back(Edge{graph.EdgeDst(e), src});
      }
      for (const EdgeId e : state.covered) {
        queries.push_back(Edge{graph.EdgeDst(e), graph.EdgeSrc(e)});
      }
      for (int i = 0; i < 60; ++i) {
        queries.push_back(Edge{static_cast<VertexId>(rng.NextBounded(n)),
                               static_cast<VertexId>(rng.NextBounded(n))});
      }
      const ServiceSnapshot snapshot(graph, state, options);
      PathProber prober(options, &ctx);
      closing += ExpectAdmissionMatchesBruteForce(
          snapshot, queries, &prober,
          "seed=" + std::to_string(seed) + " k=" + std::to_string(k));
    }
  }
  // Some W edge's bit must be stale (no S edge shares its slot), and the
  // queries must reach closing verdicts.
  EXPECT_GT(stale, 0u);
  EXPECT_GT(closing, 0u);
}

TEST(ProbeExactnessTest, RecoveredNonEmptySKeepsItsFilter) {
  // A store whose snapshot carries S and W (the format allows it; a
  // compaction cut writes both empty): recovery must rebuild S through
  // its filter, or admission would treat S edges as open.
  const Instance inst = MakeInstance(/*seed=*/9);
  const OverlayGraph& g = *inst.graph;
  const std::string dir =
      testing::TempDir() + "tdb_probe_test_recovered_s";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  SnapshotState snap;
  snap.epoch = 1;
  snap.base = std::make_shared<const CsrGraph>(g.ToCsr());
  const CsrGraph& base = *snap.base;
  snap.cover_mask = inst.state.base->vertex_mask;
  // About a tenth of the canonical base edges in S, a few more in W.
  Rng rng(77);
  for (EdgeId e = 0; e < base.num_edges(); ++e) {
    if (rng.NextBool(0.1)) {
      snap.covered.push_back(e);
    } else if (rng.NextBool(0.05)) {
      snap.reusable.push_back(e);
    }
  }
  ASSERT_FALSE(snap.covered.empty());
  ASSERT_TRUE(WriteSnapshotFile(snap, dir + "/snapshot.tdbs").ok());
  {
    std::unique_ptr<Journal> journal;
    ASSERT_TRUE(Journal::Create(dir + "/journal.tdbj", /*base_seq=*/0,
                                DurabilityPolicy::kBatch, /*tail=*/{},
                                &journal)
                    .ok());
  }
  ASSERT_TRUE(
      WriteStoreManifest(dir, {"snapshot.tdbs", "journal.tdbj"}).ok());

  std::vector<Edge> queries = MakeAdmissionQueries(inst, /*seed=*/9);
  for (const EdgeId e : snap.covered) {
    queries.push_back(Edge{base.EdgeDst(e), base.EdgeSrc(e)});
  }
  SearchContext ctx;
  uint64_t closing = 0;
  for (const uint32_t k : {4u, 6u}) {
    for (const bool two_cycles : {false, true}) {
      ServiceOptions options;
      options.cover.k = k;
      options.cover.include_two_cycles = two_cycles;
      options.data_dir = dir;
      std::unique_ptr<CycleBreakService> service;
      ASSERT_TRUE(CycleBreakService::Open(options, &service).ok());
      const auto pinned = service->PinSnapshot();
      const TransversalState& cover = pinned->cover;
      ASSERT_EQ(cover.covered.size(), snap.covered.size());
      ASSERT_EQ(cover.reusable.size(), snap.reusable.size());
      for (const EdgeId e : snap.covered) {
        ASSERT_TRUE(cover.covered.contains(base.EdgeSrc(e), e)) << e;
      }
      PathProber prober(options.cover, &ctx);
      const std::string where = "k=" + std::to_string(k) +
                                " two_cycles=" + std::to_string(two_cycles);
      closing +=
          ExpectAdmissionMatchesBruteForce(*pinned, queries, &prober, where);
      // The service's own batched path gives the same verdicts.
      const std::vector<AdmissionVerdict> batched =
          service->CheckAdmissionBatch(queries);
      for (size_t i = 0; i < queries.size(); ++i) {
        EXPECT_EQ(batched[i].would_close,
                  CheckAdmissionOn(*pinned, queries[i].src, queries[i].dst,
                                   &prober)
                      .would_close)
            << where << " query=" << i;
      }
    }
  }
  EXPECT_GT(closing, 0u);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace tdb
