#include "core/darc.h"

#include <algorithm>
#include <numeric>

#include "graph/line_graph.h"
#include "graph/scc.h"
#include "search/path_search.h"
#include "util/timer.h"

namespace tdb {

namespace {

/// Shared state of one DARC run (paper Algorithms 1-3 notation).
struct DarcState {
  std::vector<uint8_t> in_s;  // S: committed edges
  std::vector<uint8_t> in_w;  // W: pruned edges, reusable by AUGMENT
  std::vector<EdgeId> pending;  // P: prune candidates (LIFO)
};

/// Edge ids of the path v0 -> v1 -> ... -> vk.
void PathEdgeIds(const CsrGraph& graph, const std::vector<VertexId>& path,
                 std::vector<EdgeId>* ids) {
  ids->clear();
  for (size_t i = 0; i + 1 < path.size(); ++i) {
    ids->push_back(graph.FindEdge(path[i], path[i + 1]));
  }
}

}  // namespace

DarcEdgeResult SolveDarcEdgeCover(const CsrGraph& graph,
                                  const CoverOptions& options,
                                  SearchContext* context,
                                  Deadline* deadline) {
  DarcEdgeResult result;
  result.status = options.Validate();
  if (!result.status.ok()) return result;

  Timer timer;
  Deadline own_deadline = options.time_limit_seconds > 0
                          ? Deadline::AfterSeconds(options.time_limit_seconds)
                          : Deadline();
  Deadline* dl = deadline != nullptr ? deadline : &own_deadline;
  const CycleConstraint constraint =
      options.Constraint(graph.num_vertices());
  // A cycle of L hops through edge e is e plus a simple dst(e)->src(e)
  // path of L-1 hops.
  const uint32_t min_path = constraint.min_len - 1;
  const uint32_t max_path = constraint.max_hops - 1;

  const EdgeId m = graph.num_edges();
  DarcState st;
  st.in_s.assign(m, 0);
  st.in_w.assign(m, 0);

  // Exact skip: a cycle through edge e needs src and dst strongly
  // connected, so edges crossing SCCs never participate in any cycle and
  // their (always failing) searches can be elided. This is a conservative
  // kindness to the baseline — it only makes DARC faster, never changes
  // its output.
  const SccResult scc = ComputeScc(graph);

  SearchContext own_context;
  SearchContext* ctx = context != nullptr ? context : &own_context;
  BlockDfs search(graph, ctx);
  std::vector<VertexId> path;
  std::vector<EdgeId> path_edges;

  // `src` is EdgeSrc(e), passed in by callers that already know it.
  auto find_cycle_avoiding_s = [&](EdgeId e, VertexId src,
                                   std::vector<VertexId>* out) {
    const VertexId dst = graph.EdgeDst(e);
    if (scc.component[src] != scc.component[dst]) {
      return SearchOutcome::kNotFound;
    }
    ++result.path_queries;
    return search.FindPath(dst, src, min_path, max_path, /*active=*/nullptr,
                           st.in_s.data(), out, dl);
  };

  auto augment = [&](EdgeId e, VertexId src) -> SearchOutcome {
    // Algorithm 2 lines 3-6: a previously pruned edge is re-committed.
    if (st.in_w[e]) {
      st.in_w[e] = 0;
      st.in_s[e] = 1;
      st.pending.push_back(e);
      return SearchOutcome::kNotFound;
    }
    // Lines 7-13: walk uncovered cycles through e one at a time.
    while (!st.in_s[e]) {
      SearchOutcome outcome = find_cycle_avoiding_s(e, src, &path);
      if (outcome == SearchOutcome::kTimedOut) return outcome;
      if (outcome == SearchOutcome::kNotFound) break;
      ++result.augment_cycles;
      PathEdgeIds(graph, path, &path_edges);
      path_edges.push_back(e);
      EdgeId w_edge = kInvalidEdge;
      for (EdgeId pe : path_edges) {
        if (st.in_w[pe]) {
          w_edge = pe;
          break;
        }
      }
      if (w_edge != kInvalidEdge) {
        // Line 13: reuse one pruned edge instead of the whole cycle.
        st.in_w[w_edge] = 0;
        st.in_s[w_edge] = 1;
        st.pending.push_back(w_edge);
      } else {
        // Line 10: commit every edge of the cycle.
        for (EdgeId pe : path_edges) {
          st.in_s[pe] = 1;
          st.pending.push_back(pe);
        }
      }
    }
    return SearchOutcome::kNotFound;
  };

  auto prune = [&]() -> SearchOutcome {
    while (!st.pending.empty()) {
      const EdgeId e = st.pending.back();
      st.pending.pop_back();
      if (!st.in_s[e]) continue;
      // Tentatively drop e; feasibility fails iff some constrained cycle
      // through e avoids S \ {e}.
      st.in_s[e] = 0;
      SearchOutcome outcome =
          find_cycle_avoiding_s(e, graph.EdgeSrc(e), nullptr);
      if (outcome == SearchOutcome::kTimedOut) return outcome;
      if (outcome == SearchOutcome::kFound) {
        st.in_s[e] = 1;  // still needed
      } else {
        st.in_w[e] = 1;  // pruned, reusable later
        ++result.prune_removed;
      }
    }
    return SearchOutcome::kNotFound;
  };

  // Edges in canonical id order, one out-range per source vertex.
  for (VertexId u = 0; u < graph.num_vertices(); ++u) {
    for (EdgeId e = graph.OutEdgeBegin(u); e < graph.OutEdgeEnd(u); ++e) {
      if (st.in_s[e]) continue;
      if (augment(e, u) == SearchOutcome::kTimedOut ||
          prune() == SearchOutcome::kTimedOut) {
        result.status = Status::TimedOut("DARC exceeded budget");
        result.elapsed_seconds = timer.ElapsedSeconds();
        return result;
      }
    }
  }

  for (EdgeId e = 0; e < m; ++e) {
    if (st.in_s[e]) result.edge_cover.push_back(e);
  }
  result.elapsed_seconds = timer.ElapsedSeconds();
  return result;
}

CoverResult SolveDarcDvInPlace(const CsrGraph& graph,
                               std::span<const VertexId> members,
                               const CoverOptions& options,
                               SearchContext* context, Deadline* deadline) {
  CoverResult result;
  LineGraph line;
  result.status =
      BuildLineGraph(graph, members, &line, options.line_graph_max_arcs);
  if (!result.status.ok()) return result;

  // Cycle lengths are preserved by the line-graph mapping, so the same
  // options apply verbatim on L(G).
  DarcEdgeResult edge_result =
      SolveDarcEdgeCover(line.graph, options, context, deadline);
  result.status = edge_result.status;
  result.stats.searches = edge_result.path_queries;
  result.stats.cycles_found = edge_result.augment_cycles;
  if (!result.status.ok()) return result;

  // Each selected L(G)-arc (e1 -> e2) pivots at dst(e1) in the base graph.
  std::vector<VertexId> cover;
  for (EdgeId arc : edge_result.edge_cover) {
    cover.push_back(graph.EdgeDst(line.base_edge[line.graph.EdgeSrc(arc)]));
  }
  std::sort(cover.begin(), cover.end());
  cover.erase(std::unique(cover.begin(), cover.end()), cover.end());
  result.cover = std::move(cover);
  return result;
}

CoverResult SolveDarcDv(const CsrGraph& graph, const CoverOptions& options) {
  CoverResult result;
  result.status = options.Validate();
  if (!result.status.ok()) return result;

  Timer timer;
  Deadline deadline = options.time_limit_seconds > 0
                          ? Deadline::AfterSeconds(options.time_limit_seconds)
                          : Deadline();
  SearchContext context;
  std::vector<VertexId> all(graph.num_vertices());
  std::iota(all.begin(), all.end(), VertexId{0});
  result = SolveDarcDvInPlace(graph, all, options, &context, &deadline);
  result.stats.elapsed_seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace tdb
