#include "search/cycle_finder.h"

#include "util/check.h"

namespace tdb {

CycleFinder::CycleFinder(const CsrGraph& graph)
    : graph_(graph), owned_context_(std::make_unique<SearchContext>()) {
  ctx_ = owned_context_.get();
  ctx_->EnsureDfsSize(graph.num_vertices());
}

CycleFinder::CycleFinder(const CsrGraph& graph, SearchContext* context)
    : graph_(graph), ctx_(context) {
  TDB_CHECK(context != nullptr);
  ctx_->EnsureDfsSize(graph.num_vertices());
}

SearchOutcome CycleFinder::FindCycleThrough(VertexId start,
                                            const CycleConstraint& constraint,
                                            const uint8_t* active,
                                            std::vector<VertexId>* cycle,
                                            Deadline* deadline) {
  return Search(start, start, constraint.min_len, constraint.max_hops,
                active, /*blocked_edges=*/nullptr, cycle, deadline);
}

SearchOutcome CycleFinder::FindPath(VertexId s, VertexId t, uint32_t min_hops,
                                    uint32_t max_hops, const uint8_t* active,
                                    const uint8_t* blocked_edges,
                                    std::vector<VertexId>* path,
                                    Deadline* deadline) {
  TDB_CHECK(s != t);
  return Search(s, t, min_hops, max_hops, active, blocked_edges, path,
                deadline);
}

size_t CycleFinder::EnumeratePathsPlain(
    VertexId s, VertexId t, uint32_t min_hops, uint32_t max_hops,
    const uint8_t* active, const uint8_t* blocked_edges,
    const std::function<bool(const std::vector<VertexId>&)>& sink) {
  TDB_CHECK(s != t);
  TDB_CHECK(s < graph_.num_vertices() && t < graph_.num_vertices());
  if (max_hops == 0 || min_hops > max_hops) return 0;
  std::vector<VertexId> prefix{s};
  ctx_->on_path[s] = 1;
  size_t count = 0;
  EnumerateFromPlain(s, t, min_hops, max_hops, active, blocked_edges,
                     &prefix, &count, sink);
  ctx_->on_path[s] = 0;
  return count;
}

bool CycleFinder::EnumerateFromPlain(
    VertexId u, VertexId t, uint32_t min_hops, uint32_t max_hops,
    const uint8_t* active, const uint8_t* blocked_edges,
    std::vector<VertexId>* prefix, size_t* count,
    const std::function<bool(const std::vector<VertexId>&)>& sink) {
  const uint32_t depth_u = static_cast<uint32_t>(prefix->size()) - 1;
  bool keep_going = true;
  const EdgeId end = graph_.OutEdgeEnd(u);
  for (EdgeId eid = graph_.OutEdgeBegin(u); keep_going && eid < end; ++eid) {
    ++ctx_->stats.expansions;
    if (blocked_edges != nullptr && blocked_edges[eid]) continue;
    const VertexId w = graph_.EdgeDst(eid);
    if (w == t) {
      const uint32_t len = depth_u + 1;
      if (len < min_hops || len > max_hops) continue;
      prefix->push_back(t);
      ++*count;
      keep_going = sink(*prefix);
      prefix->pop_back();
      continue;
    }
    if (ctx_->on_path[w]) continue;
    if (active != nullptr && !active[w]) continue;
    if (depth_u + 2 > max_hops) continue;
    ctx_->on_path[w] = 1;
    prefix->push_back(w);
    keep_going = EnumerateFromPlain(w, t, min_hops, max_hops, active,
                                    blocked_edges, prefix, count, sink);
    prefix->pop_back();
    ctx_->on_path[w] = 0;
  }
  return keep_going;
}

SearchOutcome CycleFinder::Search(VertexId s, VertexId t, uint32_t min_hops,
                                  uint32_t max_hops, const uint8_t* active,
                                  const uint8_t* blocked_edges,
                                  std::vector<VertexId>* out,
                                  Deadline* deadline) {
  TDB_CHECK(s < graph_.num_vertices() && t < graph_.num_vertices());
  if (max_hops == 0 || min_hops > max_hops) return SearchOutcome::kNotFound;

  std::vector<uint8_t>& on_path = ctx_->on_path;
  std::vector<SearchFrame>& stack = ctx_->stack;

  auto cleanup = [&] {
    for (const SearchFrame& f : stack) on_path[f.v] = 0;
    stack.clear();
  };

  auto push = [&](VertexId v) {
    stack.push_back({v, graph_.OutEdgeBegin(v), graph_.OutEdgeEnd(v)});
  };

  stack.clear();
  push(s);
  on_path[s] = 1;
  ++ctx_->stats.pushes;

  while (!stack.empty()) {
    SearchFrame& frame = stack.back();
    const VertexId u = frame.v;
    if (frame.next < frame.end) {
      const EdgeId eid = frame.next++;
      ++ctx_->stats.expansions;
      if (deadline != nullptr && deadline->Expired()) {
        cleanup();
        return SearchOutcome::kTimedOut;
      }
      if (blocked_edges != nullptr && blocked_edges[eid]) continue;
      const VertexId w = graph_.EdgeDst(eid);
      // Hop count of u from s == its depth on the stack.
      const uint32_t depth_u = static_cast<uint32_t>(stack.size()) - 1;
      if (w == t) {
        const uint32_t len = depth_u + 1;
        if (len < min_hops || len > max_hops) {
          ++ctx_->stats.closures_rejected;
          continue;
        }
        if (out != nullptr) {
          out->clear();
          for (const SearchFrame& f : stack) out->push_back(f.v);
          if (t != s) out->push_back(t);
        }
        cleanup();
        return SearchOutcome::kFound;
      }
      if (on_path[w]) continue;
      if (active != nullptr && !active[w]) continue;
      const uint32_t depth_w = depth_u + 1;
      // w still needs >= 1 hop to reach t, so stop one level early.
      if (depth_w + 1 > max_hops) continue;
      on_path[w] = 1;
      ++ctx_->stats.pushes;
      push(w);
    } else {
      on_path[u] = 0;
      stack.pop_back();
    }
  }
  return SearchOutcome::kNotFound;
}

}  // namespace tdb
