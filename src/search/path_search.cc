#include "search/path_search.h"

#include <algorithm>

#include "util/check.h"

namespace tdb {

template <bool kBlocks>
BoundedDfs<kBlocks>::BoundedDfs(const CsrGraph& graph)
    : BoundedDfs(graph, nullptr) {}

template <bool kBlocks>
BoundedDfs<kBlocks>::BoundedDfs(const CsrGraph& graph,
                                SearchContext* context)
    : graph_(graph), ctx_(context) {
  if (ctx_ == nullptr) {
    owned_context_ = std::make_unique<SearchContext>();
    ctx_ = owned_context_.get();
  }
  ctx_->EnsureDfsSize(graph.num_vertices());
  if constexpr (kBlocks) ctx_->EnsureBlockSize(graph.num_vertices());
}

template <bool kBlocks>
SearchOutcome BoundedDfs<kBlocks>::FindCycleThrough(
    VertexId start, const CycleConstraint& constraint, const uint8_t* active,
    std::vector<VertexId>* cycle, Deadline* deadline) {
  return Search(start, start, constraint.min_len, constraint.max_hops,
                constraint.permanent_block, active, /*blocked_edges=*/nullptr,
                cycle, deadline);
}

template <bool kBlocks>
SearchOutcome BoundedDfs<kBlocks>::FindPath(VertexId s, VertexId t,
                                            uint32_t min_hops,
                                            uint32_t max_hops,
                                            const uint8_t* active,
                                            const uint8_t* blocked_edges,
                                            std::vector<VertexId>* path,
                                            Deadline* deadline) {
  TDB_CHECK(s != t);
  return Search(s, t, min_hops, max_hops, /*permanent_block=*/false, active,
                blocked_edges, path, deadline);
}

template <bool kBlocks>
SearchOutcome BoundedDfs<kBlocks>::Search(
    VertexId s, VertexId t, uint32_t min_hops, uint32_t max_hops,
    bool permanent_block, const uint8_t* active,
    const uint8_t* blocked_edges, std::vector<VertexId>* out,
    Deadline* deadline) {
  TDB_CHECK(s < graph_.num_vertices() && t < graph_.num_vertices());
  // The depth-1 closure special case below assumes the length window can
  // only reject closures at depth < min_hops - 1 <= 1; every constraint in
  // this library has min_hops <= 3 (cycle length 2 or 3 lower bound).
  if constexpr (kBlocks) {
    TDB_CHECK_MSG(min_hops <= 3, "unsupported min_hops=%u", min_hops);
  }
  if (max_hops == 0 || min_hops > max_hops) return SearchOutcome::kNotFound;

  EpochArray<uint32_t>& block = ctx_->block;
  EpochArray<uint8_t>& edge_to_target = ctx_->edge_to_target;
  std::vector<uint8_t>& on_path = ctx_->on_path;
  std::vector<SearchFrame>& stack = ctx_->stack;

  if constexpr (kBlocks) {
    block.NewEpoch();
    edge_to_target.NewEpoch();
    // Mark vertices owning a direct edge to the target so the failure
    // path can recognize the skipped-closure case in O(1).
    for (VertexId u : graph_.InNeighbors(t)) edge_to_target.Set(u, 1);
  }

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

  while (!stack.empty()) {
    SearchFrame& frame = stack.back();
    const VertexId u = frame.v;
    // Hop count of u from s == its depth on the stack.
    const uint32_t depth_u = static_cast<uint32_t>(stack.size()) - 1;
    if (frame.next < frame.end) {
      const EdgeId eid = frame.next++;
      ++ctx_->stats.expansions;
      if (deadline != nullptr && deadline->Expired()) {
        cleanup();
        return SearchOutcome::kTimedOut;
      }
      if (blocked_edges != nullptr && blocked_edges[eid]) continue;
      const VertexId w = graph_.EdgeDst(eid);
      if (w == t) {
        const uint32_t len = depth_u + 1;
        if (len < min_hops || len > max_hops) continue;
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
      if constexpr (kBlocks) {
        // Entering w costs depth_w hops and at least max(block, 1) more to
        // come back to t; prune unless that fits the budget
        // (paper Algorithm 9 line 13).
        const uint32_t bound = std::max(block.Get(w), 1u);
        if (bound == kInfiniteBlock ||
            static_cast<uint64_t>(depth_w) + bound > max_hops) {
          ++ctx_->stats.block_prunes;
          continue;
        }
      } else {
        // w still needs >= 1 hop to reach t, so stop one level early.
        if (depth_w + 1 > max_hops) continue;
      }
      on_path[w] = 1;
      push(w);
    } else {
      on_path[u] = 0;
      stack.pop_back();
      if constexpr (kBlocks) {
        // Exhausted u without reaching t: record the failure bound
        // (paper Algorithm 9 line 3 semantics, applied at pop time).
        if (u == s) break;  // root exhausted
        if (depth_u + 1 < min_hops && edge_to_target.Get(u) != 0) {
          // Skipped-closure case: u owns an edge to t whose use was
          // rejected only because the resulting cycle would be too short
          // at this depth. Deeper entries can still succeed through that
          // edge, so the only truthful certified bound is sd(u, t) >= 1.
          // Crucially, vertices explored inside u's failed subtree learned
          // blocks while the route through u was unavailable; cascading
          // the relaxation (Algorithm 10) re-offers them the (length via
          // u) bound, which repairs the staleness the paper's Theorem 5
          // argument misses for the excluded-2-cycle setting.
          Unblock(u, active);
        } else if (permanent_block) {
          block.Set(u, kInfiniteBlock);
        } else {
          // No path of length <= max_hops - depth_u exists from u.
          block.Set(u, max_hops - depth_u + 1);
        }
      }
    }
  }
  return SearchOutcome::kNotFound;
}

template <bool kBlocks>
void BoundedDfs<kBlocks>::Unblock(VertexId u, const uint8_t* active) {
  // Iterative version of Algorithm 10 with an explicit worklist. A stale
  // worklist entry may race a lower level that cascaded in first; the
  // recheck at pop keeps block values monotonically decreasing so the
  // cascade terminates (each vertex lowers at most max_hops times).
  struct Item {
    VertexId v;
    uint32_t level;
  };
  std::vector<Item> work{{u, 1}};
  bool first = true;
  while (!work.empty()) {
    auto [v, l] = work.back();
    work.pop_back();
    if (!first && ctx_->block.Get(v) <= l) continue;  // already as relaxed
    first = false;
    ctx_->block.Set(v, l);
    for (VertexId w : graph_.InNeighbors(v)) {
      if (ctx_->on_path[w]) continue;
      if (active != nullptr && !active[w]) continue;
      const uint32_t bw = ctx_->block.Get(w);
      if (bw > l + 1 && bw != 0) work.push_back({w, l + 1});
    }
  }
}

template class BoundedDfs<false>;
template class BoundedDfs<true>;

}  // namespace tdb
