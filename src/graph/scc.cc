#include "graph/scc.h"

#include <algorithm>
#include <deque>

#include "graph/compressed_csr.h"

namespace tdb {

namespace {

constexpr VertexId kUnvisited = kInvalidVertex;

/// Canonicalizes provisional labels into an SccResult: components are
/// renumbered by first appearance when scanning vertices ascending —
/// i.e. ordered by minimum member — and member lists are produced by a
/// counting sort, which leaves each list sorted ascending.
SccResult FinalizeCanonical(VertexId n, const std::vector<VertexId>& label,
                            VertexId provisional_count) {
  SccResult result;
  result.component.resize(n);
  std::vector<VertexId> remap(provisional_count, kInvalidVertex);
  for (VertexId v = 0; v < n; ++v) {
    VertexId& canonical = remap[label[v]];
    if (canonical == kInvalidVertex) canonical = result.num_components++;
    result.component[v] = canonical;
  }
  result.component_size.assign(result.num_components, 0);
  for (VertexId v = 0; v < n; ++v) ++result.component_size[result.component[v]];
  result.vertex_offsets.assign(result.num_components + 1, 0);
  for (VertexId c = 0; c < result.num_components; ++c) {
    result.vertex_offsets[c + 1] =
        result.vertex_offsets[c] + result.component_size[c];
  }
  result.vertices.resize(n);
  std::vector<VertexId> cursor(result.vertex_offsets.begin(),
                               result.vertex_offsets.end() - 1);
  for (VertexId v = 0; v < n; ++v) {
    result.vertices[cursor[result.component[v]]++] = v;
  }
  return result;
}

/// Decodes v's out-neighbors into the depth-indexed buffer of `bufs` —
/// the same per-depth scheme as the search engines' SearchContext: every
/// live DFS frame keeps a stable decoded list (deque buffers never
/// relocate) while deeper frames decode theirs. Zero-copy on CsrGraph.
template <typename GraphT>
std::span<const VertexId> DecodeDepth(const GraphT& g, VertexId v,
                                      std::deque<std::vector<VertexId>>& bufs,
                                      size_t depth) {
  while (bufs.size() <= depth) bufs.emplace_back();
  return g.DecodeNeighbors(v, bufs[depth]);
}

/// Iterative Tarjan over the whole graph (no recursion, safe for
/// multi-million-vertex graphs). Labels each component provisionally, in
/// closing order, as it closes; `*num_labels` counts the components
/// closed so far. Polls `deadline` (when non-null) once per DFS step — the
/// Deadline amortizes the clock reads — and returns false on expiry,
/// leaving the labeling incomplete.
template <typename GraphT>
bool RunTarjan(const GraphT& graph, std::vector<VertexId>* label,
               VertexId* num_labels, Deadline* deadline) {
  const VertexId n = graph.num_vertices();
  std::vector<VertexId> index(n, kUnvisited);
  std::vector<VertexId> lowlink(n, 0);
  std::vector<uint8_t> on_stack(n, 0);
  std::vector<VertexId> scc_stack;

  // Explicit DFS frame: vertex, cursor into its decoded out-neighbor
  // list, and the list itself (stable per-depth buffer).
  struct Frame {
    VertexId v;
    EdgeId idx;
    EdgeId deg;
    const VertexId* nbrs;
  };
  std::vector<Frame> dfs;
  std::deque<std::vector<VertexId>> bufs;

  auto push = [&](VertexId v) {
    const std::span<const VertexId> nbrs =
        DecodeDepth(graph, v, bufs, dfs.size());
    dfs.push_back({v, 0, static_cast<EdgeId>(nbrs.size()), nbrs.data()});
  };

  VertexId next_index = 0;
  for (VertexId root = 0; root < n; ++root) {
    if (index[root] != kUnvisited) continue;
    push(root);
    index[root] = lowlink[root] = next_index++;
    scc_stack.push_back(root);
    on_stack[root] = 1;

    while (!dfs.empty()) {
      if (deadline != nullptr && deadline->Expired()) return false;
      Frame& frame = dfs.back();
      VertexId v = frame.v;
      if (frame.idx < frame.deg) {
        VertexId w = frame.nbrs[frame.idx++];
        if (index[w] == kUnvisited) {
          index[w] = lowlink[w] = next_index++;
          scc_stack.push_back(w);
          on_stack[w] = 1;
          push(w);
        } else if (on_stack[w]) {
          lowlink[v] = std::min(lowlink[v], index[w]);
        }
        continue;
      }
      // All children explored: close v.
      if (lowlink[v] == index[v]) {
        VertexId w;
        do {
          w = scc_stack.back();
          scc_stack.pop_back();
          on_stack[w] = 0;
          (*label)[w] = *num_labels;
        } while (w != v);
        ++*num_labels;
      }
      dfs.pop_back();
      if (!dfs.empty()) {
        VertexId parent = dfs.back().v;
        lowlink[parent] = std::min(lowlink[parent], lowlink[v]);
      }
    }
  }
  return true;
}

template <typename GraphT>
SccResult CondenseSccT(const GraphT& graph, const SccOptions& options) {
  const VertexId n = graph.num_vertices();
  std::vector<VertexId> label(n, kInvalidVertex);
  VertexId num_labels = 0;

  // A budget that was gone before condensation started aborts before the
  // first traversal rather than after it.
  const bool timed_out =
      (options.deadline != nullptr && options.deadline->ExpiredNow()) ||
      !RunTarjan(graph, &label, &num_labels, options.deadline);
  if (timed_out) {
    // Some labels are still kInvalidVertex, which the canonical
    // renumbering cannot represent.
    SccResult result;
    result.num_components = num_labels;
    result.timed_out = true;
    return result;
  }
  return FinalizeCanonical(n, label, num_labels);
}

template <typename GraphT>
std::vector<uint8_t> SccAtLeastMaskT(const GraphT& graph,
                                     VertexId min_size) {
  SccResult scc = CondenseSccT(graph, SccOptions{});
  std::vector<uint8_t> mask(graph.num_vertices(), 0);
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    mask[v] = scc.SizeOf(v) >= min_size ? 1 : 0;
  }
  return mask;
}

}  // namespace

SccResult CondenseScc(const CsrGraph& graph, const SccOptions& options) {
  return CondenseSccT(graph, options);
}

SccResult CondenseScc(const CompressedCsr& graph, const SccOptions& options) {
  return CondenseSccT(graph, options);
}

SccResult ComputeScc(const CsrGraph& graph) {
  return CondenseScc(graph, SccOptions{});
}

SccResult ComputeScc(const CompressedCsr& graph) {
  return CondenseScc(graph, SccOptions{});
}

std::vector<uint8_t> SccAtLeastMask(const CsrGraph& graph,
                                    VertexId min_size) {
  return SccAtLeastMaskT(graph, min_size);
}

std::vector<uint8_t> SccAtLeastMask(const CompressedCsr& graph,
                                    VertexId min_size) {
  return SccAtLeastMaskT(graph, min_size);
}

}  // namespace tdb
