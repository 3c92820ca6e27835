// Induced-subgraph extraction with vertex-id remapping.
//
// The engine solves each SCC in isolation. SubgraphExtractor materializes
// a component's induced subgraph as a self-contained CsrGraph over dense
// local ids — right for the long tail of small components, where the copy
// is tiny and the solver then touches perfectly compact memory. (Raw-
// backend components of at least 2048 vertices skip the copy and solve in
// place on the parent graph through mask-restricted searches; see
// core/engine.h.)
//
// The extractor is templated over the storage backend (CsrGraph or
// CompressedCsr). Extraction always materializes to a *raw* CsrGraph:
// per-component solves want the fastest possible adjacency, and the
// compressed base keeps only one full-graph copy resident. Local ids are
// assigned in ascending global order, so an id-ordered sweep of the
// subgraph visits vertices in the same relative order as an id-ordered
// sweep of the full graph — the property that keeps per-component solves
// bit-identical to a whole-graph solve.
#ifndef TDB_GRAPH_SUBGRAPH_H_
#define TDB_GRAPH_SUBGRAPH_H_

#include <span>
#include <vector>

#include "graph/csr_graph.h"

namespace tdb {

class CompressedCsr;

/// A vertex-induced subgraph over dense local ids plus the mapping back.
struct InducedSubgraph {
  CsrGraph graph;
  /// to_global[local] is the original id; strictly ascending.
  std::vector<VertexId> to_global;
};

/// Reusable extractor. Holds an n-sized global->local scratch map so that
/// extracting many subgraphs of one parent costs O(|C| + edges(C)) each
/// instead of O(n). Not thread-safe: one extractor per worker.
template <typename GraphT>
class SubgraphExtractorT {
 public:
  explicit SubgraphExtractorT(const GraphT& parent);

  /// Extracts the subgraph induced by `members`, which must be sorted
  /// ascending with no duplicates and all < parent.num_vertices().
  InducedSubgraph Extract(std::span<const VertexId> members);

 private:
  const GraphT& parent_;
  /// kInvalidVertex outside the member set being extracted; entries are
  /// reset after every Extract so the map is reusable.
  std::vector<VertexId> global_to_local_;
  std::vector<Edge> edge_scratch_;
};

extern template class SubgraphExtractorT<CsrGraph>;
extern template class SubgraphExtractorT<CompressedCsr>;

using SubgraphExtractor = SubgraphExtractorT<CsrGraph>;

/// One-shot convenience wrapper around SubgraphExtractorT.
template <typename GraphT>
InducedSubgraph ExtractInducedSubgraph(const GraphT& parent,
                                       std::span<const VertexId> members) {
  SubgraphExtractorT<GraphT> extractor(parent);
  return extractor.Extract(members);
}

}  // namespace tdb

#endif  // TDB_GRAPH_SUBGRAPH_H_
