// Induced-subgraph extraction with vertex-id remapping.
//
// SubgraphExtractor materializes a component's induced subgraph as a
// self-contained CsrGraph over dense local ids. The engine needs this only
// for DARC-DV, whose line graph is built from a CSR; every other algorithm
// solves its components in place on the parent graph through
// mask-restricted searches (see core/engine.h).
//
// Local ids are assigned in ascending global order, so an id- or
// edge-ordered sweep of the subgraph visits vertices and edges in the same
// relative order as the same sweep of the full graph — the property that
// keeps per-component solves bit-identical to a whole-graph solve.
#ifndef TDB_GRAPH_SUBGRAPH_H_
#define TDB_GRAPH_SUBGRAPH_H_

#include <span>
#include <vector>

#include "graph/csr_graph.h"

namespace tdb {

/// A vertex-induced subgraph over dense local ids plus the mapping back.
struct InducedSubgraph {
  CsrGraph graph;
  /// to_global[local] is the original id; strictly ascending.
  std::vector<VertexId> to_global;
};

/// Reusable extractor. Holds an n-sized global->local scratch map so that
/// extracting many subgraphs of one parent costs O(|C| + edges(C)) each
/// instead of O(n). Not thread-safe: one extractor per worker.
class SubgraphExtractor {
 public:
  explicit SubgraphExtractor(const CsrGraph& parent);

  /// Extracts the subgraph induced by `members`, which must be sorted
  /// ascending with no duplicates and all < parent.num_vertices().
  InducedSubgraph Extract(std::span<const VertexId> members);

 private:
  const CsrGraph& parent_;
  /// kInvalidVertex outside the member set being extracted; entries are
  /// reset after every Extract so the map is reusable.
  std::vector<VertexId> global_to_local_;
  std::vector<Edge> edge_scratch_;
};

}  // namespace tdb

#endif  // TDB_GRAPH_SUBGRAPH_H_
