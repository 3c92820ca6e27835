// Directed line graph L(G): the substrate of the DARC-DV baseline.
//
// L(G) has one node per edge of G (identified by the canonical edge id) and
// an arc e1 -> e2 whenever dst(e1) == src(e2), pivoting at that shared
// vertex. A simple directed cycle of length L in G maps to a simple cycle
// of length L in L(G); DARC's edge transversal of L(G) therefore converts
// to a vertex cover of G's cycles by mapping each selected L(G)-arc to its
// pivot vertex. (L(G) also contains cycles for closed walks of G with
// distinct edges — e.g. figure-eights — so DARC-DV may over-cover; this is
// inherent to the reduction and reproduces the paper's cover-size results.)
//
// |E(L(G))| = sum_v in(v) * out(v), which explodes on graphs with high-
// degree hubs — the reason DARC-DV cannot process the paper's four largest
// datasets. Construction enforces an arc budget and fails with
// ResourceExhausted beyond it.
#ifndef TDB_GRAPH_LINE_GRAPH_H_
#define TDB_GRAPH_LINE_GRAPH_H_

#include <span>
#include <vector>

#include "graph/csr_graph.h"
#include "util/status.h"

namespace tdb {

/// A line graph plus the bookkeeping needed to map results back to G.
struct LineGraph {
  /// Node i of `graph` corresponds to base edge `base_edge[i]`; arcs
  /// connect consecutive edges. An arc (x -> y) pivots at the base
  /// vertex EdgeDst(base_edge[x]).
  CsrGraph graph;
  /// The base edges inside the member set, in canonical id order.
  std::vector<EdgeId> base_edge;
};

/// Builds L(G[members]), the line graph of the subgraph that `members`
/// (sorted ascending, no duplicates) induce, straight from the base CSR:
/// its nodes are the base edges with both ends in `members`, in canonical
/// id order. Fails with ResourceExhausted if the arc count would exceed
/// `max_arcs` (default 1<<27 ~= 134M arcs ~= 1.6 GB), mirroring the memory
/// wall the baseline hits on billion-scale inputs.
Status BuildLineGraph(const CsrGraph& base, std::span<const VertexId> members,
                      LineGraph* out, EdgeId max_arcs = EdgeId{1} << 27);

}  // namespace tdb

#endif  // TDB_GRAPH_LINE_GRAPH_H_
