// Summary statistics of a directed graph, in the shape of the paper's
// Table II (|V|, |E|, average degree) plus structural measures that drive
// cycle density (reciprocity, degeneracy of the degree distribution).
#ifndef TDB_GRAPH_GRAPH_STATS_H_
#define TDB_GRAPH_GRAPH_STATS_H_

#include <string>

#include "graph/csr_graph.h"

namespace tdb {

/// Aggregate statistics of a graph.
struct GraphStats {
  VertexId num_vertices = 0;
  EdgeId num_edges = 0;
  /// Average total degree (in + out) per vertex: the paper's d_avg column.
  double avg_degree = 0.0;
  EdgeId max_out_degree = 0;
  EdgeId max_in_degree = 0;
  /// Fraction of edges whose reverse also exists (2-cycle density driver).
  double reciprocity = 0.0;
  /// Vertices with both in- and out-degree > 0 (only these can be on any
  /// directed cycle).
  VertexId num_bidegree_vertices = 0;

  /// Per-structure resident bytes of the raw CSR backing (fixed-width
  /// arrays, so these follow directly from |V| and |E|).
  uint64_t out_offset_bytes = 0;  ///< (n + 1) u64 out offsets.
  uint64_t out_target_bytes = 0;    ///< m u32 out targets.
  uint64_t in_offset_bytes = 0;     ///< (n + 1) u64 in offsets.
  uint64_t in_source_bytes = 0;     ///< m u32 in sources.
  uint64_t in_edge_rank_bytes = 0;  ///< m u32 in-edge out-list ranks.

  uint64_t total_bytes() const {
    return out_offset_bytes + out_target_bytes + in_offset_bytes +
           in_source_bytes + in_edge_rank_bytes;
  }

  /// One-line human-readable rendering.
  std::string ToString() const;
  /// One-line per-structure byte breakdown (tdb_cover --stats).
  std::string FootprintString() const;
};

/// Computes statistics in O(m log d) (reciprocity uses binary searches).
GraphStats ComputeStats(const CsrGraph& graph);

}  // namespace tdb

#endif  // TDB_GRAPH_GRAPH_STATS_H_
