// Strongly connected components: the condensation front end.
//
// Every directed cycle lies inside one SCC, and a simple cycle of length
// >= 3 needs an SCC of at least 3 vertices (>= 2 when 2-cycles count), so
// condensation is the front door of every solve: the engine partitions
// the graph by component and the top-down solver uses component sizes as
// an optional prefilter.
//
// The algorithm is the classic single-threaded Tarjan traversal, run
// iteratively (an explicit frame stack, no recursion, so
// multi-million-vertex chains cannot overflow).
//
// Determinism: component ids are canonicalized — components are numbered
// by their minimum member vertex, ascending, and member lists are sorted
// — so the SccResult is identical for both storage backends. Both the
// engine's covers and the condensation tests rely on this.
// Thread-safety: CondenseScc is a pure function of its inputs; concurrent
// calls on the same (immutable) graph are safe, but one call's
// SccOptions::deadline must not be shared with another thread.
#ifndef TDB_GRAPH_SCC_H_
#define TDB_GRAPH_SCC_H_

#include <span>
#include <vector>

#include "graph/csr_graph.h"
#include "util/timer.h"

namespace tdb {

/// Result of an SCC decomposition. Canonical: component c's id is the
/// rank of its minimum member among all components' minimum members, so
/// the whole struct is identical for both storage backends.
struct SccResult {
  /// Component id of each vertex, in [0, num_components).
  std::vector<VertexId> component;
  /// Number of vertices per component.
  std::vector<VertexId> component_size;
  VertexId num_components = 0;

  /// Member lists in CSR form: the vertices of component c are
  /// vertices[vertex_offsets[c] .. vertex_offsets[c + 1]), sorted
  /// ascending. The parallel engine feeds these straight into subgraph
  /// extraction.
  std::vector<VertexId> vertex_offsets;
  std::vector<VertexId> vertices;

  /// True when the run's SccOptions::deadline expired mid-condensation:
  /// the decomposition is INCOMPLETE (some vertices were never assigned
  /// a component; the canonical arrays are not built) and must be
  /// discarded — only num_components (components emitted before the
  /// abort) is meaningful.
  bool timed_out = false;

  /// Size of the component containing `v`.
  VertexId SizeOf(VertexId v) const { return component_size[component[v]]; }

  /// Vertices of component `c`, sorted ascending.
  std::span<const VertexId> VerticesOf(VertexId c) const {
    return {vertices.data() + vertex_offsets[c],
            vertices.data() + vertex_offsets[c + 1]};
  }
};

/// Configuration of one condensation run.
struct SccOptions {
  /// Cooperative wall-clock budget, polled once per DFS step (the
  /// Deadline amortizes the clock reads). When it expires the run aborts
  /// with SccResult::timed_out set, so a timed-out solve does not pay for
  /// a full condensation before it can report. Borrowed, not owned; the
  /// Deadline's amortized check state is mutated, so it must not be
  /// shared with another thread for the duration of the call. Null =
  /// unlimited.
  Deadline* deadline = nullptr;
};

class CompressedCsr;

/// Computes the SCC decomposition of `graph`. The returned SccResult is
/// canonical (see above) and identical across storage backends — every
/// traversal runs through the DecodeNeighbors seam, so condensing a
/// CompressedCsr base never materializes a raw copy.
SccResult CondenseScc(const CsrGraph& graph, const SccOptions& options);
SccResult CondenseScc(const CompressedCsr& graph, const SccOptions& options);

/// CondenseScc with default options (no deadline).
SccResult ComputeScc(const CsrGraph& graph);
SccResult ComputeScc(const CompressedCsr& graph);

/// Marks vertices whose SCC has at least `min_size` members. Only marked
/// vertices can lie on a simple cycle of length >= min_size' where
/// min_size' is 3 without 2-cycles (pass 3) or 2 with them (pass 2).
std::vector<uint8_t> SccAtLeastMask(const CsrGraph& graph,
                                    VertexId min_size);
std::vector<uint8_t> SccAtLeastMask(const CompressedCsr& graph,
                                    VertexId min_size);

}  // namespace tdb

#endif  // TDB_GRAPH_SCC_H_
