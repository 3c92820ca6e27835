// Synthetic graph generators.
//
// The paper evaluates on 16 public SNAP/KONECT graphs; the benchmarks
// substitute deterministic synthetic proxies whose shape (scale, average
// degree, degree skew, edge reciprocity) matches the published
// statistics. See docs/ARCHITECTURE.md, "Proxy datasets", for the
// substitution rationale.
#ifndef TDB_GRAPH_GENERATORS_H_
#define TDB_GRAPH_GENERATORS_H_

#include <vector>

#include "graph/csr_graph.h"
#include "util/rng.h"

namespace tdb {

/// Uniform random digraph: exactly `m` distinct directed edges, no
/// self-loops. Requires m <= n*(n-1).
CsrGraph GenerateErdosRenyi(VertexId n, EdgeId m, uint64_t seed);

/// Parameters for the skewed "social/web-like" generator.
struct PowerLawParams {
  VertexId n = 0;
  /// Target edge count; the result has at most this many edges (duplicates
  /// are dropped) and typically within a few percent of it.
  EdgeId m = 0;
  /// Zipf skew of endpoint popularity in (0,1); higher = heavier hubs.
  double theta = 0.6;
  /// Probability that an edge is accompanied by its reverse. Controls
  /// 2-cycle density (the paper's Table IV lever).
  double reciprocity = 0.2;
  /// Probability that an edge is oriented "downhill" along a random
  /// hierarchy of the vertices. Web corpora are strongly hierarchical
  /// (page trees with sparse back-links): high bias produces large
  /// DAG-like regions whose k-hop fans contain exponentially many simple
  /// paths but few short cycles — the structure the paper's block
  /// technique (Figure 5) exists to prune. 0 = no orientation preference.
  double forward_bias = 0.0;
  uint64_t seed = 1;
};

/// Skewed digraph: endpoints drawn from Zipf popularity with independent
/// source/destination permutations, reciprocal edges added with the given
/// probability. Models citation / web / social graphs.
CsrGraph GeneratePowerLaw(const PowerLawParams& params);

/// Parameters for the recursive-matrix generator (Chakrabarti et al.),
/// the standard model for Twitter-like graphs.
struct RmatParams {
  /// log2 of the vertex count.
  uint32_t scale = 10;
  EdgeId m = 0;
  double a = 0.57, b = 0.19, c = 0.19;  // d = 1 - a - b - c
  /// Probability of also inserting the reverse edge.
  double reciprocity = 0.0;
  uint64_t seed = 1;
};

/// R-MAT digraph with n = 2^scale vertices.
CsrGraph GenerateRmat(const RmatParams& params);

/// A graph with known cycle structure for tests: a random DAG (edges only
/// from lower to higher id) plus `num_cycles` planted simple directed
/// cycles with lengths uniform in [min_len, max_len]. Every directed cycle
/// in the result uses at least one planted back-edge.
struct PlantedCyclesResult {
  CsrGraph graph;
  /// Vertex sequence of each planted cycle (first vertex not repeated).
  std::vector<std::vector<VertexId>> cycles;
};
PlantedCyclesResult GeneratePlantedCycles(VertexId n, EdgeId dag_edges,
                                          VertexId num_cycles,
                                          VertexId min_len, VertexId max_len,
                                          uint64_t seed);

/// One strongly connected component: a directed cycle backbone over all
/// `n` vertices (guarantees a single SCC) plus `n * chords_per_vertex`
/// random chords (duplicates and would-be self-loops are dropped by the
/// CSR build). The engine tests' single-SCC workload.
CsrGraph GenerateChordedCycle(VertexId n, VertexId chords_per_vertex,
                              uint64_t seed);

/// Simple deterministic shapes used across tests and micro-benchmarks.
CsrGraph MakeDirectedCycle(VertexId n);
CsrGraph MakeCompleteDigraph(VertexId n);
CsrGraph MakeDirectedPath(VertexId n);

/// Layered funnel: `layers` layers of `width` vertices, all-to-all edges
/// between consecutive layers, no cycles. The k-hop fan from any early
/// vertex contains width^(k-1) simple paths, so a failed plain-DFS
/// validation costs exactly that, while block-based validation stays
/// O(k*m) — the adversarial structure behind the paper's Figure 5. Being
/// a DAG, it gives a full solve nothing to do: the engine's condensation
/// discharges every vertex.
///
/// Vertex ids: layer L slot s = L * width + s, or, with `reverse_ids`,
/// (layers-1-L) * width + s. Reversed ids make id-ordered top-down sweeps
/// process sinks first, so every validation faces its full downstream fan
/// (the worst case); forward ids make the same sweep trivially cheap.
CsrGraph MakeLayeredFunnel(VertexId width, VertexId layers,
                           bool reverse_ids = false);

}  // namespace tdb

#endif  // TDB_GRAPH_GENERATORS_H_
