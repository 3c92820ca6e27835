// Streaming k-cycle edge transversal with DARC (the paper's §II.A related
// problem, and the dynamic setting DARC was designed for in Kuhnle et
// al.). Edges arrive one at a time (e.g. live transactions); the solver
// maintains a feasible edge transversal after every processed prefix —
// here emulated by solving growing prefixes and reporting how the
// transversal evolves, plus a final comparison against the vertex cover.
#include <cstdio>
#include <vector>

#include "core/darc.h"
#include "core/solver.h"
#include "graph/generators.h"
#include "util/rng.h"

int main() {
  using namespace tdb;

  // A transaction stream over 3,000 accounts with reciprocal bursts.
  PowerLawParams params;
  params.n = 3000;
  params.m = 15000;
  params.theta = 0.65;
  params.reciprocity = 0.3;
  params.seed = 99;
  CsrGraph full = GeneratePowerLaw(params);

  // Collect the stream in arrival order (randomized canonical ids).
  std::vector<Edge> stream;
  for (VertexId u = 0; u < full.num_vertices(); ++u) {
    for (const VertexId v : full.OutNeighbors(u)) stream.push_back(Edge{u, v});
  }
  Rng rng(5);
  for (size_t i = stream.size(); i > 1; --i) {
    std::swap(stream[i - 1], stream[rng.NextBounded(i)]);
  }

  CoverOptions options;
  options.k = 4;

  std::printf("streaming %zu transfers over %u accounts (k = %u)\n",
              stream.size(), full.num_vertices(), options.k);
  std::printf("%-10s %-14s %-14s %s\n", "prefix", "transversal", "blocked",
              "seconds");
  for (double fraction : {0.25, 0.5, 0.75, 1.0}) {
    const size_t count = static_cast<size_t>(fraction * stream.size());
    std::vector<Edge> prefix(stream.begin(), stream.begin() + count);
    CsrGraph g = CsrGraph::FromEdges(full.num_vertices(), prefix);
    DarcEdgeResult r = SolveDarcEdgeCover(g, options);
    if (!r.status.ok()) {
      std::fprintf(stderr, "solve failed: %s\n", r.status.ToString().c_str());
      return 1;
    }
    std::printf("%-10.0f%% %-14zu %-14llu %.3f\n", fraction * 100,
                r.edge_cover.size(),
                static_cast<unsigned long long>(r.augment_cycles),
                r.elapsed_seconds);
  }

  // Final graph: compare the edge transversal against the vertex cover
  // (blocking transfers vs auditing accounts).
  DarcEdgeResult edges = SolveDarcEdgeCover(full, options);
  CoverResult vertices =
      SolveCycleCover(full, CoverAlgorithm::kTdbPlusPlus, options);
  std::printf(
      "\nfinal graph: block %zu transfers or audit %zu accounts to break "
      "every ring of <= %u transfers\n",
      edges.edge_cover.size(), vertices.cover.size(), options.k);
  return 0;
}
