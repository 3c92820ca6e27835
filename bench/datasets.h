// Registry of synthetic proxies for the paper's 16 evaluation datasets
// (Table II). Each proxy is generated deterministically to match the
// published statistics in shape — scaled-down vertex count, the same
// average degree, Zipf-skewed hubs, and a per-dataset reciprocity chosen to
// mirror the 2-cycle structure implied by Table IV. See
// docs/ARCHITECTURE.md, "Proxy datasets".
#ifndef TDB_BENCH_DATASETS_H_
#define TDB_BENCH_DATASETS_H_

#include <string>
#include <vector>

#include "graph/csr_graph.h"

namespace tdb::bench {

/// One dataset proxy description.
struct DatasetSpec {
  /// Paper abbreviation (WKV, ASC, ...).
  const char* name;
  /// Full dataset name as in Table II.
  const char* full_name;

  // Published statistics (for reporting alongside proxy numbers).
  double paper_vertices;
  double paper_edges;
  double paper_davg;

  // Proxy generation parameters at scale 1.0.
  VertexId proxy_n;
  /// Zipf skew of the degree distribution.
  double theta;
  /// Probability of a reverse edge accompanying each edge (2-cycle lever;
  /// higher values reproduce the high "with 2-cycle" ratios of Table IV).
  double reciprocity;
  /// True for FLK/LJ/WKP/TW: the four graphs only TDB++ completes in the
  /// paper's Table III.
  bool large;

  /// Proxy edge target at a given scale: n * d_avg / 2 (d_avg counts both
  /// directions, as in Table II).
  EdgeId ProxyEdges(double scale) const;
  VertexId ProxyVertices(double scale) const;
};

/// All 16 proxies in Table II order.
const std::vector<DatasetSpec>& AllDatasets();

/// The 12 "small" datasets (every algorithm runs them in the paper).
std::vector<DatasetSpec> SmallDatasets();

/// Lookup by abbreviation; nullptr if unknown.
const DatasetSpec* FindDataset(const std::string& name);

/// Generates the proxy graph. `scale` multiplies the proxy vertex count
/// (edges follow to preserve d_avg); generation is deterministic per
/// (dataset, scale).
CsrGraph BuildProxy(const DatasetSpec& spec, double scale);

/// Global scale factor from the TDB_BENCH_SCALE environment variable
/// (default 1.0). Values > 1 stress-test; < 1 smoke-test. A malformed or
/// non-positive value prints the variable's name and exits 2.
double BenchScale();

}  // namespace tdb::bench

#endif  // TDB_BENCH_DATASETS_H_
