#include "graph/graph_stats.h"

#include <algorithm>
#include <cstdio>

namespace tdb {

GraphStats ComputeStats(const CsrGraph& graph) {
  GraphStats s;
  s.num_vertices = graph.num_vertices();
  s.num_edges = graph.num_edges();
  if (s.num_vertices > 0) {
    // Each directed edge contributes one out- and one in-degree unit; the
    // SNAP convention reported in the paper counts both.
    s.avg_degree =
        2.0 * static_cast<double>(s.num_edges) / double(s.num_vertices);
  }
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    s.max_out_degree = std::max(s.max_out_degree, graph.out_degree(v));
    s.max_in_degree = std::max(s.max_in_degree, graph.in_degree(v));
    if (graph.out_degree(v) > 0 && graph.in_degree(v) > 0) {
      ++s.num_bidegree_vertices;
    }
  }
  if (s.num_edges > 0) {
    s.reciprocity = static_cast<double>(graph.CountReciprocalEdges()) /
                    static_cast<double>(s.num_edges);
  }
  const uint64_t offsets =
      (static_cast<uint64_t>(s.num_vertices) + 1) * sizeof(EdgeId);
  s.out_offset_bytes = offsets;
  s.in_offset_bytes = offsets;
  s.out_target_bytes = s.num_edges * sizeof(VertexId);
  s.in_source_bytes = s.num_edges * sizeof(VertexId);
  s.in_edge_rank_bytes = s.num_edges * sizeof(uint32_t);
  return s;
}

std::string GraphStats::ToString() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "|V|=%u |E|=%llu d_avg=%.1f max_out=%llu max_in=%llu "
                "reciprocity=%.2f",
                num_vertices, static_cast<unsigned long long>(num_edges),
                avg_degree, static_cast<unsigned long long>(max_out_degree),
                static_cast<unsigned long long>(max_in_degree), reciprocity);
  return buf;
}

std::string GraphStats::FootprintString() const {
  char buf[256];
  std::snprintf(
      buf, sizeof(buf),
      "csr_bytes=%llu (out_offsets=%llu out_targets=%llu "
      "in_offsets=%llu in_sources=%llu in_edge_ranks=%llu)",
      static_cast<unsigned long long>(total_bytes()),
      static_cast<unsigned long long>(out_offset_bytes),
      static_cast<unsigned long long>(out_target_bytes),
      static_cast<unsigned long long>(in_offset_bytes),
      static_cast<unsigned long long>(in_source_bytes),
      static_cast<unsigned long long>(in_edge_rank_bytes));
  return buf;
}

}  // namespace tdb
