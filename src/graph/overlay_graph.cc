#include "graph/overlay_graph.h"

#include <algorithm>
#include <utility>

#include "util/check.h"

namespace tdb {

OverlayGraph::DeltaLog::DeltaLog(VertexId n)
    : first_out(std::make_unique<std::atomic<uint32_t>[]>(n)),
      first_in(std::make_unique<std::atomic<uint32_t>[]>(n)) {
  for (VertexId v = 0; v < n; ++v) {
    first_out[v].store(kNone, kRelaxed);
    first_in[v].store(kNone, kRelaxed);
  }
}

void OverlayGraph::DeltaLog::Emplace(uint64_t i, Edge edge) {
  const uint64_t slot = i + kFirstChunk;
  const int c = ChunkOf(slot);
  if (chunks[c] == nullptr) {
    chunks[c] = std::make_unique<Entry[]>(kFirstChunk << c);
  }
  chunks[c][slot - (kFirstChunk << c)].edge = edge;
}

OverlayGraph::Appender::Appender(VertexId n)
    : last_out(n, DeltaLog::kNone), last_in(n, DeltaLog::kNone) {}

OverlayGraph::OverlayGraph(std::shared_ptr<const CsrGraph> base)
    : base_(std::move(base)) {
  TDB_CHECK(base_ != nullptr);
  log_ = std::make_shared<DeltaLog>(base_->num_vertices());
  appender_ = std::make_unique<Appender>(base_->num_vertices());
}

OverlayGraph::OverlayGraph(const OverlayGraph& other)
    : base_(other.base_), log_(other.log_), size_(other.size_) {}

OverlayGraph& OverlayGraph::operator=(const OverlayGraph& other) {
  if (this != &other) {
    base_ = other.base_;
    log_ = other.log_;
    size_ = other.size_;
    appender_.reset();
  }
  return *this;
}

std::vector<Edge> OverlayGraph::delta() const {
  std::vector<Edge> edges;
  edges.reserve(size_);
  for (uint32_t i = 0; i < size_; ++i) edges.push_back(log_->At(i).edge);
  return edges;
}

EdgeId OverlayGraph::AddEdge(VertexId u, VertexId v) {
  TDB_CHECK_MSG(appender_ != nullptr, "AddEdge on a read-only overlay copy");
  const VertexId n = num_vertices();
  if (u == v || u >= n || v >= n) return kInvalidEdge;
  if (base_->HasEdge(u, v)) return kInvalidEdge;
  if (!appender_->present.insert(Key(u, v)).second) return kInvalidEdge;
  TDB_CHECK(size_ < DeltaLog::kNone);
  const uint32_t i = size_;
  log_->Emplace(i, Edge{u, v});
  // Link i behind the chain tails. Copies of length <= i may be reading
  // these cells concurrently; they read i and stop (the file comment).
  uint32_t& out_tail = appender_->last_out[u];
  if (out_tail == DeltaLog::kNone) {
    log_->first_out[u].store(i, kRelaxed);
  } else {
    log_->At(out_tail).next_out.store(i, kRelaxed);
  }
  out_tail = i;
  uint32_t& in_tail = appender_->last_in[v];
  if (in_tail == DeltaLog::kNone) {
    log_->first_in[v].store(i, kRelaxed);
  } else {
    log_->At(in_tail).next_in.store(i, kRelaxed);
  }
  in_tail = i;
  ++size_;
  return base_edges() + i;
}

bool OverlayGraph::HasEdge(VertexId u, VertexId v) const {
  const VertexId n = num_vertices();
  if (u >= n || v >= n) return false;
  if (base_->HasEdge(u, v)) return true;
  for (uint32_t i = log_->first_out[u].load(kRelaxed); i < size_;) {
    const DeltaLog::Entry& entry = log_->At(i);
    if (entry.edge.dst == v) return true;
    i = entry.next_out.load(kRelaxed);
  }
  return false;
}

EdgeId OverlayGraph::OutDegree(VertexId v) const {
  EdgeId degree = base_->out_degree(v);
  for (uint32_t i = log_->first_out[v].load(kRelaxed); i < size_;) {
    ++degree;
    i = log_->At(i).next_out.load(kRelaxed);
  }
  return degree;
}

CsrGraph OverlayGraph::ToCsr() const {
  std::vector<Edge> delta_sorted = delta();
  std::sort(delta_sorted.begin(), delta_sorted.end());
  // Merge the sorted delta into the base's (src, dst)-ordered out-lists,
  // so FromEdges takes its already-sorted path.
  std::vector<Edge> edges;
  edges.reserve(num_edges());
  auto next = delta_sorted.begin();
  const VertexId n = num_vertices();
  for (VertexId u = 0; u < n; ++u) {
    for (const VertexId w : base_->OutNeighbors(u)) {
      const Edge e{u, w};
      while (next != delta_sorted.end() && *next < e) edges.push_back(*next++);
      edges.push_back(e);
    }
  }
  edges.insert(edges.end(), next, delta_sorted.end());
  return CsrGraph::FromEdges(n, std::move(edges));
}

}  // namespace tdb
