// Snapshot/delta graph: an immutable base plus an append-only overlay of
// recent insertions, with unified neighbor iteration.
//
// The online cycle-break service (src/service/) never mutates a CSR: the
// base snapshot stays frozen (readers traverse it lock-free forever) and
// every ingested edge is appended to one delta log per base generation.
// Copying an OverlayGraph copies two pointers and a length: the copy sees
// the log's first delta_edges() entries and nothing the original appends
// afterwards. That is what the service's per-batch snapshot publication
// relies on; compaction periodically folds the delta back into a fresh
// base (ToCsr) so the log never grows past a configured threshold.
//
// Visibility contract. A copy with length L reads only log entries with
// index < L, all written before the copy was made. The one writer keeps
// appending to the same log concurrently: it writes each new entry at an
// index >= L, and the only cells it changes that a copy can also read are
// the per-vertex chain heads and per-entry chain links, which are
// std::atomic. A link or head the writer sets after the copy was made
// holds an index >= L, so a reader that stops at the first index >= L
// sees exactly the chains as they were at its length. Log storage is a
// set of chunks that never move, so no reader ever sees a relocation.
//
// Edge ids extend the base's canonical ids: base edges keep their CSR ids
// [0, base_edges()), delta edges are numbered base_edges(), base_edges()+1,
// ... in insertion order. Ids are stable until compaction (which, like
// CsrGraph::FromEdges, re-canonicalizes).
#ifndef TDB_GRAPH_OVERLAY_GRAPH_H_
#define TDB_GRAPH_OVERLAY_GRAPH_H_

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <limits>
#include <memory>
#include <unordered_set>
#include <vector>

#include "graph/csr_graph.h"
#include "graph/types.h"

namespace tdb {

/// Immutable base snapshot + insert-only delta overlay. Copies are O(1)
/// read-only views: a copy shares the base and the delta log and sees
/// the delta as of the copy. Only the overlay built from the base (or
/// moved from it) appends.
class OverlayGraph {
 public:
  /// Wraps `base` with an empty delta. The vertex universe is fixed at
  /// base->num_vertices(); edges outside it are rejected.
  explicit OverlayGraph(std::shared_ptr<const CsrGraph> base);

  /// A read-only view of `other`'s current state: shares its base and
  /// log, without the append state (see AddEdge).
  OverlayGraph(const OverlayGraph& other);
  OverlayGraph& operator=(const OverlayGraph& other);
  OverlayGraph(OverlayGraph&&) noexcept = default;
  OverlayGraph& operator=(OverlayGraph&&) noexcept = default;

  VertexId num_vertices() const { return base_->num_vertices(); }
  /// Base + delta edges.
  EdgeId num_edges() const { return base_edges() + size_; }
  EdgeId base_edges() const { return base_->num_edges(); }
  EdgeId delta_edges() const { return size_; }

  const CsrGraph& base() const { return *base_; }
  /// The shared base itself, for holders that must outlive this view.
  const std::shared_ptr<const CsrGraph>& shared_base() const {
    return base_;
  }
  /// Delta edges in insertion order, copied out; entry i has id
  /// base_edges() + i.
  std::vector<Edge> delta() const;

  /// Adds u -> v to the delta; returns its edge id, or kInvalidEdge for
  /// self-loops, out-of-universe endpoints, and edges already present in
  /// the base or the delta. Aborts on a copy: views never append.
  EdgeId AddEdge(VertexId u, VertexId v);

  /// O(log base out-degree + delta out-degree of u).
  bool HasEdge(VertexId u, VertexId v) const;

  VertexId EdgeSrc(EdgeId e) const {
    if (e >= base_edges()) return log_->At(e - base_edges()).edge.src;
    return base_->EdgeSrc(e);
  }
  VertexId EdgeDst(EdgeId e) const {
    if (e >= base_edges()) return log_->At(e - base_edges()).edge.dst;
    return base_->EdgeDst(e);
  }

  /// Calls fn(neighbor, edge_id) for every out-edge of v — base edges
  /// first (ascending neighbor, canonical ids), then delta edges in
  /// insertion order. fn returns false to stop early; ForEachOut returns
  /// false iff it was stopped. The iteration order is deterministic,
  /// which the ingest path's replay-equivalence guarantees depend on.
  template <typename Fn>
  bool ForEachOut(VertexId v, Fn&& fn) const {
    const EdgeId end = base_->OutEdgeEnd(v);
    for (EdgeId e = base_->OutEdgeBegin(v); e < end; ++e) {
      if (!fn(base_->EdgeDst(e), e)) return false;
    }
    const EdgeId offset = base_edges();
    for (uint32_t i = log_->first_out[v].load(kRelaxed); i < size_;) {
      const DeltaLog::Entry& entry = log_->At(i);
      if (!fn(entry.edge.dst, offset + i)) return false;
      i = entry.next_out.load(kRelaxed);
    }
    return true;
  }

  /// In-edge analogue of ForEachOut.
  template <typename Fn>
  bool ForEachIn(VertexId v, Fn&& fn) const {
    const auto sources = base_->InNeighbors(v);
    const auto ranks = base_->InEdgeRanks(v);
    for (size_t i = 0; i < sources.size(); ++i) {
      if (!fn(sources[i], base_->OutEdgeBegin(sources[i]) + ranks[i])) {
        return false;
      }
    }
    const EdgeId offset = base_edges();
    for (uint32_t i = log_->first_in[v].load(kRelaxed); i < size_;) {
      const DeltaLog::Entry& entry = log_->At(i);
      if (!fn(entry.edge.src, offset + i)) return false;
      i = entry.next_in.load(kRelaxed);
    }
    return true;
  }

  /// Out-degree across base + delta.
  EdgeId OutDegree(VertexId v) const;

  /// Freezes base + delta into a standalone CSR (compaction input). Edge
  /// ids are re-canonicalized by the CSR build. Only the delta is
  /// sorted; the base is already in (src, dst) order and is merged in.
  CsrGraph ToCsr() const;

 private:
  static constexpr auto kRelaxed = std::memory_order_relaxed;

  /// The append-only delta of one base generation, shared by the writer
  /// and every copy. Per-vertex out/in chains run oldest first: a head
  /// per vertex, a next link per entry, kNone at the end.
  struct DeltaLog {
    static constexpr uint32_t kNone = std::numeric_limits<uint32_t>::max();
    /// Entry i sits at slot i + kFirstChunk, in the chunk c whose slot
    /// range is [kFirstChunk << c, kFirstChunk << (c + 1)). 25 chunks
    /// address every index below kNone, and no chunk is ever reallocated.
    static constexpr uint64_t kFirstChunk = 256;
    static constexpr int kChunks = 25;

    struct Entry {
      Edge edge;
      std::atomic<uint32_t> next_out{kNone};
      std::atomic<uint32_t> next_in{kNone};
    };

    explicit DeltaLog(VertexId n);

    static int ChunkOf(uint64_t slot) {
      return std::bit_width(slot) - std::bit_width(kFirstChunk);
    }
    Entry& At(uint64_t i) {
      const uint64_t slot = i + kFirstChunk;
      const int c = ChunkOf(slot);
      return chunks[c][slot - (kFirstChunk << c)];
    }
    /// Writes entry i (allocating its chunk on first use). Writer only.
    void Emplace(uint64_t i, Edge edge);

    std::unique_ptr<std::atomic<uint32_t>[]> first_out;
    std::unique_ptr<std::atomic<uint32_t>[]> first_in;
    std::array<std::unique_ptr<Entry[]>, kChunks> chunks;
  };

  /// State only the appending overlay holds: chain tails and the
  /// duplicate filter. Never shared, so copies cost nothing for it.
  struct Appender {
    explicit Appender(VertexId n);
    std::vector<uint32_t> last_out;
    std::vector<uint32_t> last_in;
    std::unordered_set<uint64_t> present;
  };

  static uint64_t Key(VertexId u, VertexId v) {
    return (static_cast<uint64_t>(u) << 32) | v;
  }

  std::shared_ptr<const CsrGraph> base_;
  std::shared_ptr<DeltaLog> log_;
  /// Delta edges this overlay sees: log entries [0, size_).
  uint32_t size_ = 0;
  /// Non-null only on the overlay that appends to log_.
  std::unique_ptr<Appender> appender_;
};

}  // namespace tdb

#endif  // TDB_GRAPH_OVERLAY_GRAPH_H_
