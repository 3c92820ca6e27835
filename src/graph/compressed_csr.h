// Delta/varint-compressed CSR storage backend.
//
// CompressedCsr stores the same canonical directed graph as CsrGraph —
// identical vertex universe, identical edge ids (id = rank of the edge
// in the sorted out-adjacency concatenation) — but keeps both adjacency
// directions as byte streams of LEB128 varints instead of raw u32/u64
// arrays.
//
// Block format. Edges are ranked 0..m-1 per direction and cut into
// groups of 32 consecutive ranks. Per group g the headers store the
// absolute value of the entry at rank 32g (`group_first`) and the byte
// offset of the entry at rank 32g+1 (`group_pos`), so the stream holds
// no bytes at group boundaries and random access costs one header probe
// plus at most 31 varint decodes. Stream entries carry a low tag bit:
//   tag 1: absolute restart — the first entry of a vertex's list that
//          falls mid-group (delta chains never cross list boundaries);
//   tag 0: continuation — payload is (gap - 1) from the previous value
//          of the same list, which is strictly ascending, so gap >= 1
//          and a zero byte encodes the tightest possible neighbor.
// The out direction stores neighbor targets. The in direction stores
// (source, rank-of-this-edge-in-source's-out-list) pairs — the tagged
// source varint followed by a plain rank varint — so the canonical edge
// id is recovered as OutEdgeBegin(source) + rank with one offset probe
// and no 8-byte in-edge-id array; in-group headers additionally record
// the rank of the group-first entry (`in_group_rank_`).
//
// Offset and header arrays narrow themselves to u32 when their maximum
// fits (PackedOffsets), so the fixed per-vertex cost is 8(n+1) bytes on
// any graph under 2^32 edges vs CsrGraph's 16(n+1).
//
// The iteration seam — ForEachOut/ForEachIn(v, fn) and
// DecodeNeighbors/DecodeInNeighbors(v, scratch) — is shared with
// CsrGraph and OverlayGraph: generic traversal code works
// on either backend, and on CsrGraph the seam degenerates to the raw
// span loop (DecodeNeighbors returns the internal span, ignoring the
// scratch), so the uncompressed fast path stays branch-free.
#ifndef TDB_GRAPH_COMPRESSED_CSR_H_
#define TDB_GRAPH_COMPRESSED_CSR_H_

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <span>
#include <vector>

#include "graph/types.h"
#include "graph/varint.h"
#include "util/status.h"

namespace tdb {

class Crc32;
class CsrGraph;

/// Monotone u64 sequence stored as u32 when the maximum fits. Used for
/// both CSR offsets (indexed by vertex) and group byte positions
/// (indexed by group).
class PackedOffsets {
 public:
  /// Takes a nondecreasing sequence; picks the width from the last
  /// (= largest) element.
  void Assign(const std::vector<uint64_t>& values) {
    wide_ = !values.empty() && values.back() > 0xffffffffull;
    if (wide_) {
      v64_ = values;
      v32_.clear();
    } else {
      v32_.assign(values.begin(), values.end());
      v64_.clear();
    }
  }
  uint64_t Get(size_t i) const { return wide_ ? v64_[i] : v32_[i]; }
  size_t size() const { return wide_ ? v64_.size() : v32_.size(); }
  uint64_t bytes() const {
    return wide_ ? v64_.size() * sizeof(uint64_t)
                 : v32_.size() * sizeof(uint32_t);
  }
  bool wide() const { return wide_; }
  /// Index of the first element > value.
  size_t UpperBound(uint64_t value) const {
    if (wide_) {
      return std::upper_bound(v64_.begin(), v64_.end(), value) -
             v64_.begin();
    }
    if (value > 0xffffffffull) return v32_.size();
    return std::upper_bound(v32_.begin(), v32_.end(),
                            static_cast<uint32_t>(value)) -
           v32_.begin();
  }
  const void* data() const {
    return wide_ ? static_cast<const void*>(v64_.data())
                 : static_cast<const void*>(v32_.data());
  }
  Status WriteTo(std::FILE* f, Crc32* crc) const;
  Status ReadFrom(std::FILE* f, Crc32* crc, uint64_t expected_size);

 private:
  bool wide_ = false;
  std::vector<uint32_t> v32_;
  std::vector<uint64_t> v64_;
};

/// Per-structure byte footprint of one CompressedCsr (resident sizes of
/// the live arrays, not capacities).
struct CompressedCsrFootprint {
  uint64_t offset_bytes = 0;      ///< out + in vertex offset arrays.
  uint64_t out_stream_bytes = 0;  ///< out-direction varint stream.
  uint64_t out_header_bytes = 0;  ///< out group_pos + group_first.
  uint64_t in_stream_bytes = 0;   ///< in-direction varint stream.
  uint64_t in_header_bytes = 0;   ///< in group headers incl. ranks.
  uint64_t total() const {
    return offset_bytes + out_stream_bytes + out_header_bytes +
           in_stream_bytes + in_header_bytes;
  }
};

class CompressedCsr {
 public:
  CompressedCsr() = default;

  /// Canonicalizes `edges` exactly like CsrGraph::FromEdges (drop
  /// self-loops unless kept, sort, dedup) and encodes both directions.
  static CompressedCsr FromEdges(VertexId num_vertices,
                                 std::vector<Edge> edges,
                                 bool keep_self_loops = false);
  /// Re-encodes an existing raw CSR; edge ids are preserved verbatim.
  static CompressedCsr FromCsr(const CsrGraph& graph);
  /// Decodes back to a raw CSR (bit-identical to the FromCsr source).
  CsrGraph ToCsr() const;

  VertexId num_vertices() const { return n_; }
  EdgeId num_edges() const { return m_; }
  EdgeId out_degree(VertexId v) const {
    return out_offsets_.Get(v + 1) - out_offsets_.Get(v);
  }
  EdgeId in_degree(VertexId v) const {
    return in_offsets_.Get(v + 1) - in_offsets_.Get(v);
  }
  EdgeId OutEdgeBegin(VertexId v) const { return out_offsets_.Get(v); }
  EdgeId OutEdgeEnd(VertexId v) const { return out_offsets_.Get(v + 1); }

  /// Source of edge `e`: binary search over the out offsets.
  VertexId EdgeSrc(EdgeId e) const {
    return static_cast<VertexId>(out_offsets_.UpperBound(e) - 1);
  }
  /// Target of edge `e`: one group-header probe + <= 31 decodes.
  VertexId EdgeDst(EdgeId e) const {
    OutCursor c;
    SeekOut(e, &c);
    return c.value;
  }

  /// Id of edge u -> v, or kInvalidEdge. Skips whole groups via the
  /// headers before the final linear decode.
  EdgeId FindEdge(VertexId u, VertexId v) const;
  bool HasEdge(VertexId u, VertexId v) const {
    return FindEdge(u, v) != kInvalidEdge;
  }

  /// Streams v's out-neighbors in ascending order as fn(target, edge
  /// id); stops early (returning false) when fn returns false.
  template <typename Fn>
  bool ForEachOut(VertexId v, Fn&& fn) const {
    const EdgeId begin = out_offsets_.Get(v);
    const EdgeId end = out_offsets_.Get(v + 1);
    if (begin == end) return true;
    OutCursor c;
    SeekOut(begin, &c);
    for (EdgeId r = begin;;) {
      if (!fn(c.value, r)) return false;
      if (++r == end) return true;
      AdvanceOut(r, &c);
    }
  }

  /// Streams v's in-neighbors in ascending source order as fn(source,
  /// edge id); the id is recovered as OutEdgeBegin(source) + rank.
  template <typename Fn>
  bool ForEachIn(VertexId v, Fn&& fn) const {
    const EdgeId begin = in_offsets_.Get(v);
    const EdgeId end = in_offsets_.Get(v + 1);
    if (begin == end) return true;
    InCursor c;
    SeekIn(begin, &c);
    for (EdgeId r = begin;;) {
      if (!fn(c.src, out_offsets_.Get(c.src) + c.rank)) return false;
      if (++r == end) return true;
      AdvanceIn(r, &c);
    }
  }

  /// Decodes v's out-neighbor list into `scratch` (grown, never
  /// shrunk) and returns the filled prefix.
  std::span<const VertexId> DecodeNeighbors(
      VertexId v, std::vector<VertexId>& scratch) const {
    const EdgeId begin = out_offsets_.Get(v);
    const EdgeId deg = out_offsets_.Get(v + 1) - begin;
    if (scratch.size() < deg) scratch.resize(deg);
    if (deg == 0) return {};
    OutCursor c;
    SeekOut(begin, &c);
    scratch[0] = c.value;
    for (EdgeId i = 1; i < deg; ++i) {
      AdvanceOut(begin + i, &c);
      scratch[i] = c.value;
    }
    return {scratch.data(), static_cast<size_t>(deg)};
  }

  /// Decodes v's in-neighbor sources into `scratch`.
  std::span<const VertexId> DecodeInNeighbors(
      VertexId v, std::vector<VertexId>& scratch) const {
    const EdgeId begin = in_offsets_.Get(v);
    const EdgeId deg = in_offsets_.Get(v + 1) - begin;
    if (scratch.size() < deg) scratch.resize(deg);
    if (deg == 0) return {};
    InCursor c;
    SeekIn(begin, &c);
    scratch[0] = c.src;
    for (EdgeId i = 1; i < deg; ++i) {
      AdvanceIn(begin + i, &c);
      scratch[i] = c.src;
    }
    return {scratch.data(), static_cast<size_t>(deg)};
  }

  CompressedCsrFootprint MemoryFootprint() const;
  /// What CsrGraph spends on the same (n, m): 20 bytes per edge across
  /// out_targets_/edge_src_/in_sources_/in_edge_ids_ plus two u64
  /// offset arrays.
  static uint64_t RawCsrBytes(VertexId n, EdgeId m) {
    return 20ull * m + 16ull * (static_cast<uint64_t>(n) + 1);
  }

  /// Appends the encoded sections to an open file, feeding the caller's
  /// running CRC (snapshot v2 body). Layout is documented in the .cc.
  Status WriteSections(std::FILE* f, Crc32* crc) const;
  /// Reads sections written by WriteSections for a graph announced as
  /// (n, m) and fully validates the structure (every stream walked with
  /// the checked decoder, offsets monotone, values in range, group
  /// headers consistent) so a truncated or tampered block fails the
  /// load instead of corrupting later scans.
  static Status ReadSections(std::FILE* f, Crc32* crc, VertexId n,
                             EdgeId m, CompressedCsr* out);
  /// The structural validation run by ReadSections, exposed for tests.
  Status Validate() const;

 private:
  static constexpr unsigned kGroupShift = 5;
  static constexpr EdgeId kGroupMask = (EdgeId{1} << kGroupShift) - 1;

  /// One encoded adjacency direction.
  struct Block {
    std::vector<uint8_t> stream;
    PackedOffsets group_pos;  ///< Byte offset of the rank-32g+1 entry.
    std::vector<VertexId> group_first;  ///< Value at rank 32g.
  };

  struct OutCursor {
    const uint8_t* p = nullptr;
    VertexId value = 0;
  };
  struct InCursor {
    const uint8_t* p = nullptr;
    VertexId src = 0;
    uint32_t rank = 0;
  };

  /// Positions the cursor on rank r: value = entry r, p = bytes of
  /// entry r+1.
  void SeekOut(EdgeId r, OutCursor* c) const {
    const size_t g = static_cast<size_t>(r >> kGroupShift);
    c->p = out_.stream.data() + out_.group_pos.Get(g);
    c->value = out_.group_first[g];
    const EdgeId base = static_cast<EdgeId>(g) << kGroupShift;
    for (EdgeId i = base + 1; i <= r; ++i) StepOut(c);
  }
  void StepOut(OutCursor* c) const {
    uint64_t raw;
    c->p = DecodeVarintUnchecked(c->p, &raw);
    c->value = (raw & 1)
                   ? static_cast<VertexId>(raw >> 1)
                   : c->value + 1 + static_cast<VertexId>(raw >> 1);
  }
  /// Moves a cursor sitting on rank next_rank - 1 onto next_rank. At a
  /// group boundary the value comes from the header and no bytes move:
  /// the stream is contiguous, so p already points at the new group.
  void AdvanceOut(EdgeId next_rank, OutCursor* c) const {
    if ((next_rank & kGroupMask) == 0) {
      c->value = out_.group_first[next_rank >> kGroupShift];
      return;
    }
    StepOut(c);
  }

  void SeekIn(EdgeId r, InCursor* c) const {
    const size_t g = static_cast<size_t>(r >> kGroupShift);
    c->p = in_.stream.data() + in_.group_pos.Get(g);
    c->src = in_.group_first[g];
    c->rank = in_group_rank_[g];
    const EdgeId base = static_cast<EdgeId>(g) << kGroupShift;
    for (EdgeId i = base + 1; i <= r; ++i) StepIn(c);
  }
  void StepIn(InCursor* c) const {
    uint64_t raw;
    c->p = DecodeVarintUnchecked(c->p, &raw);
    c->src = (raw & 1) ? static_cast<VertexId>(raw >> 1)
                       : c->src + 1 + static_cast<VertexId>(raw >> 1);
    uint64_t rank;
    c->p = DecodeVarintUnchecked(c->p, &rank);
    c->rank = static_cast<uint32_t>(rank);
  }
  void AdvanceIn(EdgeId next_rank, InCursor* c) const {
    if ((next_rank & kGroupMask) == 0) {
      const size_t g = static_cast<size_t>(next_rank >> kGroupShift);
      c->src = in_.group_first[g];
      c->rank = in_group_rank_[g];
      return;
    }
    StepIn(c);
  }

  /// Shared encoder: `edges` must already be canonical (sorted, unique,
  /// in range, self-loop policy applied).
  static CompressedCsr BuildFromCanonical(VertexId n,
                                          const std::vector<Edge>& edges);

  VertexId n_ = 0;
  EdgeId m_ = 0;
  PackedOffsets out_offsets_;  ///< n + 1 entries.
  PackedOffsets in_offsets_;   ///< n + 1 entries.
  Block out_;
  Block in_;
  /// Out-list rank of each in-group's first entry (parallel to
  /// in_.group_first).
  std::vector<uint32_t> in_group_rank_;
};

}  // namespace tdb

#endif  // TDB_GRAPH_COMPRESSED_CSR_H_
