#include "service/snapshot.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>

#include "graph/graph_io.h"
#include "util/cfile.h"
#include "util/crc32.h"
#include "util/trace.h"

namespace tdb {

AdmissionVerdict CheckAdmissionOn(const ServiceSnapshot& snapshot,
                                  VertexId u, VertexId v,
                                  PathProber* prober) {
  AdmissionVerdict verdict;
  verdict.epoch = snapshot.epoch;
  const VertexId n = snapshot.graph.num_vertices();
  // No-op insertions (self-loop, outside the universe, already present)
  // close nothing.
  if (u == v || u >= n || v >= n) return verdict;
  if (snapshot.graph.HasEdge(u, v)) return verdict;
  // If u is in the base vertex cover, the closing edge u -> v would
  // itself be covered, so any cycle it closes is broken by construction.
  if (snapshot.cover.VertexCovered(u)) return verdict;
  // Symmetric early-out: if v is covered, every out-edge of v is
  // covered, so no uncovered path can even leave v — every candidate
  // cycle routes through a covered vertex.
  if (snapshot.cover.VertexCovered(v)) return verdict;
  // Otherwise the edge closes an uncovered cycle iff an uncovered simple
  // path v ->* u with hop count in [min_len - 1, k - 1] exists.
  verdict.probed = true;
  if (prober->FindPath(snapshot.graph, snapshot.cover, v, u,
                       /*path=*/nullptr)) {
    verdict.would_close = true;
    verdict.admissible = false;
  }
  return verdict;
}

TransversalImage MakeTransversalImage(const ServiceSnapshot& snapshot) {
  const OverlayGraph& graph = snapshot.graph;
  TransversalImage image;
  image.epoch = snapshot.epoch;
  image.universe = graph.num_vertices();
  image.base_edges = graph.base_edges();
  // Walking the base's out-ranges in vertex order visits its edges in
  // (src, dst) order, the image's sorted-pair CRC contract.
  Crc32 crc;
  const CsrGraph& base = graph.base();
  for (VertexId u = 0; u < base.num_vertices(); ++u) {
    for (const VertexId v : base.OutNeighbors(u)) {
      const VertexId pair[2] = {u, v};
      crc.Update(pair, sizeof(pair));
    }
  }
  image.base_crc = crc.value();
  image.delta = graph.delta();
  std::sort(image.delta.begin(), image.delta.end());
  image.cover_vertices = snapshot.cover.base->vertices;  // already sorted
  auto fill = [&graph](const auto& set,
                       std::vector<TransversalImage::EdgeEntry>* out) {
    out->reserve(set.size());
    for (const EdgeId e : set) {
      out->push_back({e, graph.EdgeSrc(e), graph.EdgeDst(e)});
    }
    std::sort(out->begin(), out->end(),
              [](const TransversalImage::EdgeEntry& a,
                 const TransversalImage::EdgeEntry& b) {
                return a.src != b.src ? a.src < b.src : a.dst < b.dst;
              });
  };
  fill(snapshot.cover.covered, &image.covered);
  fill(snapshot.cover.reusable, &image.reusable);
  return image;
}

void CheckAdmissionBatchOn(const ServiceSnapshot& snapshot,
                           std::span<const Edge> queries, PathProber* prober,
                           std::vector<AdmissionVerdict>* verdicts) {
  verdicts->resize(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    (*verdicts)[i] =
        CheckAdmissionOn(snapshot, queries[i].src, queries[i].dst, prober);
  }
}

namespace {

constexpr char kSnapshotMagic[4] = {'T', 'D', 'B', 'S'};
constexpr uint32_t kSnapshotVersion = 1;
/// Compressed-adjacency snapshots, refused on read (snapshot.h).
constexpr uint32_t kRetiredSnapshotVersion = 2;

/// Writes one fixed-size field, feeding the running CRC.
bool PutField(std::FILE* f, Crc32* crc, const void* data, size_t len) {
  if (std::fwrite(data, 1, len, f) != len) return false;
  crc->Update(data, len);
  return true;
}

bool GetField(std::FILE* f, Crc32* crc, void* data, size_t len) {
  if (std::fread(data, 1, len, f) != len) return false;
  crc->Update(data, len);
  return true;
}

bool PutSpan(std::FILE* f, Crc32* crc, const void* data, size_t len) {
  if (len == 0) return true;
  return PutField(f, crc, data, len);
}

Status Corrupt(const std::string& path, const char* what) {
  return Status::InvalidArgument(path + ": " + what);
}

}  // namespace

Status WriteSnapshotFile(const SnapshotState& state,
                         const std::string& path) {
  TDB_TRACE_SPAN("snapshot.write");
  const std::string tmp = path + ".tmp";
  FilePtr f(std::fopen(tmp.c_str(), "wb"));
  if (f == nullptr) return Status::IOError(tmp + ": cannot create");

  const uint32_t version = kSnapshotVersion;
  const CsrGraph& base = *state.base;
  const uint64_t n = base.num_vertices();
  const uint64_t m = base.num_edges();
  const uint64_t s_count = state.covered.size();
  const uint64_t w_count = state.reusable.size();
  const uint8_t solve_ok = state.cover->solve_status.ok() ? 1 : 0;
  Crc32 crc;
  Status st = Status::OK();
  bool ok =
      std::fwrite(kSnapshotMagic, 1, 4, f.get()) == 4 &&
      std::fwrite(&version, sizeof(version), 1, f.get()) == 1 &&
      PutField(f.get(), &crc, &state.epoch, sizeof(state.epoch)) &&
      PutField(f.get(), &crc, &state.last_seq, sizeof(state.last_seq)) &&
      PutField(f.get(), &crc, &state.events_ingested,
               sizeof(state.events_ingested)) &&
      PutField(f.get(), &crc, &n, sizeof(n)) &&
      PutField(f.get(), &crc, &m, sizeof(m)) &&
      PutField(f.get(), &crc, &s_count, sizeof(s_count)) &&
      PutField(f.get(), &crc, &w_count, sizeof(w_count)) &&
      PutField(f.get(), &crc, &solve_ok, sizeof(solve_ok));
  if (ok) {
    st = WriteEdgeArrayBinary(base, f.get(), &crc);
    ok = st.ok();
  }
  ok = ok &&
       PutSpan(f.get(), &crc, state.cover->vertex_mask.data(),
               state.cover->vertex_mask.size()) &&
       PutSpan(f.get(), &crc, state.covered.data(),
               sizeof(EdgeId) * s_count) &&
       PutSpan(f.get(), &crc, state.reusable.data(),
               sizeof(EdgeId) * w_count);
  if (ok) {
    const uint32_t checksum = crc.value();
    ok = std::fwrite(&checksum, sizeof(checksum), 1, f.get()) == 1;
  }
  if (ok) {
    ok = std::fflush(f.get()) == 0 && ::fsync(::fileno(f.get())) == 0;
  }
  f.reset();
  if (!ok) {
    std::remove(tmp.c_str());
    return st.ok() ? Status::IOError(tmp + ": short snapshot write") : st;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IOError(path + ": snapshot rename failed");
  }
  return Status::OK();
}

Status ReadSnapshotFile(const std::string& path, SnapshotState* state) {
  TDB_TRACE_SPAN("snapshot.read");
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (f == nullptr) return Status::IOError(path + ": cannot open");
  // The header's counts drive allocations; bound them by what the file
  // could possibly hold so a flipped bit in n/m/s/w fails cleanly at
  // validation instead of attempting a multi-gigabyte resize first.
  if (std::fseek(f.get(), 0, SEEK_END) != 0) {
    return Status::IOError(path + ": cannot seek");
  }
  const long file_size = std::ftell(f.get());
  std::rewind(f.get());

  char magic[4];
  uint32_t version = 0;
  if (std::fread(magic, 1, 4, f.get()) != 4 ||
      std::memcmp(magic, kSnapshotMagic, 4) != 0) {
    return Corrupt(path, "not a TDBS snapshot");
  }
  if (std::fread(&version, sizeof(version), 1, f.get()) != 1 ||
      version != kSnapshotVersion) {
    return Corrupt(path,
                   version == kRetiredSnapshotVersion
                       ? "snapshot v2 (compressed base) is no longer supported"
                       : "unsupported snapshot version");
  }

  Crc32 crc;
  uint64_t n = 0;
  uint64_t m = 0;
  uint64_t s_count = 0;
  uint64_t w_count = 0;
  uint8_t solve_ok = 0;
  if (!GetField(f.get(), &crc, &state->epoch, sizeof(state->epoch)) ||
      !GetField(f.get(), &crc, &state->last_seq,
                sizeof(state->last_seq)) ||
      !GetField(f.get(), &crc, &state->events_ingested,
                sizeof(state->events_ingested)) ||
      !GetField(f.get(), &crc, &n, sizeof(n)) ||
      !GetField(f.get(), &crc, &m, sizeof(m)) ||
      !GetField(f.get(), &crc, &s_count, sizeof(s_count)) ||
      !GetField(f.get(), &crc, &w_count, sizeof(w_count)) ||
      !GetField(f.get(), &crc, &solve_ok, sizeof(solve_ok))) {
    return Corrupt(path, "truncated snapshot header");
  }
  if (n > kInvalidVertex) {
    return Corrupt(path, "vertex count overflows 32 bits");
  }
  const uint64_t budget = static_cast<uint64_t>(file_size);
  if (n > budget || m > budget / sizeof(Edge) ||
      s_count > budget / sizeof(EdgeId) ||
      w_count > budget / sizeof(EdgeId)) {
    return Corrupt(path, "section counts exceed the file size");
  }

  std::vector<Edge> edges;
  const Status edges_st = ReadEdgeArrayBinary(
      f.get(), m, static_cast<VertexId>(n), &crc, &edges);
  if (!edges_st.ok()) return Corrupt(path, edges_st.message().c_str());

  auto cover = std::make_shared<BaseCover>();
  cover->vertex_mask.resize(n);
  if (n > 0 && !GetField(f.get(), &crc, cover->vertex_mask.data(), n)) {
    return Corrupt(path, "truncated cover mask");
  }
  for (VertexId v = 0; v < n; ++v) {
    if (cover->vertex_mask[v] > 1) {
      return Corrupt(path, "cover mask is not 0/1");
    }
    if (cover->vertex_mask[v] != 0) cover->vertices.push_back(v);
  }
  auto read_ids = [&](uint64_t count, std::vector<EdgeId>* out) {
    out->resize(count);
    if (count > 0 &&
        !GetField(f.get(), &crc, out->data(), sizeof(EdgeId) * count)) {
      return false;
    }
    for (EdgeId e : *out) {
      if (e >= m) return false;
    }
    return true;
  };
  if (s_count > m || !read_ids(s_count, &state->covered)) {
    return Corrupt(path, "invalid covered edge set");
  }
  if (w_count > m || !read_ids(w_count, &state->reusable)) {
    return Corrupt(path, "invalid reusable edge set");
  }

  uint32_t stored_crc = 0;
  if (std::fread(&stored_crc, sizeof(stored_crc), 1, f.get()) != 1) {
    return Corrupt(path, "missing snapshot checksum");
  }
  if (stored_crc != crc.value()) {
    return Corrupt(path, "snapshot checksum mismatch");
  }
  // Trailing garbage means the file is not what the writer produced.
  char extra;
  if (std::fread(&extra, 1, 1, f.get()) == 1) {
    return Corrupt(path, "trailing bytes after snapshot checksum");
  }

  cover->solve_status =
      solve_ok != 0 ? Status::OK()
                    : Status::Internal(
                          "restored snapshot: compaction solve had failed");
  state->cover = std::move(cover);
  state->base = std::make_shared<const CsrGraph>(
      CsrGraph::FromEdges(static_cast<VertexId>(n), std::move(edges)));
  return Status::OK();
}

}  // namespace tdb
