#include "graph/graph_io.h"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <unordered_map>

#include "util/cfile.h"

namespace tdb {

namespace {

constexpr char kMagic[4] = {'T', 'D', 'B', 'G'};
constexpr uint32_t kVersion = 1;

/// Shared line pump of the text loaders: presents each logical data line
/// (comments and blanks skipped, leading whitespace trimmed) to `fn` as
/// (text, line_no) and stops on the first non-ok Status. Comment lines
/// longer than the read buffer have their tail chunks dropped; a DATA
/// line longer than 254 bytes (255 with its newline) is malformed input
/// and fails loudly instead of being silently truncated mid-number.
template <typename Fn>
Status ForEachDataLine(std::FILE* f, const std::string& path, Fn&& fn) {
  char line[256];
  size_t line_no = 0;
  bool continuation = false;  // mid-line chunk of an over-long line
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    const size_t len = std::strlen(line);
    // A chunk without a newline is either an over-long line or the final
    // line of a file with no trailing newline — only EOF tells the two
    // apart.
    const bool complete =
        (len > 0 && line[len - 1] == '\n') || std::feof(f) != 0;
    const bool skip_chunk = continuation;
    // The next chunk continues this line iff no newline was consumed.
    continuation = !complete;
    if (skip_chunk) continue;  // tail of an over-long (comment) line
    ++line_no;
    const char* p = line;
    while (*p != '\0' && std::isspace(static_cast<unsigned char>(*p))) ++p;
    if (*p == '\0' || *p == '#' || *p == '%') continue;
    if (!complete) {
      return Status::InvalidArgument(path + ": line " +
                                     std::to_string(line_no) +
                                     " exceeds the 254-byte line limit");
    }
    Status st = fn(p, line_no);
    if (!st.ok()) return st;
  }
  return Status::OK();
}

/// Parses one unsigned decimal field at *pp, advancing past it. Rejects
/// missing digits, signs (sscanf's %llu silently wraps negatives) and
/// values beyond 64 bits.
Status ParseU64Field(const char** pp, const std::string& path,
                     size_t line_no, unsigned long long* out) {
  const char* p = *pp;
  while (*p != '\0' && std::isspace(static_cast<unsigned char>(*p))) ++p;
  if (!std::isdigit(static_cast<unsigned char>(*p))) {
    return Status::InvalidArgument(path + ": malformed line " +
                                   std::to_string(line_no));
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(p, &end, 10);
  if (errno == ERANGE) {
    return Status::InvalidArgument(path + ": number out of range on line " +
                                   std::to_string(line_no));
  }
  *out = value;
  *pp = end;
  return Status::OK();
}

/// Fails unless only whitespace remains — a trailing extra token means
/// the file is not in the format this loader thinks it is.
Status ExpectLineEnd(const char* p, const std::string& path,
                     size_t line_no) {
  while (*p != '\0' && std::isspace(static_cast<unsigned char>(*p))) ++p;
  if (*p != '\0') {
    return Status::InvalidArgument(path + ": trailing garbage on line " +
                                   std::to_string(line_no));
  }
  return Status::OK();
}

}  // namespace

Status LoadEdgeListText(const std::string& path, CsrGraph* graph,
                        std::vector<uint64_t>* original_ids) {
  FilePtr f(std::fopen(path.c_str(), "r"));
  if (f == nullptr) return Status::IOError("cannot open " + path);

  std::unordered_map<uint64_t, VertexId> dense;
  std::vector<uint64_t> inverse;
  std::vector<Edge> edges;
  // Raw ids may be any 64-bit value (they get densified), but the number
  // of *distinct* vertices must fit the 32-bit dense universe —
  // kInvalidVertex is reserved as the sentinel.
  auto densify = [&](uint64_t raw, VertexId* out) {
    auto [it, inserted] =
        dense.emplace(raw, static_cast<VertexId>(inverse.size()));
    if (inserted) {
      if (inverse.size() >= kInvalidVertex) {
        return Status::InvalidArgument(
            path + ": more distinct vertex ids than the 32-bit universe");
      }
      inverse.push_back(raw);
    }
    *out = it->second;
    return Status::OK();
  };

  Status st =
      ForEachDataLine(f.get(), path, [&](const char* p, size_t line_no) {
        unsigned long long u = 0;
        unsigned long long v = 0;
        Status field = ParseU64Field(&p, path, line_no, &u);
        if (field.ok()) field = ParseU64Field(&p, path, line_no, &v);
        if (field.ok()) field = ExpectLineEnd(p, path, line_no);
        if (!field.ok()) return field;
        Edge edge;
        field = densify(u, &edge.src);
        if (field.ok()) field = densify(v, &edge.dst);
        if (!field.ok()) return field;
        edges.push_back(edge);
        return Status::OK();
      });
  if (!st.ok()) return st;
  *graph = CsrGraph::FromEdges(static_cast<VertexId>(inverse.size()),
                               std::move(edges));
  if (original_ids != nullptr) *original_ids = std::move(inverse);
  return Status::OK();
}

Status SaveEdgeListText(const CsrGraph& graph, const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "w"));
  if (f == nullptr) return Status::IOError("cannot open " + path);
  std::fprintf(f.get(), "# tdb edge list: %u vertices, %llu edges\n",
               graph.num_vertices(),
               static_cast<unsigned long long>(graph.num_edges()));
  for (VertexId u = 0; u < graph.num_vertices(); ++u) {
    for (VertexId v : graph.OutNeighbors(u)) {
      std::fprintf(f.get(), "%u %u\n", u, v);
    }
  }
  if (!CloseChecked(f.release())) {
    return Status::IOError("cannot write " + path);
  }
  return Status::OK();
}

Status WriteEdgeArrayBinary(const CsrGraph& graph, std::FILE* f,
                            Crc32* crc) {
  // Chunked writes: one fwrite per 4096 edges instead of per edge.
  std::vector<Edge> chunk;
  chunk.reserve(4096);
  const auto flush = [&] {
    const size_t bytes = sizeof(Edge) * chunk.size();
    if (std::fwrite(chunk.data(), 1, bytes, f) != bytes) return false;
    if (crc != nullptr) crc->Update(chunk.data(), bytes);
    chunk.clear();
    return true;
  };
  // Canonical edge order is (src, dst) order, one out-range per vertex.
  for (VertexId u = 0; u < graph.num_vertices(); ++u) {
    for (const VertexId v : graph.OutNeighbors(u)) {
      chunk.push_back(Edge{u, v});
      if (chunk.size() == chunk.capacity() && !flush()) {
        return Status::IOError("short edge-array write");
      }
    }
  }
  if (!chunk.empty() && !flush()) {
    return Status::IOError("short edge-array write");
  }
  return Status::OK();
}

Status ReadEdgeArrayBinary(std::FILE* f, uint64_t m, VertexId n, Crc32* crc,
                           std::vector<Edge>* edges) {
  edges->clear();
  edges->reserve(m < (uint64_t{1} << 24) ? m : (uint64_t{1} << 24));
  std::vector<Edge> chunk(4096);
  uint64_t remaining = m;
  while (remaining > 0) {
    const size_t want =
        static_cast<size_t>(std::min<uint64_t>(remaining, chunk.size()));
    const size_t bytes = sizeof(Edge) * want;
    if (std::fread(chunk.data(), 1, bytes, f) != bytes) {
      return Status::IOError("truncated edge array");
    }
    if (crc != nullptr) crc->Update(chunk.data(), bytes);
    for (size_t i = 0; i < want; ++i) {
      if (chunk[i].src >= n || chunk[i].dst >= n) {
        return Status::InvalidArgument(
            "edge endpoint outside the vertex universe");
      }
      edges->push_back(chunk[i]);
    }
    remaining -= want;
  }
  return Status::OK();
}

Status SaveBinary(const CsrGraph& graph, const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "wb"));
  if (f == nullptr) return Status::IOError("cannot open " + path);
  uint32_t version = kVersion;
  uint64_t n = graph.num_vertices();
  uint64_t m = graph.num_edges();
  if (std::fwrite(kMagic, 1, 4, f.get()) != 4 ||
      std::fwrite(&version, sizeof(version), 1, f.get()) != 1 ||
      std::fwrite(&n, sizeof(n), 1, f.get()) != 1 ||
      std::fwrite(&m, sizeof(m), 1, f.get()) != 1) {
    return Status::IOError("short write to " + path);
  }
  Status st = WriteEdgeArrayBinary(graph, f.get(), /*crc=*/nullptr);
  if (!st.ok()) return Status::IOError(path + ": " + st.message());
  if (!CloseChecked(f.release())) {
    return Status::IOError("cannot write " + path);
  }
  return Status::OK();
}

Status LoadBinary(const std::string& path, CsrGraph* graph) {
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (f == nullptr) return Status::IOError("cannot open " + path);
  char magic[4];
  uint32_t version = 0;
  uint64_t n = 0;
  uint64_t m = 0;
  if (std::fread(magic, 1, 4, f.get()) != 4 ||
      std::memcmp(magic, kMagic, 4) != 0) {
    return Status::InvalidArgument(path + ": not a TDBG file");
  }
  if (std::fread(&version, sizeof(version), 1, f.get()) != 1 ||
      version != kVersion) {
    return Status::InvalidArgument(path + ": unsupported TDBG version");
  }
  if (std::fread(&n, sizeof(n), 1, f.get()) != 1 ||
      std::fread(&m, sizeof(m), 1, f.get()) != 1) {
    return Status::IOError(path + ": truncated header");
  }
  if (n > kInvalidVertex) {
    return Status::InvalidArgument(path + ": vertex count overflows 32 bits");
  }
  std::vector<Edge> edges;
  Status st = ReadEdgeArrayBinary(f.get(), m, static_cast<VertexId>(n),
                                  /*crc=*/nullptr, &edges);
  if (!st.ok()) return Status::IOError(path + ": " + st.message());
  *graph = CsrGraph::FromEdges(static_cast<VertexId>(n), std::move(edges));
  return Status::OK();
}

Status SaveEdgeStreamText(std::span<const TimedEdge> stream,
                          const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "w"));
  if (f == nullptr) return Status::IOError("cannot open " + path);
  std::fprintf(f.get(), "# tdb edge stream: %llu events (src dst ts)\n",
               static_cast<unsigned long long>(stream.size()));
  for (const TimedEdge& e : stream) {
    std::fprintf(f.get(), "%u %u %llu\n", e.src, e.dst,
                 static_cast<unsigned long long>(e.timestamp));
  }
  if (!CloseChecked(f.release())) {
    return Status::IOError("cannot write " + path);
  }
  return Status::OK();
}

Status LoadEdgeStreamText(const std::string& path,
                          std::vector<TimedEdge>* stream) {
  FilePtr f(std::fopen(path.c_str(), "r"));
  if (f == nullptr) return Status::IOError("cannot open " + path);
  stream->clear();
  return ForEachDataLine(f.get(), path, [&](const char* p, size_t line_no) {
    unsigned long long u = 0;
    unsigned long long v = 0;
    unsigned long long t = 0;
    Status field = ParseU64Field(&p, path, line_no, &u);
    if (field.ok()) field = ParseU64Field(&p, path, line_no, &v);
    if (field.ok()) field = ParseU64Field(&p, path, line_no, &t);
    if (field.ok()) field = ExpectLineEnd(p, path, line_no);
    if (!field.ok()) return field;
    // Stream ids are NOT densified (they address a fixed universe shared
    // with the base snapshot), so each must fit VertexId itself.
    if (u >= kInvalidVertex || v >= kInvalidVertex) {
      return Status::InvalidArgument(path + ": vertex id overflow, line " +
                                     std::to_string(line_no));
    }
    stream->push_back(TimedEdge{static_cast<VertexId>(u),
                                static_cast<VertexId>(v), t});
    return Status::OK();
  });
}

}  // namespace tdb
