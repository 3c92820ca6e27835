// Graph persistence: SNAP-style text edge lists, a compact binary format,
// and timestamped edge streams.
//
// Text format (what snap.stanford.edu distributes): one "src dst" pair per
// line, '#' or '%' comment lines, arbitrary whitespace. Vertex ids may be
// sparse; LoadEdgeListText densifies them and can return the mapping.
//
// Binary format: a fixed little-endian header ("TDBG", version, n, m)
// followed by the raw edge array — loading a billion-edge graph is one
// sequential read.
//
// Stream format: one "src dst timestamp" triple per line, same comment
// rules, ids NOT densified (streams address a fixed universe shared with
// the base snapshot they replay against). tdb_graphgen --stream writes
// it; tdb_serve and bench_dynamic_stream replay it, so the two can run
// identical workloads.
#ifndef TDB_GRAPH_GRAPH_IO_H_
#define TDB_GRAPH_GRAPH_IO_H_

#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "graph/csr_graph.h"
#include "graph/types.h"
#include "util/crc32.h"
#include "util/status.h"

namespace tdb {

/// One stream event: the edge plus its (logical) arrival timestamp.
struct TimedEdge {
  VertexId src = 0;
  VertexId dst = 0;
  uint64_t timestamp = 0;

  friend bool operator==(const TimedEdge&, const TimedEdge&) = default;
};

/// Parses a SNAP-style text edge list into `graph`.
///
/// Original (possibly sparse) vertex ids are densified to 0..n-1 in first-
/// appearance order; if `original_ids` is non-null it receives the inverse
/// mapping (original id of each dense vertex).
///
/// Strict: malformed lines (missing/extra tokens, signs, non-numeric
/// ids), numbers beyond 64 bits, data lines over the 254-byte limit, and
/// inputs with more distinct vertices than the 32-bit dense universe all
/// return InvalidArgument instead of silently truncating.
Status LoadEdgeListText(const std::string& path, CsrGraph* graph,
                        std::vector<uint64_t>* original_ids = nullptr);

/// Writes `graph` as a text edge list (dense ids). IOError when any
/// write fails, including the flush at close (e.g. a full disk).
Status SaveEdgeListText(const CsrGraph& graph, const std::string& path);

/// Writes `graph` in the TDBG binary format. IOError as for
/// SaveEdgeListText.
Status SaveBinary(const CsrGraph& graph, const std::string& path);

/// Loads a TDBG binary file.
Status LoadBinary(const std::string& path, CsrGraph* graph);

/// Writes `graph`'s edge array — num_edges() x (src u32, dst u32), in
/// canonical CSR edge-id order — to an open stream, feeding every byte
/// through `crc` when non-null. Section primitive shared by the TDBG
/// whole-file format and the service's CRC-framed snapshot container.
Status WriteEdgeArrayBinary(const CsrGraph& graph, std::FILE* f,
                            Crc32* crc);

/// Reads `m` (src, dst) pairs from an open stream into `edges`,
/// validating every endpoint against the `n`-vertex universe and feeding
/// `crc` when non-null.
Status ReadEdgeArrayBinary(std::FILE* f, uint64_t m, VertexId n, Crc32* crc,
                           std::vector<Edge>* edges);

/// Writes a timestamped edge stream as text ("src dst timestamp" lines).
/// IOError as for SaveEdgeListText.
Status SaveEdgeStreamText(std::span<const TimedEdge> stream,
                          const std::string& path);

/// Parses a timestamped edge stream. Events keep file order (replay
/// order); timestamps are carried through untouched. Strict like
/// LoadEdgeListText; additionally every id must fit VertexId (stream ids
/// are not densified).
Status LoadEdgeStreamText(const std::string& path,
                          std::vector<TimedEdge>* stream);

}  // namespace tdb

#endif  // TDB_GRAPH_GRAPH_IO_H_
