// Write-ahead delta journal + store manifest for the cycle-break service.
//
// The durability story of src/service/ has two halves: a binary snapshot
// of the compacted state (service/snapshot.h, written atomically at each
// compaction install) and this journal — an append-only log of every
// SubmitEdges batch, written BEFORE the batch is applied, so a restart
// replays the tail of batches the last snapshot has not folded in yet.
//
// File format (little-endian):
//
//   header:  "TDBJ" | version u32 | base_seq u64
//   record:  seq u64 | count u32 | edges count x (src u32, dst u32)
//            | crc32c u32 over the record bytes before the checksum
//
// Records carry consecutive sequence numbers starting at base_seq + 1 —
// base_seq is the sequence of the last batch folded into the paired
// snapshot. Open() validates the chain and CRC-frames each record; the
// first torn, truncated or corrupt record ends the valid prefix and the
// file is truncated back to it (power-loss and SIGKILL both tear tails,
// never middles, on any sane filesystem — and a corrupted middle would
// make everything after it unreplayable anyway).
//
// The manifest (MANIFEST in the store directory) names the current
// (snapshot, journal) pair and is replaced atomically (tmp + fsync +
// rename), so it is the commit point of every compaction install: a crash
// on either side of the rename recovers from a complete, mutually
// consistent pair.
#ifndef TDB_SERVICE_JOURNAL_H_
#define TDB_SERVICE_JOURNAL_H_

#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "graph/types.h"
#include "util/status.h"

namespace tdb {

/// When journal appends reach stable storage.
enum class DurabilityPolicy {
  /// Appends stay in user-space stdio buffers until rotation/close. A
  /// crash of the process loses the buffered tail (the stream replays it);
  /// cheapest, for workloads where the stream source can re-send.
  kNone,
  /// Every record is flushed to the OS page cache (survives SIGKILL and
  /// process crashes; lost only on kernel panic / power loss). The
  /// default: one fflush per batch, no fsync stall.
  kBatch,
  /// Every record is fsync'd to the device inside Append, before
  /// SubmitEdges applies it (survives power loss). The classic WAL
  /// contract, at one fsync per batch.
  kAlways,
};

/// Short name ("none", "batch", "always").
const char* DurabilityPolicyName(DurabilityPolicy policy);

/// Inverse of DurabilityPolicyName (case-insensitive). NotFound on
/// unknown names.
Status ParseDurabilityPolicy(const std::string& name,
                             DurabilityPolicy* policy);

/// One journaled SubmitEdges batch, exactly as submitted (rejected edges
/// included — replay re-runs the same dedup/validation, so the recovered
/// state is bit-identical to the original sequential application).
struct JournalRecord {
  uint64_t seq = 0;
  std::vector<Edge> edges;
};

/// Result of scanning a journal at Open.
struct JournalOpenInfo {
  /// Bytes dropped from the tail (0 when the file ended on a record
  /// boundary with a valid checksum).
  uint64_t truncated_bytes = 0;
};

/// Append-only WAL over one file. Threading: every call must be
/// externally serialized — the service's writer mutex does that,
/// matching the single-writer design.
/// Replay determinism: records capture batches exactly as submitted
/// (order preserved, rejected edges included), so replaying any valid
/// prefix through the normal ingest path reproduces the original
/// graph, transversal and epoch bit-for-bit at that prefix.
class Journal {
 public:
  ~Journal();

  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  /// Creates a fresh journal holding `tail` as its first records (seqs
  /// base_seq + 1, base_seq + 2, ...), durable on return whatever the
  /// policy: the header and the tail reach the device with one fsync.
  /// Truncates any existing file at `path`.
  static Status Create(const std::string& path, uint64_t base_seq,
                       DurabilityPolicy durability,
                       std::span<const std::span<const Edge>> tail,
                       std::unique_ptr<Journal>* out);

  /// Opens an existing journal: validates the header, reads every valid
  /// record into `records` (consecutive seqs, CRC-checked), truncates the
  /// torn/corrupt tail, and positions the journal for appending. `info`
  /// may be null.
  static Status Open(const std::string& path, DurabilityPolicy durability,
                     std::vector<JournalRecord>* records,
                     JournalOpenInfo* info, std::unique_ptr<Journal>* out);

  /// Appends one batch record and applies the durability policy. `seq`
  /// must be exactly one past the previous record's (checked). On an I/O
  /// failure the record is removed again (the file is truncated back to
  /// the last durable record boundary) so the chain stays replayable; if
  /// even that fails the journal is poisoned and every later Append
  /// errors — appending after a torn tail would make the new records
  /// silently unreplayable, which is worse than refusing.
  Status Append(uint64_t seq, std::span<const Edge> batch);

  const std::string& path() const { return path_; }
  uint64_t base_seq() const { return base_seq_; }
  uint64_t last_seq() const { return last_seq_; }

 private:
  Journal(std::string path, std::FILE* file, uint64_t base_seq,
          uint64_t last_seq, uint64_t valid_size,
          DurabilityPolicy durability)
      : path_(std::move(path)),
        file_(file),
        base_seq_(base_seq),
        last_seq_(last_seq),
        valid_size_(valid_size),
        durability_(durability) {}

  /// Writes one record into the stdio buffer, without the durability
  /// policy and without advancing last_seq_/valid_size_; on a short write
  /// the partial record is removed again (RecoverTornAppend). `bytes`
  /// receives the record's size.
  Status WriteRecord(uint64_t seq, std::span<const Edge> batch,
                     uint64_t* bytes);

  /// Discards a torn partial record: closes the stream (flushing
  /// whatever garbage it holds), truncates the file back to the last
  /// durable record boundary and reopens for append. Poisons the
  /// journal (file_ stays null) when the recovery itself fails.
  void RecoverTornAppend();

  std::string path_;
  std::FILE* file_ = nullptr;
  uint64_t base_seq_ = 0;
  uint64_t last_seq_ = 0;
  /// File size through the last fully appended record — the truncation
  /// point that makes a failed append invisible.
  uint64_t valid_size_ = 0;
  DurabilityPolicy durability_ = DurabilityPolicy::kBatch;
};

/// The current (snapshot, journal) pair of a store directory. File names
/// are relative to the directory.
struct StoreManifest {
  std::string snapshot_file;
  std::string journal_file;
};

/// Parses `dir`/MANIFEST. NotFound when the store was never initialized.
Status ReadStoreManifest(const std::string& dir, StoreManifest* manifest);

/// Atomically replaces `dir`/MANIFEST (write tmp, fsync, rename, fsync
/// the directory) — the commit point of snapshot installation.
Status WriteStoreManifest(const std::string& dir,
                          const StoreManifest& manifest);

}  // namespace tdb

#endif  // TDB_SERVICE_JOURNAL_H_
