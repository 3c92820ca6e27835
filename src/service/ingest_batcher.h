// Edge-at-a-time front end for CycleBreakService's batched ingest.
//
// Stream sources (tdb_serve's replay loop, a network handler) naturally
// produce one edge at a time, while the service amortizes publication and
// probe fan-out over batches. The batcher is the glue: accumulate, flush
// at the configured size, flush the remainder on demand. Single-threaded
// by design — it fronts the service's single writer; give each thread of
// a parallel source its own batcher.
#ifndef TDB_SERVICE_INGEST_BATCHER_H_
#define TDB_SERVICE_INGEST_BATCHER_H_

#include <vector>

#include "service/cycle_break_service.h"

namespace tdb {

/// Accumulates edges and forwards them to SubmitEdges in fixed-size
/// batches.
class IngestBatcher {
 public:
  /// `batch_size` >= 1; 1 degenerates to per-edge submission.
  IngestBatcher(CycleBreakService* service, size_t batch_size)
      : service_(service), batch_size_(batch_size < 1 ? 1 : batch_size) {
    pending_.reserve(batch_size_);
  }

  /// Queues u -> v; submits the pending batch once it reaches the
  /// configured size. Returns the SubmitResult of the flush it triggered,
  /// or a zero-epoch SubmitResult when the edge was only queued.
  SubmitResult Add(VertexId u, VertexId v) {
    pending_.push_back(Edge{u, v});
    if (pending_.size() >= batch_size_) return Flush();
    return SubmitResult{};
  }

  /// Submits whatever is pending (no-op on empty; returns zero-epoch).
  SubmitResult Flush() {
    if (pending_.empty()) return SubmitResult{};
    const SubmitResult result = service_->SubmitEdges(pending_);
    pending_.clear();
    ++batches_flushed_;
    return result;
  }

  size_t pending() const { return pending_.size(); }
  uint64_t batches_flushed() const { return batches_flushed_; }

 private:
  CycleBreakService* service_;
  size_t batch_size_;
  std::vector<Edge> pending_;
  uint64_t batches_flushed_ = 0;
};

}  // namespace tdb

#endif  // TDB_SERVICE_INGEST_BATCHER_H_
