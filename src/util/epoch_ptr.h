// Epoch-numbered single-writer/many-reader pointer publication.
//
// The serving layer's read path (CheckAdmission) must observe a coherent
// (snapshot, cover) pair while one writer publishes new states at batch
// granularity. EpochPtr couples a shared_ptr to a monotonically
// increasing epoch so readers pin both atomically: Load() copies the
// pointer and its epoch under a shared lock held only for the refcount
// bump (nanoseconds — readers never wait on each other, and a writer
// waits only for in-flight pointer copies, never for the searches readers
// run on the pinned state afterwards). A mutex-free std::atomic
// <shared_ptr> would not buy anything here: libstdc++'s implementation is
// lock-based too, and the (pointer, epoch) pair needs to be read together
// anyway.
#ifndef TDB_UTIL_EPOCH_PTR_H_
#define TDB_UTIL_EPOCH_PTR_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <utility>

namespace tdb {

/// Versioned shared pointer. Thread-safe: any number of Load()ers
/// concurrent with Store()s; epochs increase by exactly 1 per Store.
/// A Load() is atomic with respect to publication — it returns a
/// (pointer, epoch) pair from ONE Store, never a mix. Determinism
/// follows from the single-writer discipline of the caller: published
/// states are immutable, so everything computed from a Pinned state is
/// a pure function of its epoch (SeedEpoch lets recovery publish at the
/// epoch the state originally held, so that function is crash-stable
/// too).
template <typename T>
class EpochPtr {
 public:
  /// A pinned state: the pointer plus the epoch it was published at.
  /// Holding `state` keeps the object alive no matter how many newer
  /// epochs are published (or compacted) meanwhile.
  struct Pinned {
    std::shared_ptr<const T> state;
    uint64_t epoch = 0;
  };

  /// Pins the current state. Before the first Store the pointer is null
  /// and the epoch 0.
  Pinned Load() const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return Pinned{ptr_, epoch_};
  }

  /// Publishes `next` and returns its (new) epoch. The replaced state is
  /// released after the lock is dropped: if this was its last reference,
  /// its destructor runs without blocking readers.
  uint64_t Store(std::shared_ptr<const T> next) {
    uint64_t epoch;
    {
      std::unique_lock<std::shared_mutex> lock(mu_);
      ptr_.swap(next);
      epoch = ++epoch_;
    }
    return epoch;  // `next` now holds the replaced state
  }

  /// Seeds the epoch counter so the next Store publishes at `epoch` + 1.
  /// Recovery hook: a restored service publishes its replayed state at
  /// the epoch that state originally held. Call before the first Store.
  void SeedEpoch(uint64_t epoch) {
    std::unique_lock<std::shared_mutex> lock(mu_);
    epoch_ = epoch;
  }

  /// Epoch of the most recent Store (0 before any).
  uint64_t epoch() const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return epoch_;
  }

 private:
  mutable std::shared_mutex mu_;
  std::shared_ptr<const T> ptr_;
  uint64_t epoch_ = 0;
};

}  // namespace tdb

#endif  // TDB_UTIL_EPOCH_PTR_H_
