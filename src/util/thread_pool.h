// Work-stealing thread pool for the SCC-partitioned solver engine.
//
// Design: per-worker deques guarded by short-held mutexes. Submissions are
// distributed round-robin; a worker drains its own deque front-to-back
// (FIFO: big components are submitted first, so early tasks are the long
// ones) and steals from the back of a random victim when its own deque is
// empty. Stealing keeps all workers busy when component sizes are skewed —
// the common case, since real graphs have one giant SCC plus a long tail.
//
// Tasks receive their worker's index so callers can maintain per-worker
// scratch (e.g. one SearchContext per worker) without locks. Tasks must
// not throw.
#ifndef TDB_UTIL_THREAD_POOL_H_
#define TDB_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace tdb {

/// Fixed-size pool. Create, Submit any number of tasks, Wait, repeat;
/// the destructor drains outstanding work before joining.
///
/// Thread-safety: Submit and Wait may be called from any thread,
/// including from inside a running task; Wait is pool-global (it waits
/// for ALL in-flight work, not just the caller's). Determinism: the
/// pool itself guarantees nothing about execution order — callers that
/// need reproducible results must make task outputs order-independent
/// (disjoint slots) and serialize commits elsewhere; every deterministic
/// sweep in the engine is built that way on top of this pool.
class ThreadPool {
 public:
  /// A task plus the index of the worker that runs it,
  /// in [0, num_threads).
  using Task = std::function<void(int worker)>;

  /// Spawns `num_threads` workers (clamped to >= 1).
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Thread-safe, including from inside a task.
  void Submit(Task task);

  /// Blocks until every submitted task has finished running.
  void Wait();

  /// Runs body(index, worker) for every index in [0, count) across the
  /// pool and blocks until all iterations finish. The barrier is Wait(),
  /// which is pool-global, so do not interleave ParallelFor with
  /// independently submitted tasks. This is the batch primitive behind
  /// the engine's intra-component speculative candidate probing.
  void ParallelFor(size_t count,
                   const std::function<void(size_t index, int worker)>& body);

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// std::thread::hardware_concurrency with a floor of 1.
  static int HardwareThreads();

 private:
  struct WorkerQueue {
    std::mutex mu;
    std::deque<Task> tasks;
  };

  /// Pops from the worker's own queue, or steals; empty on failure.
  Task NextTask(int worker);
  void WorkerLoop(int worker);

  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable work_available_;
  std::condition_variable all_done_;
  uint64_t queued_ = 0;      // tasks sitting in some deque
  uint64_t in_flight_ = 0;   // queued + currently running
  uint64_t next_queue_ = 0;  // round-robin submission cursor
  bool stop_ = false;
};

}  // namespace tdb

#endif  // TDB_UTIL_THREAD_POOL_H_
