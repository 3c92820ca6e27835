#include "util/thread_pool.h"

#include <algorithm>

namespace tdb {

ThreadPool::ThreadPool(int num_threads) {
  const int n = std::max(1, num_threads);
  queues_.reserve(n);
  for (int i = 0; i < n; ++i) {
    queues_.push_back(std::make_unique<WorkerQueue>());
  }
  workers_.reserve(n);
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  Wait();
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_available_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::Submit(Task task) {
  uint64_t slot;
  {
    std::lock_guard<std::mutex> lock(mu_);
    slot = next_queue_++;
    ++queued_;
    ++in_flight_;
  }
  WorkerQueue& q = *queues_[slot % queues_.size()];
  {
    std::lock_guard<std::mutex> lock(q.mu);
    q.tasks.push_back(std::move(task));
  }
  work_available_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::ParallelFor(
    size_t count, const std::function<void(size_t index, int worker)>& body) {
  // `body` is captured by reference: Wait() below outlives every task.
  for (size_t i = 0; i < count; ++i) {
    Submit([&body, i](int worker) { body(i, worker); });
  }
  Wait();
}

int ThreadPool::HardwareThreads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

ThreadPool::Task ThreadPool::NextTask(int worker) {
  // Own queue first (front: oldest = biggest component under the engine's
  // size-descending submission order)...
  WorkerQueue& own = *queues_[worker];
  {
    std::lock_guard<std::mutex> lock(own.mu);
    if (!own.tasks.empty()) {
      Task t = std::move(own.tasks.front());
      own.tasks.pop_front();
      return t;
    }
  }
  // ...then steal from the back of the others, scanning from the next
  // index so victims differ across workers.
  const int n = static_cast<int>(queues_.size());
  for (int d = 1; d < n; ++d) {
    WorkerQueue& victim = *queues_[(worker + d) % n];
    std::lock_guard<std::mutex> lock(victim.mu);
    if (!victim.tasks.empty()) {
      Task t = std::move(victim.tasks.back());
      victim.tasks.pop_back();
      return t;
    }
  }
  return Task();
}

void ThreadPool::WorkerLoop(int worker) {
  for (;;) {
    Task task = NextTask(worker);
    if (task) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        --queued_;
      }
      task(worker);
      bool done;
      {
        std::lock_guard<std::mutex> lock(mu_);
        done = --in_flight_ == 0;
      }
      if (done) all_done_.notify_all();
      continue;
    }
    std::unique_lock<std::mutex> lock(mu_);
    if (stop_) return;
    // Re-check under the lock: a Submit may have landed between the failed
    // scan and the lock acquisition.
    work_available_.wait(lock, [this] { return stop_ || queued_ > 0; });
  }
}

}  // namespace tdb
