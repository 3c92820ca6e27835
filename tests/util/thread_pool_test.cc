#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

namespace tdb {
namespace {

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 200; ++i) {
    pool.Submit([&](int) { count.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 200);
}

TEST(ThreadPoolTest, WorkerIndicesAreInRange) {
  ThreadPool pool(3);
  std::atomic<int> bad{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&](int worker) {
      if (worker < 0 || worker >= 3) bad.fetch_add(1);
    });
  }
  pool.Wait();
  EXPECT_EQ(bad.load(), 0);
}

TEST(ThreadPoolTest, WaitWithNoTasksReturnsImmediately) {
  ThreadPool pool(2);
  pool.Wait();
  SUCCEED();
}

TEST(ThreadPoolTest, ReusableAcrossWaves) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  for (int wave = 0; wave < 3; ++wave) {
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&](int) { count.fetch_add(1); });
    }
    pool.Wait();
    EXPECT_EQ(count.load(), (wave + 1) * 50);
  }
}

TEST(ThreadPoolTest, ClampsToAtLeastOneWorker) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1);
  std::atomic<int> count{0};
  pool.Submit([&](int) { count.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPoolTest, DestructorDrainsOutstandingWork) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 64; ++i) {
      pool.Submit([&](int) { count.fetch_add(1); });
    }
    // No Wait: the destructor must finish the backlog before joining.
  }
  EXPECT_EQ(count.load(), 64);
}

TEST(ThreadPoolTest, TasksMaySubmitMoreTasks) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  for (int i = 0; i < 10; ++i) {
    pool.Submit([&](int) {
      count.fetch_add(1);
      pool.Submit([&](int) { count.fetch_add(1); });
    });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 20);
}

TEST(ThreadPoolTest, StealingDrainsASkewedBacklog) {
  // All submissions land round-robin, but one long task pins a worker;
  // the remaining workers must steal the backlog rather than idle.
  ThreadPool pool(4);
  std::atomic<int> count{0};
  pool.Submit([&](int) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    count.fetch_add(1);
  });
  for (int i = 0; i < 400; ++i) {
    pool.Submit([&](int) { count.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 401);
}

TEST(ThreadPoolTest, HardwareThreadsIsPositive) {
  EXPECT_GE(ThreadPool::HardwareThreads(), 1);
}

}  // namespace
}  // namespace tdb
