#include "util/epoch_ptr.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <future>
#include <memory>

namespace tdb {
namespace {

TEST(EpochPtrTest, StoreNumbersEpochsAndPinsOutliveNewerStores) {
  EpochPtr<int> ptr;
  EXPECT_EQ(ptr.Load().state, nullptr);
  EXPECT_EQ(ptr.Load().epoch, 0u);
  EXPECT_EQ(ptr.Store(std::make_shared<const int>(7)), 1u);
  const EpochPtr<int>::Pinned pinned = ptr.Load();
  EXPECT_EQ(ptr.Store(std::make_shared<const int>(8)), 2u);
  EXPECT_EQ(*pinned.state, 7);
  EXPECT_EQ(pinned.epoch, 1u);
  EXPECT_EQ(*ptr.Load().state, 8);
  EXPECT_EQ(ptr.epoch(), 2u);
  ptr.SeedEpoch(40);
  EXPECT_EQ(ptr.Store(std::make_shared<const int>(9)), 41u);
}

// A state whose destructor starts a reader on the pointer that held it
// and records whether that reader got through while the destructor ran.
struct LoadsOnDestroy {
  EpochPtr<LoadsOnDestroy>* ptr = nullptr;
  std::future<uint64_t>* reader = nullptr;
  bool* reader_done_in_destructor = nullptr;

  ~LoadsOnDestroy() {
    if (ptr == nullptr) return;
    EpochPtr<LoadsOnDestroy>* const p = ptr;
    *reader = std::async(std::launch::async, [p] { return p->Load().epoch; });
    *reader_done_in_destructor =
        reader->wait_for(std::chrono::seconds(2)) == std::future_status::ready;
  }
};

TEST(EpochPtrTest, StoreRunsTheReplacedStatesDestructorOutsideTheLock) {
  EpochPtr<LoadsOnDestroy> ptr;
  std::future<uint64_t> reader;
  bool reader_done = false;
  auto first = std::make_shared<LoadsOnDestroy>();
  first->ptr = &ptr;
  first->reader = &reader;
  first->reader_done_in_destructor = &reader_done;
  ptr.Store(std::move(first));
  // Drops the last reference to the first state inside Store.
  EXPECT_EQ(ptr.Store(std::make_shared<const LoadsOnDestroy>()), 2u);
  EXPECT_TRUE(reader_done) << "a reader waited on the replaced state's "
                              "destructor";
  ASSERT_TRUE(reader.valid());
  EXPECT_EQ(reader.get(), 2u);
}

}  // namespace
}  // namespace tdb
