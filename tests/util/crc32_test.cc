#include "util/crc32.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "util/rng.h"

namespace tdb {
namespace {

/// Bit-at-a-time CRC-32C, straight from the definition: the value every
/// snapshot and journal record on disk was framed with.
uint32_t ReferenceCrc32c(const unsigned char* p, size_t len) {
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < len; ++i) {
    crc ^= p[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) != 0 ? 0x82F63B78u : 0u);
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(Crc32Test, StandardCheckValue) {
  const char kCheck[] = "123456789";
  EXPECT_EQ(Crc32cOf(kCheck, 9), 0xE3069283u);
  EXPECT_EQ(Crc32cOf(nullptr, 0), 0u);
}

TEST(Crc32Test, MatchesDefinitionAtEveryLengthAndAlignment) {
  Rng rng(7);
  std::vector<unsigned char> buf(96);
  for (unsigned char& b : buf) b = static_cast<unsigned char>(rng.Next());
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; offset + len <= buf.size(); ++len) {
      EXPECT_EQ(Crc32cOf(buf.data() + offset, len),
                ReferenceCrc32c(buf.data() + offset, len))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(Crc32Test, IncrementalUpdatesEqualOneShot) {
  Rng rng(11);
  std::vector<unsigned char> buf(4099);
  for (unsigned char& b : buf) b = static_cast<unsigned char>(rng.Next());
  const uint32_t whole = Crc32cOf(buf.data(), buf.size());
  EXPECT_EQ(whole, ReferenceCrc32c(buf.data(), buf.size()));
  for (int trial = 0; trial < 50; ++trial) {
    Crc32 crc;
    size_t at = 0;
    while (at < buf.size()) {
      const size_t len = std::min<size_t>(rng.NextBounded(37), buf.size() - at);
      crc.Update(buf.data() + at, len);
      at += len;
    }
    EXPECT_EQ(crc.value(), whole);
  }
}

}  // namespace
}  // namespace tdb
