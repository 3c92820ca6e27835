// CRC-32C (Castagnoli) for framing persistent records.
//
// The persistence layer (service snapshots and the write-ahead journal)
// frames every payload with a checksum so a torn write, a truncated file
// or a flipped bit is detected at open instead of silently replaying
// garbage into the recovered transversal. CRC-32C is the storage-stack
// standard (iSCSI, ext4, LevelDB/RocksDB logs); this is the portable
// slicing-by-8 software implementation. Recovery reads the snapshot from
// the page cache, so there the checksum, not the I/O, sets the pace.
#ifndef TDB_UTIL_CRC32_H_
#define TDB_UTIL_CRC32_H_

#include <array>
#include <cstddef>
#include <cstdint>

namespace tdb {

namespace internal {

/// Slicing-by-8 CRC-32C tables (reflected polynomial 0x82F63B78),
/// generated at static-initialization time. Table 0 is the byte-at-a-time
/// table; table j advances a byte's contribution past j more zero bytes.
using Crc32cTables = std::array<std::array<uint32_t, 256>, 8>;

inline const Crc32cTables& Crc32cTable() {
  static const Crc32cTables tables = [] {
    Crc32cTables t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1u) != 0 ? 0x82F63B78u : 0u);
      }
      t[0][i] = crc;
    }
    for (size_t j = 1; j < t.size(); ++j) {
      for (uint32_t i = 0; i < 256; ++i) {
        t[j][i] = (t[j - 1][i] >> 8) ^ t[0][t[j - 1][i] & 0xFFu];
      }
    }
    return t;
  }();
  return tables;
}

/// Little-endian 32-bit load, independent of the host's byte order.
inline uint32_t LoadLe32(const unsigned char* p) {
  return uint32_t{p[0]} | uint32_t{p[1]} << 8 | uint32_t{p[2]} << 16 |
         uint32_t{p[3]} << 24;
}

}  // namespace internal

/// Incremental CRC-32C accumulator: feed payload chunks in write order,
/// read `value()` at the end. A default-constructed accumulator of zero
/// bytes has value 0x00000000 ^ final xor — i.e. the empty-string CRC —
/// so writers and readers agree without special-casing empty payloads.
class Crc32 {
 public:
  void Update(const void* data, size_t len) {
    const internal::Crc32cTables& t = internal::Crc32cTable();
    const unsigned char* p = static_cast<const unsigned char*>(data);
    uint32_t crc = state_;
    for (; len >= 8; p += 8, len -= 8) {
      const uint32_t lo = crc ^ internal::LoadLe32(p);
      const uint32_t hi = internal::LoadLe32(p + 4);
      crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
            t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
            t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^
            t[0][hi >> 24];
    }
    for (; len > 0; ++p, --len) {
      crc = (crc >> 8) ^ t[0][(crc ^ *p) & 0xFFu];
    }
    state_ = crc;
  }

  /// Finalized checksum of everything fed so far (does not reset).
  uint32_t value() const { return state_ ^ 0xFFFFFFFFu; }

  void Reset() { state_ = 0xFFFFFFFFu; }

 private:
  uint32_t state_ = 0xFFFFFFFFu;
};

/// One-shot convenience.
inline uint32_t Crc32cOf(const void* data, size_t len) {
  Crc32 crc;
  crc.Update(data, len);
  return crc.value();
}

}  // namespace tdb

#endif  // TDB_UTIL_CRC32_H_
