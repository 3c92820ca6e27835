// Strict whole-string numeric parsing for command-line flags.
//
// std::atoi and friends turn garbage into 0 and wrap out-of-range input,
// so a mistyped flag silently becomes a plausible setting (for a thread
// count, 0 means "all cores"). These parsers accept exactly one base-10
// number spanning the whole string and reject everything else.
#ifndef TDB_UTIL_PARSE_NUMBER_H_
#define TDB_UTIL_PARSE_NUMBER_H_

#include <charconv>
#include <cmath>
#include <limits>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace tdb {

/// Parses `text` as a base-10 integer in [lo, hi] into *out. Fails, and
/// leaves *out untouched, on empty input, a leading '+' or whitespace,
/// trailing characters, a '-' sign for an unsigned T, overflow of T, or a
/// value outside [lo, hi].
template <typename T>
bool ParseInteger(std::string_view text, T* out,
                  T lo = std::numeric_limits<T>::min(),
                  T hi = std::numeric_limits<T>::max()) {
  static_assert(std::is_integral_v<T> && !std::is_same_v<T, bool>);
  const char* end = text.data() + text.size();
  T value{};
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || value < lo || value > hi) {
    return false;
  }
  *out = value;
  return true;
}

/// Parses `text` as a finite decimal floating-point number into *out.
/// Fails, and leaves *out untouched, on empty input, trailing characters,
/// "inf" / "nan", and magnitudes outside double's range.
inline bool ParseFiniteDouble(std::string_view text, double* out) {
  const char* end = text.data() + text.size();
  double value = 0.0;
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || !std::isfinite(value)) return false;
  *out = value;
  return true;
}

}  // namespace tdb

#endif  // TDB_UTIL_PARSE_NUMBER_H_
