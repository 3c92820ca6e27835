// RAII ownership of a C stdio stream.
//
// The persistence layer and the graph loaders all manage FILE* handles
// with early-return error paths; one shared closer keeps those paths
// leak-free without each file reinventing it.
#ifndef TDB_UTIL_CFILE_H_
#define TDB_UTIL_CFILE_H_

#include <cstdio>
#include <memory>

namespace tdb {

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};

/// Owning FILE* handle; closes on scope exit, release() to hand off.
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

/// Closes `f` and reports whether every buffered write reached the file:
/// a write error (e.g. a full disk) may surface only in the stream's
/// error flag or in the flush at close.
inline bool CloseChecked(std::FILE* f) {
  const bool written = std::ferror(f) == 0;
  return std::fclose(f) == 0 && written;
}

}  // namespace tdb

#endif  // TDB_UTIL_CFILE_H_
