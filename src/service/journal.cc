#include "service/journal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cstring>

#include "util/cfile.h"
#include "util/crc32.h"
#include "util/trace.h"

namespace tdb {

namespace {

constexpr char kJournalMagic[4] = {'T', 'D', 'B', 'J'};
constexpr uint32_t kJournalVersion = 1;
/// A record bigger than this is corruption, not a batch: the service
/// batches are operator-sized (hundreds to thousands of edges), and a
/// bogus 32-bit count must not drive a multi-gigabyte allocation while
/// scanning a torn tail.
constexpr uint32_t kMaxRecordEdges = 1u << 26;

Status IoError(const std::string& path, const char* what) {
  return Status::IOError(path + ": " + what);
}

bool WriteAll(std::FILE* f, const void* data, size_t len) {
  return std::fwrite(data, 1, len, f) == len;
}

bool ReadAll(std::FILE* f, void* data, size_t len) {
  return std::fread(data, 1, len, f) == len;
}

Status FsyncFile(std::FILE* f, const std::string& path) {
  TDB_TRACE_SPAN("journal.fsync");
  if (std::fflush(f) != 0) return IoError(path, "fflush failed");
  if (::fsync(::fileno(f)) != 0) return IoError(path, "fsync failed");
  return Status::OK();
}

/// fsyncs a directory so a rename inside it is durable (no-op failure
/// tolerance: some filesystems reject directory fsync; those also do not
/// need it).
void SyncDirBestEffort(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

}  // namespace

const char* DurabilityPolicyName(DurabilityPolicy policy) {
  switch (policy) {
    case DurabilityPolicy::kNone:
      return "none";
    case DurabilityPolicy::kBatch:
      return "batch";
    case DurabilityPolicy::kAlways:
      return "always";
  }
  return "?";
}

Status ParseDurabilityPolicy(const std::string& name,
                             DurabilityPolicy* policy) {
  std::string lower(name);
  std::transform(lower.begin(), lower.end(), lower.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  if (lower == "none") {
    *policy = DurabilityPolicy::kNone;
  } else if (lower == "batch") {
    *policy = DurabilityPolicy::kBatch;
  } else if (lower == "always" || lower == "fsync") {
    *policy = DurabilityPolicy::kAlways;
  } else {
    return Status::NotFound("unknown durability policy: " + name);
  }
  return Status::OK();
}

Journal::~Journal() {
  if (file_ != nullptr) {
    std::fflush(file_);
    std::fclose(file_);
  }
}

Status Journal::Create(const std::string& path, uint64_t base_seq,
                       DurabilityPolicy durability,
                       std::span<const std::span<const Edge>> tail,
                       std::unique_ptr<Journal>* out) {
  FilePtr f(std::fopen(path.c_str(), "wb"));
  if (f == nullptr) return IoError(path, "cannot create");
  const uint32_t version = kJournalVersion;
  if (!WriteAll(f.get(), kJournalMagic, sizeof(kJournalMagic)) ||
      !WriteAll(f.get(), &version, sizeof(version)) ||
      !WriteAll(f.get(), &base_seq, sizeof(base_seq))) {
    return IoError(path, "short header write");
  }
  constexpr uint64_t kHeaderBytes =
      sizeof(kJournalMagic) + sizeof(version) + sizeof(base_seq);
  std::unique_ptr<Journal> journal(new Journal(
      path, f.release(), base_seq, base_seq, kHeaderBytes, durability));
  for (const std::span<const Edge> batch : tail) {
    const uint64_t seq = journal->last_seq_ + 1;
    uint64_t bytes = 0;
    const Status st = journal->WriteRecord(seq, batch, &bytes);
    if (!st.ok()) return st;
    journal->last_seq_ = seq;
    journal->valid_size_ += bytes;
  }
  // The header and the tail must be durable before the manifest can name
  // this file.
  const Status st = FsyncFile(journal->file_, path);
  if (!st.ok()) return st;
  *out = std::move(journal);
  return Status::OK();
}

Status Journal::Open(const std::string& path, DurabilityPolicy durability,
                     std::vector<JournalRecord>* records,
                     JournalOpenInfo* info, std::unique_ptr<Journal>* out) {
  records->clear();
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (f == nullptr) return IoError(path, "cannot open");

  char magic[4];
  uint32_t version = 0;
  uint64_t base_seq = 0;
  if (!ReadAll(f.get(), magic, sizeof(magic)) ||
      std::memcmp(magic, kJournalMagic, sizeof(magic)) != 0) {
    return Status::InvalidArgument(path + ": not a TDBJ journal");
  }
  if (!ReadAll(f.get(), &version, sizeof(version)) ||
      version != kJournalVersion) {
    return Status::InvalidArgument(path + ": unsupported journal version");
  }
  if (!ReadAll(f.get(), &base_seq, sizeof(base_seq))) {
    return Status::InvalidArgument(path + ": truncated journal header");
  }

  // Scan the record chain. `valid_end` tracks the byte offset after the
  // last record that parsed, chained and checksummed correctly; anything
  // beyond it is a torn or corrupt tail and is cut off below.
  uint64_t expected_seq = base_seq + 1;
  long valid_end = std::ftell(f.get());
  std::vector<Edge> edges;
  for (;;) {
    uint64_t seq = 0;
    uint32_t count = 0;
    if (!ReadAll(f.get(), &seq, sizeof(seq)) ||
        !ReadAll(f.get(), &count, sizeof(count))) {
      break;  // clean EOF or torn length prefix
    }
    if (seq != expected_seq || count > kMaxRecordEdges) break;
    edges.resize(count);
    if (count > 0 &&
        !ReadAll(f.get(), edges.data(), sizeof(Edge) * size_t{count})) {
      break;
    }
    uint32_t stored_crc = 0;
    if (!ReadAll(f.get(), &stored_crc, sizeof(stored_crc))) break;
    Crc32 crc;
    crc.Update(&seq, sizeof(seq));
    crc.Update(&count, sizeof(count));
    if (count > 0) crc.Update(edges.data(), sizeof(Edge) * size_t{count});
    if (crc.value() != stored_crc) break;
    JournalRecord record;
    record.seq = seq;
    record.edges = edges;
    records->push_back(std::move(record));
    ++expected_seq;
    valid_end = std::ftell(f.get());
  }
  std::fseek(f.get(), 0, SEEK_END);
  const long file_end = std::ftell(f.get());
  f.reset();

  if (info != nullptr) {
    info->truncated_bytes =
        file_end > valid_end ? static_cast<uint64_t>(file_end - valid_end)
                             : 0;
  }
  if (file_end > valid_end && ::truncate(path.c_str(), valid_end) != 0) {
    return IoError(path, "cannot truncate torn tail");
  }

  std::FILE* append = std::fopen(path.c_str(), "ab");
  if (append == nullptr) return IoError(path, "cannot reopen for append");
  out->reset(new Journal(path, append, base_seq, expected_seq - 1,
                         static_cast<uint64_t>(valid_end), durability));
  return Status::OK();
}

Status Journal::Append(uint64_t seq, std::span<const Edge> batch) {
  TDB_TRACE_SPAN("journal.append");
  uint64_t bytes = 0;
  const Status written = WriteRecord(seq, batch, &bytes);
  if (!written.ok()) return written;
  // A failed flush can also leave a torn partial record (some buffered
  // bytes written, some not); a failed fsync leaves the record whole but
  // unacknowledged — either way the caller will NOT apply the batch, so
  // the record must come out again or recovery would replay a batch the
  // live state never saw at a seq the next append reuses.
  switch (durability_) {
    case DurabilityPolicy::kNone:
      break;
    case DurabilityPolicy::kBatch:
      if (std::fflush(file_) != 0) {
        RecoverTornAppend();
        return IoError(path_, "fflush failed");
      }
      break;
    case DurabilityPolicy::kAlways: {
      const Status st = FsyncFile(file_, path_);
      if (!st.ok()) {
        RecoverTornAppend();
        return st;
      }
      break;
    }
  }
  last_seq_ = seq;
  valid_size_ += bytes;
  return Status::OK();
}

Status Journal::WriteRecord(uint64_t seq, std::span<const Edge> batch,
                            uint64_t* bytes) {
  if (file_ == nullptr) {
    return Status::IOError(path_ + ": journal poisoned by earlier failure");
  }
  if (seq != last_seq_ + 1) {
    return Status::InvalidArgument(path_ + ": non-consecutive journal seq");
  }
  if (batch.size() > kMaxRecordEdges) {
    return Status::InvalidArgument(path_ + ": batch exceeds record limit");
  }
  const uint32_t count = static_cast<uint32_t>(batch.size());
  Crc32 crc;
  crc.Update(&seq, sizeof(seq));
  crc.Update(&count, sizeof(count));
  if (count > 0) crc.Update(batch.data(), sizeof(Edge) * batch.size());
  const uint32_t checksum = crc.value();
  if (!WriteAll(file_, &seq, sizeof(seq)) ||
      !WriteAll(file_, &count, sizeof(count)) ||
      (count > 0 &&
       !WriteAll(file_, batch.data(), sizeof(Edge) * batch.size())) ||
      !WriteAll(file_, &checksum, sizeof(checksum))) {
    RecoverTornAppend();
    return IoError(path_, "short record write");
  }
  *bytes = sizeof(seq) + sizeof(count) + sizeof(Edge) * batch.size() +
           sizeof(checksum);
  return Status::OK();
}

void Journal::RecoverTornAppend() {
  // fclose first: it flushes whatever partial bytes stdio still buffers
  // (possibly garbage), which the truncation then removes along with
  // anything the failed write already put in the file.
  std::fclose(file_);
  file_ = nullptr;
  if (::truncate(path_.c_str(),
                 static_cast<off_t>(valid_size_)) != 0) {
    return;  // poisoned: cannot restore a clean record boundary
  }
  file_ = std::fopen(path_.c_str(), "ab");  // null on failure = poisoned
}

namespace {

constexpr char kManifestName[] = "MANIFEST";

/// A manifest name must stay inside the store directory — it is data read
/// back from disk, not trusted input.
bool SaneFileName(const std::string& name) {
  return !name.empty() && name.find('/') == std::string::npos &&
         name != "." && name != "..";
}

}  // namespace

Status ReadStoreManifest(const std::string& dir, StoreManifest* manifest) {
  const std::string path = dir + "/" + kManifestName;
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return Status::NotFound(path + ": no manifest");
  char line[512];
  std::string snapshot;
  std::string journal;
  bool header_ok = false;
  size_t line_no = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    ++line_no;
    std::string text(line);
    while (!text.empty() &&
           (text.back() == '\n' || text.back() == '\r' ||
            text.back() == ' ')) {
      text.pop_back();
    }
    if (line_no == 1) {
      header_ok = text == "tdb-store v1";
      if (!header_ok) break;
      continue;
    }
    const size_t space = text.find(' ');
    if (space == std::string::npos) continue;
    const std::string key = text.substr(0, space);
    const std::string value = text.substr(space + 1);
    if (key == "snapshot") snapshot = value;
    if (key == "journal") journal = value;
  }
  std::fclose(f);
  if (!header_ok) {
    return Status::InvalidArgument(path + ": not a tdb store manifest");
  }
  if (!SaneFileName(snapshot) || !SaneFileName(journal)) {
    return Status::InvalidArgument(path + ": malformed manifest entries");
  }
  manifest->snapshot_file = snapshot;
  manifest->journal_file = journal;
  return Status::OK();
}

Status WriteStoreManifest(const std::string& dir,
                          const StoreManifest& manifest) {
  const std::string path = dir + "/" + kManifestName;
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) return IoError(tmp, "cannot create");
  const int written =
      std::fprintf(f, "tdb-store v1\nsnapshot %s\njournal %s\n",
                   manifest.snapshot_file.c_str(),
                   manifest.journal_file.c_str());
  Status st = written > 0 ? Status::OK() : IoError(tmp, "short write");
  if (st.ok()) st = FsyncFile(f, tmp);
  std::fclose(f);
  if (!st.ok()) {
    std::remove(tmp.c_str());
    return st;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return IoError(path, "manifest rename failed");
  }
  SyncDirBestEffort(dir);
  return Status::OK();
}

}  // namespace tdb
