// File-level tests of the persistence primitives: the write-ahead
// journal (record framing, torn/corrupt tail truncation), the store
// manifest and the CRC-framed snapshot container (v1 only; the retired
// v2 format is refused).
#include "service/journal.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "graph/generators.h"
#include "service/cycle_break_service.h"
#include "service/snapshot.h"
#include "util/rng.h"
#include "util/trace.h"

namespace tdb {
namespace {

std::string TempPath(const std::string& name) {
  static int counter = 0;
  return testing::TempDir() + "tdb_journal_test_" +
         std::to_string(counter++) + "_" + name;
}

std::vector<Edge> RandomBatch(Rng& rng, VertexId n, size_t count) {
  std::vector<Edge> batch;
  for (size_t i = 0; i < count; ++i) {
    batch.push_back(Edge{static_cast<VertexId>(rng.NextBounded(n)),
                         static_cast<VertexId>(rng.NextBounded(n))});
  }
  return batch;
}

std::vector<char> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path,
                    const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(DurabilityPolicyTest, ParseAndName) {
  DurabilityPolicy policy;
  for (const char* name : {"none", "batch", "always"}) {
    ASSERT_TRUE(ParseDurabilityPolicy(name, &policy).ok());
    EXPECT_STREQ(DurabilityPolicyName(policy), name);
  }
  ASSERT_TRUE(ParseDurabilityPolicy("ALWAYS", &policy).ok());
  EXPECT_EQ(policy, DurabilityPolicy::kAlways);
  EXPECT_TRUE(ParseDurabilityPolicy("sometimes", &policy).IsNotFound());
}

TEST(JournalTest, AppendReopenRoundTrip) {
  // Every policy shares one Append; kBatch and kAlways must also have the
  // whole record in the file (flushed, or fsync'd) when Append returns.
  for (const DurabilityPolicy policy :
       {DurabilityPolicy::kNone, DurabilityPolicy::kBatch,
        DurabilityPolicy::kAlways}) {
    SCOPED_TRACE(DurabilityPolicyName(policy));
    const std::string path = TempPath("roundtrip.tdbj");
    Rng rng(11);
    std::vector<std::vector<Edge>> batches;
    for (size_t i = 0; i < 8; ++i) {
      batches.push_back(RandomBatch(rng, 40, 1 + rng.NextBounded(9)));
    }
    batches.push_back({});  // empty batches are legal records too
    {
      std::unique_ptr<Journal> journal;
      ASSERT_TRUE(Journal::Create(path, /*base_seq=*/5, policy, /*tail=*/{},
                                  &journal)
                      .ok());
      uint64_t size = 16;  // magic + version + base_seq
      for (size_t i = 0; i < batches.size(); ++i) {
        ASSERT_TRUE(journal->Append(6 + i, batches[i]).ok());
        size += 12 + sizeof(Edge) * batches[i].size() + 4;
        if (policy != DurabilityPolicy::kNone) {
          EXPECT_EQ(std::filesystem::file_size(path), size) << "record " << i;
        }
      }
      // Out-of-order sequences are rejected.
      EXPECT_FALSE(journal->Append(100, batches[0]).ok());
      EXPECT_EQ(journal->last_seq(), 5 + batches.size());
    }
    std::vector<JournalRecord> records;
    JournalOpenInfo info;
    std::unique_ptr<Journal> journal;
    ASSERT_TRUE(Journal::Open(path, policy, &records, &info, &journal).ok());
    EXPECT_EQ(info.truncated_bytes, 0u);
    EXPECT_EQ(journal->base_seq(), 5u);
    ASSERT_EQ(records.size(), batches.size());
    for (size_t i = 0; i < batches.size(); ++i) {
      EXPECT_EQ(records[i].seq, 6 + i);
      EXPECT_EQ(records[i].edges, batches[i]);
    }
    // The reopened journal appends where the chain left off.
    ASSERT_TRUE(journal->Append(6 + batches.size(), batches[0]).ok());
    EXPECT_EQ(journal->last_seq(), 6 + batches.size());
    journal.reset();
    std::remove(path.c_str());
  }
}

TEST(JournalTest, CreateWritesTheTailWithOneSync) {
  // A rotated journal starts with the batches its snapshot does not
  // cover; Create makes header and tail durable with one fsync under
  // every policy, where appending them would fsync each under kAlways.
  Rng rng(13);
  std::vector<std::vector<Edge>> batches;
  for (size_t i = 0; i < 5; ++i) {
    batches.push_back(RandomBatch(rng, 40, 1 + rng.NextBounded(7)));
  }
  batches.push_back({});
  const std::vector<std::span<const Edge>> tail(batches.begin(),
                                                batches.end());
  uint64_t size = 16;  // magic + version + base_seq
  for (const auto& b : batches) size += 12 + sizeof(Edge) * b.size() + 4;
  for (const DurabilityPolicy policy :
       {DurabilityPolicy::kNone, DurabilityPolicy::kAlways}) {
    SCOPED_TRACE(DurabilityPolicyName(policy));
    const std::string path = TempPath("tail.tdbj");
    const std::string trace_path = TempPath("tail.trace.json");
    trace::Reset();
    trace::SetEnabled(true);
    std::unique_ptr<Journal> journal;
    ASSERT_TRUE(
        Journal::Create(path, /*base_seq=*/9, policy, tail, &journal).ok());
    trace::SetEnabled(false);
    ASSERT_TRUE(trace::WriteChromeTrace(trace_path).ok());
    const std::vector<char> bytes = ReadFileBytes(trace_path);
    const std::string text(bytes.begin(), bytes.end());
    size_t fsyncs = 0;
    for (size_t at = text.find("\"journal.fsync\""); at != std::string::npos;
         at = text.find("\"journal.fsync\"", at + 1)) {
      ++fsyncs;
    }
    EXPECT_EQ(fsyncs, 1u);
    EXPECT_EQ(text.find("\"journal.append\""), std::string::npos);
    EXPECT_EQ(std::filesystem::file_size(path), size);
    EXPECT_EQ(journal->last_seq(), 9 + batches.size());
    // Appends continue the chain after the tail.
    ASSERT_TRUE(journal->Append(10 + batches.size(), batches[0]).ok());
    journal.reset();
    std::vector<JournalRecord> records;
    ASSERT_TRUE(Journal::Open(path, policy, &records, nullptr, &journal).ok());
    ASSERT_EQ(records.size(), batches.size() + 1);
    for (size_t i = 0; i < batches.size(); ++i) {
      EXPECT_EQ(records[i].seq, 10 + i);
      EXPECT_EQ(records[i].edges, batches[i]);
    }
    EXPECT_EQ(records.back().edges, batches[0]);
    journal.reset();
    std::remove(path.c_str());
    std::remove(trace_path.c_str());
  }
}

TEST(JournalTest, EveryTruncationRecoversTheValidPrefix) {
  // The property test's core: for EVERY byte-truncation point, Open
  // yields exactly the records whose bytes fully survive, and truncates
  // the file back to that boundary.
  const std::string path = TempPath("torn.tdbj");
  Rng rng(23);
  std::vector<std::vector<Edge>> batches;
  std::vector<uint64_t> boundaries;  // file size after record i
  {
    std::unique_ptr<Journal> journal;
    ASSERT_TRUE(
        Journal::Create(path, 0, DurabilityPolicy::kNone, {}, &journal).ok());
    uint64_t size = 16;  // magic + version + base_seq
    boundaries.push_back(size);
    for (size_t i = 0; i < 6; ++i) {
      batches.push_back(RandomBatch(rng, 30, 1 + rng.NextBounded(5)));
      ASSERT_TRUE(journal->Append(i + 1, batches.back()).ok());
      size += 12 + sizeof(Edge) * batches.back().size() + 4;
      boundaries.push_back(size);
    }
  }
  const std::vector<char> whole = ReadFileBytes(path);
  ASSERT_EQ(whole.size(), boundaries.back());

  for (size_t cut = 16; cut <= whole.size(); ++cut) {
    WriteFileBytes(path, std::vector<char>(whole.begin(),
                                           whole.begin() + cut));
    std::vector<JournalRecord> records;
    JournalOpenInfo info;
    std::unique_ptr<Journal> journal;
    ASSERT_TRUE(Journal::Open(path, DurabilityPolicy::kNone, &records,
                              &info, &journal)
                    .ok())
        << "cut at byte " << cut;
    // Expected: the largest i with boundaries[i] <= cut.
    size_t expect = 0;
    while (expect + 1 < boundaries.size() &&
           boundaries[expect + 1] <= cut) {
      ++expect;
    }
    ASSERT_EQ(records.size(), expect) << "cut at byte " << cut;
    for (size_t i = 0; i < expect; ++i) {
      EXPECT_EQ(records[i].edges, batches[i]);
    }
    EXPECT_EQ(info.truncated_bytes, cut - boundaries[expect]);
    journal.reset();
    EXPECT_EQ(std::filesystem::file_size(path), boundaries[expect]);
  }
  std::remove(path.c_str());
}

TEST(JournalTest, BitFlippedTailIsDropped) {
  const std::string path = TempPath("bitflip.tdbj");
  Rng rng(31);
  std::vector<std::vector<Edge>> batches;
  {
    std::unique_ptr<Journal> journal;
    ASSERT_TRUE(
        Journal::Create(path, 0, DurabilityPolicy::kNone, {}, &journal).ok());
    for (size_t i = 0; i < 4; ++i) {
      batches.push_back(RandomBatch(rng, 30, 3));
      ASSERT_TRUE(journal->Append(i + 1, batches.back()).ok());
    }
  }
  std::vector<char> bytes = ReadFileBytes(path);
  // Flip one bit inside the last record's payload: its CRC must fail and
  // the record — but only it — must be dropped.
  char& victim = bytes[bytes.size() - 10];
  victim = static_cast<char>(victim ^ 0x40);
  WriteFileBytes(path, bytes);
  std::vector<JournalRecord> records;
  JournalOpenInfo info;
  std::unique_ptr<Journal> journal;
  ASSERT_TRUE(Journal::Open(path, DurabilityPolicy::kNone, &records, &info,
                            &journal)
                  .ok());
  ASSERT_EQ(records.size(), 3u);
  for (size_t i = 0; i < 3; ++i) EXPECT_EQ(records[i].edges, batches[i]);
  EXPECT_GT(info.truncated_bytes, 0u);
  std::remove(path.c_str());
}

TEST(JournalTest, TornHeaderIsRejected) {
  // A manifest-named journal always has a durable header (Create syncs
  // it before the manifest can point at the file), so a torn header is
  // real corruption and must refuse, not silently reset.
  const std::string path = TempPath("header.tdbj");
  {
    std::unique_ptr<Journal> journal;
    ASSERT_TRUE(
        Journal::Create(path, 0, DurabilityPolicy::kNone, {}, &journal).ok());
  }
  std::vector<char> bytes = ReadFileBytes(path);
  WriteFileBytes(path, std::vector<char>(bytes.begin(),
                                         bytes.begin() + 11));
  std::vector<JournalRecord> records;
  std::unique_ptr<Journal> journal;
  EXPECT_FALSE(Journal::Open(path, DurabilityPolicy::kNone, &records,
                             nullptr, &journal)
                   .ok());
  std::remove(path.c_str());
}

TEST(ManifestTest, RoundTripAndValidation) {
  const std::string dir = TempPath("store");
  std::filesystem::create_directories(dir);
  StoreManifest manifest;
  EXPECT_TRUE(ReadStoreManifest(dir, &manifest).IsNotFound());
  ASSERT_TRUE(
      WriteStoreManifest(dir, {"snapshot-7.tdbs", "journal-7.tdbj"}).ok());
  ASSERT_TRUE(ReadStoreManifest(dir, &manifest).ok());
  EXPECT_EQ(manifest.snapshot_file, "snapshot-7.tdbs");
  EXPECT_EQ(manifest.journal_file, "journal-7.tdbj");
  // A manifest naming paths outside the store directory is rejected.
  ASSERT_TRUE(
      WriteStoreManifest(dir, {"../evil.tdbs", "journal.tdbj"}).ok());
  EXPECT_FALSE(ReadStoreManifest(dir, &manifest).ok());
  std::filesystem::remove_all(dir);
}

SnapshotState MakeSnapshotState(uint64_t seed) {
  Rng rng(seed);
  SnapshotState state;
  state.epoch = 40 + rng.NextBounded(10);
  state.last_seq = 17;
  state.events_ingested = 400;
  state.base =
      std::make_shared<const CsrGraph>(GenerateErdosRenyi(50, 200, seed));
  state.cover_mask.assign(50, 0);
  for (VertexId v = 0; v < 50; ++v) {
    state.cover_mask[v] = rng.NextBounded(3) == 0 ? 1 : 0;
  }
  state.solve_ok = seed % 2 == 0;
  const EdgeId m = state.base->num_edges();
  for (int i = 0; i < 9; ++i) state.covered.push_back(rng.NextBounded(m));
  for (int i = 0; i < 4; ++i) state.reusable.push_back(rng.NextBounded(m));
  return state;
}

std::vector<Edge> EdgesOf(const CsrGraph& g) {
  std::vector<Edge> edges;
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    for (const VertexId v : g.OutNeighbors(u)) edges.push_back(Edge{u, v});
  }
  return edges;
}

TEST(SnapshotFileTest, RoundTrip) {
  const std::string path = TempPath("state.tdbs");
  const SnapshotState state = MakeSnapshotState(4);
  ASSERT_TRUE(WriteSnapshotFile(state, path).ok());
  SnapshotState loaded;
  ASSERT_TRUE(ReadSnapshotFile(path, &loaded).ok());
  EXPECT_EQ(loaded.epoch, state.epoch);
  EXPECT_EQ(loaded.last_seq, state.last_seq);
  EXPECT_EQ(loaded.events_ingested, state.events_ingested);
  EXPECT_EQ(loaded.solve_ok, state.solve_ok);
  EXPECT_EQ(loaded.cover_mask, state.cover_mask);
  EXPECT_EQ(loaded.covered, state.covered);
  EXPECT_EQ(loaded.reusable, state.reusable);
  EXPECT_EQ(EdgesOf(*loaded.base), EdgesOf(*state.base));
  std::remove(path.c_str());
}

TEST(SnapshotFileTest, RoundTripIsByteIdentical) {
  const std::string path = TempPath("bytes.tdbs");
  const SnapshotState state = MakeSnapshotState(5);
  ASSERT_TRUE(WriteSnapshotFile(state, path).ok());
  const std::vector<char> bytes = ReadFileBytes(path);
  // The edge section follows the 8-byte magic/version and the 57-byte
  // fixed header, as (src, dst) pairs in canonical order.
  const std::vector<Edge> edges = EdgesOf(*state.base);
  const size_t edge_offset = 8 + 7 * 8 + 1;
  ASSERT_GE(bytes.size(), edge_offset + sizeof(Edge) * edges.size());
  EXPECT_EQ(std::memcmp(bytes.data() + edge_offset, edges.data(),
                        sizeof(Edge) * edges.size()),
            0);
  SnapshotState loaded;
  ASSERT_TRUE(ReadSnapshotFile(path, &loaded).ok());
  const std::string again = TempPath("bytes_again.tdbs");
  ASSERT_TRUE(WriteSnapshotFile(loaded, again).ok());
  EXPECT_EQ(ReadFileBytes(again), bytes);
  std::remove(path.c_str());
  std::remove(again.c_str());
}

TEST(SnapshotFileTest, EveryCorruptionIsDetected) {
  const std::string path = TempPath("corrupt.tdbs");
  const SnapshotState state = MakeSnapshotState(6);
  ASSERT_TRUE(WriteSnapshotFile(state, path).ok());
  const std::vector<char> whole = ReadFileBytes(path);

  // Any single flipped bit anywhere in the file must fail the read
  // (magic, header fields, payload or the checksum itself).
  Rng rng(7);
  for (int trial = 0; trial < 64; ++trial) {
    std::vector<char> bytes = whole;
    const size_t at = rng.NextBounded(bytes.size());
    bytes[at] = static_cast<char>(bytes[at] ^ (1 << rng.NextBounded(8)));
    WriteFileBytes(path, bytes);
    SnapshotState loaded;
    EXPECT_FALSE(ReadSnapshotFile(path, &loaded).ok())
        << "flip at byte " << at << " went undetected";
  }
  // Truncation at any point must fail the read.
  for (int trial = 0; trial < 32; ++trial) {
    const size_t cut = rng.NextBounded(whole.size());
    WriteFileBytes(path, std::vector<char>(whole.begin(),
                                           whole.begin() + cut));
    SnapshotState loaded;
    EXPECT_FALSE(ReadSnapshotFile(path, &loaded).ok())
        << "truncation to " << cut << " bytes went undetected";
  }
  // Trailing garbage must fail the read.
  std::vector<char> bytes = whole;
  bytes.push_back('x');
  WriteFileBytes(path, bytes);
  SnapshotState loaded;
  EXPECT_FALSE(ReadSnapshotFile(path, &loaded).ok());
  std::remove(path.c_str());
}

/// Rewrites the version field of the snapshot at `path` to 2, the
/// retired compressed-base format. The CRC covers only the bytes after
/// the version, so the rest of the file stays valid.
void PatchSnapshotVersionToV2(const std::string& path) {
  std::vector<char> bytes = ReadFileBytes(path);
  ASSERT_GE(bytes.size(), 8u);
  const uint32_t v2 = 2;
  std::memcpy(bytes.data() + 4, &v2, sizeof(v2));
  WriteFileBytes(path, bytes);
}

TEST(SnapshotFileTest, RefusesCompressedV2) {
  const std::string path = TempPath("v2.tdbs");
  ASSERT_TRUE(WriteSnapshotFile(MakeSnapshotState(8), path).ok());
  PatchSnapshotVersionToV2(path);
  SnapshotState loaded;
  const Status st = ReadSnapshotFile(path, &loaded);
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
  EXPECT_NE(st.message().find("snapshot v2"), std::string::npos)
      << st.ToString();
  std::remove(path.c_str());

  // A store whose live snapshot is v2 is refused at Open.
  ServiceOptions options;
  options.cover.k = 4;
  options.data_dir = TempPath("v2_store");
  std::unique_ptr<CycleBreakService> service;
  ASSERT_TRUE(CycleBreakService::Create(GenerateErdosRenyi(30, 90, 9),
                                        options, &service)
                  .ok());
  service.reset();
  StoreManifest manifest;
  ASSERT_TRUE(ReadStoreManifest(options.data_dir, &manifest).ok());
  PatchSnapshotVersionToV2(options.data_dir + "/" + manifest.snapshot_file);
  const Status open = CycleBreakService::Open(options, &service);
  EXPECT_FALSE(open.ok());
  EXPECT_TRUE(open.IsInvalidArgument()) << open.ToString();
  EXPECT_TRUE(service == nullptr);
  std::filesystem::remove_all(options.data_dir);
}

}  // namespace
}  // namespace tdb
