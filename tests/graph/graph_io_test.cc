#include "graph/graph_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "graph/generators.h"

namespace tdb {
namespace {

class GraphIoTest : public ::testing::Test {
 protected:
  std::string TempPath(const std::string& name) {
    return testing::TempDir() + "/" + name;
  }
};

TEST_F(GraphIoTest, TextRoundTrip) {
  CsrGraph g = GenerateErdosRenyi(50, 300, /*seed=*/3);
  const std::string path = TempPath("round_trip.txt");
  ASSERT_TRUE(SaveEdgeListText(g, path).ok());
  CsrGraph loaded;
  ASSERT_TRUE(LoadEdgeListText(path, &loaded).ok());
  ASSERT_EQ(loaded.num_edges(), g.num_edges());
  // Ids may be permuted by first-appearance densification; edge count and
  // degree multiset must survive.
  std::vector<EdgeId> a, b;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    a.push_back(g.out_degree(v));
  }
  for (VertexId v = 0; v < loaded.num_vertices(); ++v) {
    b.push_back(loaded.out_degree(v));
  }
  a.resize(std::max(a.size(), b.size()), 0);
  b.resize(std::max(a.size(), b.size()), 0);
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);
}

TEST_F(GraphIoTest, ParsesSnapStyleCommentsAndSparseIds) {
  const std::string path = TempPath("snap.txt");
  {
    std::ofstream out(path);
    out << "# Directed graph\n";
    out << "% another comment style\n";
    out << "\n";
    out << "1000 2000\n";
    out << "2000 30\n";
    out << "30 1000\n";
  }
  CsrGraph g;
  std::vector<uint64_t> original;
  ASSERT_TRUE(LoadEdgeListText(path, &g, &original).ok());
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 3u);
  ASSERT_EQ(original.size(), 3u);
  EXPECT_EQ(original[0], 1000u);  // first appearance order
  EXPECT_EQ(original[1], 2000u);
  EXPECT_EQ(original[2], 30u);
  // The densified triangle 0 -> 1 -> 2 -> 0.
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 2));
  EXPECT_TRUE(g.HasEdge(2, 0));
}

TEST_F(GraphIoTest, OverlongCommentLinesDoNotLeakEdges) {
  // A comment longer than the internal read chunk must not have its tail
  // parsed as data (regression: fixed-size fgets buffer).
  const std::string path = TempPath("long_comment.txt");
  {
    std::ofstream out(path);
    out << "# " << std::string(1000, 'x') << " 123 456\n";
    out << "0 1\n";
    out << "1 2\n";
  }
  CsrGraph g;
  ASSERT_TRUE(LoadEdgeListText(path, &g).ok());
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.num_vertices(), 3u);
}

TEST_F(GraphIoTest, OverlongDataLineIsInvalidArgument) {
  // A data line beyond the line buffer used to parse its leading chunk
  // and silently drop the rest; it must fail loudly instead.
  const std::string path = TempPath("long_data.txt");
  {
    std::ofstream out(path);
    out << "0 1\n";
    out << "1 2 " << std::string(1000, ' ') << "\n";
  }
  CsrGraph g;
  const Status st = LoadEdgeListText(path, &g);
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
}

TEST_F(GraphIoTest, CorruptEdgeListFixturesAreRejected) {
  // Each fixture used to be silently misparsed by the sscanf-based
  // loader: %llu wraps negatives and out-of-range values, and extra
  // tokens were ignored.
  const struct {
    const char* name;
    const char* body;
  } kFixtures[] = {
      {"negative_id.txt", "0 1\n-3 2\n"},
      {"overflow_id.txt", "0 1\n99999999999999999999999 2\n"},
      {"trailing_token.txt", "0 1\n1 2 7\n"},
      {"missing_field.txt", "0 1\n5\n"},
      {"hex_noise.txt", "0 1\n0x1f 2\n"},
      {"plus_sign.txt", "+1 2\n"},
  };
  for (const auto& fixture : kFixtures) {
    const std::string path = TempPath(fixture.name);
    {
      std::ofstream out(path);
      out << "# corrupt fixture\n" << fixture.body;
    }
    CsrGraph g;
    const Status st = LoadEdgeListText(path, &g);
    EXPECT_TRUE(st.IsInvalidArgument()) << fixture.name << ": "
                                        << st.ToString();
  }
}

TEST_F(GraphIoTest, CorruptStreamFixturesAreRejected) {
  const struct {
    const char* name;
    const char* body;
  } kFixtures[] = {
      {"stream_negative.txt", "0 1 5\n-2 3 6\n"},
      {"stream_overflow_vertex.txt", "0 1 5\n4294967295 3 6\n"},
      {"stream_overflow_64bit.txt", "0 1 99999999999999999999999\n"},
      {"stream_trailing.txt", "0 1 5 extra\n"},
      {"stream_missing_ts.txt", "0 1\n"},
  };
  for (const auto& fixture : kFixtures) {
    const std::string path = TempPath(fixture.name);
    {
      std::ofstream out(path);
      out << "# corrupt stream fixture\n" << fixture.body;
    }
    std::vector<TimedEdge> stream;
    const Status st = LoadEdgeStreamText(path, &stream);
    EXPECT_TRUE(st.IsInvalidArgument()) << fixture.name << ": "
                                        << st.ToString();
  }
}

TEST_F(GraphIoTest, StreamTimestampsUseTheFull64Bits) {
  const std::string path = TempPath("stream_big_ts.txt");
  {
    std::ofstream out(path);
    out << "3 4 18446744073709551615\n";  // 2^64 - 1 is a valid timestamp
  }
  std::vector<TimedEdge> stream;
  ASSERT_TRUE(LoadEdgeStreamText(path, &stream).ok());
  ASSERT_EQ(stream.size(), 1u);
  EXPECT_EQ(stream[0].timestamp, ~uint64_t{0});
}

TEST_F(GraphIoTest, FinalLineWithoutNewline) {
  const std::string path = TempPath("no_trailing_newline.txt");
  {
    std::ofstream out(path);
    out << "0 1\n1 2";  // no trailing newline
  }
  CsrGraph g;
  ASSERT_TRUE(LoadEdgeListText(path, &g).ok());
  EXPECT_EQ(g.num_edges(), 2u);
}

TEST_F(GraphIoTest, MalformedLineIsInvalidArgument) {
  const std::string path = TempPath("malformed.txt");
  {
    std::ofstream out(path);
    out << "0 1\n";
    out << "not numbers\n";
  }
  CsrGraph g;
  Status s = LoadEdgeListText(path, &g);
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_NE(s.message().find("line 2"), std::string::npos);
}

TEST_F(GraphIoTest, MissingFileIsIOError) {
  CsrGraph g;
  EXPECT_TRUE(LoadEdgeListText("/nonexistent/nope.txt", &g).IsIOError());
  EXPECT_TRUE(LoadBinary("/nonexistent/nope.bin", &g).IsIOError());
}

TEST_F(GraphIoTest, BinaryRoundTripIsExact) {
  CsrGraph g = GenerateErdosRenyi(64, 500, /*seed=*/8);
  const std::string path = TempPath("graph.bin");
  ASSERT_TRUE(SaveBinary(g, path).ok());
  CsrGraph loaded;
  ASSERT_TRUE(LoadBinary(path, &loaded).ok());
  ASSERT_EQ(loaded.num_vertices(), g.num_vertices());
  ASSERT_EQ(loaded.num_edges(), g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    EXPECT_EQ(loaded.EdgeSrc(e), g.EdgeSrc(e));
    EXPECT_EQ(loaded.EdgeDst(e), g.EdgeDst(e));
  }
}

TEST_F(GraphIoTest, BinaryRejectsWrongMagic) {
  const std::string path = TempPath("not_tdbg.bin");
  {
    std::ofstream out(path, std::ios::binary);
    out << "JUNKJUNKJUNKJUNKJUNK";
  }
  CsrGraph g;
  EXPECT_TRUE(LoadBinary(path, &g).IsInvalidArgument());
}

TEST_F(GraphIoTest, BinaryRejectsTruncatedEdges) {
  CsrGraph g = GenerateErdosRenyi(32, 100, /*seed=*/4);
  const std::string full = TempPath("full.bin");
  ASSERT_TRUE(SaveBinary(g, full).ok());
  // Copy all but the last 4 bytes.
  std::ifstream in(full, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  const std::string truncated_path = TempPath("truncated.bin");
  {
    std::ofstream out(truncated_path, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() - 4));
  }
  CsrGraph loaded;
  EXPECT_TRUE(LoadBinary(truncated_path, &loaded).IsIOError());
}

TEST_F(GraphIoTest, WritesToAFullDeviceReportIOError) {
  // /dev/full accepts open() and fails every write with ENOSPC. A small
  // file fits in the stdio buffer, so its error surfaces only at close; a
  // large one fails mid-stream.
  if (!std::filesystem::exists("/dev/full")) {
    GTEST_SKIP() << "/dev/full is not available";
  }
  for (const CsrGraph& g : {GenerateErdosRenyi(50, 300, /*seed=*/3),
                            GenerateErdosRenyi(2000, 20000, /*seed=*/3)}) {
    EXPECT_TRUE(SaveEdgeListText(g, "/dev/full").IsIOError());
    EXPECT_TRUE(SaveBinary(g, "/dev/full").IsIOError());
    std::vector<TimedEdge> stream;
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      stream.push_back({g.EdgeSrc(e), g.EdgeDst(e), e});
    }
    EXPECT_TRUE(SaveEdgeStreamText(stream, "/dev/full").IsIOError());
  }
}

}  // namespace
}  // namespace tdb
