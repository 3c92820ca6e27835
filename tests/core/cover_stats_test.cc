// CoverStats rows: the generated Add, the registry export behind
// `tdb_cover --stats-json`, and the `--stats` text line.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "core/solver.h"
#include "datasets.h"
#include "util/metrics.h"

namespace tdb {
namespace {

/// The number that follows `"name": ` in a registry JSON dump.
double JsonValue(const std::string& json, const std::string& name) {
  const std::string key = "\"" + name + "\": ";
  const size_t at = json.find(key);
  EXPECT_NE(at, std::string::npos) << name << " missing from " << json;
  if (at == std::string::npos) return -1.0;
  return std::strtod(json.c_str() + at + key.size(), nullptr);
}

TEST(CoverStatsTest, EveryRowExportsItsValue) {
  const CsrGraph graph = bench::BuildProxy(*bench::FindDataset("WGO"), 0.5);
  CoverOptions options;
  options.k = 5;
  // TDB++ exercises the search and filter rows, BUR+ the prune row.
  for (CoverAlgorithm algo :
       {CoverAlgorithm::kTdbPlusPlus, CoverAlgorithm::kBurPlus}) {
    SCOPED_TRACE(AlgorithmName(algo));
    const CoverResult result = SolveCycleCover(graph, algo, options);
    ASSERT_TRUE(result.status.ok()) << result.status.ToString();
    const CoverStats& stats = result.stats;
    EXPECT_GT(stats.searches, 0u);
    EXPECT_GT(stats.expansions, 0u);
    EXPECT_GT(stats.scc_components, 0u);
    if (algo == CoverAlgorithm::kTdbPlusPlus) {
      EXPECT_GT(stats.block_prunes, 0u);
      EXPECT_GT(stats.bfs_filtered, 0u);
      EXPECT_GT(stats.filter_visits, 0u);
    } else {
      EXPECT_GT(stats.prune_removed, 0u);
    }

    MetricRegistry registry;
    ExportCoverStats(stats, &registry);
    const std::string json = registry.RenderJson();
    const std::string line = FormatCoverStats(stats);
#define TDB_CHECK_COUNTER(field, help)                                     \
  EXPECT_EQ(JsonValue(json, "tdb_cover_" #field "_total"),                 \
            static_cast<double>(stats.field));                             \
  EXPECT_NE(line.find(#field "=" + std::to_string(stats.field)),           \
            std::string::npos)                                             \
      << line;
    TDB_COVER_COUNTERS(TDB_CHECK_COUNTER)
#undef TDB_CHECK_COUNTER
#define TDB_CHECK_SECONDS(field, help)                                     \
  EXPECT_NEAR(JsonValue(json, "tdb_cover_" #field), stats.field, 1e-8);    \
  EXPECT_NE(line.find(#field "="), std::string::npos) << line;
    TDB_COVER_SECONDS(TDB_CHECK_SECONDS)
#undef TDB_CHECK_SECONDS
  }
}

TEST(CoverStatsTest, AddSumsCountersButNotSeconds) {
  CoverStats a;
  CoverStats b;
  uint64_t next = 1;
#define TDB_SET(field, help) \
  a.field = next++;          \
  b.field = next++;
  TDB_COVER_COUNTERS(TDB_SET)
#undef TDB_SET
  a.elapsed_seconds = 1.0;
  b.elapsed_seconds = 2.0;
  CoverStats sum = a;
  sum.Add(b);
#define TDB_CHECK(field, help) EXPECT_EQ(sum.field, a.field + b.field) << #field;
  TDB_COVER_COUNTERS(TDB_CHECK)
#undef TDB_CHECK
  EXPECT_EQ(sum.elapsed_seconds, 1.0);

  SearchStats search;
  search.expansions = 7;
  search.block_prunes = 8;
  search.filter_visits = 9;
  CoverStats from_search;
  from_search.Add(search);
  EXPECT_EQ(from_search.expansions, 7u);
  EXPECT_EQ(from_search.block_prunes, 8u);
  EXPECT_EQ(from_search.filter_visits, 9u);
  EXPECT_EQ(from_search.searches, 0u);
}

}  // namespace
}  // namespace tdb
