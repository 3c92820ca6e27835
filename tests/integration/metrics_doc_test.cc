// docs/OBSERVABILITY.md lists every exported stats row: each row of
// TDB_SERVICE_STATS, TDB_COVER_COUNTERS and TDB_COVER_SECONDS must appear
// in its name table as "| `name` | type | help |". tools/
// check_metrics_format.py reads its required counters from that table.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "core/cover_options.h"
#include "service/stats.h"

namespace tdb {
namespace {

std::string ReadDoc() {
  std::ifstream in(TDB_OBSERVABILITY_MD);
  EXPECT_TRUE(in.good()) << "cannot open " << TDB_OBSERVABILITY_MD;
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

void ExpectRow(const std::string& doc, const std::string& name,
               const char* type, const char* help) {
  const std::string row =
      "| `" + name + "` | " + type + " | " + help + " |\n";
  EXPECT_NE(doc.find(row), std::string::npos)
      << "missing from " << TDB_OBSERVABILITY_MD << ":\n" << row;
}

TEST(MetricsDocTest, EveryServiceRowIsListed) {
  const std::string doc = ReadDoc();
#define TDB_COUNTER(field, help) \
  ExpectRow(doc, "tdb_service_" #field "_total", "counter", help);
#define TDB_GAUGE(field, help) \
  ExpectRow(doc, "tdb_service_" #field, "gauge", help);
  TDB_SERVICE_STATS(TDB_COUNTER, TDB_GAUGE)
#undef TDB_COUNTER
#undef TDB_GAUGE
}

TEST(MetricsDocTest, EveryCoverRowIsListed) {
  const std::string doc = ReadDoc();
#define TDB_COUNTER(field, help) \
  ExpectRow(doc, "tdb_cover_" #field "_total", "counter", help);
  TDB_COVER_COUNTERS(TDB_COUNTER)
#undef TDB_COUNTER
#define TDB_GAUGE(field, help) \
  ExpectRow(doc, "tdb_cover_" #field, "gauge", help);
  TDB_COVER_SECONDS(TDB_GAUGE)
#undef TDB_GAUGE
}

}  // namespace
}  // namespace tdb
