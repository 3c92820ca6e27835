// Pins the exported face of ServiceStats: the `# HELP` and `# TYPE`
// lines a fresh service's BindServiceStats renders must equal
// tests/golden/service_metrics_help.txt byte for byte. Scrapers and
// dashboards key on these names, so a stats refactor must not move them.
#include "service/service_metrics.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

namespace tdb {
namespace {

/// The `# HELP` and `# TYPE` lines of a Prometheus render, in order.
std::string HelpAndTypeLines(const std::string& render) {
  std::istringstream in(render);
  std::string out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.starts_with("# HELP ") || line.starts_with("# TYPE ")) {
      out += line + "\n";
    }
  }
  return out;
}

TEST(ServiceMetricsTest, HelpAndTypeLinesMatchGolden) {
  ServiceStats stats;
  MetricRegistry registry;
  const std::vector<MetricRegistry::Registration> regs =
      BindServiceStats(&registry, stats, "tdb_service_");
  const std::string rendered = HelpAndTypeLines(registry.RenderPrometheus());

  const std::filesystem::path path =
      std::filesystem::path(__FILE__).parent_path().parent_path() /
      "golden" / "service_metrics_help.txt";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "cannot open " << path;
  std::stringstream golden;
  golden << in.rdbuf();
  // On a mismatch the full render is printed in file format.
  EXPECT_EQ(rendered, golden.str()) << "rendered:\n" << rendered;
}

}  // namespace
}  // namespace tdb
