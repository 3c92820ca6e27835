// Golden covers: the determinism contract pinned in tier-1.
//
// Solves fixed, seeded graphs with every algorithm, k in {3, 5, 7}, with
// and without 2-cycles, at 1 and 4 threads, and compares each cover's size
// and CRC-32C (of its sorted vertex ids, little-endian u32) with the line
// committed in tests/golden/covers.txt. Search and solver refactors must
// leave every line as it is. A change that legitimately moves a cover
// re-pins that line — the failure message prints it in file format — and
// says why.
//
// DARC-DV runs only in its cheap cells: k = 3 on the ER and WGO graphs
// and every k on the multi-SCC planted graph, so that more than one of its
// components is solved. Its power-law cells are left out (k = 3 alone
// would cost 2.5 s of this test; k = 5 takes tens of seconds).
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "core/solver.h"
#include "datasets.h"
#include "graph/generators.h"
#include "util/crc32.h"

namespace tdb {
namespace {

struct GoldenGraph {
  std::string name;
  CsrGraph graph;
};

std::vector<GoldenGraph> GoldenGraphs() {
  std::vector<GoldenGraph> graphs;
  graphs.push_back({"er", GenerateErdosRenyi(3000, 15000, /*seed=*/1)});
  PowerLawParams p;
  p.n = 3000;
  p.m = 15000;
  p.theta = 0.8;
  p.reciprocity = 0.2;
  p.seed = 1;
  graphs.push_back({"powerlaw", GeneratePowerLaw(p)});
  graphs.push_back(
      {"wgo", bench::BuildProxy(*bench::FindDataset("WGO"), 0.5)});
  graphs.push_back({"planted", GeneratePlantedCycles(3000, 6000,
                                                     /*num_cycles=*/60, 3, 8,
                                                     /*seed=*/7)
                                   .graph});
  return graphs;
}

/// The DARC-DV cells cheap enough for tier-1.
bool DarcCellIsCheap(const std::string& graph, uint32_t k) {
  if (graph == "planted") return true;
  return graph != "powerlaw" && k == 3;
}

uint32_t CoverCrc(const std::vector<VertexId>& cover) {
  Crc32 crc;
  for (VertexId v : cover) {
    const unsigned char bytes[4] = {
        static_cast<unsigned char>(v), static_cast<unsigned char>(v >> 8),
        static_cast<unsigned char>(v >> 16),
        static_cast<unsigned char>(v >> 24)};
    crc.Update(bytes, sizeof(bytes));
  }
  return crc.value();
}

/// One golden line: "<graph> <algo> k=<k> 2cyc=<on|off> size=<n>
/// crc32c=<hex>".
std::string CellLine(const std::string& graph, CoverAlgorithm algo,
                     uint32_t k, bool two_cycles,
                     const std::vector<VertexId>& cover) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s %s k=%u 2cyc=%s size=%zu crc32c=%08x",
                graph.c_str(), AlgorithmName(algo), k,
                two_cycles ? "on" : "off", cover.size(), CoverCrc(cover));
  return buf;
}

/// The cell key of a line: everything before " size=".
std::string CellKey(const std::string& line) {
  return line.substr(0, line.find(" size="));
}

std::map<std::string, std::string> LoadGolden() {
  const std::filesystem::path path =
      std::filesystem::path(__FILE__).parent_path().parent_path() /
      "golden" / "covers.txt";
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::map<std::string, std::string> golden;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    golden[CellKey(line)] = line;
  }
  return golden;
}

TEST(GoldenCoversTest, EveryCellMatchesTheCommittedCover) {
  const std::map<std::string, std::string> golden = LoadGolden();
  size_t cells = 0;
  for (const GoldenGraph& g : GoldenGraphs()) {
    for (CoverAlgorithm algo :
         {CoverAlgorithm::kBur, CoverAlgorithm::kBurPlus,
          CoverAlgorithm::kTdb, CoverAlgorithm::kTdbPlus,
          CoverAlgorithm::kTdbPlusPlus, CoverAlgorithm::kDarcDv}) {
      for (uint32_t k : {3u, 5u, 7u}) {
        if (algo == CoverAlgorithm::kDarcDv && !DarcCellIsCheap(g.name, k)) {
          continue;
        }
        for (bool two_cycles : {false, true}) {
          for (int threads : {1, 4}) {
            CoverOptions opts;
            opts.k = k;
            opts.include_two_cycles = two_cycles;
            opts.num_threads = threads;
            const CoverResult r = SolveCycleCover(g.graph, algo, opts);
            ASSERT_TRUE(r.status.ok()) << r.status.ToString();
            const std::string line =
                CellLine(g.name, algo, k, two_cycles, r.cover);
            const auto it = golden.find(CellKey(line));
            const std::string want =
                it == golden.end() ? "(missing)" : it->second;
            EXPECT_EQ(line, want) << "threads=" << threads
                                  << "; the line this build produces:\n"
                                  << line;
            ++cells;
          }
        }
      }
    }
  }
  EXPECT_EQ(cells, 2 * golden.size()) << "golden file has stale lines";
}

}  // namespace
}  // namespace tdb
