// tdb_graphgen: emits synthetic graphs (including the paper-dataset
// proxies) as edge-list or TDBG files, so the CLI and external tooling can
// consume the exact graphs the benchmarks run on.
//
//   tdb_graphgen --proxy WKV [--scale 1.0] --out wkv.txt [--binary]
//   tdb_graphgen --er N M [--seed S] --out er.txt
//   tdb_graphgen --powerlaw N M THETA RECIP [--seed S] --out pl.txt
//   tdb_graphgen --er N M --stream --out er_stream.txt
//
// --stream emits the generated edges as a shuffled timestamped stream
// ("u v t" per line, t = arrival index) instead of a graph file, so
// tdb_serve and bench_dynamic_stream can replay the identical workload.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "datasets.h"
#include "graph/generators.h"
#include "graph/graph_io.h"
#include "graph/graph_stats.h"
#include "util/parse_number.h"
#include "util/rng.h"

namespace {

void PrintUsage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  tdb_graphgen --proxy NAME [--scale X] --out FILE [--binary]\n"
      "  tdb_graphgen --er N M [--seed S] --out FILE [--binary]\n"
      "  tdb_graphgen --powerlaw N M THETA RECIP [--seed S] --out FILE\n"
      "  any of the above + --stream: write a shuffled timestamped edge\n"
      "  stream (one \"u v t\" per line; shuffle seeded by --seed)\n"
      "proxies: WKV ASC GNU EU SAD WND CT WST LOAN WIT WGO WBS FLK LJ WKP "
      "TW\n");
}

/// The generated graph's edges in a seeded-shuffle arrival order with
/// timestamps 0, 1, 2, ... — the canonical replay workload.
std::vector<tdb::TimedEdge> ToStream(const tdb::CsrGraph& g, uint64_t seed) {
  std::vector<tdb::TimedEdge> stream;
  stream.reserve(g.num_edges());
  for (tdb::VertexId u = 0; u < g.num_vertices(); ++u) {
    for (const tdb::VertexId v : g.OutNeighbors(u)) {
      stream.push_back(tdb::TimedEdge{u, v, 0});
    }
  }
  tdb::Rng rng(seed);
  for (size_t i = stream.size(); i > 1; --i) {
    std::swap(stream[i - 1], stream[rng.NextBounded(i)]);
  }
  for (size_t i = 0; i < stream.size(); ++i) {
    stream[i].timestamp = i;
  }
  return stream;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tdb;
  std::string out_path;
  std::string proxy;
  bool stream = false;
  bool binary = false;
  bool use_er = false;
  bool use_pl = false;
  double scale = 1.0;
  uint64_t seed = 1;
  VertexId n = 0;
  EdgeId m = 0;
  double theta = 0.7;
  double recip = 0.2;
  // A malformed numeric value is a usage error, never a silent 0.
  const auto bad_value = [](const std::string& flag, const char* v) {
    std::fprintf(stderr, "invalid %s value: %s\n", flag.c_str(), v);
    return 2;
  };

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--proxy") {
      const char* v = next();
      if (v == nullptr) break;
      proxy = v;
    } else if (arg == "--out") {
      const char* v = next();
      if (v == nullptr) break;
      out_path = v;
    } else if (arg == "--scale") {
      const char* v = next();
      if (v == nullptr) break;
      if (!ParseFiniteDouble(v, &scale)) return bad_value(arg, v);
    } else if (arg == "--seed") {
      const char* v = next();
      if (v == nullptr) break;
      if (!ParseInteger(v, &seed)) return bad_value(arg, v);
    } else if (arg == "--binary") {
      binary = true;
    } else if (arg == "--stream") {
      stream = true;
    } else if (arg == "--er" && i + 2 < argc) {
      use_er = true;
      if (!ParseInteger(argv[++i], &n)) return bad_value(arg, argv[i]);
      if (!ParseInteger(argv[++i], &m)) return bad_value(arg, argv[i]);
    } else if (arg == "--powerlaw" && i + 4 < argc) {
      use_pl = true;
      if (!ParseInteger(argv[++i], &n)) return bad_value(arg, argv[i]);
      if (!ParseInteger(argv[++i], &m)) return bad_value(arg, argv[i]);
      if (!ParseFiniteDouble(argv[++i], &theta)) {
        return bad_value(arg, argv[i]);
      }
      if (!ParseFiniteDouble(argv[++i], &recip)) {
        return bad_value(arg, argv[i]);
      }
    } else {
      PrintUsage();
      return 2;
    }
  }
  if (out_path.empty() || (proxy.empty() && !use_er && !use_pl)) {
    PrintUsage();
    return 2;
  }

  CsrGraph g;
  if (!proxy.empty()) {
    const bench::DatasetSpec* spec = bench::FindDataset(proxy);
    if (spec == nullptr) {
      std::fprintf(stderr, "unknown proxy %s\n", proxy.c_str());
      return 2;
    }
    g = bench::BuildProxy(*spec, scale);
  } else if (use_er) {
    g = GenerateErdosRenyi(n, m, seed);
  } else {
    PowerLawParams params;
    params.n = n;
    params.m = m;
    params.theta = theta;
    params.reciprocity = recip;
    params.seed = seed;
    g = GeneratePowerLaw(params);
  }

  std::fprintf(stderr, "generated: %s\n",
               ComputeStats(g).ToString().c_str());
  Status st;
  if (stream) {
    st = SaveEdgeStreamText(ToStream(g, seed), out_path);
  } else {
    st = binary ? SaveBinary(g, out_path) : SaveEdgeListText(g, out_path);
  }
  if (!st.ok()) {
    std::fprintf(stderr, "write failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "wrote %s\n", out_path.c_str());
  return 0;
}
