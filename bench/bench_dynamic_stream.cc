// Streaming maintenance (beyond the paper's static tables; the setting of
// the DARC baseline's original publication): amortized per-edge cost of
// incremental DARC along a transaction stream vs recomputing from scratch
// at checkpoints. The incremental side is BatchAugment fed one edge per
// batch over an empty-base OverlayGraph, the same AUGMENT/PRUNE code the
// cycle-break service runs on every SubmitEdges.
//
// By default the stream is a seeded shuffle of three dataset proxies.
// With `--stream FILE [--k N]` it instead replays a timestamped stream
// written by `tdb_graphgen --stream` — the exact workload tdb_serve
// replays, so the offline comparator and the serving layer are measured
// on identical input.
//
// --json PATH emits a params row (k, scale), a host row, then one row
// per workload with `seconds` (the incremental total) and `cover` (the
// incremental |S|) for tools/check_bench_regression.py.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <span>
#include <string>

#include "bench_runner.h"
#include "core/batch_augment.h"
#include "core/darc.h"
#include "datasets.h"
#include "graph/graph_io.h"
#include "graph/overlay_graph.h"
#include "table_printer.h"
#include "util/parse_number.h"
#include "util/rng.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  using namespace tdb;
  using namespace tdb::bench;

  const double scale = BenchScale();
  CoverOptions opts;
  opts.k = 4;
  std::string stream_path;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--stream") == 0 && i + 1 < argc) {
      stream_path = argv[++i];
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--k") == 0 && i + 1 < argc) {
      if (!ParseInteger(argv[++i], &opts.k)) {
        std::fprintf(stderr, "invalid --k value: %s\n", argv[i]);
        return 2;
      }
    } else {
      std::fprintf(stderr,
                   "usage: bench_dynamic_stream [--stream FILE] [--k N] "
                   "[--json PATH]\n");
      return 2;
    }
  }
  // BatchAugment trusts its options; k = 0 would make its hop budget
  // wrap around to an unbounded search.
  const Status valid = opts.Validate();
  if (!valid.ok()) {
    std::fprintf(stderr, "%s\n", valid.ToString().c_str());
    return 2;
  }

  std::printf("== Dynamic stream: incremental DARC vs recompute (k = %u) "
              "==\n",
              opts.k);
  TablePrinter table({"Name", "edges", "incr total s", "us/edge",
                      "recompute s", "speedup", "incr |S|", "static |S|"});
  JsonSink json("dynamic_stream");
  json.BeginRow();
  json.Str("row", "params");
  json.Num("k", static_cast<uint64_t>(opts.k));
  json.Num("scale", scale);
  json.HostRow();

  struct Workload {
    std::string name;
    VertexId n;
    std::vector<Edge> stream;
  };
  std::vector<Workload> workloads;
  if (!stream_path.empty()) {
    std::vector<TimedEdge> timed;
    Status st = LoadEdgeStreamText(stream_path, &timed);
    if (!st.ok()) {
      std::fprintf(stderr, "cannot load stream: %s\n",
                   st.ToString().c_str());
      return 1;
    }
    std::stable_sort(timed.begin(), timed.end(),
                     [](const TimedEdge& a, const TimedEdge& b) {
                       return a.timestamp < b.timestamp;
                     });
    Workload w;
    w.name = stream_path;
    w.n = 0;
    for (const TimedEdge& e : timed) {
      w.n = std::max(w.n, std::max(e.src, e.dst) + 1);
      w.stream.push_back(Edge{e.src, e.dst});
    }
    workloads.push_back(std::move(w));
  } else {
    for (const char* name : {"GNU", "EU", "WKV"}) {
      const DatasetSpec* spec = FindDataset(name);
      CsrGraph g = BuildProxy(*spec, scale * 0.5);
      Workload w;
      w.name = name;
      w.n = g.num_vertices();
      for (VertexId u = 0; u < g.num_vertices(); ++u) {
        for (const VertexId v : g.OutNeighbors(u)) {
          w.stream.push_back(Edge{u, v});
        }
      }
      Rng rng(7);
      for (size_t i = w.stream.size(); i > 1; --i) {
        std::swap(w.stream[i - 1], w.stream[rng.NextBounded(i)]);
      }
      workloads.push_back(std::move(w));
    }
  }

  for (const Workload& w : workloads) {
    const std::vector<Edge>& stream = w.stream;
    CsrGraph g = CsrGraph::FromEdges(w.n, stream);

    Timer timer;
    OverlayGraph graph(
        std::make_shared<const CsrGraph>(CsrGraph::FromEdges(w.n, {})));
    TransversalState state;
    SearchContext ctx;
    for (const Edge& e : stream) {
      BatchAugment(&graph, &state, opts, std::span<const Edge>(&e, 1), &ctx);
    }
    const double incr_s = timer.ElapsedSeconds();

    timer.Reset();
    DarcEdgeResult fixed = SolveDarcEdgeCover(g, opts);
    const double static_s = timer.ElapsedSeconds();

    char us[32], speed[32];
    std::snprintf(us, sizeof(us), "%.1f",
                  incr_s * 1e6 / double(stream.size()));
    // Speedup model: recomputing after each arrival costs ~static_s per
    // checkpoint vs one incremental insertion.
    std::snprintf(speed, sizeof(speed), "%.0fx",
                  incr_s > 0 ? static_s / (incr_s / double(stream.size()))
                             : 0.0);
    table.AddRow({w.name, FormatCount(stream.size()),
                  FormatSeconds(incr_s, false), us,
                  FormatSeconds(static_s, false), speed,
                  FormatCount(state.covered.size()),
                  FormatCount(fixed.edge_cover.size())});
    json.BeginRow();
    json.Str("proxy", w.name);
    json.Num("edges", static_cast<uint64_t>(stream.size()));
    json.Num("seconds", incr_s);
    json.Num("cover", static_cast<uint64_t>(state.covered.size()));
    std::fflush(stdout);
  }
  table.Print();
  std::printf(
      "\nReading: one incremental insertion costs microseconds — the\n"
      "speedup column is how much cheaper that is than re-running the\n"
      "static solver after each arrival (the paper's fraud-detection\n"
      "motivation is exactly this streaming regime). The incremental\n"
      "column times the code the service's SubmitEdges runs\n"
      "(BatchAugment), at batch size 1.\n");
  return json.Write(json_path) ? 0 : 1;
}
