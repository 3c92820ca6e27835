// Reproduces the paper's Section VII in one sweep over the proxy registry
// (bench/datasets.h):
//
//   Table II     dataset statistics, paper next to proxy;
//   Figs. 6 + 7  runtime and cover size of BUR+, DARC-DV and TDB++ for
//                k = 3..7 on the 12 small proxies;
//   Figs. 8 + 9  BUR vs BUR+ (minimal pruning) on WKV and WGO;
//   Fig. 10      TDB vs TDB+ vs TDB++ on WKV and WGO;
//   Table III    k = 5 on all 16 proxies, TDB++ alone on the 4 large ones;
//   Table IV     TDB++ with and without 2-cycles at k = 5;
//   and, beyond the paper, the disjoint-cycle packing lower bound, TDB++
//   as the WGO proxy grows, and the top-down candidate order.
//
// Every solve goes through one memo keyed by (dataset, scale, k,
// algorithm, 2-cycles, order), so a cell that several tables share is
// solved once per run. The run exits 1 when a claim that the paper states
// as exact fails on some cell:
//
//   * TDB, TDB+ and TDB++ return different covers;
//   * |BUR+| != |BUR| - prune_removed;
//   * the packing lower bound exceeds a completed cover of the same proxy
//     at the same or a larger k;
//   * with TDB_BENCH_VERIFY=1, a cover misses a qualifying cycle.
//
// Timing shapes (TDB++ fastest, BUR+ degrading as k grows) are printed,
// not asserted: on these proxies the three top-down variants tie at the
// registry's scales, and plain TDB beats TDB++ on larger WGO proxies.
//
//   TDB_BENCH_SCALE    proxy scale factor (default 1.0)
//   TDB_BENCH_TIMEOUT  per-solve budget in seconds (default 20); a solve
//                      over budget reports the paper's INF
//   TDB_BENCH_VERIFY   1 checks every cover's feasibility
//
// `--json <path>` writes a params row (scale, budget), a host row and one
// row per proxy, packing and solve, each with `seconds`, for
// tools/check_bench_regression.py. A row's `status` (ok / INF / failed)
// is part of its identity.
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench_runner.h"
#include "core/lower_bound.h"
#include "core/solver.h"
#include "core/verifier.h"
#include "datasets.h"
#include "graph/graph_stats.h"
#include "table_printer.h"
#include "util/timer.h"

namespace {

using namespace tdb;
using namespace tdb::bench;

constexpr double kDefaultBudget = 20.0;
/// The hop bound of Tables III and IV and of the beyond-paper sections.
constexpr uint32_t kTableHop = 5;

/// One solve's identity: the memo key.
struct CellKey {
  std::string dataset;
  double scale = 1.0;
  uint32_t k = kTableHop;
  CoverAlgorithm algo = CoverAlgorithm::kTdbPlusPlus;  // set by Solve
  bool two_cycles = false;
  VertexOrder order = VertexOrder::kByDegreeAsc;

  auto operator<=>(const CellKey&) const = default;
};

enum class CellStatus { kOk, kInf, kFailed };

const char* StatusName(CellStatus status) {
  switch (status) {
    case CellStatus::kOk:
      return "ok";
    case CellStatus::kInf:
      return "INF";
    case CellStatus::kFailed:
      return "failed";
  }
  return "?";
}

const char* OrderName(VertexOrder order) {
  switch (order) {
    case VertexOrder::kByDegreeAsc:
      return "deg-asc";
    case VertexOrder::kById:
      return "id";
    case VertexOrder::kByDegreeDesc:
      return "deg-desc";
    case VertexOrder::kRandom:
      return "random";
  }
  return "?";
}

/// One solve's outcome. Only an ok cell carries a cover.
struct Cell {
  CellStatus status = CellStatus::kOk;
  double seconds = 0.0;
  std::vector<VertexId> cover;
  /// Vertices minimal pruning removed (BUR+ only).
  uint64_t pruned = 0;

  bool ok() const { return status == CellStatus::kOk; }
};

/// A greedy vertex-disjoint cycle packing: a lower bound on any cover.
struct Packing {
  std::string dataset;
  double scale = 1.0;
  CellStatus status = CellStatus::kOk;  // INF: truncated by the budget
  uint64_t lower_bound = 0;
  double seconds = 0.0;
};

struct Proxy {
  CsrGraph graph;
  double gen_seconds = 0.0;
};

std::string Label(const CellKey& key) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "%s x%g k=%u %s%s order=%s",
                key.dataset.c_str(), key.scale, key.k,
                AlgorithmName(key.algo), key.two_cycles ? " +2-cycles" : "",
                OrderName(key.order));
  return buf;
}

/// Proxies, solves and packings of one run, each computed once, plus the
/// failed claims.
class Harness {
 public:
  Harness(double budget, bool verify) : budget_(budget), verify_(verify) {}

  const Proxy& GetProxy(const std::string& dataset, double scale) {
    auto [it, inserted] = proxies_.try_emplace({dataset, scale});
    if (inserted) {
      Timer timer;
      it->second.graph = BuildProxy(*FindDataset(dataset), scale);
      it->second.gen_seconds = timer.ElapsedSeconds();
    }
    return it->second;
  }

  /// The memoized solve of `key` with `algo` as its algorithm.
  const Cell& Solve(CellKey key, CoverAlgorithm algo) {
    key.algo = algo;
    auto [it, inserted] = cells_.try_emplace(key);
    Cell& cell = it->second;
    if (!inserted) return cell;
    const CsrGraph& graph = GetProxy(key.dataset, key.scale).graph;
    CoverOptions opts;
    opts.k = key.k;
    opts.include_two_cycles = key.two_cycles;
    opts.order = key.order;
    opts.time_limit_seconds = budget_;
    CoverResult r = SolveCycleCover(graph, key.algo, opts);
    cell.seconds = r.stats.elapsed_seconds;
    if (r.status.IsTimedOut()) {
      cell.status = CellStatus::kInf;
    } else if (!r.status.ok()) {
      cell.status = CellStatus::kFailed;  // e.g. the line-graph arc budget
    } else {
      cell.cover = std::move(r.cover);
      cell.pruned = r.stats.prune_removed;
      if (verify_) {
        const VerifyReport rep =
            VerifyCover(graph, cell.cover, opts, /*check_minimality=*/false);
        if (!rep.feasible) Fail(Label(key) + ": " + rep.ToString());
      }
    }
    std::fflush(stdout);
    return cell;
  }

  Packing Pack(const std::string& dataset, double scale) {
    CoverOptions opts;
    opts.k = kTableHop;
    opts.time_limit_seconds = budget_;
    Timer timer;
    const CyclePacking packing =
        PackDisjointCycles(GetProxy(dataset, scale).graph, opts);
    Packing& p = packings_.emplace_back();
    p.dataset = dataset;
    p.scale = scale;
    p.seconds = timer.ElapsedSeconds();
    p.lower_bound = packing.LowerBound();
    if (packing.timed_out) p.status = CellStatus::kInf;
    return p;
  }

  /// Records every failed claim over the cells and packings so far.
  void CheckClaims() {
    for (const auto& [key, cell] : cells_) {
      if (!cell.ok()) continue;
      if (key.algo == CoverAlgorithm::kTdb ||
          key.algo == CoverAlgorithm::kTdbPlus) {
        const Cell* ref = Find(key, CoverAlgorithm::kTdbPlusPlus);
        if (ref != nullptr && ref->ok() && ref->cover != cell.cover) {
          Fail(Label(key) + ": cover differs from TDB++ (" +
               std::to_string(cell.cover.size()) + " vs " +
               std::to_string(ref->cover.size()) + " vertices)");
        }
      }
      if (key.algo == CoverAlgorithm::kBurPlus) {
        const Cell* bur = Find(key, CoverAlgorithm::kBur);
        if (bur != nullptr && bur->ok() &&
            cell.cover.size() + cell.pruned != bur->cover.size()) {
          Fail(Label(key) + ": |BUR+| " + std::to_string(cell.cover.size()) +
               " != |BUR| " + std::to_string(bur->cover.size()) +
               " - pruned " + std::to_string(cell.pruned));
        }
      }
    }
    for (const Packing& p : packings_) {
      for (const auto& [key, cell] : cells_) {
        if (cell.ok() && key.dataset == p.dataset && key.scale == p.scale &&
            key.k >= kTableHop && cell.cover.size() < p.lower_bound) {
          Fail(Label(key) + ": cover " + std::to_string(cell.cover.size()) +
               " below the packing lower bound " +
               std::to_string(p.lower_bound));
        }
      }
    }
  }

  void WriteRows(JsonSink* json) const {
    for (const auto& [id, proxy] : proxies_) {
      json->BeginRow();
      json->Str("kind", "proxy");
      json->Str("dataset", id.first);
      json->Num("scale", id.second);
      json->Num("vertices", static_cast<uint64_t>(proxy.graph.num_vertices()));
      json->Num("edges", static_cast<uint64_t>(proxy.graph.num_edges()));
      json->Num("seconds", proxy.gen_seconds);
    }
    for (const Packing& p : packings_) {
      json->BeginRow();
      json->Str("kind", "packing");
      json->Str("dataset", p.dataset);
      json->Num("scale", p.scale);
      json->Num("k", static_cast<uint64_t>(kTableHop));
      json->Str("status", StatusName(p.status));
      // A truncated packing's size depends on where the budget cut it.
      json->Num("lower_bound",
                p.status == CellStatus::kOk ? p.lower_bound : uint64_t{0});
      json->Num("seconds", p.seconds);
    }
    for (const auto& [key, cell] : cells_) {
      json->BeginRow();
      json->Str("kind", "solve");
      json->Str("dataset", key.dataset);
      json->Num("scale", key.scale);
      json->Num("k", static_cast<uint64_t>(key.k));
      json->Str("algo", AlgorithmName(key.algo));
      json->Num("two_cycles", uint64_t{key.two_cycles});
      json->Str("order", OrderName(key.order));
      json->Str("status", StatusName(cell.status));
      json->Num("seconds", cell.seconds);
      json->Num("cover", static_cast<uint64_t>(cell.cover.size()));
    }
  }

  size_t num_solves() const { return cells_.size(); }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  const Cell* Find(CellKey key, CoverAlgorithm algo) const {
    key.algo = algo;
    auto it = cells_.find(key);
    return it == cells_.end() ? nullptr : &it->second;
  }

  void Fail(std::string message) { failures_.push_back(std::move(message)); }

  const double budget_;
  const bool verify_;
  std::map<std::pair<std::string, double>, Proxy> proxies_;
  std::map<CellKey, Cell> cells_;
  std::vector<Packing> packings_;
  std::vector<std::string> failures_;
};

std::string Seconds(const Cell& c) {
  if (c.status == CellStatus::kFailed) return "-";
  return FormatSeconds(c.seconds, c.status == CellStatus::kInf);
}

std::string Size(const Cell& c) { return FormatCount(c.cover.size(), !c.ok()); }

std::string Ratio(double num, double den, bool valid) {
  if (!valid || den == 0) return "-";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.2f", num / den);
  return buf;
}

void Section(const char* title) { std::printf("\n== %s ==\n", title); }

void Subsection(const char* name) { std::printf("\n-- %s --\n", name); }

void TableII(Harness& h, double scale) {
  Section("Table II: dataset statistics");
  TablePrinter table({"Name", "Dataset", "paper |V|", "paper |E|",
                      "paper davg", "proxy |V|", "proxy |E|", "proxy davg",
                      "reciprocity", "gen s"});
  for (const DatasetSpec& spec : AllDatasets()) {
    const Proxy& p = h.GetProxy(spec.name, scale);
    const GraphStats s = ComputeStats(p.graph);
    char davg_paper[32], davg_proxy[32], recip[32];
    std::snprintf(davg_paper, sizeof davg_paper, "%.1f", spec.paper_davg);
    std::snprintf(davg_proxy, sizeof davg_proxy, "%.1f", s.avg_degree);
    std::snprintf(recip, sizeof recip, "%.2f", s.reciprocity);
    table.AddRow({spec.name, spec.full_name,
                  FormatMagnitude(spec.paper_vertices),
                  FormatMagnitude(spec.paper_edges), davg_paper,
                  FormatMagnitude(static_cast<double>(s.num_vertices)),
                  FormatMagnitude(static_cast<double>(s.num_edges)),
                  davg_proxy, recip, FormatSeconds(p.gen_seconds, false)});
  }
  table.Print();
}

void Figures6And7(Harness& h, double scale) {
  Section("Figures 6 + 7: runtime and cover size vs k");
  for (const DatasetSpec& spec : SmallDatasets()) {
    Subsection(spec.name);
    TablePrinter table({"k", "BUR+ s", "DARC-DV s", "TDB++ s", "BUR+ |S|",
                        "DARC-DV |S|", "TDB++ |S|"});
    for (uint32_t k = 3; k <= 7; ++k) {
      const CellKey key{.dataset = spec.name, .scale = scale, .k = k};
      const Cell& burp = h.Solve(key, CoverAlgorithm::kBurPlus);
      const Cell& darc = h.Solve(key, CoverAlgorithm::kDarcDv);
      const Cell& pp = h.Solve(key, CoverAlgorithm::kTdbPlusPlus);
      table.AddRow({std::to_string(k), Seconds(burp), Seconds(darc),
                    Seconds(pp), Size(burp), Size(darc), Size(pp)});
    }
    table.Print();
  }
}

void Figures8And9(Harness& h, double scale) {
  Section("Figures 8 + 9: BUR vs BUR+ (minimal pruning)");
  for (const char* name : {"WKV", "WGO"}) {
    Subsection(name);
    TablePrinter table(
        {"k", "BUR s", "BUR+ s", "BUR |S|", "BUR+ |S|", "pruned"});
    for (uint32_t k = 3; k <= 7; ++k) {
      const CellKey key{.dataset = name, .scale = scale, .k = k};
      const Cell& bur = h.Solve(key, CoverAlgorithm::kBur);
      const Cell& burp = h.Solve(key, CoverAlgorithm::kBurPlus);
      table.AddRow({std::to_string(k), Seconds(bur), Seconds(burp),
                    Size(bur), Size(burp),
                    FormatCount(burp.pruned, !burp.ok())});
    }
    table.Print();
  }
}

void Figure10(Harness& h, double scale) {
  Section("Figure 10: TDB vs TDB+ vs TDB++");
  for (const char* name : {"WKV", "WGO"}) {
    Subsection(name);
    TablePrinter table({"k", "TDB s", "TDB+ s", "TDB++ s", "|S|"});
    for (uint32_t k = 3; k <= 7; ++k) {
      const CellKey key{.dataset = name, .scale = scale, .k = k};
      const Cell& tdb = h.Solve(key, CoverAlgorithm::kTdb);
      const Cell& plus = h.Solve(key, CoverAlgorithm::kTdbPlus);
      const Cell& pp = h.Solve(key, CoverAlgorithm::kTdbPlusPlus);
      table.AddRow({std::to_string(k), Seconds(tdb), Seconds(plus),
                    Seconds(pp), Size(pp)});
    }
    table.Print();
  }
}

void TableIII(Harness& h, double scale) {
  Section("Table III: cover size and runtime, k = 5");
  TablePrinter table({"Name", "DARC-DV |S|", "DARC-DV s", "BUR+ |S|",
                      "BUR+ s", "TDB++ |S|", "TDB++ s"});
  // As in the paper, only TDB++ attempts the four large graphs.
  Cell not_run;
  not_run.status = CellStatus::kFailed;
  for (const DatasetSpec& spec : AllDatasets()) {
    const CellKey key{.dataset = spec.name, .scale = scale};
    const Cell& darc =
        spec.large ? not_run : h.Solve(key, CoverAlgorithm::kDarcDv);
    const Cell& burp =
        spec.large ? not_run : h.Solve(key, CoverAlgorithm::kBurPlus);
    const Cell& pp = h.Solve(key, CoverAlgorithm::kTdbPlusPlus);
    table.AddRow({spec.name, Size(darc), Seconds(darc), Size(burp),
                  Seconds(burp), Size(pp), Seconds(pp)});
  }
  table.Print();
}

void TableIV(Harness& h, double scale) {
  Section("Table IV: TDB++ cover size with and without 2-cycles, k = 5");
  TablePrinter table({"Name", "No 2-cycle", "With 2-cycle", "Ratio"});
  for (const DatasetSpec& spec : SmallDatasets()) {
    CellKey key{.dataset = spec.name, .scale = scale};
    const Cell& without = h.Solve(key, CoverAlgorithm::kTdbPlusPlus);
    key.two_cycles = true;
    const Cell& with = h.Solve(key, CoverAlgorithm::kTdbPlusPlus);
    table.AddRow({spec.name, Size(without), Size(with),
                  Ratio(static_cast<double>(with.cover.size()),
                        static_cast<double>(without.cover.size()),
                        without.ok() && with.ok())});
  }
  table.Print();
}

void Quality(Harness& h, double scale) {
  Section("Quality: cover size vs disjoint-cycle lower bound, k = 5");
  TablePrinter table({"Name", "lower bound", "TDB++", "ratio", "BUR+",
                      "ratio", "packing s"});
  for (const DatasetSpec& spec : SmallDatasets()) {
    const Packing p = h.Pack(spec.name, scale);
    const CellKey key{.dataset = spec.name, .scale = scale};
    const Cell& pp = h.Solve(key, CoverAlgorithm::kTdbPlusPlus);
    const Cell& burp = h.Solve(key, CoverAlgorithm::kBurPlus);
    const double lb = static_cast<double>(p.lower_bound);
    table.AddRow(
        {spec.name, FormatCount(p.lower_bound), Size(pp),
         Ratio(static_cast<double>(pp.cover.size()), lb, pp.ok()),
         Size(burp),
         Ratio(static_cast<double>(burp.cover.size()), lb, burp.ok()),
         FormatSeconds(p.seconds, p.status == CellStatus::kInf)});
  }
  table.Print();
}

void Scaling(Harness& h, double scale) {
  Section("Scaling: TDB++ vs proxy size, WGO-shaped, k = 5");
  TablePrinter table(
      {"scale", "|V|", "|E|", "TDB++ s", "|S|", "s per 1k vertices"});
  for (double factor : {0.25, 0.5, 1.0, 2.0, 4.0}) {
    const CellKey key{.dataset = "WGO", .scale = factor * scale};
    const CsrGraph& g = h.GetProxy(key.dataset, key.scale).graph;
    const Cell& pp = h.Solve(key, CoverAlgorithm::kTdbPlusPlus);
    char scale_text[32], rate[32];
    std::snprintf(scale_text, sizeof scale_text, "%.3g", key.scale);
    std::snprintf(rate, sizeof rate, "%.4f",
                  pp.seconds / (g.num_vertices() / 1000.0));
    table.AddRow({scale_text,
                  FormatMagnitude(static_cast<double>(g.num_vertices())),
                  FormatMagnitude(static_cast<double>(g.num_edges())),
                  Seconds(pp), Size(pp), pp.ok() ? rate : "-"});
  }
  table.Print();
}

void OrderAblation(Harness& h, double scale) {
  Section("Ablation: top-down candidate order (TDB++, k = 5)");
  for (const char* name : {"WKV", "ASC", "WGO", "SAD"}) {
    Subsection(name);
    TablePrinter table({"order", "|S|", "s"});
    for (VertexOrder order :
         {VertexOrder::kById, VertexOrder::kByDegreeAsc,
          VertexOrder::kByDegreeDesc, VertexOrder::kRandom}) {
      const CellKey key{.dataset = name, .scale = scale, .order = order};
      const Cell& c = h.Solve(key, CoverAlgorithm::kTdbPlusPlus);
      table.AddRow({OrderName(order), Size(c), Seconds(c)});
    }
    table.Print();
  }
}

}  // namespace

int main(int argc, char** argv) {
  const double scale = BenchScale();
  const double budget = EnvDouble("TDB_BENCH_TIMEOUT", kDefaultBudget);
  const char* verify = std::getenv("TDB_BENCH_VERIFY");
  std::printf(
      "== Paper reproduction (proxy scale %.3g, per-solve budget %.0f s, "
      "host: %d hardware threads, %s build) ==\n",
      scale, budget, ThreadPool::HardwareThreads(), JsonSink::BuildType());

  Timer wall;
  Harness h(budget, verify != nullptr && verify[0] == '1');
  TableII(h, scale);
  Figures6And7(h, scale);
  Figures8And9(h, scale);
  Figure10(h, scale);
  TableIII(h, scale);
  TableIV(h, scale);
  Quality(h, scale);
  Scaling(h, scale);
  OrderAblation(h, scale);
  h.CheckClaims();

  std::printf(
      "\nChecked on every cell: TDB, TDB+ and TDB++ covers identical; "
      "|BUR+| = |BUR| - pruned;\nno completed cover below the packing "
      "lower bound. Reported only: which variant is\nfastest and how BUR+ "
      "runtime grows with k.\n");
  std::printf("%zu solves in %.1f s\n", h.num_solves(),
              wall.ElapsedSeconds());
  for (const std::string& failure : h.failures()) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", failure.c_str());
  }

  JsonSink json("paper");
  json.BeginRow();
  json.Str("row", "params");
  json.Num("scale", scale);
  json.Num("budget", budget);
  json.HostRow();
  h.WriteRows(&json);
  const bool written = json.Write(JsonSink::PathFromArgs(argc, argv));
  return written && h.failures().empty() ? 0 : 1;
}
