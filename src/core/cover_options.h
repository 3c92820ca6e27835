// Public configuration and result types of the cycle-cover solvers.
#ifndef TDB_CORE_COVER_OPTIONS_H_
#define TDB_CORE_COVER_OPTIONS_H_

#include <string>
#include <vector>

#include "graph/csr_graph.h"
#include "search/search_types.h"
#include "util/status.h"

namespace tdb {

class MetricRegistry;

/// The algorithms evaluated in the paper (Section VII naming).
enum class CoverAlgorithm {
  kBur,         ///< Bottom-up (Algorithm 4), no minimal pruning.
  kBurPlus,     ///< BUR + minimal pruning pass (Algorithm 7).
  kTdb,         ///< Top-down with plain DFS validation.
  kTdbPlus,     ///< Top-down with block-based validation (Algorithm 9).
  kTdbPlusPlus, ///< TDB+ plus the BFS filter (Algorithm 11).
  kDarcDv,      ///< Baseline: DARC on the line graph, mapped to vertices.
};

/// Paper-style short name ("BUR+", "TDB++", "DARC-DV", ...).
const char* AlgorithmName(CoverAlgorithm algo);

/// Inverse of AlgorithmName (case-insensitive). NotFound on unknown names.
Status ParseAlgorithm(const std::string& name, CoverAlgorithm* algo);

/// Processing order of candidate vertices in the top-down solver.
///
/// The paper does not specify an order. Degree-ascending is this library's
/// default: low-degree vertices discharge early (their cycles rarely
/// survive in a small G0), so hubs — which cover many cycles — are the
/// ones kept, yielding covers comparable to BUR+ at lower cost. See the
/// order ablation of bench_paper for the measured effect.
enum class VertexOrder {
  kByDegreeAsc,  ///< Cheapest-degree first (default).
  kById,         ///< Ascending vertex id.
  kByDegreeDesc, ///< Hubs first.
  kRandom,       ///< Seeded shuffle.
};

/// Solver configuration.
struct CoverOptions {
  /// Hop constraint k: qualifying cycles have at most k hops.
  uint32_t k = 5;
  /// Also cover 2-cycles (paper Table IV variant). Default matches the
  /// paper's main setting: cycles of length >= 3 only.
  bool include_two_cycles = false;
  /// Ignore k and cover cycles of every length (paper §VI.C variant).
  bool unconstrained = false;
  /// Candidate order for the top-down solvers.
  VertexOrder order = VertexOrder::kByDegreeAsc;
  /// Wall-clock budget in seconds; <= 0 means unlimited. On expiry the
  /// result carries Status::TimedOut and the partial cover is NOT a
  /// feasible cover (unless split_budget_by_work is set, below).
  double time_limit_seconds = 0.0;
  /// Work-budget deadline split. When false (default), every component of
  /// the partitioned engine polls one shared wall clock and any timeout
  /// voids the whole result. When true and time_limit_seconds > 0, the
  /// budget is instead divided across components in proportion to their
  /// edge mass, each component gets a private deadline for its share, and
  /// a component that exhausts it falls back to its full vertex set —
  /// feasible, just not minimal there. The merged result then stays ok
  /// with stats.components_timed_out counting the fallbacks, so callers
  /// that must always publish a usable cover (the serving layer's
  /// compaction) get a fair partial answer instead of nothing. Covers are
  /// only deterministic while no component times out.
  bool split_budget_by_work = false;
  /// Seed for VertexOrder::kRandom and DARC edge-order shuffling.
  uint64_t seed = 42;
  /// Arc budget for the DARC-DV line graph (ResourceExhausted beyond).
  /// Under the partitioned engine the budget applies per component.
  EdgeId line_graph_max_arcs = EdgeId{1} << 27;
  /// Worker threads for the SCC-partitioned engine: every solve decomposes
  /// the graph into strongly connected components and runs the chosen
  /// algorithm per component, each component one task on a thread pool.
  /// 1 solves the components sequentially on the calling thread; 0 means
  /// one worker per hardware thread. The cover is identical for every
  /// thread count (components are independent).
  int num_threads = 1;

  /// Rejects inconsistent settings (e.g. k < 3 without 2-cycles).
  Status Validate() const;

  /// Search-layer view of these options for a graph of `n` vertices.
  CycleConstraint Constraint(VertexId n) const;
};

/// The CoverStats counters, one row each: X(field, help). Each exports as
/// tdb_cover_<field>_total.
#define TDB_COVER_COUNTERS(X)                                                \
  /* Candidate validations (top-down), FindCycle calls (bottom-up) or */    \
  /* path queries (DARC). */                                                 \
  X(searches, "Candidate validations / cycle searches")                      \
  X(cycles_found, "Qualifying cycles materialized")                          \
  TDB_SEARCH_COUNTERS(X)                                                     \
  X(bfs_filtered, "Candidates discharged by the BFS filter")                 \
  /* Members of components too small to host a qualifying cycle. */         \
  X(scc_filtered, "Vertices discharged by SCC condensation")                 \
  /* BUR+ only. */                                                           \
  X(prune_removed, "Vertices removed by minimal pruning")                    \
  /* split_budget_by_work only: such a component falls back to its full */  \
  /* vertex set. A shared-clock timeout voids the result instead. */        \
  X(components_timed_out, "Components that exhausted their budget share")    \
  X(scc_components, "Components from condensation")

/// The CoverStats wall-clock rows: X(field, help). Each exports as the
/// gauge tdb_cover_<field>.
#define TDB_COVER_SECONDS(X)                                                 \
  X(elapsed_seconds, "Solve wall-clock seconds")                             \
  /* Condensation finishes before any component solve starts, so this */   \
  /* is all on the critical path. */                                         \
  X(scc_seconds, "Wall-clock seconds in SCC condensation")

/// Instrumentation from one solver run.
struct CoverStats {
#define TDB_COVER_FIELD(field, help) uint64_t field = 0;
  TDB_COVER_COUNTERS(TDB_COVER_FIELD)
#undef TDB_COVER_FIELD
#define TDB_COVER_FIELD(field, help) double field = 0.0;
  TDB_COVER_SECONDS(TDB_COVER_FIELD)
#undef TDB_COVER_FIELD
  /// Always 0. The engine no longer validates candidates speculatively
  /// inside a component; the field stays because existing readers of
  /// CoverStats (bench/e2e/bench_e2e.cc) still report it.
  uint64_t intra_probes = 0;
  /// Always 0, for the same reason as intra_probes.
  uint64_t intra_restarts = 0;

  /// Adds the counters of `other` or of a search context. The seconds are
  /// wall-clock spans, which do not sum; the caller times its own run.
  void Add(const CoverStats& other);
  void Add(const SearchStats& search);
};

/// Registers every CoverStats row on a fresh `registry` as an owned
/// instrument holding its value: the counters as tdb_cover_<field>_total,
/// the seconds as gauges tdb_cover_<field>.
void ExportCoverStats(const CoverStats& stats, MetricRegistry* registry);

/// The rows as one "field=value ..." line (seconds to the millisecond).
std::string FormatCoverStats(const CoverStats& stats);

/// A solver run's outcome. `cover` is sorted ascending.
struct CoverResult {
  Status status;
  std::vector<VertexId> cover;
  CoverStats stats;
};

}  // namespace tdb

#endif  // TDB_CORE_COVER_OPTIONS_H_
