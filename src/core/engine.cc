#include "core/engine.h"

#include <algorithm>
#include <numeric>
#include <utility>
#include <vector>

#include "core/bottom_up.h"
#include "core/darc.h"
#include "core/top_down.h"
#include "graph/scc.h"
#include "search/search_context.h"
#include "util/thread_pool.h"
#include "util/timer.h"
#include "util/trace.h"

namespace tdb {

namespace {

bool IsTopDown(CoverAlgorithm algo) {
  return algo == CoverAlgorithm::kTdb || algo == CoverAlgorithm::kTdbPlus ||
         algo == CoverAlgorithm::kTdbPlusPlus;
}

TopDownVariant VariantOf(CoverAlgorithm algo) {
  switch (algo) {
    case CoverAlgorithm::kTdb:
      return TopDownVariant::kPlain;
    case CoverAlgorithm::kTdbPlus:
      return TopDownVariant::kBlocks;
    default:
      return TopDownVariant::kBlocksFilter;
  }
}

bool IsKnownAlgorithm(CoverAlgorithm algo) {
  switch (algo) {
    case CoverAlgorithm::kBur:
    case CoverAlgorithm::kBurPlus:
    case CoverAlgorithm::kTdb:
    case CoverAlgorithm::kTdbPlus:
    case CoverAlgorithm::kTdbPlusPlus:
    case CoverAlgorithm::kDarcDv:
      return true;
  }
  return false;
}

/// With more than one thread, components with at least this many vertices
/// are pool tasks; smaller ones run inline on the submitting thread, which
/// keeps per-task overhead off the long tail of tiny SCCs.
constexpr VertexId kPoolMinSize = 32;

/// One solved component, tagged for the deterministic merge: results are
/// combined in order of their component's minimum member vertex — the
/// canonical component order — regardless of which thread, path or
/// schedule produced them.
struct TaggedResult {
  VertexId min_member = 0;
  CoverResult result;
};

/// rank[v] = position of v in the whole-graph candidate order. A
/// component's processing order is its members sorted by rank, which is
/// exactly the projection of the sequential whole-graph sweep onto the
/// component (rank is a permutation, so the sort has no ties) — the
/// property that keeps per-component covers bit-identical to the classic
/// sequential solvers.
std::vector<VertexId> MakeRank(const CsrGraph& graph,
                               const CoverOptions& options) {
  std::vector<VertexId> rank(graph.num_vertices());
  const std::vector<VertexId> order = MakeCandidateOrder(graph, options);
  for (size_t i = 0; i < order.size(); ++i) {
    rank[order[i]] = static_cast<VertexId>(i);
  }
  return rank;
}

/// Processing order of a component, in global ids.
std::vector<VertexId> GlobalOrderOf(std::span<const VertexId> members,
                                    const std::vector<VertexId>& rank) {
  std::vector<VertexId> order(members.begin(), members.end());
  std::sort(order.begin(), order.end(),
            [&](VertexId a, VertexId b) { return rank[a] < rank[b]; });
  return order;
}

/// Deterministic merge: sorts the tagged results into canonical component
/// order, accumulates stats and covers, and picks the combined status
/// (any TimedOut wins; otherwise the first error in canonical order).
void MergeTagged(std::vector<TaggedResult>* tagged, CoverResult* result) {
  std::sort(tagged->begin(), tagged->end(),
            [](const TaggedResult& a, const TaggedResult& b) {
              return a.min_member < b.min_member;
            });
  for (const TaggedResult& t : *tagged) {
    const CoverResult& r = t.result;
    result->stats.Add(r.stats);
    result->cover.insert(result->cover.end(), r.cover.begin(),
                         r.cover.end());
  }
  for (const TaggedResult& t : *tagged) {
    if (t.result.status.IsTimedOut()) {
      result->status = t.result.status;
      break;
    }
    if (!t.result.status.ok() && result->status.ok()) {
      result->status = t.result.status;
    }
  }
  if (!result->status.ok()) {
    // Mirror the sequential solvers: a failed run carries no cover (a
    // partial merge would not be feasible anyway).
    result->cover.clear();
  } else {
    std::sort(result->cover.begin(), result->cover.end());
  }
}

/// Per-run state shared by every component task.
struct EngineRun {
  EngineRun(const CsrGraph& g, CoverAlgorithm a, const CoverOptions& o)
      : graph(g), algorithm(a), options(o) {}

  const CsrGraph& graph;
  CoverAlgorithm algorithm;
  const CoverOptions& options;
  std::vector<VertexId> rank;  // empty unless top-down
  Deadline master;
  int requested = 1;
  VertexId min_scc = 3;
};

/// One component solve, routed by algorithm. Every algorithm solves in
/// place on the parent graph: the top-down and bottom-up searches are
/// restricted by the context's kept/active masks, and DARC-DV builds its
/// line graph straight from the parent CSR restricted to the members. The
/// cover comes back in global ids.
CoverResult SolveComponent(const EngineRun& run,
                           std::span<const VertexId> members,
                           SearchContext* context, Deadline* deadline) {
  TDB_TRACE_SPAN("engine.solve_in_place");
  if (run.algorithm == CoverAlgorithm::kDarcDv) {
    return SolveDarcDvInPlace(run.graph, members, run.options, context,
                              deadline);
  }
  if (IsTopDown(run.algorithm)) {
    return SolveTopDownInPlace(run.graph, members, run.options,
                               VariantOf(run.algorithm),
                               GlobalOrderOf(members, run.rank),
                               context, deadline);
  }
  return SolveBottomUpInPlace(run.graph, members, run.options,
                              run.algorithm == CoverAlgorithm::kBurPlus,
                              context, deadline);
}

/// Condenses the graph fully, then solves every solvable component as one
/// task: biggest first on a ThreadPool, with the tail below kPoolMinSize
/// inline on the calling thread. Each task picks its route by algorithm.
CoverResult CondenseAndSolve(const EngineRun& run, double* scc_seconds,
                             uint64_t* scc_components) {
  CoverResult result;
  const bool split_budget = run.options.split_budget_by_work &&
                            run.options.time_limit_seconds > 0;
  // Condensation runs under the engine budget too — a timed-out solve
  // must not pay for a full decomposition before it can report. With the
  // split, the whole wall-clock budget bounds condensation (the
  // per-component shares only exist afterwards); the shared master clock
  // applies otherwise.
  Deadline condense_deadline =
      split_budget ? Deadline::AfterSeconds(run.options.time_limit_seconds)
                   : run.master;
  SccOptions scc_options;
  scc_options.deadline = &condense_deadline;
  SccResult scc;
  {
    TDB_TRACE_SPAN("engine.condense");
    Timer condense_timer;
    scc = CondenseScc(run.graph, scc_options);
    *scc_seconds = condense_timer.ElapsedSeconds();
  }
  *scc_components = scc.num_components;
  if (scc.timed_out) {
    if (split_budget) {
      // Same contract as a timed-out component: fall back to the
      // trivially feasible full vertex set so the caller still gets an
      // ok, usable cover.
      result.cover.resize(run.graph.num_vertices());
      std::iota(result.cover.begin(), result.cover.end(), VertexId{0});
      result.stats.components_timed_out = 1;
    } else {
      result.status = Status::TimedOut("engine: condensation timed out");
    }
    return result;
  }

  // Components too small to host a qualifying cycle: every vertex is
  // discharged with zero search work.
  std::vector<VertexId> solvable;  // canonical component ids, ascending
  for (VertexId c = 0; c < scc.num_components; ++c) {
    if (scc.component_size[c] >= run.min_scc) {
      solvable.push_back(c);
    } else {
      result.stats.scc_filtered += scc.component_size[c];
    }
  }
  auto size_of = [&](size_t slot) {
    return scc.component_size[solvable[slot]];
  };

  // Work-budget deadline split: divide the wall-clock budget across the
  // solvable components in proportion to their edge mass (vertices +
  // out-degrees — cross-component edges inflate the proxy a little, which
  // is harmless for a share computation). Each component's deadline
  // starts when its solve starts, so a fast early component cannot starve
  // a later one — the "fair partial cover" the serving layer's compaction
  // needs under timeout.
  std::vector<double> budget_share;
  if (split_budget && !solvable.empty()) {
    budget_share.resize(solvable.size(), 0.0);
    double total_work = 0.0;
    for (size_t s = 0; s < solvable.size(); ++s) {
      double work = 0.0;
      for (VertexId v : scc.VerticesOf(solvable[s])) {
        work += 1.0 + static_cast<double>(run.graph.out_degree(v));
      }
      budget_share[s] = work;
      total_work += work;
    }
    for (double& share : budget_share) {
      share = run.options.time_limit_seconds * share / total_work;
    }
  }

  std::vector<TaggedResult> slots(solvable.size());
  for (size_t s = 0; s < solvable.size(); ++s) {
    slots[s].min_member = scc.VerticesOf(solvable[s]).front();
  }

  // One component task. Split-budget fallback: a component that exhausted
  // its share keeps its full vertex set in the cover (trivially feasible
  // there) and the slot reports ok, so the merged result is a usable
  // partial cover.
  auto solve_slot = [&](size_t slot, SearchContext* context) {
    const std::span<const VertexId> members = scc.VerticesOf(solvable[slot]);
    Deadline deadline = split_budget
                            ? Deadline::AfterSeconds(budget_share[slot])
                            : run.master;  // private copy; shared expiry
    CoverResult r;
    if (deadline.ExpiredNow()) {
      r.status = Status::TimedOut("engine: budget exhausted before component");
    } else {
      r = SolveComponent(run, members, context, &deadline);
    }
    if (split_budget && r.status.IsTimedOut()) {
      r.cover.assign(members.begin(), members.end());
      r.stats.components_timed_out = 1;
      r.status = Status::OK();
    }
    slots[slot].result = std::move(r);  // cover already in global ids
  };

  // Biggest first, so the pool's long poles start early; ties keep the
  // canonical order.
  std::vector<size_t> order(solvable.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return size_of(a) > size_of(b);
  });
  size_t num_pooled = 0;
  if (run.requested > 1) {
    while (num_pooled < order.size() &&
           size_of(order[num_pooled]) >= kPoolMinSize) {
      ++num_pooled;
    }
  }

  SearchContext inline_context;
  std::vector<SearchContext> pool_contexts;
  // Pool only when there is a component to offload AND other work to
  // overlap it with; a single solvable component runs inline.
  if (num_pooled > 0 && order.size() > 1) {
    // The calling thread solves the inline tail concurrently, so it counts
    // against the requested parallelism: live compute threads stay ==
    // requested.
    const bool has_inline_tail = num_pooled < order.size();
    const int workers = std::max<int>(
        1, static_cast<int>(std::min<size_t>(run.requested, num_pooled)) -
               (has_inline_tail ? 1 : 0));
    pool_contexts.resize(workers);
    ThreadPool pool(workers);
    for (size_t i = 0; i < num_pooled; ++i) {
      pool.Submit([&, slot = order[i]](int w) {
        solve_slot(slot, &pool_contexts[w]);
      });
    }
    for (size_t i = num_pooled; i < order.size(); ++i) {
      solve_slot(order[i], &inline_context);
    }
    pool.Wait();
  } else {
    for (size_t slot : order) solve_slot(slot, &inline_context);
  }

  result.stats.Add(inline_context.stats);
  for (const SearchContext& context : pool_contexts) {
    result.stats.Add(context.stats);
  }
  MergeTagged(&slots, &result);
  return result;
}

}  // namespace

CoverResult SolveCycleCoverPartitioned(const CsrGraph& graph,
                                       CoverAlgorithm algorithm,
                                       const CoverOptions& options) {
  TDB_TRACE_SPAN("engine.solve");
  CoverResult result;
  if (!IsKnownAlgorithm(algorithm)) {
    result.status = Status::InvalidArgument("unknown algorithm");
    return result;
  }
  result.status = options.Validate();
  if (!result.status.ok()) return result;

  Timer timer;
  const VertexId n = graph.num_vertices();
  if (n == 0) {
    result.stats.elapsed_seconds = timer.ElapsedSeconds();
    return result;
  }

  EngineRun run(graph, algorithm, options);
  run.requested = options.num_threads == 0 ? ThreadPool::HardwareThreads()
                                           : options.num_threads;
  // With the work-budget split every component carries a private deadline
  // (computed once the components are known); the shared master clock
  // applies otherwise.
  const bool split_budget =
      options.split_budget_by_work && options.time_limit_seconds > 0;
  run.master = options.time_limit_seconds > 0 && !split_budget
                   ? Deadline::AfterSeconds(options.time_limit_seconds)
                   : Deadline();
  run.min_scc = options.include_two_cycles ? 2 : 3;
  if (IsTopDown(algorithm)) run.rank = MakeRank(graph, options);

  double scc_seconds = 0.0;
  uint64_t scc_components = 0;
  CoverResult solved = CondenseAndSolve(run, &scc_seconds, &scc_components);
  result.status = std::move(solved.status);
  result.cover = std::move(solved.cover);
  result.stats = solved.stats;
  result.stats.scc_seconds = scc_seconds;
  result.stats.scc_components = scc_components;
  result.stats.elapsed_seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace tdb
