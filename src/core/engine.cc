#include "core/engine.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/bottom_up.h"
#include "core/darc.h"
#include "core/probe_executor.h"
#include "core/top_down.h"
#include "graph/compressed_csr.h"
#include "graph/scc.h"
#include "graph/subgraph.h"
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

/// DARC-DV builds a line graph per component, which needs a materialized
/// CSR and has a strictly sequential augment/prune chain — everything
/// else can solve in place through a SubgraphView with mask-restricted
/// searches and, above the intra threshold, parallel candidate probing.
bool SupportsInPlaceSolve(CoverAlgorithm algo) {
  return algo != CoverAlgorithm::kDarcDv;
}

/// One component solve on a materialized subgraph. `order` is required
/// for the top-down family and ignored otherwise (BUR and DARC process by
/// id / edge id, which the local-id mapping already preserves).
CoverResult SolveOnSubgraph(const CsrGraph& graph, CoverAlgorithm algo,
                            const CoverOptions& options,
                            const std::vector<VertexId>* order,
                            SearchContext* context, Deadline* deadline) {
  switch (algo) {
    case CoverAlgorithm::kBur:
      return SolveBottomUpWithContext(graph, options, /*minimal=*/false,
                                      context, deadline);
    case CoverAlgorithm::kBurPlus:
      return SolveBottomUpWithContext(graph, options, /*minimal=*/true,
                                      context, deadline);
    case CoverAlgorithm::kTdb:
      return SolveTopDownOrdered(graph, options, TopDownVariant::kPlain,
                                 *order, context, deadline);
    case CoverAlgorithm::kTdbPlus:
      return SolveTopDownOrdered(graph, options, TopDownVariant::kBlocks,
                                 *order, context, deadline);
    case CoverAlgorithm::kTdbPlusPlus:
      return SolveTopDownOrdered(graph, options,
                                 TopDownVariant::kBlocksFilter, *order,
                                 context, deadline);
    case CoverAlgorithm::kDarcDv:
      return SolveDarcDvWithContext(graph, options, context, deadline);
  }
  CoverResult result;
  result.status = Status::InvalidArgument("unknown algorithm");
  return result;
}

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
template <typename GraphT>
std::vector<VertexId> MakeRank(const GraphT& graph,
                               const CoverOptions& options) {
  std::vector<VertexId> rank(graph.num_vertices());
  const std::vector<VertexId> order = MakeCandidateOrder(graph, options);
  for (size_t i = 0; i < order.size(); ++i) {
    rank[order[i]] = static_cast<VertexId>(i);
  }
  return rank;
}

/// Processing order of an in-place component, in global ids.
std::vector<VertexId> GlobalOrderOf(std::span<const VertexId> members,
                                    const std::vector<VertexId>& rank) {
  std::vector<VertexId> order(members.begin(), members.end());
  std::sort(order.begin(), order.end(),
            [&](VertexId a, VertexId b) { return rank[a] < rank[b]; });
  return order;
}

/// Processing order of a materialized component, in dense local ids
/// (member lists are sorted, so local ids ascend with global ids).
std::vector<VertexId> LocalOrderOf(std::span<const VertexId> members,
                                   const std::vector<VertexId>& rank) {
  std::vector<VertexId> order(members.size());
  for (size_t i = 0; i < members.size(); ++i) {
    order[i] = static_cast<VertexId>(i);
  }
  std::sort(order.begin(), order.end(), [&](VertexId a, VertexId b) {
    return rank[members[a]] < rank[members[b]];
  });
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
    result->stats.searches += r.stats.searches;
    result->stats.cycles_found += r.stats.cycles_found;
    result->stats.bfs_filtered += r.stats.bfs_filtered;
    result->stats.scc_filtered += r.stats.scc_filtered;
    result->stats.prune_removed += r.stats.prune_removed;
    result->stats.intra_probes += r.stats.intra_probes;
    result->stats.intra_restarts += r.stats.intra_restarts;
    result->stats.components_timed_out += r.stats.components_timed_out;
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

/// Everything both execution paths share. Templated over the storage
/// backend: the raw backend additionally routes big components through
/// the in-place SubgraphView path, the compressed backend materializes
/// every component (see engine.h).
template <typename GraphT>
struct EngineRun {
  EngineRun(const GraphT& g, CoverAlgorithm a, const CoverOptions& o)
      : graph(g), algorithm(a), options(o) {}

  const GraphT& graph;
  CoverAlgorithm algorithm;
  const CoverOptions& options;
  CoverOptions component_options;  // scc_prefilter disabled
  std::vector<VertexId> rank;      // empty unless top-down
  Deadline master;
  int requested = 1;
  VertexId min_scc = 3;
};

/// In-place solve of one component through a SubgraphView, with the
/// borrowed probe executor (sequential when its pool is null). Raw
/// backend only — the compressed engine materializes instead.
CoverResult SolveInPlace(const EngineRun<CsrGraph>& run,
                         std::span<const VertexId> members,
                         ProbeExecutor& executor, Deadline* deadline) {
  const SubgraphView view(run.graph, members);
  if (IsTopDown(run.algorithm)) {
    return SolveTopDownOnView(view, run.component_options,
                              VariantOf(run.algorithm),
                              GlobalOrderOf(members, run.rank), executor,
                              deadline);
  }
  return SolveBottomUpOnView(view, run.component_options,
                             run.algorithm == CoverAlgorithm::kBurPlus,
                             executor, deadline);
}

/// Materialized solve of one component; the cover comes back in global
/// ids.
template <typename GraphT>
CoverResult SolveMaterialized(const EngineRun<GraphT>& run,
                              std::span<const VertexId> members,
                              SearchContext* context,
                              SubgraphExtractorT<GraphT>* extractor,
                              Deadline* deadline) {
  InducedSubgraph sub = extractor->Extract(members);
  std::vector<VertexId> order;
  if (IsTopDown(run.algorithm)) order = LocalOrderOf(members, run.rank);
  CoverResult r =
      SolveOnSubgraph(sub.graph, run.algorithm, run.component_options,
                      &order, context, deadline);
  for (VertexId& v : r.cover) v = sub.to_global[v];
  return r;
}

/// Barrier path: condense fully, then solve. Used when the pipeline
/// cannot run — a single thread gains nothing from overlap, and the
/// work-budget split needs every component's edge mass upfront to
/// compute the shares.
template <typename GraphT>
CoverResult BarrierSolve(const EngineRun<GraphT>& run, double* scc_seconds,
                         uint64_t* scc_components) {
  // The in-place SubgraphView route is raw-only: on the compressed
  // backend every component materializes (see engine.h).
  constexpr bool kInPlaceCapable = std::is_same_v<GraphT, CsrGraph>;
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

  // Routing: components at or above the intra threshold solve *in place*
  // on the parent graph through a SubgraphView (no edge copy; searches
  // are restricted by the kept/active masks) and, with more than one
  // thread, with intra-component parallel candidate probing. The long
  // tail still materializes compact per-component subgraphs.
  std::vector<uint8_t> in_place(solvable.size(), 0);
  for (size_t s = 0; s < solvable.size(); ++s) {
    if (kInPlaceCapable && SupportsInPlaceSolve(run.algorithm) &&
        scc.component_size[solvable[s]] >=
            run.options.min_intra_parallel_size) {
      in_place[s] = 1;
    }
  }

  std::vector<TaggedResult> slots(solvable.size());
  for (size_t s = 0; s < solvable.size(); ++s) {
    slots[s].min_member = scc.VerticesOf(solvable[s]).front();
  }

  // Split-budget fallback: a component that exhausted its share keeps its
  // full vertex set in the cover (trivially feasible there) and the slot
  // reports ok, so the merged result is a usable partial cover.
  auto fallback_cover = [&](size_t slot, CoverResult* r) {
    const auto members = scc.VerticesOf(solvable[slot]);
    r->cover.assign(members.begin(), members.end());
    r->stats.components_timed_out = 1;
    r->status = Status::OK();
  };

  auto slot_deadline = [&](size_t slot) {
    return split_budget ? Deadline::AfterSeconds(budget_share[slot])
                        : run.master;  // private copy; shared expiry
  };

  auto solve_slot = [&](size_t slot, SearchContext* context,
                        SubgraphExtractorT<GraphT>* extractor) {
    Deadline deadline = slot_deadline(slot);
    if (deadline.ExpiredNow()) {
      slots[slot].result.status =
          Status::TimedOut("engine: budget exhausted before component");
      if (split_budget) fallback_cover(slot, &slots[slot].result);
      return;
    }
    CoverResult r =
        SolveMaterialized(run, scc.VerticesOf(solvable[slot]), context,
                          extractor, &deadline);
    if (split_budget && r.status.IsTimedOut()) {
      fallback_cover(slot, &r);  // member list is already global ids
    }
    slots[slot].result = std::move(r);
  };

  auto merge_context = [&](const SearchContext& context) {
    result.stats.expansions += context.stats.expansions;
    result.stats.block_prunes += context.stats.block_prunes;
  };

  // Split the slots: in-place components run first, biggest first, each
  // using the whole pool internally; the materialized tail then runs
  // under the across-component scheduler.
  std::vector<size_t> big_desc;
  std::vector<size_t> rest;
  for (size_t s = 0; s < solvable.size(); ++s) {
    (in_place[s] ? big_desc : rest).push_back(s);
  }
  auto size_desc = [&](std::vector<size_t>* v) {
    std::stable_sort(v->begin(), v->end(), [&](size_t a, size_t b) {
      return scc.component_size[solvable[a]] >
             scc.component_size[solvable[b]];
    });
  };
  size_desc(&big_desc);
  size_desc(&rest);

  // ------------------------------------------------ in-place components
  if constexpr (kInPlaceCapable) if (!big_desc.empty()) {
    std::optional<ThreadPool> pool;
    std::vector<SearchContext> worker_contexts;
    SearchContext main_context;
    ProbeExecutor executor;
    executor.main_context = &main_context;
    if (run.requested > 1) {
      // All `requested` workers probe while this thread commits; the two
      // phases alternate, so live compute threads stay <= requested.
      pool.emplace(run.requested);
      worker_contexts.resize(run.requested);
      executor.pool = &*pool;
      executor.worker_contexts = worker_contexts;
    }
    for (size_t slot : big_desc) {
      Deadline deadline = slot_deadline(slot);
      if (deadline.ExpiredNow()) {
        slots[slot].result.status =
            Status::TimedOut("engine: budget exhausted before component");
        if (split_budget) fallback_cover(slot, &slots[slot].result);
        continue;
      }
      CoverResult r = SolveInPlace(run, scc.VerticesOf(solvable[slot]),
                                   executor, &deadline);
      if (split_budget && r.status.IsTimedOut()) fallback_cover(slot, &r);
      slots[slot].result = std::move(r);  // cover already in global ids
    }
    merge_context(main_context);
    for (const SearchContext& context : worker_contexts) {
      merge_context(context);
    }
  }

  // --------------------------------------------- materialized components
  // Schedule big components first so the pool's long poles start early;
  // the tail of small components runs inline on this thread meanwhile.
  size_t num_pooled = 0;
  if (run.requested > 1) {
    while (num_pooled < rest.size() &&
           scc.component_size[solvable[rest[num_pooled]]] >=
               run.options.min_component_parallel_size) {
      ++num_pooled;
    }
  }

  // Pool when there is any component to offload AND other work to overlap
  // it with (the one-giant-SCC-plus-tail shape overlaps the giant on a
  // worker with the tail inline; a single solvable component runs inline).
  if (num_pooled > 0 && rest.size() > 1) {
    // The submitting thread solves the inline tail concurrently, so it
    // counts against the requested parallelism: total live compute
    // threads stay == requested.
    const bool has_inline_tail = num_pooled < rest.size();
    const int workers = std::max<int>(
        1, static_cast<int>(std::min<size_t>(run.requested, num_pooled)) -
               (has_inline_tail ? 1 : 0));
    std::vector<SearchContext> contexts(workers);
    std::vector<SubgraphExtractorT<GraphT>> extractors;
    extractors.reserve(workers);
    for (int w = 0; w < workers; ++w) extractors.emplace_back(run.graph);
    {
      ThreadPool pool(workers);
      for (size_t i = 0; i < num_pooled; ++i) {
        const size_t slot = rest[i];
        pool.Submit([&, slot](int w) {
          solve_slot(slot, &contexts[w], &extractors[w]);
        });
      }
      SearchContext inline_context;
      SubgraphExtractorT<GraphT> inline_extractor(run.graph);
      for (size_t i = num_pooled; i < rest.size(); ++i) {
        solve_slot(rest[i], &inline_context, &inline_extractor);
      }
      pool.Wait();
      merge_context(inline_context);
    }
    for (const SearchContext& context : contexts) merge_context(context);
  } else if (!rest.empty()) {
    SearchContext context;
    SubgraphExtractorT<GraphT> extractor(run.graph);
    for (size_t i = 0; i < rest.size(); ++i) {
      solve_slot(rest[i], &context, &extractor);
    }
    merge_context(context);
  }

  MergeTagged(&slots, &result);
  return result;
}

/// Pipeline path: condensation streams finalized components into the
/// solve while it is still decomposing the rest. Three actors —
///
///   * a condenser thread runs CondenseScc with the engine's sink;
///     finalized components are dispatched from the sink: too-small ones
///     are discharged, big ones (>= min_intra_parallel_size, in-place
///     capable) are queued for the calling thread, the rest are
///     submitted to the solver pool as materialized solves;
///   * the calling thread drains the big-component queue, solving each
///     in place with the intra-component probe executor — so the giant
///     SCC starts solving as soon as Tarjan closes it, while the rest of
///     the graph is still being decomposed;
///   * `requested` solver-pool workers chew the materialized tail.
///
/// The condenser thread, the probe pool and the solver pool coexist, so
/// thread oversubscription is transiently possible; condensation and
/// probing alternate with solving in practice, and correctness never
/// depends on the overlap. Covers are bit-identical to the barrier path:
/// per-component solves are unchanged and the merge orders components
/// canonically.
template <typename GraphT>
CoverResult PipelineSolve(const EngineRun<GraphT>& run, double* scc_seconds,
                          uint64_t* scc_components) {
  // Raw-only in-place route, as in BarrierSolve: on the compressed
  // backend the sink sends every solvable component to the materialized
  // tail, and the calling thread just waits for condensation.
  constexpr bool kInPlaceCapable = std::is_same_v<GraphT, CsrGraph>;
  CoverResult result;

  std::mutex queue_mu;
  std::condition_variable queue_cv;
  std::deque<std::vector<VertexId>> big_queue;
  bool condense_done = false;
  uint64_t scc_filtered = 0;  // only the condenser thread touches it

  // Materialized tail: one context per solver worker; extractors (O(n)
  // scratch each) materialize lazily on the worker that first needs one,
  // and the pool itself is created on the first tail component — a
  // one-giant-SCC graph spawns neither. Likewise the probe pool below
  // only spawns on the first in-place component, so a solve only pays
  // for the threads and scratch its component mix actually uses. Live
  // compute threads can still transiently exceed `requested` while
  // condensation overlaps solving; that overlap is the pipeline's point,
  // and the phases alternate in practice.
  std::vector<SearchContext> tail_contexts(run.requested);
  std::vector<std::unique_ptr<SubgraphExtractorT<GraphT>>> tail_extractors(
      run.requested);
  std::mutex results_mu;
  std::vector<TaggedResult> tagged;
  std::optional<ThreadPool> tail_pool;

  // One pool task per component batch. Worker indices are stable per
  // pool thread, so the lazy extractor slot is touched by one thread.
  auto solve_tail_batch = [&](std::vector<std::vector<VertexId>> batch,
                              int w) {
    TDB_TRACE_SPAN("engine.solve_tail_batch");
    if (tail_extractors[w] == nullptr) {
      tail_extractors[w] =
          std::make_unique<SubgraphExtractorT<GraphT>>(run.graph);
    }
    std::vector<TaggedResult> results;
    results.reserve(batch.size());
    for (const std::vector<VertexId>& m : batch) {
      TaggedResult t;
      t.min_member = m.front();
      Deadline deadline = run.master;
      if (deadline.ExpiredNow()) {
        t.result.status =
            Status::TimedOut("engine: budget exhausted before component");
      } else {
        t.result = SolveMaterialized(run, m, &tail_contexts[w],
                                     tail_extractors[w].get(), &deadline);
      }
      results.push_back(std::move(t));
    }
    std::lock_guard<std::mutex> lock(results_mu);
    for (TaggedResult& t : results) tagged.push_back(std::move(t));
  };

  // Components below min_component_parallel_size batch up before being
  // submitted, amortizing per-task overhead over the long tail of tiny
  // SCCs — the same job the knob does for the barrier path's inline
  // tail. Bigger components dispatch immediately as their own task.
  constexpr size_t kSmallBatch = 64;
  std::vector<std::vector<VertexId>> small_batch;

  auto submit_batch = [&](std::vector<std::vector<VertexId>> batch) {
    if (!tail_pool.has_value()) tail_pool.emplace(run.requested);
    tail_pool->Submit([&, b = std::move(batch)](int w) mutable {
      solve_tail_batch(std::move(b), w);
    });
  };

  ComponentSink sink = [&](std::span<const VertexId> members) {
    if (static_cast<VertexId>(members.size()) < run.min_scc) {
      scc_filtered += members.size();
      return;
    }
    if constexpr (kInPlaceCapable) {
      if (SupportsInPlaceSolve(run.algorithm) &&
          static_cast<VertexId>(members.size()) >=
              run.options.min_intra_parallel_size) {
        {
          std::lock_guard<std::mutex> lock(queue_mu);
          big_queue.emplace_back(members.begin(), members.end());
        }
        queue_cv.notify_one();
        return;
      }
    }
    // Sink calls all come from the condenser thread, so the batching
    // state and the lazy pool emplace cannot race; Submit is thread-safe.
    if (static_cast<VertexId>(members.size()) <
        run.options.min_component_parallel_size) {
      small_batch.emplace_back(members.begin(), members.end());
      if (small_batch.size() >= kSmallBatch) {
        submit_batch(std::exchange(small_batch, {}));
      }
      return;
    }
    std::vector<std::vector<VertexId>> single;
    single.emplace_back(members.begin(), members.end());
    submit_batch(std::move(single));
  };

  std::atomic<bool> scc_timed_out{false};
  std::thread condenser([&] {
    // Count-only condensation: the components all arrive through the
    // sink, so the canonical SccResult arrays would be built and thrown
    // away — and their O(n) finalization would delay condense_done.
    SccOptions scc_options;
    scc_options.canonical_result = false;
    // Private Deadline copy: shared expiry instant, thread-local
    // amortized check state.
    Deadline condense_deadline = run.master;
    scc_options.deadline = &condense_deadline;
    SccResult scc;
    {
      TDB_TRACE_SPAN("engine.condense");
      Timer condense_timer;
      scc = CondenseScc(run.graph, scc_options, sink);
      *scc_seconds = condense_timer.ElapsedSeconds();
    }
    if (scc.timed_out) scc_timed_out.store(true, std::memory_order_relaxed);
    if (!small_batch.empty()) submit_batch(std::exchange(small_batch, {}));
    {
      std::lock_guard<std::mutex> lock(queue_mu);
      *scc_components = scc.num_components;
      condense_done = true;
    }
    queue_cv.notify_all();
  });

  // Calling thread: in-place solves of the big components, with the
  // intra-component probe executor (requested > 1 always holds here).
  // The probe pool spawns on the first big component only.
  std::optional<ThreadPool> probe_pool;
  std::vector<SearchContext> probe_contexts(run.requested);
  SearchContext main_context;
  ProbeExecutor executor;
  executor.main_context = &main_context;
  executor.worker_contexts = probe_contexts;

  std::vector<TaggedResult> in_place_results;
  if constexpr (kInPlaceCapable) {
    for (;;) {
      std::vector<VertexId> members;
      {
        std::unique_lock<std::mutex> lock(queue_mu);
        queue_cv.wait(lock,
                      [&] { return !big_queue.empty() || condense_done; });
        if (big_queue.empty()) break;
        members = std::move(big_queue.front());
        big_queue.pop_front();
      }
      if (!probe_pool.has_value()) {
        probe_pool.emplace(run.requested);
        executor.pool = &*probe_pool;
      }
      TaggedResult t;
      t.min_member = members.front();
      Deadline deadline = run.master;
      if (deadline.ExpiredNow()) {
        t.result.status =
            Status::TimedOut("engine: budget exhausted before component");
      } else {
        TDB_TRACE_SPAN("engine.solve_in_place");
        t.result = SolveInPlace(run, members, executor, &deadline);
      }
      in_place_results.push_back(std::move(t));
    }
  } else {
    // Nothing routes to the big queue on this backend; just wait for the
    // condenser to drain into the materialized tail.
    std::unique_lock<std::mutex> lock(queue_mu);
    queue_cv.wait(lock, [&] { return condense_done; });
  }

  condenser.join();
  if (tail_pool.has_value()) tail_pool->Wait();

  result.stats.scc_filtered += scc_filtered;
  result.stats.expansions += main_context.stats.expansions;
  result.stats.block_prunes += main_context.stats.block_prunes;
  for (const SearchContext& context : probe_contexts) {
    result.stats.expansions += context.stats.expansions;
    result.stats.block_prunes += context.stats.block_prunes;
  }
  for (const SearchContext& context : tail_contexts) {
    result.stats.expansions += context.stats.expansions;
    result.stats.block_prunes += context.stats.block_prunes;
  }
  for (TaggedResult& t : in_place_results) tagged.push_back(std::move(t));
  MergeTagged(&tagged, &result);
  if (scc_timed_out.load(std::memory_order_relaxed)) {
    // The decomposition is incomplete: whatever components did solve
    // cannot add up to a feasible cover, so the run reports the timeout
    // like the sequential solvers do.
    result.status = Status::TimedOut("engine: condensation timed out");
    result.cover.clear();
  }
  return result;
}

/// Backend-generic body of SolveCycleCoverPartitioned.
template <typename GraphT>
CoverResult SolveCycleCoverPartitionedT(const GraphT& graph,
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

  EngineRun<GraphT> run(graph, algorithm, options);
  run.requested = options.num_threads == 0 ? ThreadPool::HardwareThreads()
                                           : options.num_threads;
  // With the work-budget split every component carries a private deadline
  // (computed in the barrier path); the shared master clock applies
  // otherwise.
  const bool split_budget =
      options.split_budget_by_work && options.time_limit_seconds > 0;
  run.master = options.time_limit_seconds > 0 && !split_budget
                   ? Deadline::AfterSeconds(options.time_limit_seconds)
                   : Deadline();
  run.min_scc = options.include_two_cycles ? 2 : 3;
  // Per-component options: the engine already did the SCC discharge, and
  // an extracted component is one SCC, so the per-solve prefilter would be
  // an all-pass recompute.
  run.component_options = options;
  run.component_options.scc_prefilter = false;
  if (IsTopDown(algorithm)) run.rank = MakeRank(graph, options);

  double scc_seconds = 0.0;
  uint64_t scc_components = 0;
  // The pipeline needs spare threads to overlap condensation with
  // solving, and the budget split needs the full component list before
  // any solve (shares are proportional to total edge mass).
  CoverResult solved =
      run.requested > 1 && !split_budget
          ? PipelineSolve(run, &scc_seconds, &scc_components)
          : BarrierSolve(run, &scc_seconds, &scc_components);
  result.status = std::move(solved.status);
  result.cover = std::move(solved.cover);
  result.stats = solved.stats;
  result.stats.scc_seconds = scc_seconds;
  result.stats.scc_components = scc_components;
  result.stats.elapsed_seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace

CoverResult SolveCycleCoverPartitioned(const CsrGraph& graph,
                                       CoverAlgorithm algorithm,
                                       const CoverOptions& options) {
  return SolveCycleCoverPartitionedT(graph, algorithm, options);
}

CoverResult SolveCycleCoverPartitioned(const CompressedCsr& graph,
                                       CoverAlgorithm algorithm,
                                       const CoverOptions& options) {
  return SolveCycleCoverPartitionedT(graph, algorithm, options);
}

}  // namespace tdb
