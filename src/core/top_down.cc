#include "core/top_down.h"

#include <algorithm>
#include <numeric>
#include <optional>

#include "search/bfs_filter.h"
#include "search/path_search.h"
#include "util/rng.h"

namespace tdb {

std::vector<VertexId> MakeCandidateOrder(const CsrGraph& graph,
                                         const CoverOptions& options) {
  std::vector<VertexId> order(graph.num_vertices());
  std::iota(order.begin(), order.end(), 0u);
  switch (options.order) {
    case VertexOrder::kById:
      break;
    case VertexOrder::kByDegreeAsc:
      std::stable_sort(order.begin(), order.end(),
                       [&](VertexId a, VertexId b) {
                         return graph.out_degree(a) + graph.in_degree(a) <
                                graph.out_degree(b) + graph.in_degree(b);
                       });
      break;
    case VertexOrder::kByDegreeDesc:
      std::stable_sort(order.begin(), order.end(),
                       [&](VertexId a, VertexId b) {
                         return graph.out_degree(a) + graph.in_degree(a) >
                                graph.out_degree(b) + graph.in_degree(b);
                       });
      break;
    case VertexOrder::kRandom: {
      Rng rng(options.seed);
      for (VertexId i = graph.num_vertices(); i > 1; --i) {
        std::swap(order[i - 1], order[rng.NextBounded(i)]);
      }
      break;
    }
  }
  return order;
}

namespace {

/// The candidate sweep of SolveTopDownInPlace: processes `order`,
/// discharging candidates into `kept`. The searcher is the variant's one
/// instantiation, so a plain-DFS solve does not pay for block/BFS
/// scratch. Returns TimedOut on budget expiry.
template <bool kBlocks>
Status SweepTopDown(const CsrGraph& graph, const CycleConstraint& constraint,
                    bool filter_first, std::span<const VertexId> order,
                    uint8_t* kept, CoverStats* stats, SearchContext* context,
                    Deadline* deadline) {
  BoundedDfs<kBlocks> dfs(graph, context);
  std::optional<BfsFilter> filter;
  if (filter_first) filter.emplace(graph, context);

  for (VertexId v : order) {
    if (filter.has_value()) {
      const uint32_t walk =
          filter->ShortestClosedWalk(v, constraint.max_hops, kept, deadline);
      if (walk == BfsFilter::kTimedOutWalk) {
        return Status::TimedOut("top-down solve exceeded budget");
      }
      if (walk > constraint.max_hops) {
        // Not even a closed walk within budget: discharge immediately.
        kept[v] = 1;
        ++stats->bfs_filtered;
        continue;
      }
    }
    ++stats->searches;
    const SearchOutcome outcome =
        dfs.FindCycleThrough(v, constraint, kept, nullptr, deadline);
    if (outcome == SearchOutcome::kTimedOut) {
      return Status::TimedOut("top-down solve exceeded budget");
    }
    if (outcome == SearchOutcome::kFound) {
      ++stats->cycles_found;  // v stays in the cover
    } else {
      kept[v] = 1;  // v's edges join G0
    }
  }
  return Status::OK();
}

}  // namespace

CoverResult SolveTopDownInPlace(const CsrGraph& graph,
                                std::span<const VertexId> members,
                                const CoverOptions& options,
                                TopDownVariant variant,
                                const std::vector<VertexId>& order,
                                SearchContext* context, Deadline* deadline) {
  CoverResult result;
  // kept[g] == 1 once global vertex g has been discharged into G0. Only
  // members are candidates, so non-members stay 0 and the mask doubles as
  // the component restriction.
  context->EnsureKeptSize(graph.num_vertices());
  uint8_t* kept = context->kept.data();
  // Constraint of the *component* (matters for `unconstrained`, whose hop
  // budget is the vertex count).
  const CycleConstraint constraint =
      options.Constraint(static_cast<VertexId>(members.size()));
  const bool filter_first = variant == TopDownVariant::kBlocksFilter;
  result.status =
      variant == TopDownVariant::kPlain
          ? SweepTopDown<false>(graph, constraint, filter_first, order, kept,
                                &result.stats, context, deadline)
          : SweepTopDown<true>(graph, constraint, filter_first, order, kept,
                               &result.stats, context, deadline);
  for (VertexId g : members) {
    if (result.status.ok() && !kept[g]) result.cover.push_back(g);
    kept[g] = 0;
  }
  return result;
}

CoverResult SolveTopDown(const CsrGraph& graph, const CoverOptions& options,
                         TopDownVariant variant) {
  CoverResult result;
  result.status = options.Validate();
  if (!result.status.ok()) return result;

  Timer timer;
  Deadline deadline = options.time_limit_seconds > 0
                          ? Deadline::AfterSeconds(options.time_limit_seconds)
                          : Deadline();
  SearchContext context;
  std::vector<VertexId> all(graph.num_vertices());
  std::iota(all.begin(), all.end(), VertexId{0});
  result = SolveTopDownInPlace(graph, all, options, variant,
                               MakeCandidateOrder(graph, options), &context,
                               &deadline);
  // Populated on every path, including timeouts (the partial counters are
  // exactly what a budget post-mortem needs).
  result.stats.Add(context.stats);
  result.stats.elapsed_seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace tdb
