#include "core/top_down.h"

#include <algorithm>
#include <numeric>
#include <optional>

#include "graph/compressed_csr.h"
#include "graph/scc.h"
#include "search/bfs_filter.h"
#include "search/cycle_finder.h"
#include "search/path_search.h"
#include "util/rng.h"

namespace tdb {

template <typename GraphT>
std::vector<VertexId> MakeCandidateOrder(const GraphT& graph,
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

template std::vector<VertexId> MakeCandidateOrder<CsrGraph>(
    const CsrGraph&, const CoverOptions&);
template std::vector<VertexId> MakeCandidateOrder<CompressedCsr>(
    const CompressedCsr&, const CoverOptions&);

namespace {

/// The candidate sweep shared by the whole-graph and in-place entry
/// points: processes `order`, discharging candidates into `kept`. A
/// non-null `scc_mask` discharges vertices on no qualifying SCC without a
/// search. Engines are built per variant, so a plain-DFS solve does not
/// pay for block/BFS scratch. Returns TimedOut on budget expiry.
Status SweepTopDown(const CsrGraph& graph, const CycleConstraint& constraint,
                    TopDownVariant variant, std::span<const VertexId> order,
                    const uint8_t* scc_mask, uint8_t* kept, CoverStats* stats,
                    SearchContext* context, Deadline* deadline) {
  std::optional<CycleFinder> plain;
  std::optional<BlockSearch> blocks;
  std::optional<BfsFilter> filter;
  if (variant == TopDownVariant::kPlain) {
    plain.emplace(graph, context);
  } else {
    blocks.emplace(graph, context);
  }
  if (variant == TopDownVariant::kBlocksFilter) filter.emplace(graph, context);

  for (VertexId v : order) {
    // A vertex on no directed cycle at all can never be necessary; the
    // optional SCC mask catches everything off-cycle.
    if (scc_mask != nullptr && !scc_mask[v]) {
      kept[v] = 1;
      ++stats->scc_filtered;
      continue;
    }
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
        plain.has_value()
            ? plain->FindCycleThrough(v, constraint, kept, nullptr, deadline)
            : blocks->FindCycleThrough(v, constraint, kept, nullptr,
                                       deadline);
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

CoverResult SolveTopDownOrdered(const CsrGraph& graph,
                                const CoverOptions& options,
                                TopDownVariant variant,
                                const std::vector<VertexId>& order,
                                SearchContext* context, Deadline* deadline) {
  CoverResult result;
  // kept[v] == 1 once v has been discharged from the cover: v and its
  // edges belong to the growing subgraph G0.
  std::vector<uint8_t> kept(graph.num_vertices(), 0);
  std::vector<uint8_t> scc_mask;
  if (options.scc_prefilter) {
    scc_mask = SccAtLeastMask(
        graph, options.include_two_cycles ? VertexId{2} : VertexId{3});
  }
  result.status = SweepTopDown(
      graph, options.Constraint(graph.num_vertices()), variant, order,
      options.scc_prefilter ? scc_mask.data() : nullptr, kept.data(),
      &result.stats, context, deadline);
  if (!result.status.ok()) return result;
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    if (!kept[v]) result.cover.push_back(v);
  }
  return result;
}

CoverResult SolveTopDownInPlace(const CsrGraph& graph,
                                std::span<const VertexId> members,
                                const CoverOptions& options,
                                TopDownVariant variant,
                                const std::vector<VertexId>& order,
                                SearchContext* context, Deadline* deadline) {
  CoverResult result;
  // kept[g] == 1 once global vertex g has been discharged into G0. Only
  // members are candidates, so non-members stay 0 forever and the mask
  // doubles as the component restriction.
  std::vector<uint8_t> kept(graph.num_vertices(), 0);
  // Constraint of the *component*: identical to what a solve on the
  // materialized subgraph would use (matters for `unconstrained`, whose
  // hop budget is the vertex count).
  result.status = SweepTopDown(
      graph, options.Constraint(static_cast<VertexId>(members.size())),
      variant, order, /*scc_mask=*/nullptr, kept.data(), &result.stats,
      context, deadline);
  if (!result.status.ok()) return result;
  for (VertexId g : members) {
    if (!kept[g]) result.cover.push_back(g);
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
  const std::vector<VertexId> order = MakeCandidateOrder(graph, options);
  result = SolveTopDownOrdered(graph, options, variant, order, &context,
                               &deadline);
  // Populated on every path, including timeouts (the partial counters are
  // exactly what a budget post-mortem needs).
  result.stats.expansions = context.stats.expansions;
  result.stats.block_prunes = context.stats.block_prunes;
  result.stats.elapsed_seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace tdb
