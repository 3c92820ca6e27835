// Kernel sweeps against references outside the kernel: both
// instantiations of the bounded DFS (plain, and block-based per
// Algorithm 9) must return exactly the existence answers that cycle
// enumeration (cycles) and a plain recursive search (paths under blocked
// edges) give on randomized graphs, for every start vertex, hop bound, and
// cycle-length window. This is the library's main defense for the block
// technique's correctness (including the depth-1 closure special case).
#include <gtest/gtest.h>

#include <tuple>

#include "graph/generators.h"
#include "search/cycle_enumerator.h"
#include "search/path_search.h"
#include "util/rng.h"

namespace tdb {
namespace {

struct SweepParam {
  uint64_t seed;
  VertexId n;
  EdgeId m;
  double reciprocity;
};

class SearchEquivalenceTest : public ::testing::TestWithParam<SweepParam> {
 protected:
  CsrGraph MakeGraph() const {
    const SweepParam& p = GetParam();
    if (p.reciprocity == 0.0) {
      return GenerateErdosRenyi(p.n, p.m, p.seed);
    }
    PowerLawParams params;
    params.n = p.n;
    params.m = p.m;
    params.reciprocity = p.reciprocity;
    params.seed = p.seed;
    return GeneratePowerLaw(params);
  }
};

/// Runs `check(dfs)` on both instantiations of the kernel.
template <typename Check>
void ForBothKernels(const CsrGraph& g, Check check) {
  PlainDfs plain(g);
  check(plain);
  BlockDfs blocks(g);
  check(blocks);
}

/// Every cycle of at most 6 hops, from the enumerator.
std::vector<std::vector<VertexId>> AllShortCycles(const CsrGraph& g) {
  std::vector<std::vector<VertexId>> cycles;
  const Status st = EnumerateConstrainedCycles(
      g, CycleConstraint{.max_hops = 6, .min_len = 2}, 5'000'000, &cycles);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return cycles;
}

/// Reference for a cycle through v under `active`: some enumerated cycle
/// of a length in [min_len, k] contains v and no other inactive vertex.
bool HasCycleThrough(const std::vector<std::vector<VertexId>>& cycles,
                     VertexId v, uint32_t k, uint32_t min_len,
                     const uint8_t* active) {
  for (const std::vector<VertexId>& cycle : cycles) {
    if (cycle.size() < min_len || cycle.size() > k) continue;
    bool through_v = false;
    bool alive = true;
    for (VertexId u : cycle) {
      if (u == v) {
        through_v = true;
      } else if (active != nullptr && !active[u]) {
        alive = false;
      }
    }
    if (through_v && alive) return true;
  }
  return false;
}

/// Reference for FindPath: plain recursion over the unblocked out-edges of
/// u, a simple path that has taken `hops` hops so far.
bool HasPath(const CsrGraph& g, VertexId u, VertexId t, uint32_t hops,
             uint32_t min_hops, uint32_t max_hops, const uint8_t* blocked,
             std::vector<uint8_t>* on_path) {
  for (EdgeId e = g.OutEdgeBegin(u); e < g.OutEdgeEnd(u); ++e) {
    if (blocked != nullptr && blocked[e]) continue;
    const VertexId w = g.EdgeDst(e);
    if (w == t) {
      if (hops + 1 >= min_hops && hops + 1 <= max_hops) return true;
      continue;
    }
    if ((*on_path)[w] || hops + 2 > max_hops) continue;
    (*on_path)[w] = 1;
    const bool found =
        HasPath(g, w, t, hops + 1, min_hops, max_hops, blocked, on_path);
    (*on_path)[w] = 0;
    if (found) return true;
  }
  return false;
}

SearchOutcome ReferencePath(const CsrGraph& g, VertexId s, VertexId t,
                            uint32_t min_hops, uint32_t max_hops,
                            const uint8_t* blocked) {
  std::vector<uint8_t> on_path(g.num_vertices(), 0);
  on_path[s] = 1;
  return HasPath(g, s, t, 0, min_hops, max_hops, blocked, &on_path)
             ? SearchOutcome::kFound
             : SearchOutcome::kNotFound;
}

TEST_P(SearchEquivalenceTest, CycleExistencePerVertexMatchesEnumeration) {
  CsrGraph g = MakeGraph();
  const std::vector<std::vector<VertexId>> cycles = AllShortCycles(g);
  ForBothKernels(g, [&](auto& dfs) {
    for (uint32_t k = 3; k <= 6; ++k) {
      for (uint32_t min_len : {2u, 3u}) {
        CycleConstraint c{.max_hops = k, .min_len = min_len};
        for (VertexId v = 0; v < g.num_vertices(); ++v) {
          const SearchOutcome expected =
              HasCycleThrough(cycles, v, k, min_len, nullptr)
                  ? SearchOutcome::kFound
                  : SearchOutcome::kNotFound;
          ASSERT_EQ(dfs.FindCycleThrough(v, c, nullptr, nullptr), expected)
              << "v=" << v << " k=" << k << " min_len=" << min_len;
        }
      }
    }
  });
}

TEST_P(SearchEquivalenceTest, CycleExistenceUnderRandomMasks) {
  CsrGraph g = MakeGraph();
  const std::vector<std::vector<VertexId>> cycles = AllShortCycles(g);
  CycleConstraint c{.max_hops = 5, .min_len = 3};
  ForBothKernels(g, [&](auto& dfs) {
    Rng rng(GetParam().seed * 7919 + 13);
    for (int trial = 0; trial < 8; ++trial) {
      std::vector<uint8_t> active(g.num_vertices());
      for (auto& a : active) a = rng.NextBool(0.7) ? 1 : 0;
      for (VertexId v = 0; v < g.num_vertices(); ++v) {
        const SearchOutcome expected =
            HasCycleThrough(cycles, v, 5, 3, active.data())
                ? SearchOutcome::kFound
                : SearchOutcome::kNotFound;
        ASSERT_EQ(dfs.FindCycleThrough(v, c, active.data(), nullptr),
                  expected)
            << "trial=" << trial << " v=" << v;
      }
    }
  });
}

TEST_P(SearchEquivalenceTest, PathExistenceMatchesRecursiveReference) {
  CsrGraph g = MakeGraph();
  ForBothKernels(g, [&](auto& dfs) {
    Rng rng(GetParam().seed * 104729 + 17);
    for (int trial = 0; trial < 60; ++trial) {
      const VertexId s = static_cast<VertexId>(
          rng.NextBounded(g.num_vertices()));
      VertexId t = static_cast<VertexId>(rng.NextBounded(g.num_vertices()));
      if (t == s) t = (t + 1) % g.num_vertices();
      const uint32_t max_hops =
          2 + static_cast<uint32_t>(rng.NextBounded(5));
      const uint32_t min_hops =
          1 + static_cast<uint32_t>(rng.NextBounded(2));
      ASSERT_EQ(
          dfs.FindPath(s, t, min_hops, max_hops, nullptr, nullptr, nullptr),
          ReferencePath(g, s, t, min_hops, max_hops, nullptr))
          << "s=" << s << " t=" << t << " hops=[" << min_hops << ","
          << max_hops << "]";
    }
  });
}

TEST_P(SearchEquivalenceTest, PathExistenceUnderEdgeMasks) {
  CsrGraph g = MakeGraph();
  ForBothKernels(g, [&](auto& dfs) {
    Rng rng(GetParam().seed * 31 + 5);
    for (int trial = 0; trial < 20; ++trial) {
      std::vector<uint8_t> blocked(g.num_edges());
      for (auto& b : blocked) b = rng.NextBool(0.3) ? 1 : 0;
      const VertexId s = static_cast<VertexId>(
          rng.NextBounded(g.num_vertices()));
      VertexId t = static_cast<VertexId>(rng.NextBounded(g.num_vertices()));
      if (t == s) t = (t + 1) % g.num_vertices();
      ASSERT_EQ(dfs.FindPath(s, t, 2, 4, nullptr, blocked.data(), nullptr),
                ReferencePath(g, s, t, 2, 4, blocked.data()))
          << "trial=" << trial;
    }
  });
}

TEST_P(SearchEquivalenceTest, FoundCyclesAreActuallyValid) {
  CsrGraph g = MakeGraph();
  CycleConstraint c{.max_hops = 5, .min_len = 3};
  std::vector<VertexId> cycle;
  ForBothKernels(g, [&](auto& dfs) {
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      if (dfs.FindCycleThrough(v, c, nullptr, &cycle) !=
          SearchOutcome::kFound) {
        continue;
      }
      ASSERT_GE(cycle.size(), 3u);
      ASSERT_LE(cycle.size(), 5u);
      ASSERT_EQ(cycle.front(), v);
      for (size_t i = 0; i < cycle.size(); ++i) {
        ASSERT_TRUE(g.HasEdge(cycle[i], cycle[(i + 1) % cycle.size()]))
            << "broken edge in reported cycle, v=" << v;
        for (size_t j = i + 1; j < cycle.size(); ++j) {
          ASSERT_NE(cycle[i], cycle[j]) << "repeated vertex, v=" << v;
        }
      }
    }
  });
}

TEST_P(SearchEquivalenceTest, PermanentBlockMatchesBoundedOnOutcome) {
  // Unconstrained semantics: permanent blocking with max_hops = n must
  // agree with the bounded engine run at max_hops = n.
  CsrGraph g = MakeGraph();
  BlockDfs a(g);
  BlockDfs b(g);
  CycleConstraint bounded{.max_hops = g.num_vertices(), .min_len = 3};
  CycleConstraint permanent{.max_hops = g.num_vertices(),
                            .min_len = 3,
                            .permanent_block = true};
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    ASSERT_EQ(a.FindCycleThrough(v, permanent, nullptr, nullptr),
              b.FindCycleThrough(v, bounded, nullptr, nullptr))
        << "v=" << v;
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomGraphSweep, SearchEquivalenceTest,
    ::testing::Values(
        SweepParam{1, 30, 90, 0.0}, SweepParam{2, 30, 150, 0.0},
        SweepParam{3, 50, 150, 0.0}, SweepParam{4, 50, 300, 0.0},
        SweepParam{5, 80, 240, 0.0}, SweepParam{6, 40, 200, 0.5},
        SweepParam{7, 60, 240, 0.8}, SweepParam{8, 60, 180, 0.2},
        SweepParam{9, 25, 200, 0.9}, SweepParam{10, 100, 300, 0.0}),
    [](const ::testing::TestParamInfo<SweepParam>& info) {
      return "seed" + std::to_string(info.param.seed) + "_n" +
             std::to_string(info.param.n) + "_m" +
             std::to_string(info.param.m) + "_r" +
             std::to_string(static_cast<int>(info.param.reciprocity * 10));
    });

}  // namespace
}  // namespace tdb
