#include "service/admission_index.h"

#include <algorithm>
#include <bit>
#include <numeric>

#include "util/timer.h"
#include "util/trace.h"

namespace tdb {
namespace {

/// One direction of the uncovered subgraph U as plain arrays: x's
/// neighbors are adj[off[x], off[x + 1]). Built once per Build call and
/// dropped with it, so every BFS step is an array read — no overlay
/// delta lookup and no covered-edge hash probe.
struct FlatAdjacency {
  std::vector<EdgeId> off;
  std::vector<VertexId> adj;
};

/// Transposes `out` by one counting-sort pass: the in-CSR of the same
/// edge set, each in-list in ascending source order.
FlatAdjacency Transpose(const FlatAdjacency& out) {
  const size_t n = out.off.size() - 1;
  FlatAdjacency in;
  in.off.assign(n + 1, 0);
  for (const VertexId w : out.adj) ++in.off[w + 1];
  std::partial_sum(in.off.begin(), in.off.end(), in.off.begin());
  in.adj.resize(out.adj.size());
  // off[w] walks from w's start to its end (= w + 1's start) while
  // filling; shifting the array right by one restores the starts.
  for (size_t x = 0; x < n; ++x) {
    for (EdgeId e = out.off[x]; e < out.off[x + 1]; ++e) {
      in.adj[in.off[out.adj[e]]++] = static_cast<VertexId>(x);
    }
  }
  std::copy_backward(in.off.begin(), in.off.end() - 1, in.off.end());
  in.off[0] = 0;
  return in;
}

/// Level-synchronous BFS from up to 64 sources at once: bit i of a
/// vertex's seen/frontier/next masks tracks sources[i], so one pass over
/// the adjacency advances every source's level together. A vertex first
/// reached from sources[i] at depth d gets rows[x * stride + i] = d, for
/// d <= max_hops — exactly the depths a separate BFS per source reports,
/// since each bit propagates independently along the same levels.
void MultiSourceLevels(const FlatAdjacency& g,
                       std::span<const VertexId> sources, uint32_t max_hops,
                       size_t stride, uint8_t* rows) {
  const size_t n = g.off.size() - 1;
  std::vector<uint64_t> seen(n, 0);
  std::vector<uint64_t> frontier(n, 0);
  std::vector<uint64_t> next(n, 0);
  std::vector<VertexId> active;
  std::vector<VertexId> touched;
  for (size_t i = 0; i < sources.size(); ++i) {
    const VertexId s = sources[i];
    if (frontier[s] == 0) active.push_back(s);
    seen[s] |= uint64_t{1} << i;
    frontier[s] |= uint64_t{1} << i;
    rows[s * stride + i] = 0;
  }
  for (uint32_t depth = 1; depth <= max_hops && !active.empty(); ++depth) {
    touched.clear();
    for (const VertexId x : active) {
      const uint64_t bits = frontier[x];
      frontier[x] = 0;
      for (EdgeId e = g.off[x]; e < g.off[x + 1]; ++e) {
        const VertexId w = g.adj[e];
        const uint64_t fresh = bits & ~seen[w];
        if (fresh == 0) continue;
        if (next[w] == 0) touched.push_back(w);
        next[w] |= fresh;
      }
    }
    // Every touched vertex gained at least one bit: it is exactly the
    // next level's frontier.
    for (const VertexId w : touched) {
      const uint64_t fresh = next[w];
      next[w] = 0;
      seen[w] |= fresh;
      frontier[w] = fresh;
      uint8_t* row = rows + w * stride;
      for (uint64_t b = fresh; b != 0; b &= b - 1) {
        row[std::countr_zero(b)] = static_cast<uint8_t>(depth);
      }
    }
    std::swap(active, touched);
  }
}

}  // namespace

std::shared_ptr<const AdmissionIndex> AdmissionIndex::Build(
    const OverlayGraph& graph, const TransversalState& cover,
    const CoverOptions& options, int num_landmarks, ThreadPool* pool) {
  // k - 1 must sit strictly below the byte-packed distance cap, or the
  // "> max_path_ means no path" comparison loses its meaning.
  if (options.k >= 254) return nullptr;
  TDB_TRACE_SPAN("admission_index.build");
  Timer timer;
  std::shared_ptr<AdmissionIndex> index(new AdmissionIndex());
  const VertexId n = graph.num_vertices();
  index->max_path_ = options.k - 1;
  index->min_path_ = (options.include_two_cycles ? 2u : 3u) - 1;
  index->cap_ = std::min<uint32_t>(2 * options.k, 254);
  index->has_out_.assign(n, 0);
  index->has_in_.assign(n, 0);
  index->slot_.assign(n, kNoSlot);

  // One sweep over the overlay classifies every edge as covered or not
  // and writes U's out-CSR. A base-covered source covers all its
  // out-edges, so it is skipped whole; S is consulted only when it holds
  // anything.
  FlatAdjacency out;
  out.off.assign(static_cast<size_t>(n) + 1, 0);
  const bool check_s = !cover.covered.empty();
  for (VertexId x = 0; x < n; ++x) {
    if (!cover.VertexCovered(x)) {
      graph.ForEachOut(x, [&](VertexId w, EdgeId e) {
        if (!check_s || cover.covered.count(e) == 0) out.adj.push_back(w);
        return true;
      });
    }
    out.off[x + 1] = out.adj.size();
  }
  const FlatAdjacency in = Transpose(out);

  // Uncovered degree drives both the O(1) endpoint rules and the
  // landmark ranking (hubs on many uncovered paths separate many pairs).
  std::vector<EdgeId> udeg(n, 0);
  for (VertexId x = 0; x < n; ++x) {
    const EdgeId out_deg = out.off[x + 1] - out.off[x];
    const EdgeId in_deg = in.off[x + 1] - in.off[x];
    index->has_out_[x] = out_deg > 0 ? 1 : 0;
    index->has_in_[x] = in_deg > 0 ? 1 : 0;
    udeg[x] = out_deg + in_deg;
  }

  const size_t want =
      std::min<size_t>(std::max(num_landmarks, 0), static_cast<size_t>(n));
  if (want > 0) {
    std::vector<VertexId> order(n);
    std::iota(order.begin(), order.end(), VertexId{0});
    std::partial_sort(order.begin(), order.begin() + want, order.end(),
                      [&](VertexId a, VertexId b) {
                        return udeg[a] != udeg[b] ? udeg[a] > udeg[b]
                                                  : a < b;
                      });
    for (size_t i = 0; i < want && udeg[order[i]] > 0; ++i) {
      index->landmarks_.push_back(order[i]);
    }
  }
  const size_t num_hubs = index->landmarks_.size();
  for (size_t i = 0; i < num_hubs; ++i) {
    index->slot_[index->landmarks_[i]] = static_cast<uint32_t>(i);
  }

  const uint8_t far = static_cast<uint8_t>(index->cap_);
  index->to_hub_.assign(static_cast<size_t>(n) * num_hubs, far);
  index->from_hub_.assign(static_cast<size_t>(n) * num_hubs, far);
  const uint32_t depth = index->cap_ - 1;
  // Task 2c runs landmark chunk c (landmarks [64c, 64c + 64)) forward
  // over U's out-CSR into from_hub_, task 2c + 1 backward over the
  // in-CSR into to_hub_. Tasks write disjoint bytes, so the filled arrays
  // are identical at every pool size.
  const size_t num_chunks = (num_hubs + 63) / 64;
  const auto build_one = [&](size_t task) {
    const size_t first = (task / 2) * 64;
    const bool forward = (task % 2) == 0;
    const std::span<const VertexId> hubs(
        index->landmarks_.data() + first,
        std::min<size_t>(64, num_hubs - first));
    MultiSourceLevels(forward ? out : in, hubs, depth, num_hubs,
                      (forward ? index->from_hub_ : index->to_hub_).data() +
                          first);
  };
  if (pool != nullptr && num_chunks > 0) {
    pool->ParallelFor(2 * num_chunks,
                      [&](size_t task, int) { build_one(task); });
  } else {
    for (size_t task = 0; task < 2 * num_chunks; ++task) build_one(task);
  }
  index->build_seconds_ = timer.ElapsedSeconds();
  return index;
}

AdmissionIndex::Probe AdmissionIndex::Query(VertexId v, VertexId u) const {
  // A qualifying path must leave v and enter u on uncovered edges.
  if (has_out_[v] == 0 || has_in_[u] == 0) return Probe::kNoPath;
  const auto decide = [&](uint32_t d) {
    // d is the exact uncovered-subgraph distance when < cap_, and ">=
    // cap_" (still > max_path_) otherwise: the shortest uncovered walk
    // of d hops is a simple path, so d inside the band proves the cycle
    // and d above it disproves every shorter path too.
    if (d > max_path_) return Probe::kNoPath;
    if (d >= min_path_) return Probe::kWouldClose;
    return Probe::kUnknown;
  };
  const size_t num_hubs = landmarks_.size();
  if (num_hubs == 0) return Probe::kUnknown;
  if (slot_[v] != kNoSlot) {
    return decide(from_hub_[static_cast<size_t>(u) * num_hubs + slot_[v]]);
  }
  if (slot_[u] != kNoSlot) {
    return decide(to_hub_[static_cast<size_t>(v) * num_hubs + slot_[u]]);
  }
  const uint8_t* tv = &to_hub_[static_cast<size_t>(v) * num_hubs];
  const uint8_t* tu = &to_hub_[static_cast<size_t>(u) * num_hubs];
  const uint8_t* fv = &from_hub_[static_cast<size_t>(v) * num_hubs];
  const uint8_t* fu = &from_hub_[static_cast<size_t>(u) * num_hubs];
  // Branch-free reduction over the four distance rows. With values
  // saturated at cap_, each bound is one saturating byte op:
  //   * lower bound dist(v->u) >= dist(v->h) - dist(u->h): when
  //     dist(u->h) is clamped the subtraction saturates to 0 (no
  //     claim); when exact, a clamped dist(v->h) only weakens the
  //     difference — both directions stay sound with no exactness test;
  //   * upper bound dist(v->u) <= dist(v->h) + dist(h->u): a clamped
  //     leg pushes the sum past max_path_, disabling the claim.
  uint8_t lb = 0;
  uint8_t ub = 0xff;
  // This exact shape (saturating subtract via min, saturating add via a
  // 255-clamped unsigned sum) is what GCC pattern-matches to
  // psubusb/paddusb/pmaxub/pminub — keep it branch-free.
  for (size_t i = 0; i < num_hubs; ++i) {
    const uint8_t via_t = tv[i] - std::min(tv[i], tu[i]);
    const uint8_t via_f = fu[i] - std::min(fu[i], fv[i]);
    const uint8_t relay = static_cast<uint8_t>(
        std::min(255u, static_cast<unsigned>(tv[i]) + fu[i]));
    lb = std::max(lb, std::max(via_t, via_f));
    ub = std::min(ub, relay);
  }
  if (lb > max_path_) return Probe::kNoPath;
  // The relay walk caps the shortest path from above; the lower bound
  // (and v != u, so dist >= 1) lifts it into the band from below.
  if (ub <= max_path_ && std::max<uint32_t>(lb, 1) >= min_path_) {
    return Probe::kWouldClose;
  }
  return Probe::kUnknown;
}

}  // namespace tdb
