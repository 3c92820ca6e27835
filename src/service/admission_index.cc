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

/// Repairs one direction of a copied level array after U changed by a
/// few edges. Forward rows hold dist(hub -> x), so a vertex's parents
/// are its in-neighbors and its children its out-neighbors; backward
/// rows hold dist(x -> hub), with the roles swapped. Every row is the
/// unique fixpoint of row(x) = min over parents y of row(y) + 1,
/// saturated at cap, with 0 in x's own hub slot; both phases restore it
/// from a state that is off in one direction only.
class RowRepair {
 public:
  RowRepair(const OverlayGraph& graph, const TransversalState& cover,
            EdgeId prior_edges, std::span<const EdgeId> reentered,
            bool forward, size_t stride, uint8_t cap,
            const std::vector<uint32_t>& slot, uint8_t* rows)
      : graph_(graph),
        cover_(cover),
        check_s_(!cover.covered.empty()),
        prior_edges_(prior_edges),
        reentered_(reentered),
        forward_(forward),
        stride_(stride),
        cap_(cap),
        slot_(slot),
        rows_(rows),
        queued_(graph.num_vertices(), 0),
        fresh_(stride),
        old_(stride) {}

  /// Edges that left U can only raise levels. Runs over the edges in U
  /// both before and after, starting at the vertices that lost a
  /// parent edge: each queued vertex recomputes its row from its
  /// remaining parents, and a raised row re-queues only the children
  /// whose level matched the old one plus one. Levels only rise and stop
  /// at cap, so the queue drains at the new fixpoint.
  void Raise(std::span<const Edge> removed) {
    for (const Edge& e : removed) Enqueue(forward_ ? e.dst : e.src);
    for (size_t head = 0; head < queue_.size(); ++head) {
      const VertexId x = queue_[head];
      queued_[x] = 0;
      std::fill(fresh_.begin(), fresh_.end(), cap_);
      ForEachParent(x, [&](VertexId y, VertexId src, EdgeId e) {
        if (!InBoth(src, e)) return;
        const uint8_t* ry = Row(y);
        for (size_t i = 0; i < stride_; ++i) {
          fresh_[i] = std::min(fresh_[i], static_cast<uint8_t>(ry[i] + 1));
        }
      });
      if (slot_[x] < stride_) fresh_[slot_[x]] = 0;  // x is hub slot_[x]
      uint8_t* rx = Row(x);
      if (std::equal(fresh_.begin(), fresh_.end(), rx)) continue;
      std::copy(rx, rx + stride_, old_.begin());
      std::copy(fresh_.begin(), fresh_.end(), rx);
      ForEachChild(x, [&](VertexId z, VertexId src, EdgeId e) {
        if (queued_[z] != 0 || !InBoth(src, e)) return;
        const uint8_t* rz = Row(z);
        bool orphaned = false;
        for (size_t i = 0; i < stride_; ++i) {
          orphaned |= old_[i] != fresh_[i] && rz[i] == old_[i] + 1;
        }
        if (orphaned) Enqueue(z);
      });
    }
    queue_.clear();
  }

  /// Edges that entered U can only lower levels: relax each one's head
  /// from its tail, then push every lowered row on to its children in
  /// U, so only vertices whose row drops are ever visited.
  void Lower(std::span<const Edge> added) {
    for (const Edge& e : added) {
      const VertexId tail = forward_ ? e.src : e.dst;
      const VertexId head = forward_ ? e.dst : e.src;
      if (Relax(Row(tail), head)) Enqueue(head);
    }
    for (size_t head = 0; head < queue_.size(); ++head) {
      const VertexId x = queue_[head];
      queued_[x] = 0;
      ForEachChild(x, [&](VertexId z, VertexId src, EdgeId e) {
        if (InU(src, e) && Relax(Row(x), z)) Enqueue(z);
      });
    }
    queue_.clear();
  }

 private:
  uint8_t* Row(VertexId x) const { return rows_ + x * stride_; }

  void Enqueue(VertexId x) {
    if (queued_[x] != 0) return;
    queued_[x] = 1;
    queue_.push_back(x);
  }

  /// row(z) = min(row(z), row(tail) + 1); true iff some slot dropped.
  bool Relax(const uint8_t* tail, VertexId z) {
    uint8_t* rz = Row(z);
    bool lowered = false;
    for (size_t i = 0; i < stride_; ++i) {
      const uint8_t via = static_cast<uint8_t>(tail[i] + 1);
      lowered |= via < rz[i];
      rz[i] = std::min(rz[i], via);
    }
    return lowered;
  }

  /// Edge e, leaving `src`, is in U now.
  bool InU(VertexId src, EdgeId e) const {
    return !cover_.VertexCovered(src) &&
           (!check_s_ || cover_.covered.count(e) == 0);
  }
  /// Edge e is in U now and was in the prior U: not a new delta edge
  /// and not one that just left S.
  bool InBoth(VertexId src, EdgeId e) const {
    return e < prior_edges_ && InU(src, e) &&
           !std::binary_search(reentered_.begin(), reentered_.end(), e);
  }

  /// fn(neighbor, edge source, edge id) over the overlay edges toward
  /// x's parents / children; a base-covered source has no edge in U,
  /// so its out-edges are skipped whole.
  template <typename Fn>
  void ForEachParent(VertexId x, Fn&& fn) const {
    if (forward_) {
      ForEachIn(x, fn);
    } else {
      ForEachOut(x, fn);
    }
  }
  template <typename Fn>
  void ForEachChild(VertexId x, Fn&& fn) const {
    if (forward_) {
      ForEachOut(x, fn);
    } else {
      ForEachIn(x, fn);
    }
  }
  template <typename Fn>
  void ForEachOut(VertexId x, Fn& fn) const {
    if (cover_.VertexCovered(x)) return;
    graph_.ForEachOut(x, [&](VertexId w, EdgeId e) {
      fn(w, x, e);
      return true;
    });
  }
  template <typename Fn>
  void ForEachIn(VertexId x, Fn& fn) const {
    graph_.ForEachIn(x, [&](VertexId y, EdgeId e) {
      fn(y, y, e);
      return true;
    });
  }

  const OverlayGraph& graph_;
  const TransversalState& cover_;
  const bool check_s_;
  const EdgeId prior_edges_;
  /// Sorted ids of edges in the prior S but not in the current one.
  const std::span<const EdgeId> reentered_;
  const bool forward_;
  const size_t stride_;
  const uint8_t cap_;
  const std::vector<uint32_t>& slot_;
  uint8_t* const rows_;
  std::vector<uint8_t> queued_;
  std::vector<VertexId> queue_;
  std::vector<uint8_t> fresh_;
  std::vector<uint8_t> old_;
};

/// Runs task(i) for every i < count on `pool`, or inline when it is null.
template <typename Fn>
void RunTasks(ThreadPool* pool, size_t count, Fn&& task) {
  if (pool != nullptr && count > 1) {
    pool->ParallelFor(count, [&](size_t i, int) { task(i); });
  } else {
    for (size_t i = 0; i < count; ++i) task(i);
  }
}

}  // namespace

std::shared_ptr<const AdmissionIndex> AdmissionIndex::Build(
    const OverlayGraph& graph, const TransversalState& cover,
    const CoverOptions& options, int num_landmarks, ThreadPool* pool,
    const Prior* prior) {
  // k - 1 must sit strictly below the byte-packed distance cap, or the
  // "> max_path_ means no path" comparison loses its meaning.
  if (options.k >= 254) return nullptr;
  TDB_TRACE_SPAN("admission_index.build");
  Timer timer;
  std::shared_ptr<AdmissionIndex> index(new AdmissionIndex());
  index->max_path_ = options.k - 1;
  index->min_path_ = (options.include_two_cycles ? 2u : 3u) - 1;
  index->cap_ = std::min<uint32_t>(2 * options.k, 254);
  index->patched_ = prior != nullptr && prior->index != nullptr &&
                    index->PatchFrom(*prior, graph, cover, num_landmarks,
                                     pool);
  if (!index->patched_) index->BuildFull(graph, cover, num_landmarks, pool);
  index->build_seconds_ = timer.ElapsedSeconds();
  return index;
}

void AdmissionIndex::SetEndpointFlags() {
  const size_t n = out_deg_.size();
  has_out_.resize(n);
  has_in_.resize(n);
  for (size_t x = 0; x < n; ++x) {
    has_out_[x] = out_deg_[x] > 0 ? 1 : 0;
    has_in_[x] = in_deg_[x] > 0 ? 1 : 0;
  }
}

std::vector<VertexId> AdmissionIndex::SelectLandmarks(
    int num_landmarks) const {
  // Uncovered degree ranks the hubs: a hub on many uncovered paths
  // separates many pairs. Ties go to the lower id; slots then go in id
  // order.
  const size_t n = out_deg_.size();
  const size_t want = std::min<size_t>(std::max(num_landmarks, 0), n);
  std::vector<uint64_t> udeg(n);
  for (size_t x = 0; x < n; ++x) udeg[x] = uint64_t{out_deg_[x]} + in_deg_[x];
  std::vector<VertexId> order(n);
  std::iota(order.begin(), order.end(), VertexId{0});
  std::partial_sort(order.begin(), order.begin() + want, order.end(),
                    [&](VertexId a, VertexId b) {
                      return udeg[a] != udeg[b] ? udeg[a] > udeg[b] : a < b;
                    });
  order.resize(want);
  std::erase_if(order, [&](VertexId x) { return udeg[x] == 0; });
  std::sort(order.begin(), order.end());
  return order;
}

void AdmissionIndex::BuildFull(const OverlayGraph& graph,
                               const TransversalState& cover,
                               int num_landmarks, ThreadPool* pool) {
  const VertexId n = graph.num_vertices();
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
  // landmark ranking. A simple graph keeps every degree below n.
  out_deg_.resize(n);
  in_deg_.resize(n);
  for (VertexId x = 0; x < n; ++x) {
    out_deg_[x] = static_cast<uint32_t>(out.off[x + 1] - out.off[x]);
    in_deg_[x] = static_cast<uint32_t>(in.off[x + 1] - in.off[x]);
  }
  SetEndpointFlags();
  landmarks_ = SelectLandmarks(num_landmarks);
  const size_t num_hubs = landmarks_.size();
  slot_.assign(n, kNoSlot);
  for (size_t i = 0; i < num_hubs; ++i) {
    slot_[landmarks_[i]] = static_cast<uint32_t>(i);
  }

  const uint8_t far = static_cast<uint8_t>(cap_);
  to_hub_.assign(static_cast<size_t>(n) * num_hubs, far);
  from_hub_.assign(static_cast<size_t>(n) * num_hubs, far);
  const uint32_t depth = cap_ - 1;
  // Task 2c runs landmark chunk c (landmarks [64c, 64c + 64)) forward
  // over U's out-CSR into from_hub_, task 2c + 1 backward over the
  // in-CSR into to_hub_. Tasks write disjoint bytes, so the filled arrays
  // are identical at every pool size.
  const size_t num_chunks = (num_hubs + 63) / 64;
  RunTasks(pool, 2 * num_chunks, [&](size_t task) {
    const size_t first = (task / 2) * 64;
    const bool forward = (task % 2) == 0;
    const std::span<const VertexId> hubs(
        landmarks_.data() + first, std::min<size_t>(64, num_hubs - first));
    MultiSourceLevels(forward ? out : in, hubs, depth, num_hubs,
                      (forward ? from_hub_ : to_hub_).data() + first);
  });
}

bool AdmissionIndex::PatchFrom(const Prior& prior, const OverlayGraph& graph,
                               const TransversalState& cover,
                               int num_landmarks, ThreadPool* pool) {
  const AdmissionIndex& old = *prior.index;
  const OverlayGraph& old_graph = *prior.graph;
  const TransversalState& old_cover = *prior.cover;
  // Only an append-only step of the same overlay over the same base
  // cover is a small change of U; compaction installs, recovery and
  // unrelated states are not.
  const std::span<const Edge> old_delta = old_graph.delta();
  const std::span<const Edge> delta = graph.delta();
  if (&old_graph.base() != &graph.base() || old_cover.base != cover.base ||
      old.cap_ != cap_ || old.max_path_ != max_path_ ||
      old.min_path_ != min_path_ || old_delta.size() > delta.size() ||
      !std::equal(old_delta.begin(), old_delta.end(), delta.begin())) {
    return false;
  }

  // U's edge delta: new overlay edges, plus the symmetric difference of
  // the two S sets. An edge whose source is base-covered is in neither
  // U. Hash-set order does not matter: the repaired rows are the unique
  // fixpoint whatever order the edges come in.
  const EdgeId old_edges = old_graph.num_edges();
  const auto edge = [&](EdgeId e) {
    return Edge{graph.EdgeSrc(e), graph.EdgeDst(e)};
  };
  std::vector<Edge> removed;
  std::vector<Edge> added;
  std::vector<EdgeId> reentered;
  for (const EdgeId e : old_cover.covered) {
    if (cover.covered.count(e) != 0) continue;
    reentered.push_back(e);
    if (!cover.VertexCovered(graph.EdgeSrc(e))) added.push_back(edge(e));
  }
  std::sort(reentered.begin(), reentered.end());
  for (const EdgeId e : cover.covered) {
    if (e < old_edges && old_cover.covered.count(e) == 0 &&
        !cover.VertexCovered(graph.EdgeSrc(e))) {
      removed.push_back(edge(e));
    }
  }
  for (EdgeId e = old_edges; e < graph.num_edges(); ++e) {
    if (!cover.VertexCovered(graph.EdgeSrc(e)) &&
        cover.covered.count(e) == 0) {
      added.push_back(edge(e));
    }
  }

  out_deg_ = old.out_deg_;
  in_deg_ = old.in_deg_;
  for (const Edge& e : removed) {
    --out_deg_[e.src];
    --in_deg_[e.dst];
  }
  for (const Edge& e : added) {
    ++out_deg_[e.src];
    ++in_deg_[e.dst];
  }
  landmarks_ = SelectLandmarks(num_landmarks);
  if (landmarks_ != old.landmarks_) return false;

  SetEndpointFlags();
  slot_ = old.slot_;
  to_hub_ = old.to_hub_;
  from_hub_ = old.from_hub_;
  // Removals first, over the edges in both U's; then insertions, over
  // the current U. Task 0 repairs from_hub_, task 1 to_hub_.
  RunTasks(pool, 2, [&](size_t task) {
    const bool forward = task == 0;
    RowRepair repair(graph, cover, old_edges, reentered, forward,
                     landmarks_.size(), static_cast<uint8_t>(cap_), slot_,
                     (forward ? from_hub_ : to_hub_).data());
    repair.Raise(removed);
    repair.Lower(added);
  });
  return true;
}

bool AdmissionIndex::SameContents(const AdmissionIndex& other) const {
  return max_path_ == other.max_path_ && min_path_ == other.min_path_ &&
         cap_ == other.cap_ && out_deg_ == other.out_deg_ &&
         in_deg_ == other.in_deg_ && has_out_ == other.has_out_ &&
         has_in_ == other.has_in_ && landmarks_ == other.landmarks_ &&
         slot_ == other.slot_ && to_hub_ == other.to_hub_ &&
         from_hub_ == other.from_hub_;
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
