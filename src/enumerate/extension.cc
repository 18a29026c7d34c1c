#include "enumerate/extension.h"

#include <algorithm>
#include <cstdlib>

#include "enumerate/reference_extension.h"
#include "graph/adjacency.h"

namespace fractal {
namespace {

/// Stack capacity for the pattern-required edges gathered by
/// PatternInducedStrategy::Apply — bounds the per-step pattern degree, far
/// above any pattern this system queries (checked at run time).
constexpr uint32_t kMaxPatternApplyEdges = 64;

/// Drops every element of `v` whose bit is set in the hub bitmap `row`
/// (in-place stable compaction): set difference against a high-degree
/// vertex's neighborhood at one load per element instead of a merge over
/// its (by definition long) adjacency list.
FRACTAL_HOT void FilterNotInBitmap(FRACTAL_ARENA_OUT std::vector<uint32_t>& v,
                                   const uint64_t* row) {
  size_t w = 0;
  for (size_t i = 0; i < v.size(); ++i) {
    const uint32_t x = v[i];
    if (((row[x >> 6] >> (x & 63)) & 1) == 0) v[w++] = x;
  }
  v.resize(w);
}

/// Keeps every element of `v` whose bit is set in `row` (in-place stable
/// compaction): intersection against a hub's neighborhood.
FRACTAL_HOT void FilterInBitmap(FRACTAL_ARENA_OUT std::vector<uint32_t>& v,
                                const uint64_t* row) {
  size_t w = 0;
  for (size_t i = 0; i < v.size(); ++i) {
    const uint32_t x = v[i];
    if (((row[x >> 6] >> (x & 63)) & 1) != 0) v[w++] = x;
  }
  v.resize(w);
}

}  // namespace

// Single-pass reformulation of the Arabesque extension rule (proof sketch in
// DESIGN.md §8). The reference rule emits, at each word position p, every
// u in N(word[p]) with (a) u not in the word, (b) first attachment exactly
// p, and (c) u > word[0] and u > word[i] for all i > p. That set equals
//
//   (N(word[p]) restricted to > L_p) \ N(word[0]) \ ... \ N(word[p-1]),
//     where L_p = max(word[0], max(word[p+1..])):
//
//   * the difference passes are exactly "first attachment == p";
//   * the bound is exactly the canonicality constraint (c);
//   * containment (a) is subsumed: word[j] with j > p or j == 0 falls under
//     the bound; word[j] with 1 <= j < p is adjacent to some earlier word
//     vertex (words grow connected), so a difference pass removes it; and
//     word[p] itself is never in N(word[p]) (no self-loops).
//
// Ascending kernel outputs concatenated in position order reproduce the
// reference emission order bit-for-bit.
FRACTAL_HOT void VertexInducedStrategy::ComputeExtensions(
    const Graph& graph, const Subgraph& subgraph, ExtensionContext& ctx,
    FRACTAL_ARENA_OUT std::vector<uint32_t>* out) const {
  out->clear();
  if (subgraph.Empty()) {
    FRACTAL_HOT_ESCAPE("root enumeration runs once per step, not per node");
    for (VertexId v = 0; v < graph.NumVertices(); ++v) {
      ++ctx.extension_tests;
      if (graph.IsVertexActive(v)) out->push_back(v);
    }
    return;
  }
  const auto word = subgraph.Vertices();
  const uint32_t k = static_cast<uint32_t>(word.size());

  ScratchArena::BufferLease suffix_lease(ctx.arena);
  ScratchArena::BufferLease cur_lease(ctx.arena);
  ScratchArena::BufferLease next_lease(ctx.arena);
  // suffix[i] = max(word[i..k-1]); suffix[k] = 0 so L_p below is one max.
  std::vector<uint32_t>& suffix = *suffix_lease;
  suffix.clear();
  adjacency::EnsureHeadroom(&suffix, k + 1);
  suffix.assign(k + 1, 0);
  for (uint32_t i = k; i-- > 0;) {
    suffix[i] = std::max(word[i], suffix[i + 1]);
  }

  for (uint32_t p = 0; p < k; ++p) {
    const auto neighbors = graph.Neighbors(word[p]);
    // EC parity with the reference: one test per scanned neighbor of
    // word[p], charged in bulk.
    ctx.extension_tests += neighbors.size();
    const uint32_t bound = std::max(word[0], suffix[p + 1]);
    if (p == 0) {
      adjacency::CopyAbove(neighbors, bound, out);
      continue;
    }
    // Seed the working set by fusing the bound with the first difference
    // against a non-hub earlier vertex; hub vertices are subtracted by
    // bitmap filtering afterwards (order is immaterial for differences).
    std::vector<uint32_t>* cur = cur_lease.get();
    std::vector<uint32_t>* next = next_lease.get();
    cur->clear();
    bool seeded = false;
    for (uint32_t q = 0; q < p; ++q) {
      if (graph.HubRow(word[q]) != nullptr) continue;
      if (!seeded) {
        adjacency::DifferenceAbove(neighbors, graph.Neighbors(word[q]), bound,
                                   cur, &ctx.kernels);
        seeded = true;
        continue;
      }
      next->clear();
      adjacency::Difference(*cur, graph.Neighbors(word[q]), next,
                            &ctx.kernels);
      std::swap(cur, next);
    }
    if (!seeded) adjacency::CopyAbove(neighbors, bound, cur);
    for (uint32_t q = 0; q < p && !cur->empty(); ++q) {
      if (const uint64_t* row = graph.HubRow(word[q])) {
        FilterNotInBitmap(*cur, row);
      }
    }
    adjacency::EnsureHeadroom(out, cur->size());
    out->insert(out->end(), cur->begin(), cur->end());
  }
}

FRACTAL_HOT void VertexInducedStrategy::Apply(const Graph& graph,
                                              uint32_t extension,
                                              Subgraph* subgraph) const {
  subgraph->PushVertexInduced(graph, extension);
}

// Same scan structure as the reference (incident-edge lists are sorted by
// *neighbor* id, not edge id, so set algebra over edge ids would permute the
// output), but every per-candidate rescan is replaced by an O(1) check:
//   * edge membership is the subgraph's bitset;
//   * "first touching word position" is two lookups in an epoch-stamped
//     vertex -> first-covering-position map built once per call;
//   * the canonical word check is one compare against a precomputed suffix
//     maximum of the edge word.
FRACTAL_HOT void EdgeInducedStrategy::ComputeExtensions(
    const Graph& graph, const Subgraph& subgraph, ExtensionContext& ctx,
    FRACTAL_ARENA_OUT std::vector<uint32_t>* out) const {
  out->clear();
  if (subgraph.Empty()) {
    FRACTAL_HOT_ESCAPE("root enumeration runs once per step, not per node");
    ctx.extension_tests += graph.NumEdges();
    out->reserve(graph.NumEdges());
    for (EdgeId e = 0; e < graph.NumEdges(); ++e) out->push_back(e);
    return;
  }
  const auto word = subgraph.Edges();
  const uint32_t k = static_cast<uint32_t>(word.size());

  // first_cover[v] = smallest word position whose edge touches v
  // (StampedMap::kAbsent == UINT32_MAX when v is outside the subgraph, which
  // min()s away below exactly like the reference's "no touch" sentinel).
  ScratchArena::StampedMap& first_cover = ctx.arena.vertex_map();
  first_cover.Reset(graph.NumVertices());
  for (uint32_t i = 0; i < k; ++i) {
    const EdgeEndpoints& endpoints = graph.Endpoints(word[i]);
    if (first_cover.Get(endpoints.src) == ScratchArena::StampedMap::kAbsent) {
      first_cover.Set(endpoints.src, i);
    }
    if (first_cover.Get(endpoints.dst) == ScratchArena::StampedMap::kAbsent) {
      first_cover.Set(endpoints.dst, i);
    }
  }

  // suffix[i] = max(word[i..k-1]); suffix[k] = 0, so "candidate >= every
  // later word element" collapses to one compare.
  ScratchArena::BufferLease suffix_lease(ctx.arena);
  std::vector<uint32_t>& suffix = *suffix_lease;
  suffix.clear();
  adjacency::EnsureHeadroom(&suffix, k + 1);
  suffix.assign(k + 1, 0);
  for (uint32_t i = k; i-- > 0;) {
    suffix[i] = std::max(word[i], suffix[i + 1]);
  }

  for (uint32_t position = 0; position < k; ++position) {
    const EdgeEndpoints& base = graph.Endpoints(word[position]);
    const uint32_t canonical_bound = suffix[position + 1];
    for (const VertexId endpoint : {base.src, base.dst}) {
      const auto incident = graph.IncidentEdges(endpoint);
      // EC parity with the reference: one test per scanned incident edge.
      ctx.extension_tests += incident.size();
      // Survivors of this scan are a subset of the incident list.
      adjacency::EnsureHeadroom(out, incident.size());
      for (const EdgeId candidate : incident) {
        if (candidate < word[0]) continue;
        if (subgraph.ContainsEdge(candidate)) continue;
        const EdgeEndpoints& ec = graph.Endpoints(candidate);
        // First touching position must be `position` (dedup across the two
        // endpoint scans is handled below: a candidate touching base.src is
        // also seen from base.dst only if it touches both, in which case we
        // keep the src scan occurrence).
        if (std::min(first_cover.Get(ec.src), first_cover.Get(ec.dst)) !=
            position) {
          continue;
        }
        if (endpoint == base.dst &&
            (ec.src == base.src || ec.dst == base.src)) {
          continue;  // already emitted from the src endpoint scan
        }
        // Canonical word check: candidate must exceed every word element
        // after its first touching position.
        if (candidate < canonical_bound) continue;
        out->push_back(candidate);
      }
    }
  }
}

FRACTAL_HOT void EdgeInducedStrategy::Apply(const Graph& graph,
                                            uint32_t extension,
                                            Subgraph* subgraph) const {
  subgraph->PushEdgeInduced(graph, extension);
}

PatternInducedStrategy::PatternInducedStrategy(Pattern pattern,
                                               MatchSemantics semantics)
    : pattern_(std::move(pattern)), semantics_(semantics) {
  const uint32_t n = pattern_.NumVertices();
  FRACTAL_CHECK(n >= 1);
  FRACTAL_CHECK(pattern_.IsConnected())
      << "pattern-induced extension needs a connected pattern";

  // Matching order: highest-degree position first, then greedily the
  // position with most edges into the ordered prefix (ties: lower index).
  std::vector<uint8_t> placed(n, 0);
  uint32_t start = 0;
  for (uint32_t v = 1; v < n; ++v) {
    if (pattern_.Degree(v) > pattern_.Degree(start)) start = v;
  }
  plan_order_.push_back(start);
  placed[start] = 1;
  while (plan_order_.size() < n) {
    uint32_t best = UINT32_MAX;
    uint32_t best_links = 0;
    for (uint32_t v = 0; v < n; ++v) {
      if (placed[v]) continue;
      uint32_t links = 0;
      for (const uint32_t u : plan_order_) {
        if (pattern_.IsAdjacent(u, v)) ++links;
      }
      if (links == 0) continue;
      if (best == UINT32_MAX || links > best_links ||
          (links == best_links && pattern_.Degree(v) > pattern_.Degree(best))) {
        best = v;
        best_links = links;
      }
    }
    FRACTAL_CHECK(best != UINT32_MAX);  // connected pattern
    plan_order_.push_back(best);
    placed[best] = 1;
  }
  plan_index_.assign(n, 0);
  for (uint32_t step = 0; step < n; ++step) {
    plan_index_[plan_order_[step]] = step;
  }

  for (const SymmetryCondition& condition :
       SymmetryBreakingConditions(pattern_)) {
    plan_conditions_.push_back(
        {plan_index_[condition.smaller], plan_index_[condition.larger]});
  }

  required_neighbors_.resize(n);
  for (uint32_t step = 1; step < n; ++step) {
    const uint32_t position = plan_order_[step];
    for (uint32_t earlier = 0; earlier < step; ++earlier) {
      const uint32_t earlier_position = plan_order_[earlier];
      if (pattern_.IsAdjacent(position, earlier_position)) {
        required_neighbors_[step].push_back(
            {earlier,
             pattern_.EdgeLabelBetween(position, earlier_position)});
      }
    }
    FRACTAL_CHECK(!required_neighbors_[step].empty());
  }
}

FRACTAL_HOT void PatternInducedStrategy::ComputeExtensions(
    const Graph& graph, const Subgraph& subgraph, ExtensionContext& ctx,
    FRACTAL_ARENA_OUT std::vector<uint32_t>* out) const {
  out->clear();
  const uint32_t step = subgraph.NumVertices();
  if (step >= pattern_.NumVertices()) return;  // complete match

  if (step == 0) {
    FRACTAL_HOT_ESCAPE("root enumeration runs once per step, not per node");
    const Label wanted = FirstLabel();
    for (VertexId v = 0; v < graph.NumVertices(); ++v) {
      ++ctx.extension_tests;
      if (!graph.IsVertexActive(v)) continue;
      if (graph.VertexLabel(v) != wanted) continue;
      bool ok = true;
      // Conditions where step 0 must be larger can never involve an earlier
      // step; nothing to check yet.
      if (ok) out->push_back(v);
    }
    return;
  }

  const auto matched = subgraph.Vertices();
  const Label wanted = pattern_.VertexLabel(plan_order_[step]);
  const auto& required = required_neighbors_[step];

  // Scan the neighbor list of the required neighbor with smallest degree.
  uint32_t pivot = 0;
  for (uint32_t i = 1; i < required.size(); ++i) {
    if (graph.Degree(matched[required[i].step]) <
        graph.Degree(matched[required[pivot].step])) {
      pivot = i;
    }
  }

  const auto pivot_neighbors = graph.Neighbors(matched[required[pivot].step]);
  // Survivors of this scan are a subset of the pivot's neighbor list.
  adjacency::EnsureHeadroom(out, pivot_neighbors.size());
  for (const VertexId u : pivot_neighbors) {
    ++ctx.extension_tests;
    if (graph.VertexLabel(u) != wanted) continue;
    if (subgraph.ContainsVertex(u)) continue;
    bool ok = true;
    for (const RequiredNeighbor& req : required) {
      const auto edge = graph.EdgeBetween(matched[req.step], u);
      if (!edge || graph.GetEdgeLabel(*edge) != req.edge_label) {
        ok = false;
        break;
      }
    }
    if (ok && semantics_ == MatchSemantics::kInduced) {
      // Induced: no graph edge may exist where the pattern has none.
      for (uint32_t earlier = 0; earlier < step && ok; ++earlier) {
        if (!pattern_.IsAdjacent(plan_order_[earlier], plan_order_[step]) &&
            graph.IsAdjacent(matched[earlier], u)) {
          ok = false;
        }
      }
    }
    if (!ok) continue;
    for (const SymmetryCondition& condition : plan_conditions_) {
      if (condition.larger == step && condition.smaller < step &&
          u <= matched[condition.smaller]) {
        ok = false;
        break;
      }
      if (condition.smaller == step && condition.larger < step &&
          u >= matched[condition.larger]) {
        ok = false;
        break;
      }
    }
    if (ok) out->push_back(u);
  }
}

FRACTAL_HOT void PatternInducedStrategy::Apply(const Graph& graph,
                                               uint32_t extension,
                                               Subgraph* subgraph) const {
  const uint32_t step = subgraph->NumVertices();
  if (step == 0) {
    subgraph->PushVertexWithEdges(extension, {});
    return;
  }
  // Collect the pattern-required incident edges on the stack: their count is
  // bounded by the pattern size, and a heap vector here used to be a per-push
  // allocation on the hottest pattern-matching path.
  EdgeId edges[kMaxPatternApplyEdges];
  const auto& required = required_neighbors_[step];
  FRACTAL_CHECK(required.size() <= kMaxPatternApplyEdges)
      << "pattern step requires more edges than the Apply stack buffer";
  const auto matched = subgraph->Vertices();
  uint32_t count = 0;
  for (const RequiredNeighbor& req : required) {
    const auto edge = graph.EdgeBetween(matched[req.step], extension);
    FRACTAL_DCHECK(edge.has_value());
    edges[count++] = *edge;
  }
  subgraph->PushVertexWithEdges(extension,
                                std::span<const EdgeId>(edges, count));
}

// Clique extension as a chain of sorted intersections: start from the
// pivot's neighbors above the last clique vertex, then intersect with each
// remaining clique vertex's neighborhood in word order (bitmap filter when
// that vertex is a hub). EC parity with the reference's early-exit probing:
// a candidate eliminated at pass i was charged one test per pass 0..i there,
// and here sits in the working set for exactly those passes — so charging
// |working set| per pass yields the same total.
FRACTAL_HOT void KClistStrategy::ComputeExtensions(
    const Graph& graph, const Subgraph& subgraph, ExtensionContext& ctx,
    FRACTAL_ARENA_OUT std::vector<uint32_t>* out) const {
  out->clear();
  if (subgraph.Empty()) {
    FRACTAL_HOT_ESCAPE("root enumeration runs once per step, not per node");
    for (VertexId v = 0; v < graph.NumVertices(); ++v) {
      ++ctx.extension_tests;
      if (graph.IsVertexActive(v)) out->push_back(v);
    }
    return;
  }
  const auto word = subgraph.Vertices();
  const VertexId last = word.back();
  // Pivot on the smallest-degree clique vertex; candidates must be > last
  // (increasing order gives each clique once) and adjacent to all.
  uint32_t pivot = 0;
  for (uint32_t i = 1; i < word.size(); ++i) {
    if (graph.Degree(word[i]) < graph.Degree(word[pivot])) pivot = i;
  }
  const auto neighbors = graph.Neighbors(word[pivot]);
  if (word.size() == 1) {
    // Sole clique vertex is the pivot: every bounded neighbor survives and
    // the reference charges it a single test.
    const size_t before = out->size();
    adjacency::CopyAbove(neighbors, last, out);
    ctx.extension_tests += out->size() - before;
    return;
  }
  ScratchArena::BufferLease cur_lease(ctx.arena);
  ScratchArena::BufferLease next_lease(ctx.arena);
  std::vector<uint32_t>* cur = cur_lease.get();
  std::vector<uint32_t>* next = next_lease.get();
  adjacency::CopyAbove(neighbors, last, cur);
  for (uint32_t i = 0; i < word.size() && !cur->empty(); ++i) {
    if (i == pivot) continue;
    ctx.extension_tests += cur->size();
    if (const uint64_t* row = graph.HubRow(word[i])) {
      FilterInBitmap(*cur, row);
      continue;
    }
    next->clear();
    adjacency::Intersect(*cur, graph.Neighbors(word[i]), next, &ctx.kernels);
    std::swap(cur, next);
  }
  adjacency::EnsureHeadroom(out, cur->size());
  out->insert(out->end(), cur->begin(), cur->end());
}

FRACTAL_HOT void KClistStrategy::Apply(const Graph& graph, uint32_t extension,
                                       Subgraph* subgraph) const {
  subgraph->PushVertexInduced(graph, extension);
}

void ExtensionContext::FlushCounters() {
  kernels.Flush();
  batch_sizes.FlushInto(obs::ExtensionBatchHistogram());
  arena.FlushCounters();
}

bool UseReferenceExtensions() {
  const char* flag = std::getenv("FRACTAL_REFERENCE_EXTENSIONS");
  return flag != nullptr && flag[0] != '\0' &&
         !(flag[0] == '0' && flag[1] == '\0');
}

std::shared_ptr<ExtensionStrategy> MakeVertexInducedStrategy() {
  if (UseReferenceExtensions()) {
    return std::make_shared<ReferenceVertexInducedStrategy>();
  }
  return std::make_shared<VertexInducedStrategy>();
}

std::shared_ptr<ExtensionStrategy> MakeEdgeInducedStrategy() {
  if (UseReferenceExtensions()) {
    return std::make_shared<ReferenceEdgeInducedStrategy>();
  }
  return std::make_shared<EdgeInducedStrategy>();
}

std::shared_ptr<ExtensionStrategy> MakeKClistStrategy() {
  if (UseReferenceExtensions()) {
    return std::make_shared<ReferenceKClistStrategy>();
  }
  return std::make_shared<KClistStrategy>();
}

}  // namespace fractal
