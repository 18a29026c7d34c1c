#include "apps/fsm.h"

#include <algorithm>

#include "core/computation.h"
#include "util/alloc_guard.h"
#include "util/timer.h"

namespace fractal {

void DomainSupport::AddEmbedding(const Subgraph& subgraph,
                                 const CanonicalResult& canonical) {
  FRACTAL_CHECK(subgraph.NumVertices() <= QuickPatternKey::kMaxVertices);
  uint8_t canonical_position[QuickPatternKey::kMaxVertices];
  for (uint32_t i = 0; i < subgraph.NumVertices(); ++i) {
    canonical_position[i] = static_cast<uint8_t>(canonical.permutation[i]);
  }
  AddEmbedding(subgraph, canonical_position, canonical.orbit);
}

FRACTAL_HOT void DomainSupport::AddEmbedding(
    const Subgraph& subgraph, const uint8_t* canonical_position,
    const std::vector<uint32_t>& orbit) {
  const uint32_t k = subgraph.NumVertices();
  if (domains_.size() < k) {
    FRACTAL_HOT_ESCAPE("first embedding of a class: once per accumulator");
    AllocGuard::Allow allow("FSM domain slots");
    domains_.resize(k);
  }
  // Orbit closure: automorphic positions have identical domains, so each
  // vertex is recorded once under its orbit representative (the MNI support
  // is then the min over representatives).
  for (uint32_t position = 0; position < k; ++position) {
    Record(domains_[orbit[canonical_position[position]]],
           subgraph.VertexAt(position));
  }
}

FRACTAL_HOT void DomainSupport::Record(Domain& domain, VertexId vertex) {
  // Consecutive embeddings of one DFS subtree share their prefix vertices.
  if (!domain.domain_vertices.empty() &&
      domain.domain_vertices.back() == vertex) {
    return;
  }
  if (domain.domain_vertices.size() == domain.domain_vertices.capacity()) {
    Compact(domain);
    if (2 * domain.domain_vertices.size() >=
        domain.domain_vertices.capacity()) {
      FRACTAL_HOT_ESCAPE("domain growth: geometric, at most 2x distinct");
      AllocGuard::Allow allow("FSM domain growth");
      domain.domain_vertices.reserve(
          std::max<size_t>(16, 2 * domain.domain_vertices.capacity()));
    }
  }
  domain.domain_vertices.push_back(vertex);
}

void DomainSupport::Compact(Domain& domain) {
  std::vector<VertexId>& vertices = domain.domain_vertices;
  if (domain.compacted == vertices.size()) return;
  std::sort(vertices.begin(), vertices.end());
  vertices.erase(std::unique(vertices.begin(), vertices.end()),
                 vertices.end());
  domain.compacted = static_cast<uint32_t>(vertices.size());
}

uint64_t DomainSupport::DistinctCount(const Domain& domain) {
  if (domain.compacted == domain.domain_vertices.size()) {
    return domain.compacted;
  }
  Domain copy = domain;
  Compact(copy);
  return copy.compacted;
}

void DomainSupport::Merge(DomainSupport&& other) {
  if (domains_.size() < other.domains_.size()) {
    domains_.resize(other.domains_.size());
  }
  for (size_t i = 0; i < other.domains_.size(); ++i) {
    Domain& into = domains_[i];
    Domain& from = other.domains_[i];
    if (into.domain_vertices.empty()) {
      std::swap(into, from);
    } else {
      into.domain_vertices.insert(into.domain_vertices.end(),
                                  from.domain_vertices.begin(),
                                  from.domain_vertices.end());
    }
    Compact(into);
  }
  threshold_ = std::max(threshold_, other.threshold_);
}

uint64_t DomainSupport::Support() const {
  if (domains_.empty()) return 0;
  // Only orbit-representative slots are populated (see AddEmbedding); the
  // other positions share a representative's domain, so skip their empty
  // slots.
  uint64_t support = UINT64_MAX;
  bool any = false;
  for (const Domain& domain : domains_) {
    if (domain.domain_vertices.empty()) continue;
    support = std::min(support, DistinctCount(domain));
    any = true;
  }
  return any ? support : 0;
}

uint64_t DomainSupport::ApproxBytes() const {
  uint64_t bytes = sizeof(DomainSupport) + domains_.capacity() * sizeof(Domain);
  for (const Domain& domain : domains_) {
    bytes += domain.domain_vertices.capacity() * sizeof(VertexId);
  }
  return bytes;
}

namespace {

/// Appends the FSM aggregation (pattern -> DomainSupport with the
/// has-enough-support post-filter) to a fractoid.
Fractoid WithSupportAggregation(const Fractoid& fractoid,
                                uint32_t min_support) {
  return fractoid.AggregatePatterns<DomainSupport>(
      "support", DomainSupport(min_support),
      /*reduce_fn=*/
      [](DomainSupport& into, DomainSupport&& from) {
        into.Merge(std::move(from));
      },
      /*post_filter=*/
      [](const Pattern&, const DomainSupport& support) {
        return support.HasEnoughSupport();
      });
}

}  // namespace

FsmResult RunFsm(const FractalGraph& graph, uint32_t min_support,
                 uint32_t max_edges, const ExecutionConfig& config) {
  FsmOptions options;
  options.min_support = min_support;
  options.max_edges = max_edges;
  return RunFsmWithOptions(graph, options, config);
}

FsmResult RunFsmWithOptions(const FractalGraph& graph,
                            const FsmOptions& options,
                            const ExecutionConfig& config) {
  const uint32_t min_support = options.min_support;
  const uint32_t max_edges = options.max_edges;
  FRACTAL_CHECK(min_support >= 1);
  WallTimer timer;
  FsmResult result;
  result.mined_graph_edges = graph.graph().NumEdges();

  // Bootstrap (Listing 3 lines 1-9): frequent single edges.
  Fractoid fsm =
      WithSupportAggregation(graph.EFractoid().Expand(1), min_support);
  ExecutionResult execution = fsm.Execute(config);
  FRACTAL_CHECK(execution.status.ok()) << execution.status;
  auto harvest = [&result, &execution]() -> size_t {
    const auto& storage =
        execution.Aggregation<Pattern, DomainSupport, PatternHash>("support");
    for (const auto& [pattern, support] : storage.entries()) {
      result.frequent.emplace_back(pattern, support.Support());
    }
    return storage.NumEntries();
  };
  auto account = [&result, &execution]() {
    for (const auto& step : execution.telemetry.steps) {
      result.total_work_units += step.TotalWorkUnits();
      result.step_telemetry.push_back(step);
    }
    result.peak_state_bytes =
        std::max(result.peak_state_bytes, execution.peak_state_bytes);
  };
  size_t new_frequent = harvest();
  account();
  result.iterations = 1;

  if (options.transparent_graph_reduction && new_frequent > 0) {
    // Paper §4.3: keep only edges that participated in a frequent
    // single-edge pattern, then restart the pipeline on the reduced graph
    // (1-edge supports are recomputed there — they are identical by
    // anti-monotonicity, see FsmOptions).
    const auto& frequent_edges =
        execution.Aggregation<Pattern, DomainSupport, PatternHash>("support");
    const FractalGraph reduced =
        graph.EFilter([&frequent_edges](const Graph& g, EdgeId e) {
          Pattern single;
          const EdgeEndpoints& ends = g.Endpoints(e);
          single.AddVertex(g.VertexLabel(ends.src));
          single.AddVertex(g.VertexLabel(ends.dst));
          single.AddEdge(0, 1, g.GetEdgeLabel(e));
          return frequent_edges.Contains(CanonicalForm(single).pattern);
        });
    result.mined_graph_edges = reduced.graph().NumEdges();
    fsm = WithSupportAggregation(reduced.EFractoid().Expand(1), min_support);
    execution = fsm.Execute(config);  // cheap: reduced bootstrap
    FRACTAL_CHECK(execution.status.ok()) << execution.status;
    account();
  }

  // Iterate (Listing 3 lines 13-26): filter by the previous frequent set,
  // grow by one edge, re-aggregate.
  while (new_frequent > 0 &&
         (max_edges == 0 || result.iterations < max_edges)) {
    Fractoid next = fsm.FilterByAggregation<Pattern, DomainSupport,
                                            PatternHash>(
        "support",
        [](const Subgraph& subgraph, Computation& comp,
           const AggregationStorage<Pattern, DomainSupport, PatternHash>&
               frequent_patterns) {
          // One verdict per canonical class and thread, not per subgraph.
          return comp.ClassVerdict(
              subgraph, &frequent_patterns,
              [&frequent_patterns](const Pattern& pattern) {
                return frequent_patterns.Contains(pattern);
              });
        });
    next = WithSupportAggregation(next.Expand(1), min_support);
    result.status = CheckAggregationCapacity(next);
    if (!result.status.ok()) break;
    fsm = std::move(next);
    execution = fsm.Execute(config);
    FRACTAL_CHECK(execution.status.ok()) << execution.status;
    new_frequent = harvest();
    account();
    ++result.iterations;
  }

  result.seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace fractal
