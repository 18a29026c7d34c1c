// Cross-cutting property tests: invariants that must hold for every random
// instance — determinism across cluster shapes, result-set consistency
// between output operators, anti-monotonicity of MNI support, reduction
// soundness, canonicalization algebra.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <map>
#include <numeric>
#include <set>

#include "apps/cliques.h"
#include "apps/fsm.h"
#include "apps/keyword_search.h"
#include "apps/motifs.h"
#include "apps/queries.h"
#include "graph/generators.h"
#include "graph/graph_reduce.h"
#include "pattern/canonical.h"
#include "pattern/dfs_code.h"
#include "pattern/quick_key.h"
#include "runtime/fault.h"
#include "tests/brute_force.h"
#include "tests/reference_extension.h"
#include "util/random.h"

namespace fractal {
namespace {

class SeededProperty : public ::testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, SeededProperty,
                         ::testing::Values(1001, 1002, 1003, 1004));

TEST_P(SeededProperty, CountsIdenticalAcrossRepeatedRuns) {
  const Graph g = GenerateRandomGraph(40, 140, 1, 1, GetParam());
  FractalContext fctx;
  FractalGraph graph = fctx.FromGraph(Graph(g));
  ExecutionConfig config;
  config.num_workers = 2;
  config.threads_per_worker = 2;
  config.network.latency_micros = 1;
  const uint64_t first = graph.VFractoid().Expand(3).CountSubgraphs(config);
  for (int run = 0; run < 3; ++run) {
    EXPECT_EQ(graph.VFractoid().Expand(3).CountSubgraphs(config), first);
  }
}

TEST_P(SeededProperty, CollectedSubgraphsMatchCountAndAreDistinct) {
  const Graph g = GenerateRandomGraph(25, 70, 1, 1, GetParam());
  FractalContext fctx;
  FractalGraph graph = fctx.FromGraph(Graph(g));
  ExecutionConfig config;
  config.num_workers = 2;
  config.threads_per_worker = 2;
  config.network.latency_micros = 1;
  const uint64_t count = graph.VFractoid().Expand(3).CountSubgraphs(config);
  const auto collected =
      graph.VFractoid().Expand(3).CollectSubgraphs(config);
  EXPECT_EQ(collected.size(), count);
  std::set<std::vector<VertexId>> distinct;
  for (const Subgraph& s : collected) {
    std::vector<VertexId> vertices(s.Vertices().begin(), s.Vertices().end());
    std::sort(vertices.begin(), vertices.end());
    EXPECT_TRUE(distinct.insert(vertices).second) << s.ToString();
  }
}

TEST_P(SeededProperty, MaxCollectedCapRespected) {
  const Graph g = GenerateRandomGraph(25, 70, 1, 1, GetParam());
  FractalContext fctx;
  FractalGraph graph = fctx.FromGraph(Graph(g));
  ExecutionConfig config;
  config.num_workers = 1;
  config.threads_per_worker = 2;
  config.max_collected_subgraphs = 7;
  const auto collected = graph.VFractoid().Expand(2).CollectSubgraphs(config);
  EXPECT_LE(collected.size(), 7u);
}

TEST_P(SeededProperty, MniSupportIsAntiMonotone) {
  // Every frequent pattern's sub-patterns (one edge removed, still
  // connected) must have at least its support.
  const Graph g = GenerateRandomGraph(14, 30, 2, 1, GetParam());
  const auto all_supports = brute::FsmFrequentPatterns(g, 1, 3);
  for (const auto& [pattern, support] : all_supports) {
    if (pattern.NumEdges() < 2) continue;
    for (const PatternEdge& removed : pattern.Edges()) {
      Pattern sub;
      for (uint32_t v = 0; v < pattern.NumVertices(); ++v) {
        sub.AddVertex(pattern.VertexLabel(v));
      }
      for (const PatternEdge& e : pattern.Edges()) {
        if (e == removed) continue;
        sub.AddEdge(e.src, e.dst, e.label);
      }
      if (!sub.IsConnected()) continue;
      // Drop isolated vertices (edge-induced subpattern).
      Pattern trimmed;
      std::vector<int32_t> remap(sub.NumVertices(), -1);
      for (uint32_t v = 0; v < sub.NumVertices(); ++v) {
        if (sub.Degree(v) > 0) {
          remap[v] = trimmed.AddVertex(sub.VertexLabel(v));
        }
      }
      for (const PatternEdge& e : sub.Edges()) {
        trimmed.AddEdge(remap[e.src], remap[e.dst], e.label);
      }
      const Pattern canonical_sub = CanonicalForm(trimmed).pattern;
      const auto it = all_supports.find(canonical_sub);
      ASSERT_NE(it, all_supports.end())
          << "sub-pattern missing: " << canonical_sub.ToString();
      EXPECT_GE(it->second, support)
          << pattern.ToString() << " vs " << canonical_sub.ToString();
    }
  }
}

TEST_P(SeededProperty, ReductionNeverAddsOrLosesSurvivingStructure) {
  const Graph g = GenerateRandomGraph(30, 90, 3, 2, GetParam());
  // Keep even-labeled vertices.
  const Graph reduced = ReduceGraph(
      g, [](const Graph& graph, VertexId v) {
        return graph.VertexLabel(v) % 2 == 0;
      },
      nullptr);
  for (EdgeId e = 0; e < reduced.NumEdges(); ++e) {
    const EdgeEndpoints& ends = reduced.Endpoints(e);
    // Every surviving edge existed in the original with the same label.
    const auto original = g.EdgeBetween(ends.src, ends.dst);
    ASSERT_TRUE(original.has_value());
    EXPECT_EQ(g.GetEdgeLabel(*original), reduced.GetEdgeLabel(e));
    EXPECT_EQ(g.VertexLabel(ends.src) % 2, 0u);
    EXPECT_EQ(g.VertexLabel(ends.dst) % 2, 0u);
  }
  // Every original edge between surviving vertices survives.
  uint32_t expected_edges = 0;
  for (EdgeId e = 0; e < g.NumEdges(); ++e) {
    const EdgeEndpoints& ends = g.Endpoints(e);
    if (g.VertexLabel(ends.src) % 2 == 0 &&
        g.VertexLabel(ends.dst) % 2 == 0) {
      ++expected_edges;
    }
  }
  EXPECT_EQ(reduced.NumEdges(), expected_edges);
}

TEST_P(SeededProperty, ReductionIsIdempotent) {
  const Graph g = GenerateRandomGraph(30, 80, 2, 1, GetParam());
  auto keep = [](const Graph& /*graph*/, VertexId v) { return v % 3 != 0; };
  const Graph once = ReduceGraph(g, keep, nullptr);
  const Graph twice = ReduceGraph(once, keep, nullptr);
  EXPECT_EQ(once.NumEdges(), twice.NumEdges());
  EXPECT_EQ(once.NumActiveVertices(), twice.NumActiveVertices());
}

TEST_P(SeededProperty, QueryMatchesAreActualMatches) {
  const Graph g = GenerateRandomGraph(15, 40, 1, 1, GetParam());
  FractalContext fctx;
  FractalGraph graph = fctx.FromGraph(Graph(g));
  Pattern diamond = Pattern::CyclePattern(4);
  diamond.AddEdge(0, 2);
  ExecutionConfig config;
  config.num_workers = 1;
  config.threads_per_worker = 2;
  const auto matches =
      QueryFractoid(graph, diamond).CollectSubgraphs(config);
  const Pattern canonical_query = CanonicalForm(diamond).pattern;
  for (const Subgraph& match : matches) {
    EXPECT_EQ(match.NumVertices(), 4u);
    EXPECT_EQ(match.NumEdges(), 5u);
    EXPECT_EQ(CanonicalForm(match.QuickPattern(g)).pattern, canonical_query);
  }
  EXPECT_EQ(matches.size(), brute::CountPatternMatches(g, diamond));
}

TEST_P(SeededProperty, DfsCodeFixedPoint) {
  // The minimum DFS code of the pattern rebuilt from a minimum DFS code is
  // that same code (canonical representatives are fixed points).
  SplitMix64 rng(GetParam());
  for (int trial = 0; trial < 30; ++trial) {
    const uint32_t n = 2 + rng.NextBounded(5);
    Pattern p;
    for (uint32_t i = 0; i < n; ++i) {
      p.AddVertex(static_cast<Label>(rng.NextBounded(2)));
    }
    for (uint32_t i = 1; i < n; ++i) {
      p.AddEdge(i, static_cast<uint32_t>(rng.NextBounded(i)));
    }
    const DfsCode code = MinDfsCode(p);
    EXPECT_EQ(MinDfsCode(PatternFromDfsCode(code)), code);
  }
}

TEST_P(SeededProperty, CanonicalOrbitsPartitionPositions) {
  SplitMix64 rng(GetParam() * 31);
  for (int trial = 0; trial < 30; ++trial) {
    const uint32_t n = 2 + rng.NextBounded(4);
    Pattern p;
    for (uint32_t i = 0; i < n; ++i) p.AddVertex(0);
    for (uint32_t i = 1; i < n; ++i) {
      p.AddEdge(i, static_cast<uint32_t>(rng.NextBounded(i)));
    }
    const CanonicalResult canonical = CanonicalForm(p);
    ASSERT_EQ(canonical.orbit.size(), n);
    for (uint32_t position = 0; position < n; ++position) {
      const uint32_t representative = canonical.orbit[position];
      EXPECT_LE(representative, position);
      EXPECT_EQ(canonical.orbit[representative], representative);
    }
    // Positions in one orbit have equal degrees and labels.
    for (uint32_t a = 0; a < n; ++a) {
      for (uint32_t b = a + 1; b < n; ++b) {
        if (canonical.orbit[a] == canonical.orbit[b]) {
          EXPECT_EQ(canonical.pattern.Degree(a), canonical.pattern.Degree(b));
          EXPECT_EQ(canonical.pattern.VertexLabel(a),
                    canonical.pattern.VertexLabel(b));
        }
      }
    }
  }
}

TEST_P(SeededProperty, KeywordSearchReductionInvariance) {
  const Graph g = AttachKeywords(
      GenerateRandomGraph(50, 120, 1, 1, GetParam()), 30, 1, 3, 2.0,
      GetParam() + 7);
  FractalContext fctx;
  FractalGraph graph = fctx.FromGraph(Graph(g));
  SplitMix64 rng(GetParam());
  ExecutionConfig config;
  config.num_workers = 1;
  config.threads_per_worker = 2;
  for (int trial = 0; trial < 3; ++trial) {
    const std::vector<uint32_t> query = {
        static_cast<uint32_t>(rng.NextBounded(10)),
        static_cast<uint32_t>(10 + rng.NextBounded(10))};
    const auto full = RunKeywordSearch(graph, query, false, config);
    const auto reduced = RunKeywordSearch(graph, query, true, config);
    EXPECT_EQ(full.num_matches, reduced.num_matches);
    EXPECT_LE(reduced.extension_cost, full.extension_cost);
  }
}

// ===== Extension-kernel differential sweep (DESIGN.md §8) ==================
// The fused set-algebra strategies in enumerate/extension.cc must be
// observationally identical to the pre-kernel reference strategies: the same
// extension sequence (order included, not just the same set) and the same
// extension-test (EC) charge, at every subgraph the enumeration can reach.
// Walks the full reference enumeration tree to `max_depth`, comparing
// ComputeExtensions output at every node.
void DifferentialSweep(const Graph& g, const ExtensionStrategy& kernel,
                       const ExtensionStrategy& reference,
                       uint32_t max_depth) {
  ExtensionContext kernel_ctx;
  ExtensionContext reference_ctx;
  Subgraph kernel_sub;
  Subgraph reference_sub;
  std::vector<uint32_t> kernel_out;
  std::vector<uint32_t> reference_out;
  std::function<void(uint32_t)> recurse = [&](uint32_t depth) {
    kernel.ComputeExtensions(g, kernel_sub, kernel_ctx, &kernel_out);
    reference.ComputeExtensions(g, reference_sub, reference_ctx,
                                &reference_out);
    ASSERT_EQ(kernel_out, reference_out) << "at " << kernel_sub.ToString();
    ASSERT_EQ(kernel_ctx.extension_tests, reference_ctx.extension_tests)
        << "EC diverged at " << kernel_sub.ToString();
    if (depth == max_depth) return;
    const std::vector<uint32_t> extensions = kernel_out;  // out is reused
    for (const uint32_t extension : extensions) {
      kernel.Apply(g, extension, &kernel_sub);
      reference.Apply(g, extension, &reference_sub);
      recurse(depth + 1);
      kernel.Undo(g, &kernel_sub);
      reference.Undo(g, &reference_sub);
      if (::testing::Test::HasFatalFailure()) return;
    }
  };
  recurse(0);
}

/// Random graph with a guaranteed hub: vertex 0 is connected to everything,
/// so its degree crosses the adjacency-bitmap threshold (max(64, |V|/64))
/// and the kernel strategies exercise the bitmap filtering paths.
Graph RandomGraphWithHub(uint32_t extra_edges, uint64_t seed) {
  constexpr uint32_t kVertices = 80;
  GraphBuilder builder;
  SplitMix64 rng(seed);
  for (uint32_t v = 0; v < kVertices; ++v) {
    builder.AddVertex(static_cast<Label>(rng.NextBounded(3)));
  }
  for (uint32_t v = 1; v < kVertices; ++v) builder.AddEdge(0, v);
  uint32_t added = 0;
  while (added < extra_edges) {
    const VertexId u = 1 + static_cast<VertexId>(rng.NextBounded(kVertices - 1));
    const VertexId v = 1 + static_cast<VertexId>(rng.NextBounded(kVertices - 1));
    if (u == v || builder.HasEdge(u, v)) continue;
    builder.AddEdge(u, v, static_cast<Label>(rng.NextBounded(2)));
    ++added;
  }
  return std::move(builder).Build();
}

TEST_P(SeededProperty, KernelVertexExtensionsMatchReference) {
  const Graph g = GenerateRandomGraph(24, 70, 3, 2, GetParam());
  DifferentialSweep(g, VertexInducedStrategy{},
                    ReferenceVertexInducedStrategy{}, 3);
}

TEST_P(SeededProperty, KernelEdgeExtensionsMatchReference) {
  const Graph g = GenerateRandomGraph(18, 40, 3, 2, GetParam());
  DifferentialSweep(g, EdgeInducedStrategy{}, ReferenceEdgeInducedStrategy{},
                    3);
}

TEST_P(SeededProperty, KernelKClistExtensionsMatchReference) {
  const Graph g = GenerateRandomGraph(24, 120, 1, 1, GetParam());
  DifferentialSweep(g, KClistStrategy{}, ReferenceKClistStrategy{}, 4);
}

TEST_P(SeededProperty, KernelExtensionsMatchReferenceWithHub) {
  const Graph g = RandomGraphWithHub(160, GetParam());
  ASSERT_GT(g.NumHubs(), 0u) << "test graph must exercise the hub bitmaps";
  DifferentialSweep(g, VertexInducedStrategy{},
                    ReferenceVertexInducedStrategy{}, 2);
  DifferentialSweep(g, KClistStrategy{}, ReferenceKClistStrategy{}, 3);
}

TEST_P(SeededProperty, KernelExtensionsMatchReferenceUnderReduction) {
  const Graph g = GenerateRandomGraph(26, 80, 3, 2, GetParam());
  // Graph-reduction mask: only even-index vertices survive, so the root
  // extension sets must honor the active mask identically.
  const Graph reduced = ReduceGraph(
      g, [](const Graph&, VertexId v) { return v % 2 == 0; }, nullptr);
  ASSERT_LT(reduced.NumActiveVertices(), reduced.NumVertices());
  DifferentialSweep(reduced, VertexInducedStrategy{},
                    ReferenceVertexInducedStrategy{}, 3);
  DifferentialSweep(reduced, EdgeInducedStrategy{},
                    ReferenceEdgeInducedStrategy{}, 3);
}

// --- Differential aggregation sweep ------------------------------------------
// Pattern aggregations (packed quick keys, per-thread class ids, dense
// accumulators, merge-time key materialization) against the brute-force
// oracles: pattern -> count against brute::MotifCounts and pattern -> MNI
// support against brute::FsmFrequentPatterns. The graphs carry vertex AND
// edge labels, so every field of the key is exercised; every result is
// checked on three cluster topologies, under salvage recovery, and under
// random fault plans.

struct Topology {
  uint32_t workers;
  uint32_t threads;
};
constexpr Topology kTopologies[] = {{1, 1}, {1, 4}, {2, 2}};

ExecutionConfig TopologyConfig(const Topology& topology) {
  ExecutionConfig config;
  config.num_workers = topology.workers;
  config.threads_per_worker = topology.threads;
  config.network.latency_micros = 1;
  return config;
}

void ExpectMotifsEqual(const MotifsResult& result,
                       const std::map<Pattern, uint64_t>& expected) {
  ASSERT_TRUE(result.execution.status.ok()) << result.execution.status;
  EXPECT_EQ(result.counts.size(), expected.size());
  uint64_t total = 0;
  for (const auto& [pattern, count] : expected) {
    const auto it = result.counts.find(pattern);
    ASSERT_NE(it, result.counts.end()) << "missing " << pattern.ToString();
    EXPECT_EQ(it->second, count) << pattern.ToString();
    total += count;
  }
  EXPECT_EQ(result.total, total);
}

void ExpectFsmEqual(const FsmResult& result,
                    const std::map<Pattern, uint64_t>& expected) {
  ASSERT_TRUE(result.status.ok()) << result.status;
  std::map<Pattern, uint64_t> got;
  for (const auto& [pattern, support] : result.frequent) {
    EXPECT_TRUE(got.emplace(pattern, support).second)
        << "reported twice: " << pattern.ToString();
  }
  EXPECT_EQ(got, expected);
}

TEST_P(SeededProperty, MotifCountsMatchBruteForceAcrossTopologies) {
  const Graph g = GenerateRandomGraph(13, 30, 3, 2, GetParam());
  FractalContext fctx;
  const FractalGraph graph = fctx.FromGraph(Graph(g));
  for (uint32_t k = 1; k <= 5; ++k) {
    const std::map<Pattern, uint64_t> expected = brute::MotifCounts(g, k);
    for (const Topology& topology : kTopologies) {
      SCOPED_TRACE("k=" + std::to_string(k) + " topology " +
                   std::to_string(topology.workers) + "x" +
                   std::to_string(topology.threads));
      ExpectMotifsEqual(CountMotifs(graph, k, TopologyConfig(topology)),
                        expected);
    }
  }
}

TEST_P(SeededProperty, FsmSupportsMatchBruteForceAcrossTopologies) {
  const Graph g = GenerateRandomGraph(16, 34, 2, 2, GetParam());
  FractalContext fctx;
  const FractalGraph graph = fctx.FromGraph(Graph(g));
  for (const uint32_t support : {1u, 2u, 3u}) {
    const std::map<Pattern, uint64_t> expected =
        brute::FsmFrequentPatterns(g, support, 3);
    for (const Topology& topology : kTopologies) {
      SCOPED_TRACE("support=" + std::to_string(support) + " topology " +
                   std::to_string(topology.workers) + "x" +
                   std::to_string(topology.threads));
      ExpectFsmEqual(RunFsm(graph, support, 3, TopologyConfig(topology)),
                     expected);
    }
  }
}

// Salvage recovery and random fault plans: lineage task scratch folds into
// the committed accumulators by class id, crashed tasks' scratch is
// dropped, replays re-fold — the merged result must still equal the oracle.
// FRACTAL_CHAOS_SEEDS widens the sweep (ci.sh chaos stages).
TEST(AggregationChaosTest, PatternAggregationsMatchBruteForceUnderFaults) {
  int num_seeds = 6;
  if (const char* env = std::getenv("FRACTAL_CHAOS_SEEDS")) {
    num_seeds = std::atoi(env);
    ASSERT_GT(num_seeds, 0);
  }
  const Graph g = GenerateRandomGraph(22, 60, 3, 2, 77);
  FractalContext fctx;
  const FractalGraph graph = fctx.FromGraph(Graph(g));
  const std::map<Pattern, uint64_t> motifs = brute::MotifCounts(g, 4);
  const std::map<Pattern, uint64_t> frequent =
      brute::FsmFrequentPatterns(g, 2, 3);

  for (int seed = 1; seed <= num_seeds; ++seed) {
    for (const bool salvage : {false, true}) {
      ExecutionConfig config;
      config.num_workers = 3;
      config.threads_per_worker = 2;
      config.network.latency_micros = 1;
      config.network.request_timeout_micros = 3000;
      config.network.max_steal_retries = 2;
      config.network.retry_backoff_micros = 50;
      config.network.suspect_after_timeouts = 2;
      config.retry.max_attempts = 4;
      if (!salvage) config.retry.max_salvage_passes = 0;
      config.fault_plan = FaultPlan::Random(static_cast<uint64_t>(seed), 3);
      SCOPED_TRACE("seed " + std::to_string(seed) +
                   (salvage ? " salvage" : " from-scratch") + " plan '" +
                   config.fault_plan.ToString() + "'");
      ExpectMotifsEqual(CountMotifs(graph, 4, config), motifs);
      ExpectFsmEqual(RunFsm(graph, 2, 3, config), frequent);
    }
  }
}

// Unbounded FSM on a graph whose patterns never stop being frequent (a
// cycle at support 1) stops cleanly at the key's capacity with every level
// it could mine, instead of aborting or looping.
TEST(AggregationCapacityTest, UnboundedFsmStopsAtKeyCapacity) {
  const uint32_t n = 12;
  GraphBuilder builder;
  for (uint32_t v = 0; v < n; ++v) builder.AddVertex(0);
  for (uint32_t v = 0; v < n; ++v) builder.AddEdge(v, (v + 1) % n);
  const Graph g = std::move(builder).Build();
  FractalContext fctx;
  const FractalGraph graph = fctx.FromGraph(Graph(g));
  ExecutionConfig config;
  config.num_workers = 1;
  config.threads_per_worker = 2;

  const FsmResult result = RunFsm(graph, /*min_support=*/1,
                                  /*max_edges=*/0, config);
  EXPECT_EQ(result.status.code(), StatusCode::kInvalidArgument)
      << result.status;
  // Paths of 1..7 edges (8 vertices) fit the key; the 8-edge level does
  // not, so mining stops after 7 iterations.
  const uint32_t max_edges = QuickPatternKey::kMaxVertices - 1;
  EXPECT_EQ(result.iterations, max_edges);
  ASSERT_EQ(result.frequent.size(), max_edges);
  for (const auto& [pattern, support] : result.frequent) {
    EXPECT_EQ(pattern, CanonicalForm(Pattern::PathPattern(
                                         pattern.NumVertices()))
                           .pattern);
    EXPECT_EQ(support, n);
  }

  // A support no pattern reaches ends mining normally.
  const FsmResult exhausted = RunFsm(graph, n + 1, 0, config);
  EXPECT_TRUE(exhausted.status.ok()) << exhausted.status;
  EXPECT_TRUE(exhausted.frequent.empty());
}

TEST(ExploreTest, ExploreZeroIsIdentity) {
  FractalContext fctx;
  FractalGraph graph = fctx.FromGraph(GenerateRandomGraph(10, 20, 1, 1, 5));
  const Fractoid base = graph.VFractoid().Expand(1);
  EXPECT_EQ(base.Explore(0).primitives().size(), base.primitives().size());
}

TEST(ExploreTest, ExploreEquivalentToManualChaining) {
  const Graph g = GenerateRandomGraph(20, 50, 1, 1, 9);
  FractalContext fctx;
  FractalGraph graph = fctx.FromGraph(Graph(g));
  ExecutionConfig config;
  config.num_workers = 1;
  config.threads_per_worker = 1;
  auto is_clique = [](const Subgraph& s, Computation&) {
    return s.NumEdges() == s.NumVertices() * (s.NumVertices() - 1) / 2;
  };
  const uint64_t explored = graph.VFractoid()
                                .Expand(1)
                                .Filter(is_clique)
                                .Explore(2)
                                .CountSubgraphs(config);
  const uint64_t manual = graph.VFractoid()
                              .Expand(1)
                              .Filter(is_clique)
                              .Expand(1)
                              .Filter(is_clique)
                              .Expand(1)
                              .Filter(is_clique)
                              .CountSubgraphs(config);
  EXPECT_EQ(explored, manual);
  EXPECT_EQ(explored, brute::CountCliques(g, 3));
}

TEST(DomainSupportTest, SingleEmbeddingAndMerge) {
  GraphBuilder b;
  b.AddVertex(0);
  b.AddVertex(1);
  b.AddEdge(0, 1);
  const Graph g = std::move(b).Build();
  Subgraph s;
  s.PushEdgeInduced(g, 0);
  const CanonicalResult canonical = CanonicalForm(s.QuickPattern(g));

  DomainSupport a(2);
  a.AddEmbedding(s, canonical);
  EXPECT_EQ(a.Support(), 1u);
  EXPECT_FALSE(a.HasEnoughSupport());

  DomainSupport b2(2);
  b2.AddEmbedding(s, canonical);
  a.Merge(std::move(b2));
  EXPECT_EQ(a.Support(), 1u);  // same vertices: domains don't grow
  EXPECT_GT(a.ApproxBytes(), 0u);
}

TEST(DomainSupportTest, DistinctEmbeddingsGrowDomains) {
  // Path graph with alternating labels: edges (0,1) and (2,3) share the
  // 0-1 labeled edge pattern.
  GraphBuilder builder;
  builder.AddVertex(0);
  builder.AddVertex(1);
  builder.AddVertex(0);
  builder.AddVertex(1);
  const EdgeId e0 = builder.AddEdge(0, 1);
  builder.AddEdge(1, 2);
  const EdgeId e2 = builder.AddEdge(2, 3);
  const Graph g = std::move(builder).Build();

  DomainSupport support(2);
  for (const EdgeId e : {e0, e2}) {
    Subgraph s;
    s.PushEdgeInduced(g, e);
    support.AddEmbedding(s, CanonicalForm(s.QuickPattern(g)));
  }
  EXPECT_EQ(support.Support(), 2u);
  EXPECT_TRUE(support.HasEnoughSupport());
}

TEST(StepCachingTest, ReExecutionSkipsEverythingWhenFinalIsAggregate) {
  FractalContext fctx;
  FractalGraph graph = fctx.FromGraph(GenerateRandomGraph(15, 35, 1, 1, 3));
  ExecutionConfig config;
  config.num_workers = 1;
  config.threads_per_worker = 1;
  auto fractoid = graph.VFractoid().Expand(2).Aggregate<uint64_t, uint64_t>(
      "total", [](const Subgraph&, Computation&) -> uint64_t { return 0; },
      [](const Subgraph&, Computation&) -> uint64_t { return 1; },
      [](uint64_t& a, uint64_t&& b) { a += b; });
  const auto first = fractoid.Execute(config);
  EXPECT_EQ(first.steps_executed, 1u);
  const auto second = fractoid.Execute(config);
  EXPECT_EQ(second.steps_executed, 0u);  // fully served from cache
  const uint64_t first_total = *TypedStorage<uint64_t, uint64_t>(
                                    *first.aggregations.begin()->second)
                                    .Find(0);
  const uint64_t second_total = *TypedStorage<uint64_t, uint64_t>(
                                     *second.aggregations.begin()->second)
                                     .Find(0);
  EXPECT_EQ(second_total, first_total);
}

TEST(StepCachingTest, DisablingReuseRecomputes) {
  FractalContext fctx;
  FractalGraph graph = fctx.FromGraph(GenerateRandomGraph(15, 35, 1, 1, 3));
  ExecutionConfig config;
  config.num_workers = 1;
  config.threads_per_worker = 1;
  config.reuse_cached_aggregations = false;
  auto fractoid = graph.VFractoid().Expand(2).Aggregate<uint64_t, uint64_t>(
      "total", [](const Subgraph&, Computation&) -> uint64_t { return 0; },
      [](const Subgraph&, Computation&) -> uint64_t { return 1; },
      [](uint64_t& a, uint64_t&& b) { a += b; });
  EXPECT_EQ(fractoid.Execute(config).steps_executed, 1u);
  EXPECT_EQ(fractoid.Execute(config).steps_executed, 1u);
}

}  // namespace
}  // namespace fractal
