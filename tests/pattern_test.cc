#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>

#include "core/context.h"
#include "core/executor.h"
#include "enumerate/subgraph.h"
#include "graph/generators.h"
#include "pattern/quick_key.h"
#include "pattern/automorphism.h"
#include "pattern/canonical.h"
#include "pattern/dfs_code.h"
#include "pattern/pattern.h"
#include "util/random.h"

namespace fractal {
namespace {

TEST(PatternTest, BasicConstruction) {
  Pattern p;
  EXPECT_EQ(p.AddVertex(5), 0u);
  EXPECT_EQ(p.AddVertex(7), 1u);
  p.AddEdge(0, 1, 3);
  EXPECT_EQ(p.NumVertices(), 2u);
  EXPECT_EQ(p.NumEdges(), 1u);
  EXPECT_EQ(p.VertexLabel(0), 5u);
  EXPECT_EQ(p.VertexLabel(1), 7u);
  EXPECT_TRUE(p.IsAdjacent(0, 1));
  EXPECT_TRUE(p.IsAdjacent(1, 0));
  EXPECT_EQ(p.EdgeLabelBetween(1, 0), 3u);
  EXPECT_TRUE(p.IsConnected());
}

TEST(PatternTest, CliqueHelpers) {
  const Pattern k4 = Pattern::Clique(4);
  EXPECT_EQ(k4.NumVertices(), 4u);
  EXPECT_EQ(k4.NumEdges(), 6u);
  EXPECT_TRUE(k4.IsClique());
  EXPECT_TRUE(k4.IsConnected());

  const Pattern c5 = Pattern::CyclePattern(5);
  EXPECT_EQ(c5.NumEdges(), 5u);
  EXPECT_FALSE(c5.IsClique());
  for (uint32_t v = 0; v < 5; ++v) EXPECT_EQ(c5.Degree(v), 2u);

  const Pattern p3 = Pattern::PathPattern(3);
  EXPECT_EQ(p3.NumEdges(), 2u);
  const Pattern s4 = Pattern::StarPattern(4);
  EXPECT_EQ(s4.Degree(0), 3u);
}

TEST(PatternTest, DisconnectedDetected) {
  Pattern p;
  p.AddVertex(0);
  p.AddVertex(0);
  p.AddVertex(0);
  p.AddEdge(0, 1);
  EXPECT_FALSE(p.IsConnected());
}

TEST(PatternTest, PermutedRelabelsStructure) {
  Pattern p;
  p.AddVertex(1);
  p.AddVertex(2);
  p.AddVertex(3);
  p.AddEdge(0, 1, 9);
  p.AddEdge(1, 2, 8);
  const Pattern q = p.Permuted({2, 0, 1});
  EXPECT_EQ(q.VertexLabel(2), 1u);
  EXPECT_EQ(q.VertexLabel(0), 2u);
  EXPECT_EQ(q.VertexLabel(1), 3u);
  EXPECT_TRUE(q.IsAdjacent(2, 0));
  EXPECT_EQ(q.EdgeLabelBetween(2, 0), 9u);
  EXPECT_TRUE(q.IsAdjacent(0, 1));
  EXPECT_EQ(q.EdgeLabelBetween(0, 1), 8u);
  EXPECT_FALSE(q.IsAdjacent(1, 2));
}

TEST(CanonicalTest, PermutationReturnsSelfConsistentResult) {
  Pattern p = Pattern::CyclePattern(4);
  p.AddEdge(0, 2);
  const CanonicalResult canonical = CanonicalForm(p);
  EXPECT_EQ(canonical.pattern, p.Permuted(canonical.permutation));
}

TEST(CanonicalTest, InvariantUnderRelabeling) {
  SplitMix64 rng(123);
  for (int trial = 0; trial < 200; ++trial) {
    // Random small labeled pattern.
    const uint32_t n = 2 + rng.NextBounded(5);
    Pattern p;
    for (uint32_t i = 0; i < n; ++i) {
      p.AddVertex(static_cast<Label>(rng.NextBounded(3)));
    }
    for (uint32_t i = 0; i < n; ++i) {
      for (uint32_t j = i + 1; j < n; ++j) {
        if (rng.NextBounded(100) < 55) {
          p.AddEdge(i, j, static_cast<Label>(rng.NextBounded(2)));
        }
      }
    }
    // Random permutation.
    std::vector<uint32_t> perm(n);
    std::iota(perm.begin(), perm.end(), 0);
    for (uint32_t i = n; i > 1; --i) {
      std::swap(perm[i - 1], perm[rng.NextBounded(i)]);
    }
    const Pattern q = p.Permuted(perm);
    EXPECT_EQ(CanonicalForm(p).pattern, CanonicalForm(q).pattern)
        << "p=" << p.ToString() << " q=" << q.ToString();
  }
}

TEST(CanonicalTest, DistinguishesNonIsomorphic) {
  const Pattern path = Pattern::PathPattern(4);
  const Pattern star = Pattern::StarPattern(4);
  EXPECT_EQ(path.NumEdges(), star.NumEdges());
  EXPECT_NE(CanonicalForm(path).pattern, CanonicalForm(star).pattern);
  EXPECT_FALSE(AreIsomorphic(path, star));
  EXPECT_TRUE(AreIsomorphic(path, path.Permuted({3, 1, 0, 2})));
}

TEST(CanonicalTest, LabelsMatter) {
  Pattern a;
  a.AddVertex(0);
  a.AddVertex(1);
  a.AddEdge(0, 1);
  Pattern b;
  b.AddVertex(0);
  b.AddVertex(0);
  b.AddEdge(0, 1);
  EXPECT_FALSE(AreIsomorphic(a, b));
  Pattern c;
  c.AddVertex(1);
  c.AddVertex(0);
  c.AddEdge(0, 1);
  EXPECT_TRUE(AreIsomorphic(a, c));
}

TEST(CanonicalTest, CacheHitsOnRepeatedQuickPatterns) {
  CanonicalPatternCache cache;
  const Pattern p = Pattern::CyclePattern(4);
  const CanonicalResult& first = cache.Canonicalize(p);
  const CanonicalResult& second = cache.Canonicalize(p);
  EXPECT_EQ(&first, &second);
  EXPECT_EQ(cache.Misses(), 1u);
  EXPECT_EQ(cache.Hits(), 1u);
}

TEST(DfsCodeTest, TriangleCode) {
  const DfsCode code = MinDfsCode(Pattern::Clique(3));
  ASSERT_EQ(code.edges.size(), 3u);
  // (0,1)(1,2)(2,0): two forwards then the closing backward edge.
  EXPECT_TRUE(code.edges[0].IsForward());
  EXPECT_TRUE(code.edges[1].IsForward());
  EXPECT_FALSE(code.edges[2].IsForward());
}

TEST(DfsCodeTest, RoundTripThroughPattern) {
  SplitMix64 rng(77);
  for (int trial = 0; trial < 100; ++trial) {
    const uint32_t n = 2 + rng.NextBounded(5);
    Pattern p;
    for (uint32_t i = 0; i < n; ++i) {
      p.AddVertex(static_cast<Label>(rng.NextBounded(2)));
    }
    // Random spanning tree to guarantee connectivity, then extra edges.
    for (uint32_t i = 1; i < n; ++i) {
      p.AddEdge(i, static_cast<uint32_t>(rng.NextBounded(i)),
                static_cast<Label>(rng.NextBounded(2)));
    }
    for (uint32_t i = 0; i < n; ++i) {
      for (uint32_t j = i + 1; j < n; ++j) {
        if (!p.IsAdjacent(i, j) && rng.NextBounded(100) < 30) {
          p.AddEdge(i, j, static_cast<Label>(rng.NextBounded(2)));
        }
      }
    }
    const DfsCode code = MinDfsCode(p);
    const Pattern rebuilt = PatternFromDfsCode(code);
    EXPECT_TRUE(AreIsomorphic(p, rebuilt)) << p.ToString();
    // The minimum DFS code must be a canonical form: equal across all
    // members of the isomorphism class.
    std::vector<uint32_t> perm(n);
    std::iota(perm.begin(), perm.end(), 0);
    std::swap(perm[0], perm[n - 1]);
    EXPECT_EQ(MinDfsCode(p.Permuted(perm)), code) << p.ToString();
  }
}

TEST(DfsCodeTest, AgreesWithAdjacencyCanonicalization) {
  // The two canonicalization providers must induce the same equivalence
  // classes on random patterns.
  SplitMix64 rng(42);
  std::map<std::string, Pattern> dfs_class_representative;
  for (int trial = 0; trial < 150; ++trial) {
    const uint32_t n = 2 + rng.NextBounded(4);
    Pattern p;
    for (uint32_t i = 0; i < n; ++i) {
      p.AddVertex(static_cast<Label>(rng.NextBounded(2)));
    }
    for (uint32_t i = 1; i < n; ++i) {
      p.AddEdge(i, static_cast<uint32_t>(rng.NextBounded(i)));
    }
    for (uint32_t i = 0; i < n; ++i) {
      for (uint32_t j = i + 1; j < n; ++j) {
        if (!p.IsAdjacent(i, j) && rng.NextBounded(100) < 40) p.AddEdge(i, j);
      }
    }
    const std::string dfs_key = MinDfsCode(p).ToString();
    const Pattern canonical = CanonicalForm(p).pattern;
    auto [it, inserted] =
        dfs_class_representative.emplace(dfs_key, canonical);
    if (!inserted) {
      EXPECT_EQ(it->second, canonical)
          << "DFS-code class split by adjacency canonicalization";
    }
  }
}

TEST(AutomorphismTest, KnownGroupSizes) {
  EXPECT_EQ(Automorphisms(Pattern::Clique(4)).size(), 24u);      // S4
  EXPECT_EQ(Automorphisms(Pattern::CyclePattern(5)).size(), 10u);  // D5
  EXPECT_EQ(Automorphisms(Pattern::PathPattern(4)).size(), 2u);
  EXPECT_EQ(Automorphisms(Pattern::StarPattern(5)).size(), 24u);  // S4 leaves
}

TEST(AutomorphismTest, LabelsBreakSymmetry) {
  Pattern p = Pattern::PathPattern(3);
  EXPECT_EQ(Automorphisms(p).size(), 2u);
  Pattern labeled;
  labeled.AddVertex(1);
  labeled.AddVertex(0);
  labeled.AddVertex(2);
  labeled.AddEdge(0, 1);
  labeled.AddEdge(1, 2);
  EXPECT_EQ(Automorphisms(labeled).size(), 1u);
}

TEST(SymmetryBreakingTest, CliqueGetsTotalOrder) {
  const auto conditions = SymmetryBreakingConditions(Pattern::Clique(4));
  // Breaking S4 requires fixing 3 orbits: 3 + 2 + 1 = 6 conditions.
  EXPECT_EQ(conditions.size(), 6u);
}

TEST(SymmetryBreakingTest, ExactlyOneRepresentativePerOrbit) {
  // For every pattern and every injective assignment of distinct ids to
  // positions, exactly one automorphic re-assignment satisfies the
  // conditions.
  for (const Pattern& p :
       {Pattern::Clique(3), Pattern::CyclePattern(4), Pattern::StarPattern(4),
        Pattern::PathPattern(4), Pattern::Clique(4)}) {
    const auto automorphisms = Automorphisms(p);
    const auto conditions = SymmetryBreakingConditions(p);
    // Assignment: position i -> id order[i] for a fixed distinct id set.
    std::vector<uint32_t> ids(p.NumVertices());
    std::iota(ids.begin(), ids.end(), 10);
    uint32_t satisfying = 0;
    for (const auto& automorphism : automorphisms) {
      // Re-assign: position i gets the id of position automorphism[i].
      bool ok = true;
      for (const SymmetryCondition& condition : conditions) {
        if (ids[automorphism[condition.smaller]] >=
            ids[automorphism[condition.larger]]) {
          ok = false;
          break;
        }
      }
      if (ok) ++satisfying;
    }
    EXPECT_EQ(satisfying, 1u) << p.ToString();
  }
}


// --- QuickPatternKey ---------------------------------------------------------

// The pre-key construction of the quick pattern (heap Pattern, positions by
// linear scan), kept here as the independent reference for the packed key.
Pattern ReferenceQuickPattern(const Subgraph& subgraph, const Graph& graph) {
  Pattern pattern;
  for (const VertexId v : subgraph.Vertices()) {
    pattern.AddVertex(graph.VertexLabel(v));
  }
  for (const EdgeId e : subgraph.Edges()) {
    const EdgeEndpoints& endpoints = graph.Endpoints(e);
    uint32_t src = 0;
    uint32_t dst = 0;
    for (uint32_t i = 0; i < subgraph.NumVertices(); ++i) {
      if (subgraph.VertexAt(i) == endpoints.src) src = i;
      if (subgraph.VertexAt(i) == endpoints.dst) dst = i;
    }
    pattern.AddEdge(src, dst, graph.GetEdgeLabel(e));
  }
  return pattern;
}

/// Vertex- and edge-induced subgraphs of a random graph with vertex and
/// edge labels (so every field of the key is exercised), collected through
/// the engine in their enumeration (addition) order.
std::vector<Subgraph> RandomSubgraphs(const Graph& g) {
  FractalContext fctx;
  const FractalGraph graph = fctx.FromGraph(Graph(g));
  ExecutionConfig config;
  config.num_workers = 1;
  config.threads_per_worker = 2;
  config.max_collected_subgraphs = 400;
  std::vector<Subgraph> subgraphs;
  for (uint32_t k = 1; k <= 5; ++k) {
    for (Subgraph& s : graph.VFractoid().Expand(k).CollectSubgraphs(config)) {
      subgraphs.push_back(std::move(s));
    }
  }
  for (uint32_t k = 1; k <= 6; ++k) {
    for (Subgraph& s : graph.EFractoid().Expand(k).CollectSubgraphs(config)) {
      subgraphs.push_back(std::move(s));
    }
  }
  return subgraphs;
}

class QuickKeyProperty : public ::testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, QuickKeyProperty,
                         ::testing::Values(11, 12, 13));

TEST_P(QuickKeyProperty, KeyRoundTripsToTheQuickPattern) {
  const Graph g = GenerateRandomGraph(12, 26, 3, 3, GetParam());
  const std::vector<Subgraph> subgraphs = RandomSubgraphs(g);
  ASSERT_GT(subgraphs.size(), 100u);
  for (const Subgraph& s : subgraphs) {
    const Pattern reference = ReferenceQuickPattern(s, g);
    const QuickPatternKey key = s.QuickKey(g);
    EXPECT_EQ(key.ToPattern(), reference) << s.ToString();
    EXPECT_EQ(s.QuickPattern(g), reference) << s.ToString();
    EXPECT_EQ(QuickPatternKey::FromPattern(reference), key) << s.ToString();
    EXPECT_EQ(key.num_edges, s.NumEdges());
  }
}

TEST_P(QuickKeyProperty, KeyEqualityAndHashAgreeWithPatternEquality) {
  const Graph g = GenerateRandomGraph(10, 22, 2, 2, GetParam());
  std::vector<Subgraph> subgraphs = RandomSubgraphs(g);
  subgraphs.resize(std::min<size_t>(subgraphs.size(), 600));
  std::vector<QuickPatternKey> keys;
  std::vector<Pattern> patterns;
  for (const Subgraph& s : subgraphs) {
    keys.push_back(s.QuickKey(g));
    patterns.push_back(ReferenceQuickPattern(s, g));
  }
  uint64_t equal_pairs = 0;
  uint64_t hash_collisions = 0;
  for (size_t i = 0; i < keys.size(); ++i) {
    for (size_t j = i + 1; j < keys.size(); ++j) {
      const bool same_pattern = patterns[i] == patterns[j];
      ASSERT_EQ(keys[i] == keys[j], same_pattern)
          << patterns[i].ToString() << " vs " << patterns[j].ToString();
      if (same_pattern) {
        ++equal_pairs;
        EXPECT_EQ(keys[i].Hash(), keys[j].Hash());
      } else if (keys[i].Hash() == keys[j].Hash()) {
        ++hash_collisions;
      }
    }
  }
  EXPECT_GT(equal_pairs, 0u);  // the sample repeats quick patterns
  EXPECT_EQ(hash_collisions, 0u);
}

TEST(QuickKeyTest, CanonicalizeByPatternMatchesCanonicalForm) {
  const Graph g = GenerateRandomGraph(12, 26, 3, 2, 21);
  CanonicalPatternCache cache;
  for (const Subgraph& s : RandomSubgraphs(g)) {
    const Pattern quick = s.QuickPattern(g);
    const CanonicalResult expected = CanonicalForm(quick);
    const CanonicalResult& got = cache.Canonicalize(quick);
    EXPECT_EQ(got.pattern, expected.pattern);
    EXPECT_EQ(quick.Permuted(got.permutation), expected.pattern);
    EXPECT_EQ(got.orbit, expected.orbit);
    // The hot-path lookup agrees with the Pattern-typed one.
    const CanonicalPatternCache::Mapping& mapping =
        cache.Classify(s.QuickKey(g));
    EXPECT_EQ(cache.Class(mapping.class_id).pattern, expected.pattern);
  }
  EXPECT_GT(cache.Hits(), 0u);
  EXPECT_EQ(cache.Misses(), cache.CacheSize());
  EXPECT_LE(cache.NumClasses(), cache.CacheSize());
}

TEST(QuickKeyTest, OversizedAggregationIsRejectedBeforeEnumeration) {
  const Graph g = GenerateRandomGraph(30, 90, 2, 1, 5);
  FractalContext fctx;
  const FractalGraph graph = fctx.FromGraph(Graph(g));
  const uint32_t max_vertices = QuickPatternKey::kMaxVertices;
  const auto counts = [](const Fractoid& fractoid) {
    return fractoid.AggregatePatterns<uint64_t>(
        "counts", 0, [](uint64_t& a, uint64_t&& b) { a += b; });
  };
  // Vertex-induced: k vertices after k expansions; edge-induced: e + 1.
  EXPECT_TRUE(CheckAggregationCapacity(
                  counts(graph.VFractoid().Expand(max_vertices)))
                  .ok());
  EXPECT_TRUE(CheckAggregationCapacity(
                  counts(graph.EFractoid().Expand(max_vertices - 1)))
                  .ok());
  const Fractoid too_deep = counts(graph.VFractoid().Expand(max_vertices + 1));
  EXPECT_FALSE(CheckAggregationCapacity(too_deep).ok());
  EXPECT_FALSE(
      CheckAggregationCapacity(counts(graph.EFractoid().Expand(max_vertices)))
          .ok());

  const ExecutionResult result = too_deep.Execute();
  EXPECT_EQ(result.status.code(), StatusCode::kInvalidArgument)
      << result.status;
  EXPECT_EQ(result.steps_executed, 0u);  // nothing was enumerated
  EXPECT_TRUE(result.telemetry.steps.empty());
}

}  // namespace
}  // namespace fractal
