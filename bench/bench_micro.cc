// Microbenchmarks (google-benchmark) for the hot paths of the engine:
// extension computation per strategy, canonicalization with and without the
// quick-pattern cache, subgraph push/pop, the stolen-work codec, and step
// dispatch on an ephemeral vs. persistent cluster.
#include <benchmark/benchmark.h>

#include "core/context.h"
#include "enumerate/enumerator.h"
#include "enumerate/extension.h"
#include "graph/generators.h"
#include "graph/test_graphs.h"
#include "pattern/canonical.h"
#include "runtime/cluster.h"
#include "runtime/codec.h"
#include "tests/reference_extension.h"
#include "util/check.h"

namespace fractal {
namespace {

const Graph& BenchGraph() {
  static const Graph* graph = [] {
    PowerLawParams params;
    params.num_vertices = 2000;
    params.edges_per_vertex = 8;
    params.triangle_closure = 0.4;
    params.seed = 17;
    return new Graph(GeneratePowerLaw(params));
  }();
  return *graph;
}

void BM_VertexExtensions(benchmark::State& state) {
  const Graph& graph = BenchGraph();
  VertexInducedStrategy strategy;
  ExtensionContext ctx;
  Subgraph subgraph;
  subgraph.PushVertexInduced(graph, 10);
  subgraph.PushVertexInduced(graph, *graph.Neighbors(10).begin());
  std::vector<uint32_t> out;
  for (auto _ : state) {
    strategy.ComputeExtensions(graph, subgraph, ctx, &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * ctx.extension_tests /
                          std::max<uint64_t>(state.iterations(), 1));
}
BENCHMARK(BM_VertexExtensions);

void BM_EdgeExtensions(benchmark::State& state) {
  const Graph& graph = BenchGraph();
  EdgeInducedStrategy strategy;
  ExtensionContext ctx;
  Subgraph subgraph;
  subgraph.PushEdgeInduced(graph, 0);
  std::vector<uint32_t> out;
  for (auto _ : state) {
    strategy.ComputeExtensions(graph, subgraph, ctx, &out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_EdgeExtensions);

void BM_KClistExtensions(benchmark::State& state) {
  const Graph& graph = BenchGraph();
  KClistStrategy strategy;
  ExtensionContext ctx;
  Subgraph subgraph;
  subgraph.PushVertexInduced(graph, 3);
  std::vector<uint32_t> out;
  for (auto _ : state) {
    strategy.ComputeExtensions(graph, subgraph, ctx, &out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_KClistExtensions);

// --- Extension data plane A/B: set-algebra kernels vs. reference scans ---
// Dense Erdős–Rényi graph (400 vertices, 24k edges, ~30% density) where the
// old quadratic candidate×word scans hurt most. The ci.sh perf-smoke stage
// runs exactly these pairs (--benchmark_filter='Extensions(Kernel|Reference)')
// and records the results in BENCH_extension.json.

const Graph& DenseBenchGraph() {
  static const Graph* graph = [] {
    return new Graph(GenerateRandomGraph(/*num_vertices=*/400,
                                         /*num_edges=*/24000,
                                         /*num_vertex_labels=*/1,
                                         /*num_edge_labels=*/1, /*seed=*/7));
  }();
  return *graph;
}

/// A depth-3 connected vertex-induced prefix on the dense graph: vertex 0,
/// a neighbor, and a common neighbor of both.
Subgraph DenseVertexPrefix(const Graph& graph) {
  Subgraph subgraph;
  subgraph.PushVertexInduced(graph, 0);
  const VertexId second = graph.Neighbors(0)[0];
  subgraph.PushVertexInduced(graph, second);
  for (const VertexId v : graph.Neighbors(0)) {
    if (v != second && graph.IsAdjacent(v, second)) {
      subgraph.PushVertexInduced(graph, v);
      break;
    }
  }
  return subgraph;
}

template <typename Strategy>
void RunVertexExtensionBench(benchmark::State& state) {
  const Graph& graph = DenseBenchGraph();
  Strategy strategy;
  ExtensionContext ctx;
  Subgraph subgraph = DenseVertexPrefix(graph);
  std::vector<uint32_t> out;
  for (auto _ : state) {
    strategy.ComputeExtensions(graph, subgraph, ctx, &out);
    benchmark::DoNotOptimize(out.data());
  }
}

void BM_VertexExtensionsKernel(benchmark::State& state) {
  RunVertexExtensionBench<VertexInducedStrategy>(state);
}
BENCHMARK(BM_VertexExtensionsKernel);

void BM_VertexExtensionsReference(benchmark::State& state) {
  RunVertexExtensionBench<ReferenceVertexInducedStrategy>(state);
}
BENCHMARK(BM_VertexExtensionsReference);

template <typename Strategy>
void RunEdgeExtensionBench(benchmark::State& state) {
  const Graph& graph = DenseBenchGraph();
  Strategy strategy;
  ExtensionContext ctx;
  Subgraph subgraph;
  subgraph.PushEdgeInduced(graph, 0);
  const EdgeEndpoints& base = graph.Endpoints(0);
  for (const EdgeId e : graph.IncidentEdges(base.dst)) {
    if (e != 0) {
      subgraph.PushEdgeInduced(graph, e);
      break;
    }
  }
  std::vector<uint32_t> out;
  for (auto _ : state) {
    strategy.ComputeExtensions(graph, subgraph, ctx, &out);
    benchmark::DoNotOptimize(out.data());
  }
}

void BM_EdgeExtensionsKernel(benchmark::State& state) {
  RunEdgeExtensionBench<EdgeInducedStrategy>(state);
}
BENCHMARK(BM_EdgeExtensionsKernel);

void BM_EdgeExtensionsReference(benchmark::State& state) {
  RunEdgeExtensionBench<ReferenceEdgeInducedStrategy>(state);
}
BENCHMARK(BM_EdgeExtensionsReference);

template <typename Strategy>
void RunKClistExtensionBench(benchmark::State& state) {
  const Graph& graph = DenseBenchGraph();
  Strategy strategy;
  ExtensionContext ctx;
  Subgraph subgraph = DenseVertexPrefix(graph);
  std::vector<uint32_t> out;
  for (auto _ : state) {
    strategy.ComputeExtensions(graph, subgraph, ctx, &out);
    benchmark::DoNotOptimize(out.data());
  }
}

void BM_KClistExtensionsKernel(benchmark::State& state) {
  RunKClistExtensionBench<KClistStrategy>(state);
}
BENCHMARK(BM_KClistExtensionsKernel);

void BM_KClistExtensionsReference(benchmark::State& state) {
  RunKClistExtensionBench<ReferenceKClistStrategy>(state);
}
BENCHMARK(BM_KClistExtensionsReference);

void BM_CanonicalFormUncached(benchmark::State& state) {
  const Pattern pattern = [] {
    Pattern p = Pattern::CyclePattern(5);
    p.AddEdge(0, 2);
    p.AddEdge(1, 3);
    return p;
  }();
  for (auto _ : state) {
    benchmark::DoNotOptimize(CanonicalForm(pattern));
  }
}
BENCHMARK(BM_CanonicalFormUncached);

void BM_CanonicalFormCached(benchmark::State& state) {
  CanonicalPatternCache cache;
  const Pattern pattern = [] {
    Pattern p = Pattern::CyclePattern(5);
    p.AddEdge(0, 2);
    p.AddEdge(1, 3);
    return p;
  }();
  for (auto _ : state) {
    benchmark::DoNotOptimize(&cache.Canonicalize(pattern));
  }
}
BENCHMARK(BM_CanonicalFormCached);

void BM_SubgraphPushPop(benchmark::State& state) {
  const Graph& graph = BenchGraph();
  Subgraph subgraph;
  subgraph.PushVertexInduced(graph, 5);
  const VertexId neighbor = graph.Neighbors(5)[0];
  for (auto _ : state) {
    subgraph.PushVertexInduced(graph, neighbor);
    subgraph.Pop();
  }
}
BENCHMARK(BM_SubgraphPushPop);

void BM_StolenWorkCodec(benchmark::State& state) {
  const Graph& graph = BenchGraph();
  SubgraphEnumerator::StolenWork work;
  work.prefix.PushVertexInduced(graph, 5);
  work.prefix.PushVertexInduced(graph, graph.Neighbors(5)[0]);
  work.prefix.PushVertexInduced(graph, graph.Neighbors(5)[1]);
  work.extension = 77;
  work.primitive_index = 3;
  SubgraphEnumerator::StolenWork decoded;
  for (auto _ : state) {
    const auto bytes = SubgraphCodec::EncodeStolenWork(work);
    benchmark::DoNotOptimize(
        SubgraphCodec::DecodeStolenWork(bytes, &decoded));
  }
}
BENCHMARK(BM_StolenWorkCodec);

// --- Step dispatch: ephemeral vs. persistent cluster ----------------------
// A 4-step workflow (three aggregation sync points + a final enumeration)
// over a tiny graph, so per-step dispatch dominates the enumeration work.
// The ephemeral variant pays thread spawn/join for every execution (the
// pre-refactor executor paid it for every *step*); the persistent variant
// reuses one Cluster whose threads park between steps.

ExecutionConfig DispatchConfig() {
  ExecutionConfig config;
  config.num_workers = 4;
  config.threads_per_worker = 2;
  config.network.latency_micros = 0;
  config.network.per_kb_micros = 0;
  return config;
}

void RunMultiStepWorkflow(const FractalGraph& graph,
                          const ExecutionConfig& config) {
  auto key = [](const Subgraph&, Computation&) -> uint64_t { return 0; };
  auto value = [](const Subgraph&, Computation&) -> uint64_t { return 1; };
  auto reduce = [](uint64_t& a, uint64_t&& b) { a += b; };
  auto pass = [](const Subgraph&, Computation&,
                 const AggregationStorage<uint64_t, uint64_t>&) {
    return true;
  };
  // Fresh fractoid per run: cached aggregations would skip the steps.
  Fractoid fractoid = graph.EFractoid().Expand(1);
  for (int i = 0; i < 3; ++i) {
    // Built with += : `const char* + string&&` trips GCC 12's -Wrestrict
    // false positive (PR105651) under -O2.
    std::string name = "c";
    name += std::to_string(i);
    fractoid =
        fractoid.Aggregate<uint64_t, uint64_t>(name, key, value, reduce)
            .FilterByAggregation<uint64_t, uint64_t>(name, pass);
  }
  const ExecutionResult result = fractoid.Expand(1).Execute(config);
  // A silent failure here would benchmark the error path, not dispatch.
  FRACTAL_CHECK(result.status.ok()) << result.status;
  benchmark::DoNotOptimize(result.num_subgraphs);
}

void BM_StepDispatchEphemeralCluster(benchmark::State& state) {
  FractalContext fctx;
  FractalGraph graph = fctx.FromGraph(testgraphs::Star(6));
  const ExecutionConfig config = DispatchConfig();
  for (auto _ : state) {
    RunMultiStepWorkflow(graph, config);
  }
  state.SetItemsProcessed(state.iterations() * 4);  // steps dispatched
}
BENCHMARK(BM_StepDispatchEphemeralCluster)->Unit(benchmark::kMicrosecond);

void BM_StepDispatchPersistentCluster(benchmark::State& state) {
  FractalContext fctx;
  FractalGraph graph = fctx.FromGraph(testgraphs::Star(6));
  ExecutionConfig config = DispatchConfig();
  Cluster cluster(ToClusterOptions(config));
  config.cluster = &cluster;
  for (auto _ : state) {
    RunMultiStepWorkflow(graph, config);
  }
  state.SetItemsProcessed(state.iterations() * 4);
}
BENCHMARK(BM_StepDispatchPersistentCluster)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace fractal

BENCHMARK_MAIN();
