// Figure 16: hierarchical work-stealing drilldown on multi-step FSM-style
// mining — four configurations (1.Disabled / 2.Internal / 3.External /
// 4.Internal+External), reported per fractal step. Paper shape: imbalance
// is evident with balancing disabled (worse in later steps); internal
// stealing balances within workers at low cost; external-only balances
// across workers but pays communication; both combined give near-perfect
// balance at low communication overhead.
//
// Load balance is reported with the deterministic work-unit makespan model
// (DESIGN.md section 1): external steals are charged a communication cost
// in work units, so the Internal-vs-External overhead trade-off is visible
// exactly as in the paper's per-task runtime plots.
#include "apps/fsm.h"
#include "bench/bench_util.h"

using namespace fractal;

namespace {

/// Three-step FSM-shaped pipeline (expand/aggregate/filter x3) over the
/// given graph; pass-all aggregation filters keep the full workload so the
/// imbalance of deep enumeration shows.
Fractoid FsmShapedPipeline(const FractalGraph& graph) {
  auto count_patterns = [](const Fractoid& fractoid, const char* name) {
    return fractoid.AggregatePatterns<uint64_t>(
        name, /*initial=*/0, [](uint64_t& a, uint64_t&& b) { a += b; });
  };
  auto pass_all = [](const Fractoid& fractoid, const char* name) {
    return fractoid.FilterByAggregation<Pattern, uint64_t, PatternHash>(
        name, [](const Subgraph&, Computation&,
                 const AggregationStorage<Pattern, uint64_t, PatternHash>&) {
          return true;
        });
  };
  Fractoid fsm = count_patterns(graph.EFractoid().Expand(1), "support1");
  fsm = count_patterns(pass_all(fsm, "support1").Expand(1), "support2");
  fsm = pass_all(fsm, "support2").Expand(1);
  return fsm;
}

}  // namespace

int main(int argc, char** argv) {
  fractal::bench::TraceSession trace_session(argc, argv);
  bench::Header(
      "Figure 16: work stealing drilldown (FSM-style, 4 configurations)",
      "paper Figure 16 + section 5.2.2");

  PowerLawParams params;  // Patents-ML-like
  params.num_vertices = 2200;
  params.edges_per_vertex = 3;
  params.num_vertex_labels = 6;
  params.label_skew = 1.8;
  params.triangle_closure = 0.3;
  params.seed = 0xBEEF1;
  Graph patents = GeneratePowerLaw(params);
  std::printf("graph: %s, 2 workers x 4 cores\n",
              patents.DebugString().c_str());
  FractalContext fctx;
  FractalGraph graph = fctx.FromGraph(std::move(patents));

  // One WS_ext round trip is worth ~200 extension units at the simulated
  // latencies (makespan model).
  constexpr uint64_t kExternalStealCost = 200;

  auto make_config = [](bool internal, bool external) {
    ExecutionConfig config = bench::VirtualCores(2, 4);
    config.internal_work_stealing = internal;
    config.external_work_stealing = external;
    return config;
  };
  struct Row {
    const char* name;
    ExecutionConfig config;
    std::vector<double> step_efficiency;
    uint64_t internal_steals = 0;
    uint64_t external_steals = 0;
    uint64_t bytes = 0;
    double Average() const {
      double total = 0;
      for (const double e : step_efficiency) total += e;
      return step_efficiency.empty() ? 0 : total / step_efficiency.size();
    }
  };
  std::vector<Row> rows = {
      {"1.Disabled", make_config(false, false), {}, 0, 0, 0},
      {"2.Internal", make_config(true, false), {}, 0, 0, 0},
      {"3.External", make_config(false, true), {}, 0, 0, 0},
      {"4.Internal+External", make_config(true, true), {}, 0, 0, 0},
  };

  std::printf("\n%-22s | per-step balance efficiency (work-unit model)\n",
              "configuration");
  for (Row& row : rows) {
    const ExecutionResult execution =
        FsmShapedPipeline(graph).Execute(row.config);
    std::printf("%-22s |", row.name);
    for (const StepTelemetry& step : execution.telemetry.steps) {
      const double efficiency = step.BalanceEfficiency(kExternalStealCost);
      row.step_efficiency.push_back(efficiency);
      row.internal_steals += step.TotalInternalSteals();
      row.external_steals += step.TotalExternalSteals();
      row.bytes += step.TotalBytesShipped();
      std::printf(" %5.2f", efficiency);
    }
    std::printf("   (int %6llu, ext %5llu, shipped %s)\n",
                (unsigned long long)row.internal_steals,
                (unsigned long long)row.external_steals,
                HumanBytes(row.bytes).c_str());
  }

  bench::Claim(
      "disabled -> raw imbalance; internal -> good balance, zero "
      "communication; external-only -> balance with communication overhead; "
      "internal+external -> best trade-off");
  bench::Verdict(
      rows[0].Average() < rows[1].Average() &&
          rows[0].Average() < rows[3].Average(),
      StrFormat("avg efficiency: disabled %.2f < internal %.2f / both %.2f",
                rows[0].Average(), rows[1].Average(), rows[3].Average()));
  bench::Verdict(rows[1].bytes == 0 && rows[2].bytes > 0,
                 StrFormat("internal ships 0 bytes; external-only ships %s "
                           "over %llu steals",
                           HumanBytes(rows[2].bytes).c_str(),
                           (unsigned long long)rows[2].external_steals));
  bench::Verdict(rows[3].external_steals < rows[2].external_steals,
                 StrFormat("combining levels cuts external steals %llu -> "
                           "%llu (communication mitigated)",
                           (unsigned long long)rows[2].external_steals,
                           (unsigned long long)rows[3].external_steals));
  return 0;
}
