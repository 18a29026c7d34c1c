// perfbench driver: runs one benchmark workload against the library's public
// API and prints one JSON record of raw samples on its last stdout line.
// perfbench/run.py builds this binary, runs it, and turns the record into the
// benchmark's metrics; see perfbench/README.md for the workloads and metrics.
//
//   perfbench_driver oracle  --workload W --seed N --out FILE
//   perfbench_driver measure --workload W --seed N --seconds S --trace 0|1
//                            --oracle FILE [--spans FILE]
//
// `oracle` computes the single-threaded reference result
// (baselines::Tuned*) in its own process, so neither its time nor its memory
// lands in a measured region. `measure` sets the workload up several times,
// then issues requests until `--seconds` have elapsed, checking every result
// against the reference file. With --trace 1 it alternates untraced and
// traced requests, records benchmark-owned spans around its calls into each
// layer (written to --spans at exit), counts guarded hot-path allocations,
// and runs the layer probes (enumeration-only twin, pattern sample).
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <queue>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "apps/fsm.h"
#include "apps/motifs.h"
#include "apps/queries.h"
#include "baselines/single_thread.h"
#include "core/context.h"
#include "core/executor.h"
#include "graph/generators.h"
#include "obs/metrics.h"
#include "pattern/canonical.h"
#include "runtime/cluster.h"
#include "runtime/query_scheduler.h"
#include "util/alloc_guard.h"
#include "util/random.h"

namespace fractal {
namespace perfbench {
namespace {

// --- Workload definitions ---------------------------------------------------

enum class Workload { kMotifs4, kFsm3, kQueriesMt };

constexpr uint32_t kFsmSupport = 300;
constexpr uint32_t kFsmMaxEdges = 3;
constexpr uint32_t kMotifK = 4;
constexpr uint32_t kClients = 4;
constexpr uint32_t kQueriesPerBatch = 120;  // 15 of each SEED query
constexpr uint32_t kSetupWarmups = 5;  // set-ups built first, not reported
constexpr uint32_t kSetupWindow = 24;  // set-ups before and after each request
constexpr uint32_t kPatternSample = 16384;

std::optional<Workload> ParseWorkload(const std::string& name) {
  if (name == "motifs4") return Workload::kMotifs4;
  if (name == "fsm3") return Workload::kFsm3;
  if (name == "queries_mt") return Workload::kQueriesMt;
  return std::nullopt;
}

/// Independent streams derived from the workload seed.
uint64_t DeriveSeed(uint64_t seed, uint64_t stream) {
  SplitMix64 rng(seed * 0x100000001b3ull + stream);
  return rng.Next();
}

/// The fixed base graph of a workload: the fractal_cli demo shape (labeled)
/// or its unlabeled, slightly more clustered twin for queries_mt.
PowerLawParams BaseGraphParams(Workload workload) {
  PowerLawParams params;
  params.num_vertices = 2000;
  params.edges_per_vertex = 6;
  params.seed = 1;
  if (workload == Workload::kQueriesMt) {
    params.num_vertex_labels = 1;
    params.triangle_closure = 0.45;
  } else {
    params.num_vertex_labels = 5;
    params.triangle_closure = 0.4;
  }
  return params;
}

/// The seed's input graph: an isomorphic relabeling of `base` — a seeded
/// permutation of vertex ids, of vertex label values and of edge insertion
/// order (edge ids). Generator seeds would change the amount of work by up
/// to a third between seeds (power-law hubs, FSM support thresholds); a
/// relabeling keeps the work fixed while changing everything that depends
/// on ids: enumeration order, root partitioning, steal victims, symmetry
/// breaking, and which label values are frequent.
Graph PermutedGraph(const Graph& base, uint64_t seed) {
  SplitMix64 rng(DeriveSeed(seed, 1));
  const auto shuffle = [&rng](auto& items) {
    for (size_t i = items.size(); i > 1; --i) {
      std::swap(items[i - 1], items[rng.NextBounded(i)]);
    }
  };
  const uint32_t n = base.NumVertices();
  std::vector<VertexId> new_id(n);
  for (VertexId v = 0; v < n; ++v) new_id[v] = v;
  shuffle(new_id);
  Label max_label = 0;
  for (VertexId v = 0; v < n; ++v) {
    max_label = std::max(max_label, base.VertexLabel(v));
  }
  std::vector<Label> new_label(max_label + 1);
  for (Label l = 0; l <= max_label; ++l) new_label[l] = l;
  shuffle(new_label);
  std::vector<EdgeId> edge_order(base.NumEdges());
  for (EdgeId e = 0; e < base.NumEdges(); ++e) edge_order[e] = e;
  shuffle(edge_order);

  std::vector<VertexId> old_id(n);
  for (VertexId v = 0; v < n; ++v) old_id[new_id[v]] = v;
  GraphBuilder builder;
  for (VertexId v = 0; v < n; ++v) {
    builder.AddVertex(new_label[base.VertexLabel(old_id[v])]);
  }
  for (const EdgeId e : edge_order) {
    const EdgeEndpoints& ends = base.Endpoints(e);
    builder.AddEdge(new_id[ends.src], new_id[ends.dst], base.GetEdgeLabel(e));
  }
  return std::move(builder).Build();
}

Graph InputGraph(Workload workload, uint64_t seed) {
  return PermutedGraph(GeneratePowerLaw(BaseGraphParams(workload)), seed);
}

ClusterOptions TopologyFor(Workload workload) {
  ClusterOptions options;
  if (workload == Workload::kFsm3) {
    options.num_workers = 2;
    options.threads_per_worker = 2;
    options.external_work_stealing = true;
  } else {
    options.num_workers = 1;
    options.threads_per_worker = 4;
  }
  return options;
}

// --- Clocks -----------------------------------------------------------------

int64_t NowNs() {
  static const auto kEpoch = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - kEpoch)
      .count();
}

double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

/// Process user+sys CPU seconds.
double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                    usage.ru_stime.tv_usec);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// --- Span recorder ----------------------------------------------------------

/// In-memory span log owned by the benchmark: one record per timed call into
/// a layer, with its parent span and the run (setup repetition, request,
/// probe) it belongs to. Thread-safe; a no-op while disabled.
class SpanRecorder {
 public:
  struct Span {
    std::string name;
    int64_t id = 0;
    int64_t parent = 0;  // 0: root
    int64_t run = 0;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
  };

  void set_enabled(bool enabled) { enabled_ = enabled; }

  /// Opens a span; returns its id (0 when disabled).
  int64_t Begin(std::string name, int64_t parent, int64_t run) {
    if (!enabled_) return 0;
    std::lock_guard<std::mutex> lock(mu_);
    Span span;
    span.name = std::move(name);
    span.id = static_cast<int64_t>(spans_.size()) + 1;
    span.parent = parent;
    span.run = run;
    span.start_ns = NowNs();
    spans_.push_back(std::move(span));
    return spans_.back().id;
  }

  void End(int64_t id) {
    if (id == 0) return;
    const int64_t now = NowNs();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<size_t>(id - 1)].end_ns = now;
  }

  bool WriteJson(const std::string& path) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    std::fprintf(out, "[\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(out,
                   "{\"name\":\"%s\",\"id\":%" PRId64 ",\"parent\":%" PRId64
                   ",\"run\":%" PRId64 ",\"start_ns\":%" PRId64
                   ",\"end_ns\":%" PRId64 "}%s\n",
                   s.name.c_str(), s.id, s.parent, s.run, s.start_ns,
                   s.end_ns, i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(out, "]\n");
    return std::fclose(out) == 0;
  }

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

SpanRecorder& Spans() {
  static SpanRecorder recorder;
  return recorder;
}

class ScopedSpan {
 public:
  ScopedSpan(std::string name, int64_t parent, int64_t run)
      : id_(Spans().Begin(std::move(name), parent, run)) {}
  ~ScopedSpan() { Spans().End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int64_t id() const { return id_; }

 private:
  int64_t id_;
};

// --- Minimal JSON writer ----------------------------------------------------

class Json {
 public:
  Json& Open(char bracket) {
    Sep();
    out_ << bracket;
    first_ = true;
    return *this;
  }
  Json& Close(char bracket) {
    out_ << bracket;
    first_ = false;
    return *this;
  }
  Json& Key(const std::string& key) {
    Sep();
    out_ << '"' << key << "\":";
    first_ = true;
    return *this;
  }
  Json& Num(double value) {
    Sep();
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    out_ << buf;
    return *this;
  }
  Json& Int(uint64_t value) {
    Sep();
    out_ << value;
    return *this;
  }
  Json& Bool(bool value) {
    Sep();
    out_ << (value ? "true" : "false");
    return *this;
  }
  Json& Str(const std::string& value) {
    Sep();
    out_ << '"';
    for (const char c : value) {
      if (c == '"' || c == '\\') out_ << '\\';
      out_ << (static_cast<unsigned char>(c) < 0x20 ? ' ' : c);
    }
    out_ << '"';
    return *this;
  }
  Json& Field(const std::string& key, double value) {
    return Key(key).Num(value);
  }
  Json& IntField(const std::string& key, uint64_t value) {
    return Key(key).Int(value);
  }
  std::string str() const { return out_.str(); }

 private:
  void Sep() {
    if (!first_) out_ << ',';
    first_ = false;
  }
  std::ostringstream out_;
  bool first_ = true;
};

// --- Reference results ------------------------------------------------------

/// key -> expected value, as written by `oracle` mode. Motif and FSM keys are
/// canonical pattern strings; query keys are "q1".."q8".
using Reference = std::map<std::string, uint64_t>;

Reference ComputeReference(Workload workload, const Graph& graph) {
  Reference reference;
  switch (workload) {
    case Workload::kMotifs4:
      for (const auto& [pattern, count] :
           baselines::TunedMotifCounts(graph, kMotifK)) {
        reference[pattern.ToString()] = count;
      }
      break;
    case Workload::kFsm3:
      for (const auto& [pattern, support] :
           baselines::TunedFsm(graph, kFsmSupport, kFsmMaxEdges)) {
        reference[pattern.ToString()] = support;
      }
      break;
    case Workload::kQueriesMt:
      for (uint32_t q = 1; q <= kNumSeedQueries; ++q) {
        reference["q" + std::to_string(q)] =
            baselines::TunedQueryCount(graph, SeedQuery(q));
      }
      break;
  }
  return reference;
}

bool WriteReference(const std::string& path, const Reference& reference) {
  std::ofstream out(path);
  for (const auto& [key, value] : reference) {
    out << value << '\t' << key << '\n';
  }
  return static_cast<bool>(out);
}

std::optional<Reference> ReadReference(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  Reference reference;
  std::string line;
  while (std::getline(in, line)) {
    const size_t tab = line.find('\t');
    if (tab == std::string::npos) return std::nullopt;
    reference[line.substr(tab + 1)] = std::strtoull(line.c_str(), nullptr, 10);
  }
  if (reference.empty()) return std::nullopt;
  return reference;
}

// --- Per-request telemetry --------------------------------------------------

/// Sums of the runtime's own per-step telemetry over one request.
struct StepTotals {
  uint64_t steps = 0;
  double step_wall_s = 0;    // sum of StepTelemetry::wall_seconds
  double thread_wall_s = 0;  // sum of threads x step wall
  double busy_s = 0;
  uint64_t work_units = 0;
  uint64_t extension_tests = 0;
  uint64_t steals_internal = 0;
  uint64_t steals_external = 0;
  uint64_t steal_failures = 0;
  uint64_t steal_timeouts = 0;
  uint64_t bytes_shipped = 0;
  double ideal_units = 0;      // work-unit makespan model, summed over steps
  double simulated_units = 0;

  void Add(const StepTelemetry& step) {
    ++steps;
    step_wall_s += step.wall_seconds;
    thread_wall_s +=
        step.wall_seconds * static_cast<double>(step.threads.size());
    for (const ThreadStats& t : step.threads) {
      busy_s += t.busy_seconds;
      steals_internal += t.internal_steals;
      steals_external += t.external_steals;
      steal_failures += t.steal_failures;
      steal_timeouts += t.steal_timeouts;
      bytes_shipped += t.bytes_shipped;
    }
    work_units += step.TotalWorkUnits();
    extension_tests += step.TotalExtensionTests();
    ideal_units += step.IdealMakespanUnits();
    simulated_units += static_cast<double>(step.SimulatedMakespanUnits(0));
  }

  void Merge(const StepTotals& o) {
    steps += o.steps;
    step_wall_s += o.step_wall_s;
    thread_wall_s += o.thread_wall_s;
    busy_s += o.busy_s;
    work_units += o.work_units;
    extension_tests += o.extension_tests;
    steals_internal += o.steals_internal;
    steals_external += o.steals_external;
    steal_failures += o.steal_failures;
    steal_timeouts += o.steal_timeouts;
    bytes_shipped += o.bytes_shipped;
    ideal_units += o.ideal_units;
    simulated_units += o.simulated_units;
  }

  void Write(Json& json) const {
    json.IntField("steps", steps)
        .Field("step_wall_s", step_wall_s)
        .Field("thread_wall_s", thread_wall_s)
        .Field("busy_s", busy_s)
        .IntField("work_units", work_units)
        .IntField("extension_tests", extension_tests)
        .IntField("steals_internal", steals_internal)
        .IntField("steals_external", steals_external)
        .IntField("steal_failures", steal_failures)
        .IntField("steal_timeouts", steal_timeouts)
        .IntField("bytes_shipped", bytes_shipped)
        .Field("ideal_units", ideal_units)
        .Field("simulated_units", simulated_units);
  }
};

/// Process-wide registry counters and histograms read before and after a
/// request; the record holds the deltas.
struct RegistrySnapshot {
  uint64_t intersections = 0, galloped = 0, scratch_hits = 0,
           scratch_misses = 0;
  uint64_t rtt_count = 0, rtt_sum = 0, enc_count = 0, enc_sum = 0,
           dec_count = 0, dec_sum = 0;
  uint64_t hot_allocs = 0;

  static RegistrySnapshot Take() {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Get();
    static obs::Histogram& rtt = registry.GetHistogram("bus.steal_rtt_us");
    static obs::Histogram& enc = registry.GetHistogram("codec.encode_ns");
    static obs::Histogram& dec = registry.GetHistogram("codec.decode_ns");
    RegistrySnapshot s;
    s.intersections = obs::IntersectionKernelsCounter().Value();
    s.galloped = obs::GallopedKernelsCounter().Value();
    s.scratch_hits = obs::ScratchHitsCounter().Value();
    s.scratch_misses = obs::ScratchMissesCounter().Value();
    s.rtt_count = rtt.Count();
    s.rtt_sum = rtt.Sum();
    s.enc_count = enc.Count();
    s.enc_sum = enc.Sum();
    s.dec_count = dec.Count();
    s.dec_sum = dec.Sum();
    s.hot_allocs = AllocGuard::TotalGuardedAllocations();
    return s;
  }

  void WriteDelta(Json& json, const RegistrySnapshot& before) const {
    json.IntField("intersections", intersections - before.intersections)
        .IntField("galloped", galloped - before.galloped)
        .IntField("scratch_hits", scratch_hits - before.scratch_hits)
        .IntField("scratch_misses", scratch_misses - before.scratch_misses)
        .IntField("steal_rtt_count", rtt_count - before.rtt_count)
        .IntField("steal_rtt_us_sum", rtt_sum - before.rtt_sum)
        .IntField("encode_count", enc_count - before.enc_count)
        .IntField("encode_ns_sum", enc_sum - before.enc_sum)
        .IntField("decode_count", dec_count - before.dec_count)
        .IntField("decode_ns_sum", dec_sum - before.dec_sum)
        .IntField("hot_allocs", hot_allocs - before.hot_allocs);
  }
};

// --- The workload instance --------------------------------------------------

/// Everything set-up builds: the indexed graph, the cluster and,
/// for queries_mt, the scheduler. Members are destroyed in reverse order, so
/// the scheduler drains before the cluster goes away.
struct Instance {
  std::optional<FractalGraph> graph;
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<QueryScheduler> scheduler;
  ExecutionConfig config;
};

struct SetupSample {
  double total_s = 0, generate_s = 0, index_s = 0, cluster_s = 0;
};

std::unique_ptr<Instance> Setup(Workload workload, uint64_t seed, int64_t run,
                                SetupSample* sample) {
  auto instance = std::make_unique<Instance>();
  ScopedSpan root("setup", 0, run);
  const int64_t t0 = NowNs();
  Graph base;
  {
    ScopedSpan span("graph.generate", root.id(), run);
    base = GeneratePowerLaw(BaseGraphParams(workload));
  }
  const int64_t t1 = NowNs();
  {
    // Building the relabeled graph is the index build of the input: CSR
    // adjacency and hub bitmaps (GraphBuilder::Build), then the core wrap.
    ScopedSpan span("graph.index", root.id(), run);
    FractalContext context;
    instance->graph = context.FromGraph(PermutedGraph(base, seed));
  }
  const int64_t t2 = NowNs();
  {
    ScopedSpan span("runtime.cluster_start", root.id(), run);
    instance->cluster = std::make_unique<Cluster>(TopologyFor(workload));
    if (workload == Workload::kQueriesMt) {
      QuerySchedulerOptions options;
      options.max_active = kClients;
      options.max_queued = 2 * kClients;
      instance->scheduler =
          std::make_unique<QueryScheduler>(instance->cluster.get(), options);
    }
  }
  const int64_t t3 = NowNs();
  instance->config.cluster = instance->cluster.get();
  sample->total_s = Seconds(t3 - t0);
  sample->generate_s = Seconds(t1 - t0);
  sample->index_s = Seconds(t2 - t1);
  sample->cluster_s = Seconds(t3 - t2);
  return instance;
}

// --- Requests ---------------------------------------------------------------

struct QuerySample {
  uint32_t query = 0;
  double latency_s = 0;   // submit -> Wait() return
  double service_s = 0;   // the execution's own telemetry.wall_seconds
  double step_wall_s = 0;
  bool ok = false;
};

struct RequestSample {
  double wall_s = 0;
  double cpu_s = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t rejected = 0;
  /// Subgraphs the kernel produced: the aggregated total for motifs4, the
  /// matches for queries_mt; RunFsm does not expose its embedding count.
  uint64_t subgraphs = 0;
  StepTotals totals;
  std::vector<QuerySample> queries;
};

RequestSample RunMotifs(Instance& instance, const Reference& reference,
                        int64_t parent, int64_t run) {
  RequestSample sample;
  sample.attempted = 1;
  const double cpu0 = CpuSeconds();
  const int64_t t0 = NowNs();
  ExecutionResult execution;
  {
    ScopedSpan span("core.execute", parent, run);
    execution =
        MotifsFractoid(*instance.graph, kMotifK).Execute(instance.config);
  }
  const int64_t t1 = NowNs();
  sample.cpu_s = CpuSeconds() - cpu0;
  sample.wall_s = Seconds(t1 - t0);
  for (const StepTelemetry& step : execution.telemetry.steps) {
    sample.totals.Add(step);
  }
  ScopedSpan check("check", parent, run);
  Reference got;
  if (execution.status.ok()) {
    const auto& storage =
        execution.Aggregation<Pattern, uint64_t, PatternHash>("motifs");
    for (const auto& [pattern, count] : storage.entries()) {
      got[pattern.ToString()] = count;
      sample.subgraphs += count;
    }
  }
  sample.failed = (!execution.status.ok() || got != reference) ? 1 : 0;
  return sample;
}

RequestSample RunFsm3(Instance& instance, const Reference& reference,
                      int64_t parent, int64_t run) {
  RequestSample sample;
  sample.attempted = 1;
  const double cpu0 = CpuSeconds();
  const int64_t t0 = NowNs();
  FsmResult result;
  {
    ScopedSpan span("core.execute", parent, run);
    result =
        RunFsm(*instance.graph, kFsmSupport, kFsmMaxEdges, instance.config);
  }
  const int64_t t1 = NowNs();
  sample.cpu_s = CpuSeconds() - cpu0;
  sample.wall_s = Seconds(t1 - t0);
  for (const StepTelemetry& step : result.step_telemetry) {
    sample.totals.Add(step);
  }
  ScopedSpan check("check", parent, run);
  Reference got;
  for (const auto& [pattern, support] : result.frequent) {
    got[pattern.ToString()] = support;
  }
  sample.failed =
      (got.size() != result.frequent.size() || got != reference) ? 1 : 0;
  return sample;
}

/// The batch's query script: every SEED query equally often, in a seeded
/// order. A fixed mix keeps the batch's work the same for every seed.
std::vector<uint32_t> QueryScript(uint64_t mix_seed) {
  std::vector<uint32_t> script(kQueriesPerBatch);
  for (uint32_t i = 0; i < kQueriesPerBatch; ++i) {
    script[i] = 1 + i % kNumSeedQueries;
  }
  SplitMix64 rng(mix_seed);
  for (size_t i = script.size(); i > 1; --i) {
    std::swap(script[i - 1], script[rng.NextBounded(i)]);
  }
  return script;
}

/// One closed-loop batch: kClients client threads take the script's queries
/// in order, each submitting its next query only after the previous one's
/// Wait() returned.
RequestSample RunQueryBatch(Instance& instance, const Reference& reference,
                            uint64_t mix_seed, int64_t parent, int64_t run) {
  RequestSample sample;
  const std::vector<uint32_t> script = QueryScript(mix_seed);
  std::atomic<size_t> next{0};
  std::vector<std::vector<QuerySample>> per_client(kClients);
  std::vector<StepTotals> totals(kClients);
  std::vector<uint64_t> matches(kClients, 0);
  const uint64_t rejected_before = instance.scheduler->stats().rejected;
  const double cpu0 = CpuSeconds();
  const int64_t t0 = NowNs();
  {
    std::vector<std::thread> clients;
    for (uint32_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        for (size_t i = next++; i < script.size(); i = next++) {
          QuerySample query;
          query.query = script[i];
          const Fractoid fractoid =
              QueryFractoid(*instance.graph, SeedQuery(query.query));
          ScopedSpan span("core.query", parent, run);
          const int64_t submit = NowNs();
          QueryScheduler::Submission submission;
          submission.name = "q" + std::to_string(query.query);
          auto handle = ExecuteFractoidAsync(fractoid, instance.config,
                                             *instance.scheduler,
                                             std::move(submission));
          if (!handle.ok()) {  // refused: counts as a failed query
            query.latency_s = Seconds(NowNs() - submit);
            per_client[c].push_back(query);
            continue;
          }
          const ExecutionResult& result = handle->Wait();
          query.latency_s = Seconds(NowNs() - submit);
          query.service_s = result.telemetry.wall_seconds;
          for (const StepTelemetry& step : result.telemetry.steps) {
            totals[c].Add(step);
            query.step_wall_s += step.wall_seconds;
          }
          const auto it = reference.find("q" + std::to_string(query.query));
          matches[c] += result.num_subgraphs;
          query.ok = result.status.ok() && it != reference.end() &&
                     it->second == result.num_subgraphs;
          per_client[c].push_back(query);
        }
      });
    }
    for (std::thread& client : clients) client.join();
  }
  const int64_t t1 = NowNs();
  sample.cpu_s = CpuSeconds() - cpu0;
  sample.wall_s = Seconds(t1 - t0);
  for (uint32_t c = 0; c < kClients; ++c) {
    for (const QuerySample& query : per_client[c]) {
      ++sample.attempted;
      if (!query.ok) ++sample.failed;
      sample.queries.push_back(query);
    }
    sample.totals.Merge(totals[c]);
    sample.subgraphs += matches[c];
  }
  sample.rejected = instance.scheduler->stats().rejected - rejected_before;
  return sample;
}

// --- Layer probes (traced run only) -----------------------------------------

struct TwinSample {
  double wall_s = 0;
  bool ok = false;
};

/// Enumeration-only twin of the workload's kernel: the same enumeration with
/// no aggregation (motifs4), or the query mix run once each, synchronously,
/// without the scheduler (queries_mt). FSM has no enumeration-only twin.
std::optional<TwinSample> RunTwin(Workload workload, Instance& instance,
                                  const Reference& reference, int64_t run) {
  if (workload == Workload::kFsm3) return std::nullopt;
  TwinSample sample;
  ScopedSpan span("enumerate.twin", 0, run);
  const int64_t t0 = NowNs();
  if (workload == Workload::kMotifs4) {
    const ExecutionResult result =
        instance.graph->VFractoid().Expand(kMotifK).Execute(instance.config);
    uint64_t total = 0;
    for (const auto& [key, count] : reference) total += count;
    sample.ok = result.status.ok() && result.num_subgraphs == total;
  } else {
    sample.ok = true;
    for (uint32_t q = 1; q <= kNumSeedQueries; ++q) {
      const ExecutionResult result =
          QueryFractoid(*instance.graph, SeedQuery(q)).Execute(instance.config);
      const auto it = reference.find("q" + std::to_string(q));
      sample.ok = sample.ok && result.status.ok() && it != reference.end() &&
                  it->second == result.num_subgraphs;
    }
  }
  sample.wall_s = Seconds(NowNs() - t0);
  return sample;
}

uint64_t HashSubgraph(const Subgraph& subgraph, uint64_t seed) {
  uint64_t h = seed;
  auto mix = [&h](uint64_t x) {
    h ^= x + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    h *= 0xff51afd7ed558ccdull;
    h ^= h >> 33;
  };
  for (const VertexId v : subgraph.Vertices()) mix(v);
  for (const EdgeId e : subgraph.Edges()) mix(uint64_t{e} << 32);
  return h;
}

struct PatternProbe {
  uint64_t sample = 0;
  double quick_ns = 0;
  double canonical_ns = 0;
  double hit_ratio = 0;
};

/// Times Subgraph::QuickPattern and a warm CanonicalPatternCache on a seeded
/// bottom-k sample of the subgraphs the workload's aggregation sees (the
/// kPatternSample smallest seeded hashes: deterministic per seed whatever
/// the thread interleaving). Streams through ForEachSubgraph, never
/// materializing the full enumeration.
std::optional<PatternProbe> RunPatternProbe(Workload workload,
                                            Instance& instance, uint64_t seed,
                                            int64_t run) {
  if (workload == Workload::kQueriesMt) return std::nullopt;
  ScopedSpan root("pattern.probe", 0, run);
  const uint64_t hash_seed = DeriveSeed(seed, 3);
  struct Entry {
    uint64_t hash;
    Subgraph subgraph;
    bool operator<(const Entry& other) const { return hash < other.hash; }
  };
  std::mutex mu;
  std::priority_queue<Entry> heap;  // max-heap: top is the largest kept hash
  std::atomic<uint64_t> threshold{UINT64_MAX};
  const auto sink = [&](const Subgraph& subgraph) {
    const uint64_t h = HashSubgraph(subgraph, hash_seed);
    if (h >= threshold.load(std::memory_order_relaxed)) return;
    std::lock_guard<std::mutex> lock(mu);
    if (heap.size() < kPatternSample) {
      heap.push(Entry{h, subgraph});
    } else if (h < heap.top().hash) {
      heap.pop();
      heap.push(Entry{h, subgraph});
    }
    if (heap.size() == kPatternSample) {
      threshold.store(heap.top().hash, std::memory_order_relaxed);
    }
  };
  PatternProbe probe;
  {
    ScopedSpan span("enumerate.stream", root.id(), run);
    // The subgraphs each kernel aggregates: vertex-induced 4-subgraphs for
    // motifs4; for fsm3 all edge-induced 2-edge subgraphs, a superset of the
    // embeddings its second level aggregates.
    const Fractoid fractoid =
        workload == Workload::kMotifs4
            ? instance.graph->VFractoid().Expand(kMotifK)
            : instance.graph->EFractoid().Expand(2);
    fractoid.ForEachSubgraph(sink, instance.config);
  }
  std::vector<Entry> entries;
  while (!heap.empty()) {
    entries.push_back(heap.top());
    heap.pop();
  }
  std::reverse(entries.begin(), entries.end());  // ascending hash order
  probe.sample = entries.size();
  if (entries.empty()) return probe;
  const Graph& graph = instance.graph->graph();

  std::vector<Pattern> quick(entries.size());
  {
    ScopedSpan span("pattern.quick", root.id(), run);
    uint64_t calls = 0;
    const int64_t t0 = NowNs();
    // One call per sampled subgraph, as the kernel makes one per subgraph;
    // whole passes over the sample repeat until the window is filled.
    do {
      for (size_t i = 0; i < entries.size(); ++i) {
        quick[i] = entries[i].subgraph.QuickPattern(graph);
      }
      calls += entries.size();
    } while (NowNs() - t0 < 200'000'000);
    probe.quick_ns =
        static_cast<double>(NowNs() - t0) / static_cast<double>(calls);
  }
  {
    ScopedSpan span("pattern.canonical", root.id(), run);
    CanonicalPatternCache cache;
    for (const Pattern& pattern : quick) cache.Canonicalize(pattern);
    probe.hit_ratio = static_cast<double>(cache.Hits()) /
                      static_cast<double>(cache.Hits() + cache.Misses());
    uint64_t calls = 0;
    const int64_t t0 = NowNs();
    do {
      for (const Pattern& pattern : quick) cache.Canonicalize(pattern);
      calls += quick.size();
    } while (NowNs() - t0 < 200'000'000);
    probe.canonical_ns =
        static_cast<double>(NowNs() - t0) / static_cast<double>(calls);
  }
  return probe;
}

// --- Command line -----------------------------------------------------------

struct Args {
  std::string mode;
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string oracle;
  std::string out;
  std::string spans;
};

[[noreturn]] void Usage(const char* message) {
  std::fprintf(stderr,
               "perfbench_driver: %s\n"
               "usage: perfbench_driver oracle --workload W --seed N --out F\n"
               "       perfbench_driver measure --workload W --seed N "
               "--seconds S --trace 0|1 --oracle F [--spans F]\n",
               message);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  if (argc < 2) Usage("missing mode");
  Args args;
  args.mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value);
    } else if (flag == "--trace") {
      args.trace = std::atoi(value);
    } else if (flag == "--oracle") {
      args.oracle = value;
    } else if (flag == "--out") {
      args.out = value;
    } else if (flag == "--spans") {
      args.spans = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  return args;
}

void WriteQueries(Json& json, const std::vector<QuerySample>& queries) {
  json.Key("queries").Open('[');
  for (const QuerySample& q : queries) {
    json.Open('{')
        .IntField("q", q.query)
        .Field("latency_s", q.latency_s)
        .Field("service_s", q.service_s)
        .Field("step_wall_s", q.step_wall_s)
        .Key("ok")
        .Bool(q.ok)
        .Close('}');
  }
  json.Close(']');
}

int Measure(const Args& args, Workload workload) {
  const std::optional<Reference> reference = ReadReference(args.oracle);
  if (!reference) Usage("cannot read the --oracle reference file");
  const bool trace = args.trace != 0;
  AllocGuard::SetGlobalMode(AllocGuard::Mode::kOff);

  Json json;
  json.Open('{').Key("workload").Str(args.workload).IntField("seed", args.seed);
  json.Key("trace").Bool(trace);

  // Set-up: the first few grow the heap and fault their pages in, so they
  // are left out (and out of the span log). The measured set-ups come in
  // windows, one before the first request and one after each, outside every
  // timed request: the host's speed wanders over seconds, and set-ups spread
  // over the whole run give a median as steady as the requests'. One
  // instance lives at a time: each set-up replaces it, and a request uses
  // the last one built. After each window the heap the set-ups freed goes
  // back to the system, so they do not raise the requests' peak RSS.
  std::unique_ptr<Instance> instance;
  for (uint32_t rep = 0; rep < kSetupWarmups; ++rep) {
    instance.reset();
    SetupSample sample;
    instance = Setup(workload, args.seed, 0, &sample);
  }
  std::vector<SetupSample> setups;
  const auto setup_window = [&] {
    Spans().set_enabled(trace);
    for (uint32_t rep = 0; rep < kSetupWindow; ++rep) {
      instance.reset();
      SetupSample sample;
      instance = Setup(workload, args.seed,
                       -static_cast<int64_t>(setups.size()) - 1, &sample);
      setups.push_back(sample);
    }
    malloc_trim(0);
  };
  setup_window();
  json.Key("graph")
      .Open('{')
      .IntField("vertices", instance->graph->graph().NumVertices())
      .IntField("edges", instance->graph->graph().NumEdges())
      .Close('}');

  // Requests while at least half of the next one (untraced/traced pair when
  // tracing) is expected to fit in the measuring time, so a run lasts about
  // --seconds. Kernel workloads run at least three requests (two pairs when
  // tracing), the query workload at least one batch (one pair).
  const uint32_t min_requests =
      workload == Workload::kQueriesMt ? (trace ? 2 : 1) : (trace ? 4 : 3);
  const uint64_t mix_seed = DeriveSeed(args.seed, 2);
  const int64_t deadline =
      NowNs() + static_cast<int64_t>(args.seconds * 1e9);
  json.Key("requests").Open('[');
  std::vector<TwinSample> twins;
  int64_t last_ns = 0;
  for (uint32_t i = 0;; ++i) {
    const bool traced = trace && (i % 2 == 1);
    const int64_t next_ns = trace ? 2 * last_ns : last_ns;
    if (i >= min_requests && !traced && NowNs() + next_ns / 2 > deadline) {
      break;
    }
    const int64_t started = NowNs();
    const int64_t run = static_cast<int64_t>(i) + 1;
    Spans().set_enabled(traced);
    AllocGuard::SetGlobalMode(traced ? AllocGuard::Mode::kCount
                                     : AllocGuard::Mode::kOff);
    const RegistrySnapshot before = RegistrySnapshot::Take();
    RequestSample sample;
    {
      ScopedSpan root("request", 0, run);
      switch (workload) {
        case Workload::kMotifs4:
          sample = RunMotifs(*instance, *reference, root.id(), run);
          break;
        case Workload::kFsm3:
          sample = RunFsm3(*instance, *reference, root.id(), run);
          break;
        case Workload::kQueriesMt:
          sample = RunQueryBatch(*instance, *reference,
                                 DeriveSeed(mix_seed, static_cast<uint64_t>(i)),
                                 root.id(), run);
          break;
      }
    }
    const RegistrySnapshot after = RegistrySnapshot::Take();
    if (traced) {
      if (std::optional<TwinSample> twin =
              RunTwin(workload, *instance, *reference, run)) {
        twins.push_back(*twin);
      }
    }
    AllocGuard::SetGlobalMode(AllocGuard::Mode::kOff);
    last_ns = NowNs() - started;
    setup_window();
    json.Open('{').Key("traced").Bool(traced);
    json.Field("wall_s", sample.wall_s)
        .Field("cpu_s", sample.cpu_s)
        .IntField("attempted", sample.attempted)
        .IntField("failed", sample.failed)
        .IntField("rejected", sample.rejected)
        .IntField("subgraphs", sample.subgraphs);
    sample.totals.Write(json);
    after.WriteDelta(json, before);
    if (workload == Workload::kQueriesMt) WriteQueries(json, sample.queries);
    json.Close('}');
  }
  json.Close(']');
  Spans().set_enabled(trace);
  const double peak_rss_mb = PeakRssMb();

  json.Key("setup").Open('[');
  for (const SetupSample& sample : setups) {
    json.Open('{')
        .Field("total_s", sample.total_s)
        .Field("generate_s", sample.generate_s)
        .Field("index_s", sample.index_s)
        .Field("cluster_s", sample.cluster_s)
        .Close('}');
  }
  json.Close(']');

  json.Key("twins").Open('[');
  for (const TwinSample& twin : twins) {
    json.Open('{')
        .Field("wall_s", twin.wall_s)
        .Key("ok")
        .Bool(twin.ok)
        .Close('}');
  }
  json.Close(']');
  if (trace) {
    if (std::optional<PatternProbe> probe =
            RunPatternProbe(workload, *instance, args.seed, 2000)) {
      json.Key("pattern")
          .Open('{')
          .IntField("sample", probe->sample)
          .Field("quick_ns", probe->quick_ns)
          .Field("canonical_ns", probe->canonical_ns)
          .Field("hit_ratio", probe->hit_ratio)
          .Close('}');
    }
  }
  json.Field("peak_rss_mb", peak_rss_mb);
  json.Key("build")
      .Open('{')
      .Key("type")
      .Str(PERFBENCH_BUILD_TYPE)
#ifdef FRACTAL_LOCKDEP
      .Key("lockdep")
      .Bool(true)
#else
      .Key("lockdep")
      .Bool(false)
#endif
      .Key("alloc_guard")
      .Bool(AllocGuard::Active())
      .Key("compiler")
      .Str(__VERSION__)
      .Close('}');
  json.Close('}');

  instance.reset();
  if (trace && !args.spans.empty() && !Spans().WriteJson(args.spans)) {
    std::fprintf(stderr, "cannot write spans to %s\n", args.spans.c_str());
    return 1;
  }
  std::printf("%s\n", json.str().c_str());
  return 0;
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const std::optional<Workload> workload = ParseWorkload(args.workload);
  if (!workload) Usage("--workload must be motifs4, fsm3 or queries_mt");
  if (args.mode == "oracle") {
    if (args.out.empty()) Usage("oracle mode needs --out");
    const Graph graph = InputGraph(*workload, args.seed);
    if (!WriteReference(args.out, ComputeReference(*workload, graph))) {
      std::fprintf(stderr, "cannot write %s\n", args.out.c_str());
      return 1;
    }
    return 0;
  }
  if (args.mode == "measure") {
    if (args.seconds <= 0) Usage("--seconds must be positive");
    return Measure(args, *workload);
  }
  Usage("mode must be oracle or measure");
}

}  // namespace
}  // namespace perfbench
}  // namespace fractal

int main(int argc, char** argv) { return fractal::perfbench::Main(argc, argv); }
