#include "core/fractoid_task.h"

#include <algorithm>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/lineage.h"
#include "util/check.h"

namespace fractal {

FractoidStepTask::FractoidStepTask(
    const Fractoid& fractoid, const StepPlan& plan, bool is_final,
    const ExecutionConfig& config, uint32_t total_threads,
    const SubgraphSink* sink,
    std::vector<const AggregationStorageBase*> completed)
    : fractoid_(fractoid),
      graph_(*fractoid.graph()),
      strategy_(*fractoid.strategy()),
      plan_(plan),
      is_final_(is_final),
      config_(config),
      sink_(sink),
      completed_(std::move(completed)) {
  const auto& workflow = fractoid_.primitives();
  num_levels_ = 0;
  for (uint32_t i = 0; i < plan_.end; ++i) {
    if (workflow[i].kind == Primitive::Kind::kExpand) ++num_levels_;
  }
  // Map each to-compute aggregation index to a storage slot.
  storage_slots_.assign(plan_.end, -1);
  for (uint32_t i = plan_.new_begin; i < plan_.end; ++i) {
    if (workflow[i].kind == Primitive::Kind::kAggregate) {
      storage_slots_[i] = static_cast<int32_t>(new_aggregates_.size());
      new_aggregates_.push_back(i);
    }
  }
  // Fresh per-thread state per step attempt: a crashed attempt's partial
  // accumulators are simply dropped with the task.
  for (uint32_t core = 0; core < total_threads; ++core) {
    auto s = std::make_unique<CoreState>();
    s->computation = std::make_unique<Computation>(&graph_);
    s->frame_bytes.assign(num_levels_, 0);
    for (const uint32_t agg_index : new_aggregates_) {
      s->storages.push_back(
          fractoid_.primitives()[agg_index].aggregation->CreateStorage());
      // Task-scoped scratch accumulator, used only under lineage tracking.
      s->task_storages.push_back(
          fractoid_.primitives()[agg_index].aggregation->CreateStorage());
    }
    states_.push_back(std::move(s));
  }
}

FractoidStepTask::~FractoidStepTask() = default;

FRACTAL_HOT void FractoidStepTask::DrainRoots(ThreadContext& t,
                                              std::vector<uint32_t> roots) {
  CoreState& s = *states_[t.core_id];
  s.computation->SetIds(t.worker_id, t.core_id);
  if (num_levels_ == 0 || roots.empty()) return;
  if (t.lineage != nullptr) {
    DrainRootsTracked(t, s, std::move(roots));
    return;
  }
  RefillFrame(s, *t.frames[0], /*primitive_index=*/1, std::move(roots));
  DrainFrame(t, s, *t.frames[0]);
}

FRACTAL_HOT void FractoidStepTask::DrainRootsTracked(
    ThreadContext& t, CoreState& s, std::vector<uint32_t> roots) {
  LineageLedger& lineage = *t.lineage;
  const bool replay = lineage.salvage_pass();
  // Frame 0 stays the stealable root queue in both modes; the sentinel
  // primitive index marks stolen entries as replay indices, not extensions.
  SubgraphEnumerator& frame = *t.frames[0];
  RefillFrame(s, frame, replay ? kReplayRootPrimitive : 1, std::move(roots));
  FaultInjector* const injector = t.control->injector;
  while (const auto extension = frame.ConsumeNext()) {
    const uint64_t task_id = lineage.RootTaskId(*extension);
    if (replay) {
      ProcessReplayRoot(t, s, *extension, task_id);
    } else {
      const uint64_t units_before = t.stats.work_units;
      if (!t.ConsumeWorkUnit()) {
        DiscardTaskScratch(s);
        break;
      }
      {
        const AllocGuard guard(GuardModeFor(t));
        strategy_.Apply(graph_, *extension, &s.subgraph);
        Process(t, s, /*index=*/1);
        strategy_.Undo(graph_, &s.subgraph);
      }
      if (injector != nullptr && injector->WorkerCrashed(t.worker_id)) {
        DiscardTaskScratch(s);
      } else {
        CommitTask(t, s, task_id, units_before);
      }
    }
    if (injector != nullptr && injector->WorkerCrashed(t.worker_id)) break;
  }
  frame.Deactivate();
}

FRACTAL_HOT void FractoidStepTask::ProcessReplayRoot(ThreadContext& t,
                                                     CoreState& s,
                                                     uint32_t replay_index,
                                                     uint64_t task_id) {
  const SubgraphEnumerator::StolenWork& work =
      t.lineage->replay_root(replay_index);
  const uint64_t units_before = t.stats.work_units;
  {
    const AllocGuard guard(GuardModeFor(t));
    s.subgraph = work.prefix;
    strategy_.Apply(graph_, work.extension, &s.subgraph);
    if (!t.ConsumeWorkUnit()) {
      s.subgraph.Clear();
      DiscardTaskScratch(s);
      return;
    }
    Process(t, s, work.primitive_index);
    s.subgraph.Clear();
  }
  FaultInjector* const injector = t.control->injector;
  if (injector != nullptr && injector->WorkerCrashed(t.worker_id)) {
    DiscardTaskScratch(s);
  } else {
    CommitTask(t, s, task_id, units_before);
  }
}

void FractoidStepTask::CommitTask(ThreadContext& t, CoreState& s,
                                  uint64_t task_id, uint64_t units_before) {
  FRACTAL_HOT_ESCAPE("lineage commit: once per fractoid task, not per unit");
  AllocGuard::Allow allow("lineage commit: fold task scratch, stamp ledger");
  for (size_t slot = 0; slot < s.task_storages.size(); ++slot) {
    // MergeFrom consumes (empties) the scratch storage.
    s.storages[slot]->MergeFrom(*s.task_storages[slot]);
  }
  s.local_count += s.task_count;
  s.task_count = 0;
  for (Subgraph& subgraph : s.task_collected) {
    s.collected.push_back(std::move(subgraph));
  }
  s.task_collected.clear();
  t.lineage->StampComplete(task_id, t.stats.work_units - units_before);
}

void FractoidStepTask::DiscardTaskScratch(CoreState& s) {
  FRACTAL_HOT_ESCAPE("crash unwind: once per abandoned task, not per unit");
  for (auto& storage : s.task_storages) storage->Clear();
  s.task_count = 0;
  s.task_collected.clear();
}

FRACTAL_HOT void FractoidStepTask::ProcessStolen(
    ThreadContext& t, const SubgraphEnumerator::StolenWork& work) {
  CoreState& s = *states_[t.core_id];
  s.computation->SetIds(t.worker_id, t.core_id);
  if (t.lineage != nullptr) {
    if (work.primitive_index == kReplayRootPrimitive) {
      // A replay root stolen off frame 0: `extension` is the replay index.
      ProcessReplayRoot(t, s, work.extension, work.lineage_id);
      return;
    }
    if (t.lineage->has_exclusions() &&
        t.lineage->Excluded(work.prefix, work.extension,
                            work.primitive_index)) {
      // Already covered by a completed earlier pass; StampClaim minted the
      // record pre-completed, so dropping it loses nothing.
      return;
    }
    const uint64_t units_before = t.stats.work_units;
    {
      const AllocGuard guard(GuardModeFor(t));
      s.subgraph = work.prefix;
      strategy_.Apply(graph_, work.extension, &s.subgraph);
      if (!t.ConsumeWorkUnit()) {
        s.subgraph.Clear();
        DiscardTaskScratch(s);
        return;
      }
      Process(t, s, work.primitive_index);
      s.subgraph.Clear();
    }
    FaultInjector* const injector = t.control->injector;
    if (injector != nullptr && injector->WorkerCrashed(t.worker_id)) {
      DiscardTaskScratch(s);
    } else {
      CommitTask(t, s, work.lineage_id, units_before);
    }
    return;
  }
  const AllocGuard guard(GuardModeFor(t));
  s.subgraph = work.prefix;
  strategy_.Apply(graph_, work.extension, &s.subgraph);
  if (!t.ConsumeWorkUnit()) {
    // The worker crashed: drop the stolen unit — the whole step attempt is
    // discarded and re-executed anyway.
    s.subgraph.Clear();
    return;
  }
  Process(t, s, work.primitive_index);
  s.subgraph.Clear();
}

void FractoidStepTask::FinishThread(ThreadContext& t) {
  CoreState& s = *states_[t.core_id];
  ExtensionContext& ctx = s.computation->extension_context();
  // Per-attempt delta: the Computation (and its cumulative test counter)
  // survives across salvage passes of one task, while t.stats resets at
  // every step start.
  t.stats.extension_tests = ctx.extension_tests - s.tests_flushed;
  s.tests_flushed = ctx.extension_tests;
  // The DFS's thread-owned kernel, batch-size and scratch tallies reach the
  // shared registry here, once per thread per step and before the barrier,
  // so every counter reads complete when RunStep returns.
  ctx.FlushCounters();
}

FRACTAL_HOT void FractoidStepTask::RefillFrame(
    CoreState& s, SubgraphEnumerator& frame, uint32_t primitive_index,
    std::vector<uint32_t>&& extensions) {
  s.computation->extension_context().batch_sizes.Record(extensions.size());
  frame.Refill(s.subgraph, primitive_index, std::move(extensions));
}

void FractoidStepTask::DrainFrame(ThreadContext& t, CoreState& s,
                                  SubgraphEnumerator& frame) {
  const uint32_t next_index = frame.primitive_index();
  while (const auto extension = frame.ConsumeNext()) {
    // Salvage replay: subtrees that left the crashed worker through a
    // steal claim are re-enumerated from their own descriptors, so skip
    // them here (no work unit consumed — the subtree is not re-executed).
    // `s.subgraph` is exactly this frame's prefix pre-Apply.
    if (t.lineage != nullptr && t.lineage->has_exclusions() &&
        t.lineage->Excluded(s.subgraph, *extension, next_index)) {
      continue;
    }
    if (!t.ConsumeWorkUnit()) break;
    // Runtime backstop of the allocation discipline (DESIGN.md §9): once
    // the thread is past per-step warm-up, the whole expansion of this
    // extension — Apply, the recursive Process, Undo — runs under an
    // AllocGuard that counts (or aborts on) any heap allocation the static
    // lint failed to rule out.
    const AllocGuard guard(GuardModeFor(t));
    strategy_.Apply(graph_, *extension, &s.subgraph);
    Process(t, s, next_index);
    strategy_.Undo(graph_, &s.subgraph);
  }
  frame.Deactivate();
}

void FractoidStepTask::SinkVisit(ThreadContext& t, CoreState& s) {
  ++t.stats.subgraphs_visited;
  if (!is_final_) return;
  // Under lineage tracking the count/collection land in the task scratch
  // and only become durable at CommitTask. The streaming sink still fires
  // immediately: it is documented at-least-once under salvage recovery.
  if (t.lineage != nullptr) {
    ++s.task_count;
  } else {
    ++s.local_count;
  }
  if (sink_ != nullptr) {
    FRACTAL_HOT_ESCAPE("user-supplied sink: application code may allocate");
    AllocGuard::Allow allow("subgraph sink callback");
    (*sink_)(s.subgraph);
  }
  if (config_.collect_subgraphs &&
      s.collected.size() + s.task_collected.size() <
          static_cast<size_t>(config_.max_collected_subgraphs)) {
    FRACTAL_HOT_ESCAPE("opt-in diagnostics: bounded subgraph collection");
    AllocGuard::Allow allow("collect_subgraphs diagnostics copy");
    auto& collected =
        t.lineage != nullptr ? s.task_collected : s.collected;
    collected.push_back(s.subgraph);
  }
}

void FractoidStepTask::Process(ThreadContext& t, CoreState& s,
                               uint32_t index) {
  if (index == plan_.end) {
    SinkVisit(t, s);
    return;
  }
  const Primitive& primitive = fractoid_.primitives()[index];
  switch (primitive.kind) {
    case Primitive::Kind::kExpand: {
      const uint32_t depth = s.subgraph.Depth();
      FRACTAL_TRACE_INSTANT("dfs/expand", depth);
      FRACTAL_DCHECK(depth < num_levels_);
      SubgraphEnumerator& frame = *t.frames[depth];
      // Extensions are computed into an arena lease; Refill's swap then
      // hands the frame's previous buffer back through the lease, so buffer
      // capacity cycles through the pool instead of being reallocated.
      ScratchArena::BufferLease scratch(s.computation->scratch_arena());
      strategy_.ComputeExtensions(graph_, s.subgraph,
                                  s.computation->extension_context(),
                                  scratch.get());
      // Enumerator-state accounting (Table 2): the extension arrays plus
      // the prefix are Fractal's entire per-level intermediate state.
      s.state_bytes -= s.frame_bytes[depth];
      s.frame_bytes[depth] =
          scratch->size() * sizeof(uint32_t) +
          s.subgraph.NumVertices() * sizeof(VertexId) +
          s.subgraph.NumEdges() * sizeof(EdgeId);
      s.state_bytes += s.frame_bytes[depth];
      s.peak_state_bytes = std::max(s.peak_state_bytes, s.state_bytes);
      RefillFrame(s, frame, index + 1, std::move(*scratch.get()));
      DrainFrame(t, s, frame);
      break;
    }
    case Primitive::Kind::kLocalFilter: {
      bool pass;
      {
        // User-supplied filter: application code may allocate; audited as
        // outside the system's allocation discipline.
        AllocGuard::Allow allow("user local-filter callback");
        pass = primitive.local_filter(s.subgraph, *s.computation);
      }
      if (pass) Process(t, s, index + 1);
      break;
    }
    case Primitive::Kind::kAggregationFilter: {
      const AggregationStorageBase* storage =
          completed_[primitive.source_primitive];
      FRACTAL_DCHECK(storage != nullptr);
      bool pass;
      {
        AllocGuard::Allow allow("user aggregation-filter callback");
        pass = primitive.aggregation_filter(s.subgraph, *s.computation,
                                            *storage);
      }
      if (pass) Process(t, s, index + 1);
      break;
    }
    case Primitive::Kind::kAggregate: {
      const int32_t slot = storage_slots_[index];
      if (slot >= 0) {
        // Pattern aggregations fold in place without allocating; only
        // their cache misses and dense-table growth carry audited escapes
        // (core/pattern_aggregation.h). Generic storages escape around
        // their user callbacks. Under lineage tracking the update goes to
        // the task scratch (durable only at CommitTask).
        auto& storages =
            t.lineage != nullptr ? s.task_storages : s.storages;
        storages[slot]->Accumulate(s.subgraph, *s.computation);
      }
      // An aggregation ends the pipeline unless more primitives follow
      // (already-computed aggregations pass straight through).
      if (index + 1 < plan_.end) Process(t, s, index + 1);
      break;
    }
  }
}

FractoidStepTask::Output FractoidStepTask::MergeOutputs() {
  Output output;
  for (auto& s : states_) {
    output.subgraph_count += s->local_count;
    output.peak_state_bytes =
        std::max(output.peak_state_bytes, s->peak_state_bytes);
    for (Subgraph& subgraph : s->collected) {
      if (output.collected.size() <
          static_cast<size_t>(config_.max_collected_subgraphs)) {
        output.collected.push_back(std::move(subgraph));
      }
    }
  }

  // Merge thread-local aggregation storages (the reduction side of A) into
  // a fresh storage: thread-local ones may hold per-thread class ids
  // (pattern aggregations), which merge by materialized key.
  for (size_t slot = 0; slot < new_aggregates_.size(); ++slot) {
    std::shared_ptr<AggregationStorageBase> merged =
        fractoid_.primitives()[new_aggregates_[slot]]
            .aggregation->CreateStorage();
    for (auto& s : states_) merged->MergeFrom(*s->storages[slot]);
    merged->ApplyPostFilter();
    output.merged.push_back(std::move(merged));
  }
  return output;
}

}  // namespace fractal
