#include "runtime/worker.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>

#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "runtime/cluster.h"
#include "runtime/codec.h"
#include "runtime/lineage.h"
#include "util/check.h"
#include "util/strings.h"

namespace fractal {

Worker::Worker(Cluster* cluster, uint32_t worker_id)
    : cluster_(cluster),
      worker_id_(worker_id),
      victim_health_(cluster->options().num_workers) {
  const uint32_t per_worker = cluster_->options().threads_per_worker;
  for (uint32_t core = 0; core < per_worker; ++core) {
    auto t = std::make_unique<ThreadContext>();
    t->worker_id = worker_id_;
    t->local_core = core;
    t->core_id = worker_id_ * per_worker + core;
    t->jitter = SplitMix64(0x9e3779b9u ^ (uint64_t{t->core_id} << 17));
    threads_.push_back(std::move(t));
  }
}

uint64_t Worker::work_units() const {
  uint64_t units = 0;
  for (const auto& t : threads_) {
    units += t->live_units.load(std::memory_order_relaxed);
  }
  return units;
}

void Worker::Start() {
  for (auto& t : threads_) {
    exec_threads_.emplace_back([this, state = t.get()] { ThreadLoop(*state); });
  }
  if (cluster_->bus_ != nullptr) {
    service_thread_ = std::thread([this] { StealServiceLoop(); });
  }
}

void Worker::Join() {
  for (std::thread& thread : exec_threads_) thread.join();
  exec_threads_.clear();
  if (service_thread_.joinable()) service_thread_.join();
}

void Worker::ResetStepHealth() {
  for (VictimHealth& health : victim_health_) {
    health.consecutive_timeouts.store(0, std::memory_order_relaxed);
    health.suspect.store(false, std::memory_order_relaxed);
  }
}

void Worker::ThreadLoop(ThreadContext& t) {
  // Profiler registration is unconditional (one-time ring acquisition, no
  // steady-state cost while no session runs) so /profilez sees worker
  // threads even when no session was planned at cluster construction.
  {
    char name[32];
    std::snprintf(name, sizeof(name), "worker%u/core%u", worker_id_,
                  t.local_core);
    obs::Profiler::Get().RegisterCurrentThread(name);
  }
  // Trace identity: Perfetto groups threads by pid, so each worker becomes
  // one "process" (pid 0 is the driver thread). Gated so clusters spawned
  // with tracing off (the common case — ephemeral per-execution clusters)
  // pay one relaxed load here instead of a registration.
  if (obs::Tracer::TracingEnabled()) {
    obs::Tracer::Get().SetCurrentThreadIdentity(
        worker_id_ + 1, t.local_core, StrFormat("core%u", t.local_core),
        StrFormat("worker%u", worker_id_));
  }
  uint64_t seen_generation = 0;
  while (true) {
    {
      MutexLock lock(cluster_->mu_);
      while (!cluster_->shutdown_ &&
             cluster_->step_generation_ == seen_generation) {
        cluster_->work_cv_.Wait(cluster_->mu_);
      }
      if (cluster_->shutdown_) return;
      seen_generation = cluster_->step_generation_;
    }
    // Degraded steps run on the live-worker subset only: threads of dead
    // workers skip the step entirely and must not touch the barrier count
    // (it was initialized to the live thread total).
    if (((cluster_->step_.live_mask >> worker_id_) & 1) == 0) continue;
    RunStepOnThread(t);
    {
      MutexLock lock(cluster_->mu_);
      if (--cluster_->threads_remaining_ == 0) {
        cluster_->done_cv_.NotifyAll();
      }
    }
  }
}

FRACTAL_HOT void Worker::RunStepOnThread(ThreadContext& t) {
  const Cluster::StepState& step = cluster_->step_;
  StepControl& control = cluster_->control_;
  StepTask& task = *step.task;
  const ClusterOptions& options = cluster_->options();

  t.stats = ThreadStats{};
  t.stats.worker_id = t.worker_id;
  t.stats.core_id = t.core_id;
  t.busy_seconds = 0;
  t.control = &control;
  t.lineage = step.lineage;

  // Initial partition: a contiguous block of the root extensions selected
  // by the thread's rank among *live* cores (paper §4: "an initial
  // partition of extensions ... determined on-the-fly using its unique core
  // identifier"; the Spark substrate hands each core one contiguous input
  // partition). Dead workers' cores are excised from the ranking so a
  // degraded step still covers every root with no holes. Contiguous blocks
  // concentrate hub-adjacent roots, producing the raw skew the
  // work-stealing hierarchy then fixes (§4.2).
  const uint64_t live_mask = step.live_mask;
  const uint32_t per_worker = options.threads_per_worker;
  const uint32_t live_threads =
      static_cast<uint32_t>(std::popcount(live_mask)) * per_worker;
  const uint32_t live_rank =
      LiveThreadRank(live_mask, worker_id_, t.local_core, per_worker);
  const RootSlice partition =
      PartitionRoots(step.roots.size(), live_rank, live_threads);
  std::vector<uint32_t> slice;
  {
    FRACTAL_HOT_ESCAPE("per-step setup: one root-partition copy per thread "
                       "per step, not per work unit");
    slice.assign(step.roots.begin() + partition.begin,
                 step.roots.begin() + partition.end);
  }
  if (step.num_levels > 0 && !slice.empty()) {
    FRACTAL_TRACE_SPAN_V("worker/drain_roots", slice.size());
    WallTimer busy_timer;
    task.DrainRoots(t, std::move(slice));
    t.busy_seconds += busy_timer.ElapsedSeconds();
  }
  t.stats.own_work_micros = control.timer.ElapsedMicros();
  control.LeaveWorking();

  // Steal loop: WS_int preferred over WS_ext (paper §4.2). Backoff scales
  // with the thread count: on an oversubscribed host, aggressive idle
  // rescans starve the threads that still hold work.
  const bool external_enabled = cluster_->bus_ != nullptr;
  FaultInjector* injector = control.injector;
  const std::atomic<bool>* cancel = control.cancel;
  const int64_t max_backoff_micros =
      std::max<int64_t>(400, 100 * live_threads);
  int64_t backoff_micros = 50;
  // Reused across all steal attempts of the loop: the prefix snapshot in
  // TrySteal then copy-assigns into grown storage instead of allocating.
  SubgraphEnumerator::StolenWork work;
  while (true) {
    // Crash containment: a crashed worker's threads stop contributing
    // immediately; survivors have drained their own frames above and —
    // since any crash dooms the step to re-execution — stop stealing more
    // of it instead of burning time on discarded work.
    if (injector != nullptr && injector->crashed_mask() != 0) break;
    // Cancellation containment mirrors crash containment: the step's
    // output is doomed, so idle threads stop stealing more of it.
    if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) break;
    if (control.working.load(std::memory_order_acquire) == 0) break;
    control.EnterWorking();
    bool got = false;
    if (options.internal_work_stealing) got = ClaimInternalWork(t, &work);
    if (!got && external_enabled) got = ClaimExternalWork(t, &work);
    if (got) {
      FRACTAL_TRACE_SPAN("worker/process_stolen");
      WallTimer busy_timer;
      task.ProcessStolen(t, work);
      t.busy_seconds += busy_timer.ElapsedSeconds();
    }
    control.LeaveWorking();
    if (got) {
      backoff_micros = 50;
    } else {
      ++t.stats.steal_failures;
      FRACTAL_TRACE_INSTANT("worker/steal_miss", backoff_micros);
      std::this_thread::sleep_for(std::chrono::microseconds(backoff_micros));
      backoff_micros = std::min(backoff_micros * 2, max_backoff_micros);
    }
  }
  {
    FRACTAL_HOT_ESCAPE("step end, once per thread per step: FinishThread "
                       "folds the thread-owned tallies into the shared "
                       "registry before the barrier");
    task.FinishThread(t);
  }
  t.stats.finish_micros = control.timer.ElapsedMicros();
  t.stats.busy_seconds = t.busy_seconds;
  t.lineage = nullptr;
  t.control = nullptr;
}

FRACTAL_HOT bool Worker::ClaimInternalWork(ThreadContext& t,
                                           SubgraphEnumerator::StolenWork* out) {
  // Shallowest frames first: they hold the largest pieces of work.
  const uint32_t num_levels = cluster_->step_.num_levels;
  for (uint32_t depth = 0; depth < num_levels; ++depth) {
    for (uint32_t other = 0; other < num_threads(); ++other) {
      if (other == t.local_core) continue;
      SubgraphEnumerator& frame = *threads_[other]->frames[depth];
      if (!frame.LooksNonEmpty()) continue;
      if (frame.TrySteal(out)) {
        ++t.stats.internal_steals;
        FRACTAL_HOT_ESCAPE("once per successful steal, not per work unit: "
                           "keeps the steal rate live for the sampler");
        obs::InternalStealsCounter().Add(1);
        if (t.lineage != nullptr) {
          FRACTAL_HOT_ESCAPE("lineage stamping: once per steal, not per "
                             "work unit");
          // WS_int moves work between cores of the same worker: the claim
          // is stamped with this worker as both victim and thief, so crash
          // accounting keeps following the (unchanged) owning worker.
          t.lineage->StampClaim(worker_id_, worker_id_, out);
        }
        return true;
      }
    }
  }
  return false;
}

bool Worker::ClaimExternalWork(ThreadContext& t,
                               SubgraphEnumerator::StolenWork* out) {
  FRACTAL_HOT_ESCAPE("simulated network path: RPC buffers, codec scratch "
                     "and backoff sleeps are off the enumeration hot path");
  const ClusterOptions& options = cluster_->options();
  const NetworkConfig& net = options.network;
  const uint32_t num_workers = options.num_workers;
  const uint64_t live_mask = cluster_->step_.live_mask;
  FaultInjector* injector = cluster_->control_.injector;
  const uint32_t max_attempts = std::max<uint32_t>(1, net.max_steal_retries);
  for (uint32_t offset = 1; offset < num_workers; ++offset) {
    const uint32_t victim = (worker_id_ + offset) % num_workers;
    if (((live_mask >> victim) & 1) == 0) continue;  // dead before the step
    if (injector != nullptr && injector->WorkerCrashed(victim)) continue;
    VictimHealth& health = victim_health_[victim];
    if (health.suspect.load(std::memory_order_relaxed)) continue;
    for (uint32_t attempt = 0; attempt < max_attempts; ++attempt) {
      WallTimer rtt_timer;
      const StealReply reply = cluster_->bus_->RequestSteal(worker_id_, victim);
      if (reply.outcome == StealOutcome::kShutdown) return false;
      if (reply.outcome == StealOutcome::kNoWork) {
        // Responsive but empty: try the next victim.
        health.consecutive_timeouts.store(0, std::memory_order_relaxed);
        break;
      }
      if (reply.outcome == StealOutcome::kWork) {
        health.consecutive_timeouts.store(0, std::memory_order_relaxed);
        obs::StealRttHistogram().Record(
            static_cast<uint64_t>(rtt_timer.ElapsedMicros()));
        WallTimer decode_timer;
        if (!SubgraphCodec::DecodeStolenWork(reply.payload, out)) {
          FRACTAL_CHECK(false) << "corrupted stolen-work payload";
        }
        obs::DecodeTimeHistogram().Record(
            static_cast<uint64_t>(decode_timer.ElapsedNanos()));
        ++t.stats.external_steals;
        t.stats.bytes_shipped += reply.payload.size();
        obs::ExternalStealsCounter().Add(1);
        obs::BytesShippedCounter().Add(reply.payload.size());
        return true;
      }
      // kTimeout: accrue health, back off, retry — or give the victim up
      // as suspect for the rest of the step.
      ++t.stats.steal_timeouts;
      obs::StealTimeoutsCounter().Add(1);
      const uint32_t consecutive =
          health.consecutive_timeouts.fetch_add(1, std::memory_order_relaxed) +
          1;
      if (net.suspect_after_timeouts > 0 &&
          consecutive >= net.suspect_after_timeouts) {
        if (!health.suspect.exchange(true, std::memory_order_relaxed)) {
          cluster_->NoteSuspectVictim();
          FRACTAL_TRACE_INSTANT("worker/victim_suspect", victim);
        }
        break;
      }
      if (attempt + 1 < max_attempts && net.retry_backoff_micros > 0) {
        // Exponential backoff with full jitter: decorrelates the retries
        // of many starving threads hammering one slow victim.
        const int64_t base = net.retry_backoff_micros << attempt;
        const int64_t backoff =
            base +
            static_cast<int64_t>(t.jitter.NextBounded(
                static_cast<uint64_t>(base) + 1));
        obs::RetryBackoffHistogram().Record(static_cast<uint64_t>(backoff));
        std::this_thread::sleep_for(std::chrono::microseconds(backoff));
      }
    }
  }
  return false;
}

FRACTAL_HOT bool Worker::ClaimLocalWork(SubgraphEnumerator::StolenWork* out) {
  const uint32_t num_levels = cluster_->step_.num_levels;
  for (uint32_t depth = 0; depth < num_levels; ++depth) {
    for (uint32_t core = 0; core < num_threads(); ++core) {
      SubgraphEnumerator& frame = *threads_[core]->frames[depth];
      if (!frame.LooksNonEmpty()) continue;
      if (frame.TrySteal(out)) return true;
    }
  }
  return false;
}

void Worker::StealServiceLoop() {
  {
    char name[32];
    std::snprintf(name, sizeof(name), "worker%u/steal-service", worker_id_);
    obs::Profiler::Get().RegisterCurrentThread(name);
  }
  if (obs::Tracer::TracingEnabled()) {
    obs::Tracer::Get().SetCurrentThreadIdentity(
        worker_id_ + 1, cluster_->options().threads_per_worker,
        "steal-service", StrFormat("worker%u", worker_id_));
  }
  // Requests only arrive while a step is running (requesters hold the
  // step's `working` count while blocked on the bus), so the frames this
  // scans are always live: BeginReply succeeds only for a requester that is
  // still waiting, and abandoned tokens are dropped without touching any
  // frame. Shutdown of the bus ends the loop.
  // Reused across requests (same rationale as the steal loop's buffer).
  SubgraphEnumerator::StolenWork work;
  while (auto token = cluster_->bus_->WaitForRequest(worker_id_)) {
    FRACTAL_TRACE_SPAN("worker/steal_service");
    if (const std::shared_ptr<FaultInjector> injector =
            cluster_->bus_->fault_injector()) {
      if (!injector->OnStealRequestArrived(worker_id_)) {
        // Dead steal service: the request is swallowed without a reply and
        // the requester times out at its deadline.
        continue;
      }
      if (injector->WorkerCrashed(worker_id_)) {
        // Crashed worker: refuse fast instead of serving its frames.
        cluster_->bus_->Reply(*token, std::nullopt);
        continue;
      }
    }
    // Claim-after-commit: commit to this requester *before* claiming work,
    // so a request abandoned at its deadline can never orphan a claim.
    if (!cluster_->bus_->BeginReply(*token)) continue;
    if (ClaimLocalWork(&work)) {
      // Claim-after-commit is exactly the lineage stamping point: the
      // descriptor is committed to the requester, so ownership moves to the
      // thief *before* the bytes cross the worker boundary (the payload
      // then carries the record id). The step's ledger pointer is readable
      // here by the same argument as step_.task: requests only arrive
      // while the step runs (class comment above).
      if (LineageLedger* lineage = cluster_->step_.lineage) {
        lineage->StampClaim(worker_id_, MessageBus::Requester(*token), &work);
      }
      WallTimer encode_timer;
      std::vector<uint8_t> payload = SubgraphCodec::EncodeStolenWork(work);
      obs::EncodeTimeHistogram().Record(
          static_cast<uint64_t>(encode_timer.ElapsedNanos()));
      cluster_->bus_->Reply(*token, std::move(payload));
    } else {
      cluster_->bus_->Reply(*token, std::nullopt);
    }
  }
}

}  // namespace fractal
