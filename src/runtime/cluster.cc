#include "runtime/cluster.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <optional>
#include <sstream>
#include <utility>

#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/progress.h"
#include "obs/trace.h"
#include "runtime/lineage.h"
#include "util/logging.h"
#include "util/strings.h"

namespace fractal {

namespace {
// All-live mask for a worker count (num_workers <= 64, enforced by
// Validate).
uint64_t FullMask(uint32_t num_workers) {
  return num_workers >= 64 ? ~uint64_t{0}
                           : ((uint64_t{1} << num_workers) - 1);
}

// Microseconds until `when`, clamped to >= 1 so timed waits always make
// progress (a non-positive remainder means the waiter's check fires on the
// next loop iteration anyway).
int64_t MicrosUntil(std::chrono::steady_clock::time_point when) {
  const auto left = std::chrono::duration_cast<std::chrono::microseconds>(
                        when - std::chrono::steady_clock::now())
                        .count();
  return std::max<int64_t>(left, 1);
}
}  // namespace

Status Cluster::Validate(const ClusterOptions& options) {
  if (options.num_workers == 0) {
    return InvalidArgumentError("cluster needs at least one worker");
  }
  if (options.num_workers > 64) {
    return InvalidArgumentError(
        "cluster supports at most 64 workers (the live-worker mask is one "
        "machine word)");
  }
  if (options.threads_per_worker == 0) {
    return InvalidArgumentError(
        "cluster needs at least one execution thread per worker");
  }
  if (options.external_work_stealing && options.num_workers < 2) {
    return InvalidArgumentError(
        "external work stealing (WS_ext) requires at least two workers");
  }
  return Status::Ok();
}

StatusOr<std::unique_ptr<Cluster>> Cluster::Create(
    const ClusterOptions& options) {
  FRACTAL_RETURN_IF_ERROR(Validate(options));
  return std::make_unique<Cluster>(options);
}

Cluster::Cluster(const ClusterOptions& options) : options_(options) {
  const Status status = Validate(options_);
  FRACTAL_CHECK(status.ok()) << status;
  live_mask_.store(FullMask(options_.num_workers), std::memory_order_relaxed);
  if (options_.external_work_stealing) {
    bus_ = std::make_unique<MessageBus>(options_.num_workers,
                                        options_.network);
  }
  for (uint32_t worker = 0; worker < options_.num_workers; ++worker) {
    workers_.push_back(std::make_unique<Worker>(this, worker));
  }
  for (auto& worker : workers_) worker->Start();
  if (options_.statusz_port >= 0) {
    obs::ExpositionServer::Options server_options;
    server_options.port = options_.statusz_port;
    auto server = obs::ExpositionServer::Start(server_options);
    if (server.ok()) {
      exposition_ = std::move(server).value();
      {
        MutexLock lock(statusz_mu_);
        statusz_sampler_ = std::make_unique<obs::ProgressSampler>(
            [this](std::vector<uint64_t>* out) { SampleWorkerUnits(out); });
      }
      exposition_->AddEndpoint(
          "/statusz", [this](const obs::ExpositionServer::Request&) {
            return obs::ExpositionServer::Response{
                200, "text/plain; charset=utf-8", RenderStatusz()};
          });
    } else {
      // Introspection is never load-bearing: a cluster with a taken port
      // still computes.
      FRACTAL_LOG(Warning) << "statusz server not started: "
                           << server.status();
    }
  }
}

Cluster::~Cluster() {
  // Stop serving before tearing down what the handlers report on. The
  // /statusz closure captures `this`, so the server must be fully joined
  // before any member is destroyed.
  exposition_.reset();
  {
    MutexLock lock(mu_);
    shutdown_ = true;
    work_cv_.NotifyAll();
  }
  if (bus_) bus_->Shutdown();  // releases the steal-service threads
  for (auto& worker : workers_) worker->Join();
}

int Cluster::statusz_port() const {
  return exposition_ != nullptr ? exposition_->port() : -1;
}

void Cluster::SampleWorkerUnits(std::vector<uint64_t>* out) const {
  out->resize(workers_.size());
  for (size_t w = 0; w < workers_.size(); ++w) {
    (*out)[w] = workers_[w]->work_units();
  }
}

std::string Cluster::RenderStatusz() {
  std::ostringstream out;
  const uint64_t mask = live_mask() & FullMask(options_.num_workers);
  out << "fractal statusz\n";
  out << StrFormat("workers            %u x %u threads\n",
                   options_.num_workers, options_.threads_per_worker);
  out << StrFormat("steps_run          %llu\n",
                   (unsigned long long)steps_run());
  out << StrFormat("step_active        %lld\n",
                   (long long)obs::StepActiveGauge().Value());
  out << StrFormat("current_step       %lld\n",
                   (long long)obs::CurrentStepGauge().Value());
  out << StrFormat("live_workers       %u/%u\n", num_live_workers(),
                   options_.num_workers);
  out << StrFormat("live_mask          0x%llx\n", (unsigned long long)mask);
  out << StrFormat("suspect_victims    %llu\n",
                   (unsigned long long)suspect_victims());
  out << StrFormat("units_salvaged     %llu\n",
                   (unsigned long long)obs::UnitsSalvagedCounter().Value());
  out << StrFormat("units_replayed     %llu\n",
                   (unsigned long long)obs::UnitsReplayedCounter().Value());
  out << StrFormat("ledger_bytes       %lld\n",
                   (long long)obs::LedgerBytesGauge().Value());
  obs::ProgressSnapshot snapshot;
  {
    MutexLock lock(statusz_mu_);
    if (statusz_sampler_ == nullptr) {
      statusz_sampler_ = std::make_unique<obs::ProgressSampler>(
          [this](std::vector<uint64_t>* out_units) {
            SampleWorkerUnits(out_units);
          });
    }
    snapshot = statusz_sampler_->Sample();
  }
  out << StrFormat(
      "interval           %.3fs: +%llu work units (%llu/s), +%llu int "
      "steals, +%llu ext steals, +%llu bytes shipped\n",
      snapshot.interval_seconds,
      (unsigned long long)snapshot.work_units_delta,
      (unsigned long long)snapshot.units_per_sec,
      (unsigned long long)snapshot.internal_steals_delta,
      (unsigned long long)snapshot.external_steals_delta,
      (unsigned long long)snapshot.bytes_shipped_delta);
  for (size_t w = 0; w < snapshot.worker_units_delta.size(); ++w) {
    out << StrFormat("worker %-3zu         live=%d units=%llu (+%llu)\n", w,
                     (int)((mask >> w) & 1),
                     (unsigned long long)workers_[w]->work_units(),
                     (unsigned long long)snapshot.worker_units_delta[w]);
  }
  {
    // Registered sections (e.g. the QueryScheduler's per-query rows) run
    // under statusz_mu_ so RemoveStatuszSection can guarantee no in-flight
    // call into a destroyed owner.
    MutexLock lock(statusz_mu_);
    for (const auto& [token, section] : statusz_sections_) {
      out << section();
    }
  }
  return out.str();
}

uint64_t Cluster::AddStatuszSection(std::function<std::string()> section) {
  MutexLock lock(statusz_mu_);
  const uint64_t token = ++statusz_section_seq_;
  statusz_sections_[token] = std::move(section);
  return token;
}

void Cluster::RemoveStatuszSection(uint64_t token) {
  MutexLock lock(statusz_mu_);
  statusz_sections_.erase(token);
}

uint32_t Cluster::num_live_workers() const {
  return static_cast<uint32_t>(
      std::popcount(live_mask() & FullMask(options_.num_workers)));
}

void Cluster::MarkWorkerDead(uint32_t worker) {
  FRACTAL_CHECK(worker < options_.num_workers);
  live_mask_.fetch_and(~(uint64_t{1} << worker), std::memory_order_acq_rel);
}

void Cluster::RestoreAllWorkers() {
  live_mask_.store(FullMask(options_.num_workers), std::memory_order_release);
}

void Cluster::NoteSuspectVictim() {
  const uint64_t count =
      suspects_.fetch_add(1, std::memory_order_relaxed) + 1;
  obs::SuspectVictimsGauge().Set(static_cast<int64_t>(count));
}

const Cluster::GateTicket* Cluster::NextGateWaiter() const {
  const GateTicket* best = nullptr;
  for (const GateTicket* ticket : gate_waiters_) {
    if (best == nullptr || ticket->vtime < best->vtime ||
        (ticket->vtime == best->vtime && ticket->seq < best->seq)) {
      best = ticket;
    }
  }
  return best;
}

void Cluster::RemoveGateWaiter(const GateTicket* ticket) {
  for (auto it = gate_waiters_.begin(); it != gate_waiters_.end(); ++it) {
    if (*it == ticket) {
      gate_waiters_.erase(it);
      return;
    }
  }
}

bool Cluster::AdmitStep(GateTicket& ticket) {
  MutexLock lock(run_mu_);
  QueryControl& query = ticket.query;
  ticket.seq = gate_seq_++;
  // Start-time fairness: an idle query re-enters at the virtual-time floor,
  // so banked idleness cannot be spent to starve the others.
  query.vtime = std::max(query.vtime, vtime_floor_);
  ticket.vtime = query.vtime;
  gate_waiters_.push_back(&ticket);
  while (true) {
    query.CheckDeadline(std::chrono::steady_clock::now());
    if (query.cancelled()) {
      RemoveGateWaiter(&ticket);
      // The departed waiter may have been the would-be winner; wake the
      // rest so admission order is re-evaluated.
      gate_cv_.NotifyAll();
      return false;
    }
    if (!step_in_flight_ && NextGateWaiter() == &ticket) break;
    if (query.has_deadline) {
      gate_cv_.WaitForMicros(run_mu_, MicrosUntil(query.deadline));
    } else {
      gate_cv_.Wait(run_mu_);
    }
  }
  RemoveGateWaiter(&ticket);
  step_in_flight_ = true;
  vtime_floor_ = std::max(vtime_floor_, ticket.vtime);
  return true;
}

void Cluster::ReleaseStep(GateTicket& ticket, uint64_t work_units) {
  MutexLock lock(run_mu_);
  step_in_flight_ = false;
  QueryControl& query = ticket.query;
  query.vtime += static_cast<double>(work_units) /
                 static_cast<double>(std::max<uint32_t>(query.weight, 1));
  query.work_units.fetch_add(work_units, std::memory_order_relaxed);
  query.steps_run.fetch_add(1, std::memory_order_relaxed);
  gate_cv_.NotifyAll();
}

void Cluster::WakeQueryGate() {
  MutexLock lock(run_mu_);
  gate_cv_.NotifyAll();
}

Cluster::StepResult Cluster::RunStep(StepTask& task,
                                     std::vector<uint32_t> root_extensions,
                                     QueryControl& query,
                                     const StepOptions& options) {
  // Declared before the gate so the span covers admission wait (queueing
  // delay is part of the step's latency under multi-tenancy).
  FRACTAL_TRACE_SPAN_V("cluster/run_step", root_extensions.size());
  // One step at a time: concurrent submissions (e.g. two executions sharing
  // this cluster) are admitted in weighted-fair order by the gate. Once
  // admitted, every execution thread is parked on work_cv_ and every
  // service thread is blocked on the bus with an empty queue, so the
  // preparation below is race-free (the step_in_flight_ hand-off under
  // run_mu_ orders it after the previous step's teardown).
  GateTicket ticket{query};
  if (!AdmitStep(ticket)) {
    // Cancelled (or deadline-expired) while queued: nothing ran, nothing to
    // discard. Telemetry is intentionally empty.
    FRACTAL_TRACE_INSTANT("cluster/step_cancelled", query.id);
    StepResult aborted;
    aborted.cancelled = true;
    return aborted;
  }

  // One-time ring acquisition for the driver (submitting) thread so its
  // barrier wait shows up in profiles; idempotent per thread.
  obs::Profiler::Get().RegisterCurrentThread("driver");

  // Snapshot the live mask: the step runs on the surviving subset only.
  const uint64_t live_mask =
      live_mask_.load(std::memory_order_acquire) &
      FullMask(options_.num_workers);
  const uint32_t live_workers =
      static_cast<uint32_t>(std::popcount(live_mask));
  FRACTAL_CHECK(live_workers > 0)
      << "no live workers left to run the step on";
  const uint32_t live_threads = live_workers * options_.threads_per_worker;
  if (live_workers < options_.num_workers) {
    FRACTAL_TRACE_INSTANT("runtime/step_degraded", live_workers);
    obs::StepsDegradedCounter().Add(1);
  }

  step_.task = &task;
  step_.roots = std::move(root_extensions);
  step_.num_levels = options.num_levels;
  step_.live_mask = live_mask;
  step_.lineage = options.lineage;
  // The ledger partitions its tasks by this snapshot, not by the mask seen
  // when it was built: another query may mark a worker dead while this one
  // waits at the gate.
  if (options.lineage != nullptr) {
    options.lineage->AssignOwners(live_mask, options_.threads_per_worker);
  }
  for (auto& worker : workers_) {
    for (uint32_t core = 0; core < worker->num_threads(); ++core) {
      ThreadContext& t = worker->thread(core);
      while (t.frames.size() < options.num_levels) {
        t.frames.push_back(std::make_unique<SubgraphEnumerator>());
      }
    }
    worker->ResetStepHealth();
  }
  suspects_.store(0, std::memory_order_relaxed);
  obs::SuspectVictimsGauge().Set(0);

  FaultInjector* injector = options.fault_injector.get();
  if (injector != nullptr) injector->BeginStep();
  // The bus holds its own shared_ptr so straggling service threads can
  // consult the injector beyond this step's barrier without dangling.
  if (bus_ != nullptr) bus_->SetFaultInjector(options.fault_injector);
  control_.injector = injector;
  control_.cancel = &query.cancel_requested;
  control_.working.store(live_threads, std::memory_order_relaxed);
  control_.timer.Restart();

  // Step gauges for /statusz and /metricsz: which step is in flight, and
  // that one is. Set before the wake-up so a scrape never sees an active
  // barrier with step_active still 0.
  obs::CurrentStepGauge().Set(
      static_cast<int64_t>(steps_run_.load(std::memory_order_relaxed)) + 1);
  obs::StepActiveGauge().Set(1);

  {
    // The driver's barrier wait is the step's only clock: no watchdog or
    // progress thread. It wakes at the earlier of the query's deadline
    // (latching the cancel flag; the workers then unwind within one work
    // unit each) and the next progress tick. The sampler reads the
    // per-thread live unit slots and the global steal counters, never the
    // thread-owned stats; sampling under mu_ delays a finishing thread by
    // microseconds, and only when progress is on.
    using Clock = std::chrono::steady_clock;
    const auto interval =
        std::chrono::milliseconds(options_.progress_interval_ms);
    std::optional<obs::ProgressSampler> progress;
    if (interval.count() > 0) {
      progress.emplace([this](std::vector<uint64_t>* out) {
        SampleWorkerUnits(out);
      });
    }
    Clock::time_point tick = Clock::now() + interval;
    FRACTAL_TRACE_SPAN_V("cluster/step_barrier", live_threads);
    MutexLock lock(mu_);
    threads_remaining_ = live_threads;
    ++step_generation_;
    generation_live_mask_ = live_mask;
    work_cv_.NotifyAll();
    while (threads_remaining_ != 0) {
      const Clock::time_point now = Clock::now();
      if (progress.has_value() && now >= tick) {
        obs::LogStepProgress(progress->Sample());
        tick = now + interval;
      }
      if (!query.cancelled()) query.CheckDeadline(now);
      Clock::time_point wake =
          progress.has_value() ? tick : Clock::time_point::max();
      if (query.has_deadline && !query.cancelled()) {
        wake = std::min(wake, query.deadline);
      }
      if (wake == Clock::time_point::max()) {
        done_cv_.Wait(mu_);
      } else {
        done_cv_.WaitForMicros(mu_, MicrosUntil(wake));
      }
    }
  }
  obs::StepActiveGauge().Set(0);

  StepResult result;
  result.live_workers = live_workers;
  result.telemetry.wall_seconds = control_.timer.ElapsedSeconds();
  // Harvest live workers only: dead workers skipped the step and their
  // ThreadContexts hold stale stats from their last participating step.
  for (uint32_t worker = 0; worker < options_.num_workers; ++worker) {
    if (((live_mask >> worker) & 1) == 0) continue;
    Worker& w = *workers_[worker];
    for (uint32_t core = 0; core < w.num_threads(); ++core) {
      result.telemetry.threads.push_back(w.thread(core).stats);
    }
  }
  const uint64_t crashed_mask =
      injector != nullptr ? injector->crashed_mask() : 0;
  if (crashed_mask != 0) {
    StepFailure failure;
    failure.worker = std::countr_zero(crashed_mask);
    failure.cause = injector->CrashCause(
        static_cast<uint32_t>(failure.worker));
    Worker& crashed = *workers_[static_cast<uint32_t>(failure.worker)];
    for (uint32_t core = 0; core < crashed.num_threads(); ++core) {
      failure.work_units_lost += crashed.thread(core).stats.work_units;
    }
    failure.wall_seconds_lost = result.telemetry.wall_seconds;
    obs::WorkersCrashedCounter().Add(
        static_cast<uint64_t>(std::popcount(crashed_mask)));
    result.failure = std::move(failure);
  }
  control_.injector = nullptr;
  control_.cancel = nullptr;
  step_.task = nullptr;
  step_.roots.clear();
  step_.lineage = nullptr;
  steps_run_.fetch_add(1, std::memory_order_relaxed);
  // Work units and extension tests live in per-thread stats during the
  // step, so the cumulative counters are credited here at the barrier
  // rather than in the hot loop (the live view is Worker::work_units).
  obs::StepsCounter().Add(1);
  obs::WorkUnitsCounter().Add(result.telemetry.TotalWorkUnits());
  obs::ExtensionTestsCounter().Add(result.telemetry.TotalExtensionTests());
  // Credit attained service to the query and free the step slot for the
  // next waiter. A cancelled step is still charged: its partial units were
  // real cluster time.
  ReleaseStep(ticket, result.telemetry.TotalWorkUnits());
  // Only scheduled queries (ids from 1) publish a per-query series; id 0 is
  // every synchronous execution, whose runs must not pile up series.
  if (query.id != 0) {
    obs::QueryUnitsGauge(query.id)
        .Set(static_cast<int64_t>(
            query.work_units.load(std::memory_order_relaxed)));
  }
  if (query.cancelled()) {
    result.cancelled = true;
    FRACTAL_TRACE_INSTANT("cluster/step_cancelled", query.id);
  }
  return result;
}

}  // namespace fractal
