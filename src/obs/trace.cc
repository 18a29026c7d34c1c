#include "obs/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "util/alloc_guard.h"
#include "util/hot_annotations.h"
#include "util/strings.h"

namespace fractal {
namespace obs {
namespace {

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Minimal JSON string escaping (names are code literals, but stay safe).
std::string EscapeJson(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += StrFormat("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

/// One thread's ring. Owned by the Tracer registry (so it outlives its
/// thread); the owning thread holds only a raw thread_local pointer.
/// The per-buffer mutex is a leaf lock: Record holds it for one slot write
/// and never acquires anything else under it.
struct ThreadBuffer {
  ThreadBuffer(uint32_t auto_tid, size_t capacity)
      : tid(auto_tid),
        thread_name(StrFormat("thread-%u", auto_tid)),
        slots(capacity) {}

  /// Intrusive link for Tracer::free_list_. Written only by the exiting
  /// owner thread (before the release push) or read by the single popper
  /// under Tracer::mu_; never touched while the buffer has a live owner.
  ThreadBuffer* next_free = nullptr;

  mutable Mutex mu{"Tracer::ThreadBuffer::mu"};
  uint32_t pid GUARDED_BY(mu) = 0;
  uint32_t tid GUARDED_BY(mu) = 0;
  std::string thread_name GUARDED_BY(mu);
  std::string process_name GUARDED_BY(mu) = "driver";
  /// Ring storage: slot `next % slots.size()` is written next. `next`
  /// counts events ever recorded; the valid window is the trailing
  /// min(next, slots.size()) entries.
  std::vector<TraceEvent> slots GUARDED_BY(mu);
  uint64_t next GUARDED_BY(mu) = 0;
};

std::atomic<uint32_t> Tracer::flags_{0};

namespace {
// Constant-initialized: no TLS init guard, so instrumentation reaching this
// from any point (including via the profiler's registration path) never
// allocates or locks.
constinit thread_local SpanStack tls_span_stack;
}  // namespace

SpanStack& CurrentSpanStack() { return tls_span_stack; }

Tracer& Tracer::Get() {
  static Tracer* tracer = new Tracer();  // leaked: see class comment
  return *tracer;
}

void Tracer::Enable(size_t events_per_thread) {
  flags_.fetch_and(~kTracingFlag, std::memory_order_seq_cst);
  MutexLock lock(mu_);
  if (names_.empty()) names_.push_back("");  // id 0 reserved
  capacity_ = events_per_thread;
  epoch_nanos_ = NowNanos();
  for (auto& buffer : buffers_) {
    MutexLock buffer_lock(buffer->mu);
    buffer->slots.assign(capacity_, TraceEvent{});
    buffer->next = 0;
  }
  flags_.fetch_or(kTracingFlag, std::memory_order_release);
}

void Tracer::Disable() {
  flags_.fetch_and(~kTracingFlag, std::memory_order_seq_cst);
}

uint32_t Tracer::InternName(const char* name) {
  // Per-call-site one-time interning; the first span through a given site
  // can execute mid-run on a guarded thread (e.g. the first steal).
  AllocGuard::Allow allow("one-time trace-name interning");
  MutexLock lock(mu_);
  if (names_.empty()) names_.push_back("");
  for (uint32_t id = 1; id < names_.size(); ++id) {
    if (names_[id] == name) return id;
  }
  names_.emplace_back(name);
  return static_cast<uint32_t>(names_.size() - 1);
}

ThreadBuffer& Tracer::LocalBuffer() {
  // The thread_local slot returns the ring to the free list at thread exit,
  // so thread churn (ephemeral clusters spawn workers per execution) reuses
  // rings instead of growing the registry without bound. Reused rings are
  // NOT cleared: the dead thread's events stay exportable, and the new
  // occupant appends after them (timestamps remain monotone per ring; the
  // new occupant re-labels the identity if it cares).
  //
  // The exit-time push MUST NOT acquire a fractal::Mutex: lockdep's own
  // per-thread state is a thread_local constructed *after* this slot (its
  // first touch is inside the MutexLock below), so it is destroyed first
  // and an instrumented acquisition here would use it after destruction.
  // Hence the lock-free Treiber push onto Tracer::free_list_.
  struct Slot {
    Tracer* tracer = nullptr;
    ThreadBuffer* buffer = nullptr;
    ~Slot() {
      if (buffer == nullptr) return;
      ThreadBuffer* head = tracer->free_list_.load(std::memory_order_relaxed);
      do {
        buffer->next_free = head;
      } while (!tracer->free_list_.compare_exchange_weak(
          head, buffer, std::memory_order_release, std::memory_order_relaxed));
    }
  };
  thread_local Slot slot;
  if (slot.buffer == nullptr) {
    FRACTAL_HOT_ESCAPE(
        "one-time per-thread ring acquisition; every later Record on this "
        "thread takes the fast path above");
    AllocGuard::Allow allow("trace ring registration for a new thread");
    MutexLock lock(mu_);
    // Single consumer: pops only happen here, under mu_. A concurrent
    // exit-time push can only prepend new nodes, so head->next_free is
    // stable once head is observed.
    ThreadBuffer* head = free_list_.load(std::memory_order_acquire);
    while (head != nullptr &&
           !free_list_.compare_exchange_weak(head, head->next_free,
                                             std::memory_order_acquire,
                                             std::memory_order_acquire)) {
    }
    if (head != nullptr) {
      head->next_free = nullptr;
      slot.buffer = head;
    } else {
      auto buffer = std::make_unique<ThreadBuffer>(next_auto_tid_++, capacity_);
      slot.buffer = buffer.get();
      buffers_.push_back(std::move(buffer));
    }
    slot.tracer = this;
  }
  return *slot.buffer;
}

void Tracer::SetCurrentThreadIdentity(uint32_t pid, uint32_t tid,
                                      const std::string& thread_name,
                                      const std::string& process_name) {
  ThreadBuffer& buffer = LocalBuffer();
  MutexLock lock(buffer.mu);
  buffer.pid = pid;
  buffer.tid = tid;
  buffer.thread_name = thread_name;
  buffer.process_name = process_name;
}

void Tracer::Record(TracePhase phase, uint32_t name_id, uint64_t arg) {
  ThreadBuffer& buffer = LocalBuffer();
  // The timestamp is taken inside the critical section so that a session
  // boundary (Enable clearing this ring under the same mutex) orders
  // cleanly with in-flight records.
  MutexLock lock(buffer.mu);
  if (buffer.slots.empty()) return;  // registered before any session
  TraceEvent& event = buffer.slots[buffer.next % buffer.slots.size()];
  event.ts_nanos = NowNanos();
  event.name_id = name_id;
  event.phase = phase;
  event.arg = arg;
  ++buffer.next;
}

void Tracer::RecordBegin(uint32_t name_id, uint64_t arg) {
  Record(TracePhase::kBegin, name_id, arg);
}

void Tracer::RecordEnd(uint32_t name_id) {
  Record(TracePhase::kEnd, name_id, 0);
}

void Tracer::RecordInstant(uint32_t name_id, uint64_t arg) {
  Record(TracePhase::kInstant, name_id, arg);
}

TraceSnapshot Tracer::Snapshot() const {
  MutexLock lock(mu_);
  TraceSnapshot snapshot;
  snapshot.names = names_;
  if (snapshot.names.empty()) snapshot.names.push_back("");
  for (const auto& buffer : buffers_) {
    MutexLock buffer_lock(buffer->mu);
    ThreadTrace trace;
    trace.pid = buffer->pid;
    trace.tid = buffer->tid;
    trace.thread_name = buffer->thread_name;
    trace.process_name = buffer->process_name;
    const uint64_t size = buffer->slots.size();
    const uint64_t count = std::min<uint64_t>(buffer->next, size);
    trace.dropped = buffer->next - count;
    trace.events.reserve(count);
    for (uint64_t i = buffer->next - count; i < buffer->next; ++i) {
      TraceEvent event = buffer->slots[i % size];
      // Events that raced a session boundary can predate the epoch; clamp
      // instead of emitting negative timestamps.
      event.ts_nanos = std::max<int64_t>(0, event.ts_nanos - epoch_nanos_);
      trace.events.push_back(event);
    }
    snapshot.threads.push_back(std::move(trace));
  }
  return snapshot;
}

std::string Tracer::ToChromeTraceJson() const {
  const TraceSnapshot snapshot = Snapshot();
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  auto emit = [&out, &first](const std::string& event_json) {
    if (!first) out += ",";
    first = false;
    out += "\n";
    out += event_json;
  };
  auto name_of = [&snapshot](uint32_t id) -> std::string {
    if (id < snapshot.names.size()) return snapshot.names[id];
    return StrFormat("name-%u", id);
  };

  for (const ThreadTrace& thread : snapshot.threads) {
    if (thread.events.empty()) continue;
    emit(StrFormat(
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%u,\"tid\":%u,"
        "\"args\":{\"name\":\"%s\"}}",
        thread.pid, thread.tid, EscapeJson(thread.process_name).c_str()));
    emit(StrFormat(
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%u,\"tid\":%u,"
        "\"args\":{\"name\":\"%s\"}}",
        thread.pid, thread.tid, EscapeJson(thread.thread_name).c_str()));

    // Balanced-pair repair over the ring window: orphan ends (their begin
    // was overwritten by wraparound) are dropped, begins still open at the
    // window's end are closed at the last timestamp.
    std::vector<uint32_t> open;  // name ids of open begins
    int64_t last_ts = 0;
    for (const TraceEvent& event : thread.events) {
      const double ts_micros = static_cast<double>(event.ts_nanos) / 1000.0;
      last_ts = event.ts_nanos;
      switch (event.phase) {
        case TracePhase::kBegin: {
          std::string args;
          if (event.arg != 0) {
            args = StrFormat(",\"args\":{\"v\":%llu}",
                             (unsigned long long)event.arg);
          }
          emit(StrFormat(
              "{\"name\":\"%s\",\"cat\":\"fractal\",\"ph\":\"B\","
              "\"ts\":%.3f,\"pid\":%u,\"tid\":%u%s}",
              EscapeJson(name_of(event.name_id)).c_str(), ts_micros,
              thread.pid, thread.tid, args.c_str()));
          open.push_back(event.name_id);
          break;
        }
        case TracePhase::kEnd: {
          if (open.empty()) break;  // begin lost to wraparound
          open.pop_back();
          emit(StrFormat(
              "{\"name\":\"%s\",\"ph\":\"E\",\"ts\":%.3f,\"pid\":%u,"
              "\"tid\":%u}",
              EscapeJson(name_of(event.name_id)).c_str(), ts_micros,
              thread.pid, thread.tid));
          break;
        }
        case TracePhase::kInstant:
          emit(StrFormat(
              "{\"name\":\"%s\",\"cat\":\"fractal\",\"ph\":\"i\","
              "\"ts\":%.3f,\"pid\":%u,\"tid\":%u,\"s\":\"t\","
              "\"args\":{\"v\":%llu}}",
              EscapeJson(name_of(event.name_id)).c_str(), ts_micros,
              thread.pid, thread.tid, (unsigned long long)event.arg));
          break;
      }
    }
    const double close_micros = static_cast<double>(last_ts) / 1000.0;
    while (!open.empty()) {
      emit(StrFormat(
          "{\"name\":\"%s\",\"ph\":\"E\",\"ts\":%.3f,\"pid\":%u,"
          "\"tid\":%u}",
          EscapeJson(name_of(open.back())).c_str(), close_micros, thread.pid,
          thread.tid));
      open.pop_back();
    }
  }
  out += "\n]}\n";
  return out;
}

Status Tracer::ExportChromeTrace(const std::string& path) const {
  const std::string json = ToChromeTraceJson();
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return InternalError(StrFormat("cannot open trace file %s", path.c_str()));
  }
  const size_t written = std::fwrite(json.data(), 1, json.size(), file);
  const bool closed = std::fclose(file) == 0;
  if (written != json.size() || !closed) {
    return InternalError(StrFormat("short write to trace file %s",
                                   path.c_str()));
  }
  return Status::Ok();
}

}  // namespace obs
}  // namespace fractal
