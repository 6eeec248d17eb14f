#ifndef DELTAMON_OBS_TRACE_H_
#define DELTAMON_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace deltamon::obs {

/// One structured trace event: a category + name and a flat list of
/// integer fields. The propagation core emits one event per executed
/// partial differential (paper §8 explainability), keyed by relation ids;
/// consumers resolve names through the catalog if they want prose.
struct TraceEvent {
  std::string category;  // e.g. "propagation", "rules"
  std::string name;      // e.g. "differential", "rule_fired"
  std::vector<std::pair<std::string, int64_t>> fields;

  /// `category.name{k=v, ...}`.
  std::string ToString() const;
};

/// Receives trace events. Implementations must tolerate events from any
/// subsystem; emission is disabled wholesale when no sink is installed, so
/// sinks never see a partial stream.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void OnEvent(const TraceEvent& event) = 0;
};

/// Keeps the most recent `capacity` events in memory (older events are
/// dropped), for tests, the PROFILE command, and TRACE recording. Overflow
/// is not silent: every displaced event bumps dropped_events() and the
/// global `obs.trace.dropped_events` counter (visible in SHOW METRICS), so
/// a truncated trace announces itself.
/// OnEvent is internally synchronized: parallel propagation emits spans and
/// differential events from worker threads. Reading events() while another
/// thread still emits is not synchronized — consumers (tests, TRACE, the
/// profiler) read only after the traced work has joined.
class RingTraceSink : public TraceSink {
 public:
  explicit RingTraceSink(size_t capacity = 1024) : capacity_(capacity) {}

  void OnEvent(const TraceEvent& event) override;

  const std::deque<TraceEvent>& events() const { return events_; }
  /// Events displaced by overflow since construction (survives Clear).
  uint64_t dropped_events() const {
    return dropped_events_.load(std::memory_order_relaxed);
  }
  void Clear() {
    std::lock_guard<std::mutex> lock(mu_);
    events_.clear();
  }

 private:
  size_t capacity_;
  std::mutex mu_;
  std::atomic<uint64_t> dropped_events_{0};
  std::deque<TraceEvent> events_;
};

/// Process-wide sink registration: the sink of every thread that has no
/// scope sink of its own (see TraceScope). Null (the default) disables
/// emission; EmitTrace is then a thread-local read and one pointer compare.
/// The caller owns the sink and must uninstall it (SetTraceSink(nullptr))
/// before destroying it. Tests and benches install it; statements that
/// capture their own spans (`trace <stmt>`, slow-statement capture) use a
/// ScopedTraceScope instead, so concurrent statements never share a ring.
void SetTraceSink(TraceSink* sink);

/// The sink this thread's spans and events go to: its scope sink when one
/// is installed, else the process-wide sink.
TraceSink* GetTraceSink();

inline bool TraceEnabled() { return GetTraceSink() != nullptr; }

/// The trace context of the work running on one thread: where its spans
/// and events go, and which request they belong to. The network executor
/// installs one per statement (the request's trace id, plus a private ring
/// while slow-statement capture is armed), `trace <stmt>` installs one with
/// its own ring, the propagator copies the submitting thread's scope onto
/// the pool workers of each level, and the commit leader installs a solo
/// wave's scope for that wave. Scopes are thread-local, so statements
/// running concurrently on other threads never see each other's sink.
struct TraceScope {
  /// Private sink; null routes to the process-wide sink.
  TraceSink* sink = nullptr;
  /// Request id every span started under the scope carries as its
  /// `trace_id` field; 0 outside a request.
  uint64_t trace_id = 0;
};

/// The calling thread's scope; an empty scope when none is installed.
TraceScope CurrentTraceScope();

inline uint64_t CurrentTraceId() { return CurrentTraceScope().trace_id; }

/// Installs a scope on the calling thread for its own lifetime and restores
/// the previous one on destruction, so scopes nest.
class ScopedTraceScope {
 public:
  explicit ScopedTraceScope(const TraceScope& scope);
  ~ScopedTraceScope();
  ScopedTraceScope(const ScopedTraceScope&) = delete;
  ScopedTraceScope& operator=(const ScopedTraceScope&) = delete;

 private:
  TraceScope saved_;
};

/// Delivers `event` to the installed sink, if any.
void EmitTrace(const TraceEvent& event);

}  // namespace deltamon::obs

#endif  // DELTAMON_OBS_TRACE_H_
