#ifndef DELTAMON_OBS_TRACE_H_
#define DELTAMON_OBS_TRACE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/ring.h"

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

/// Process-wide sink registration: the ring of every thread that has no
/// scope sink of its own (see TraceScope). Null (the default) disables
/// emission; EmitTrace is then a thread-local read and one pointer compare.
/// The caller owns the ring and must uninstall it (SetTraceSink(nullptr))
/// before destroying it. Tests and benches install it; statements that
/// capture their own spans (`trace <stmt>`, slow-statement capture) use a
/// ScopedTraceScope instead, so concurrent statements never share a ring.
/// Every event a ring displaces also bumps the global
/// `obs.trace.dropped_events` counter (visible in SHOW METRICS).
void SetTraceSink(Ring<TraceEvent>* sink);

/// The ring this thread's spans and events go to: its scope sink when one
/// is installed, else the process-wide sink.
Ring<TraceEvent>* GetTraceSink();

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
  /// Private ring; null routes to the process-wide sink.
  Ring<TraceEvent>* sink = nullptr;
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

/// Records `event` into this thread's sink, if any.
void EmitTrace(TraceEvent event);

}  // namespace deltamon::obs

#endif  // DELTAMON_OBS_TRACE_H_
