#ifndef DELTAMON_OBS_SPAN_H_
#define DELTAMON_OBS_SPAN_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace deltamon::obs {

/// --- Hierarchical span tracing ---------------------------------------------
///
/// A Span is an RAII wall-clock interval with parent/child nesting: the
/// innermost live span on the current thread is the parent of any span
/// started while it is open. On destruction the span records one TraceEvent
/// into its thread's trace ring (a Ring<TraceEvent>, see TraceScope),
/// carrying its id, parent id, thread, start time, duration and the scope's
/// trace id as integer fields — so the span-tree printer and the
/// Chrome-trace exporter both read the items of one ring snapshot.
///
/// Cost model: when no sink is installed (the default) a span is one
/// thread-local read and one atomic load in the constructor and a branch
/// in the destructor — no clock reads, no id allocation, no allocation.
/// Installing a sink is the opt-in, exactly as for EmitTrace. Under
/// `cmake -DDELTAMON_OBS=OFF` the DELTAMON_OBS_SPAN macro compiles spans
/// out entirely.
class Span {
 public:
  /// Starts a span (active iff this thread has a trace sink). `category`
  /// must be a string with static storage duration; `name` is copied.
  Span(const char* category, std::string name);
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  /// Ends the span and emits its TraceEvent.
  ~Span();

  bool active() const { return active_; }
  /// 0 when inactive.
  uint64_t id() const { return id_; }

  /// Attaches an integer field to the span's end event. No-op when
  /// inactive, so call sites need no guard for cheap values; guard on
  /// active() before computing expensive ones.
  void AddField(std::string key, int64_t value);

  /// Replaces the span name (e.g. to append a catalog-resolved relation
  /// name computed only when tracing is on). No-op when inactive.
  void SetName(std::string name);

  /// The id of the innermost live span on this thread; 0 when none.
  static uint64_t CurrentId();

 private:
  bool active_ = false;
  uint64_t id_ = 0;
  uint64_t parent_ = 0;
  uint64_t trace_id_ = 0;  ///< CurrentTraceId() at construction
  uint64_t start_ns_ = 0;
  const char* category_ = "";
  std::string name_;
  std::vector<std::pair<std::string, int64_t>> fields_;
};

/// No-op stand-in used by DELTAMON_OBS_SPAN when instrumentation is
/// compiled out; keeps call sites (AddField/SetName/active) compiling.
struct NullSpan {
  bool active() const { return false; }
  uint64_t id() const { return 0; }
  /// Templates so literal keys never materialize a std::string here.
  template <typename K>
  void AddField(K&&, int64_t) {}
  template <typename N>
  void SetName(N&&) {}
};

#if DELTAMON_OBS_ENABLED
/// Declares an RAII span covering the enclosing scope.
#define DELTAMON_OBS_SPAN(var, category, name) \
  ::deltamon::obs::Span var((category), (name))
#else
#define DELTAMON_OBS_SPAN(var, category, name) \
  [[maybe_unused]] ::deltamon::obs::NullSpan var
#endif

/// True when `event` was produced by a Span (i.e. carries the span_id /
/// dur_ns bookkeeping fields).
bool IsSpanEvent(const TraceEvent& event);

/// Looks up an integer field by key; `fallback` when absent.
int64_t SpanField(const TraceEvent& event, const char* key, int64_t fallback);

/// Chrome/Perfetto trace_event document: every span event becomes one
/// complete ("ph":"X") event with microsecond timestamps normalized to the
/// earliest span start. Non-span events are skipped (they carry no
/// timestamps). Loadable in chrome://tracing and ui.perfetto.dev.
Json ChromeTraceJson(const std::vector<TraceEvent>& events);

/// Serializes ChromeTraceJson(events) to `path`.
Status WriteChromeTrace(const std::vector<TraceEvent>& events,
                        const std::string& path);

/// Indented parent/child rendering of the recorded spans, children in
/// start order:
///
///   rules.check_phase 1.234 ms
///     rules.round 1.200 ms {round=1}
///       propagation.wave 1.100 ms
///
/// Spans whose parent was dropped from the ring (or ended outside it)
/// are printed as roots. "(no spans recorded)" when there are none.
std::string FormatSpanTree(const std::vector<TraceEvent>& events);

}  // namespace deltamon::obs

#endif  // DELTAMON_OBS_SPAN_H_
