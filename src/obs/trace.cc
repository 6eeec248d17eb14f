#include "obs/trace.h"

#include <atomic>
#include <utility>

#include "obs/metrics.h"

namespace deltamon::obs {

namespace {
std::atomic<Ring<TraceEvent>*> g_sink{nullptr};
thread_local TraceScope t_scope;
}  // namespace

std::string TraceEvent::ToString() const {
  std::string out = category + "." + name + "{";
  bool first = true;
  for (const auto& [key, value] : fields) {
    if (!first) out += ", ";
    first = false;
    out += key + "=" + std::to_string(value);
  }
  return out + "}";
}

void SetTraceSink(Ring<TraceEvent>* sink) {
  g_sink.store(sink, std::memory_order_release);
}

Ring<TraceEvent>* GetTraceSink() {
  Ring<TraceEvent>* scoped = t_scope.sink;
  return scoped != nullptr ? scoped : g_sink.load(std::memory_order_acquire);
}

TraceScope CurrentTraceScope() { return t_scope; }

ScopedTraceScope::ScopedTraceScope(const TraceScope& scope)
    : saved_(t_scope) {
  t_scope = scope;
}

ScopedTraceScope::~ScopedTraceScope() { t_scope = saved_; }

void EmitTrace(TraceEvent event) {
  Ring<TraceEvent>* sink = GetTraceSink();
  if (sink != nullptr && sink->Record(std::move(event)) > sink->capacity()) {
    DELTAMON_OBS_COUNT("obs.trace.dropped_events", 1);
  }
}

}  // namespace deltamon::obs
