#include "obs/provenance.h"

#include <atomic>
#include <utility>

namespace deltamon::obs {

Json FiringRecord::ToJson() const {
  Json out = Json::Object();
  out.Set("seq", static_cast<int64_t>(seq));
  out.Set("trace_id", static_cast<int64_t>(trace_id));
  out.Set("version", static_cast<int64_t>(version));
  out.Set("rule", rule);
  out.Set("round", static_cast<int64_t>(round));
  Json rendered = Json::Array();
  for (const std::string& i : instances) rendered.Append(i);
  out.Set("instances", std::move(rendered));
  out.Set("captured_instances", static_cast<int64_t>(captured_instances));
  out.Set("total_instances", static_cast<int64_t>(total_instances));
  out.Set("lineage", lineage);
  return out;
}

Ring<FiringRecord, kObsEnabled>& GlobalProvenanceLog() {
  static auto* log = new Ring<FiringRecord, kObsEnabled>(/*capacity=*/128);
  return *log;
}

namespace {
std::atomic<bool> g_provenance_enabled{false};
}  // namespace

bool ProvenanceEnabled() {
  return g_provenance_enabled.load(std::memory_order_relaxed);
}

void SetProvenanceEnabled(bool on) {
  g_provenance_enabled.store(on, std::memory_order_relaxed);
}

Json ProvenanceJson(const RingView<FiringRecord>& view, bool enabled) {
  Json out = Json::Object();
  out.Set("enabled", enabled);
  return RingJson(std::move(out), view, "firings");
}

std::string FormatProvenance(const RingView<FiringRecord>& view,
                             bool enabled) {
  std::string out = "FIRING PROVENANCE (";
  out += enabled ? "on" : "off";
  out += ", " + std::to_string(view.items.size()) + " recorded";
  if (view.dropped > 0) {
    out += ", " + std::to_string(view.dropped) + " dropped";
  }
  out += ", " + std::to_string(view.total) + " total)\n";
  for (const FiringRecord& r : view.items) {
    out += "[" + std::to_string(r.seq) + "] " + r.rule + " fired on " +
           std::to_string(r.total_instances) + " instance(s) (trace " +
           std::to_string(r.trace_id) + ", version " +
           std::to_string(r.version) + ", round " + std::to_string(r.round) +
           ")\n";
    for (const std::string& i : r.instances) {
      out += "  " + i + "\n";
    }
    if (r.captured_instances < r.total_instances) {
      out += "  (lineage captured for first " +
             std::to_string(r.captured_instances) + ")\n";
    }
  }
  return out;
}

}  // namespace deltamon::obs
