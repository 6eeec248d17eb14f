#include "common.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

namespace perfbench {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double ToUs(uint64_t ns) { return static_cast<double>(ns) / 1e3; }

double Percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * v.size()));
  if (rank == 0) rank = 1;
  return v[std::min(rank, v.size()) - 1];
}

double Median(std::vector<double> v) { return Percentile(v, 50); }

double SelfPeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

const std::vector<int>& AllowedCpus() {
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) out.push_back(c);
      }
    }
    return out;
  }();
  return cpus;
}

void PinThread(int tid, int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  sched_setaffinity(tid, sizeof(set), &set);
}

size_t RotateCpu() {
  const std::vector<int>& cpus = AllowedCpus();
  static size_t next = 0;
  if (cpus.size() < 2) return 0;
  const size_t slot = next++ % cpus.size();
  PinThread(0, cpus[slot]);
  return slot;
}

void PerCpuSamples::Add(size_t cpu, double us) {
  if (cpu >= by_cpu_.size()) by_cpu_.resize(cpu + 1);
  by_cpu_[cpu].push_back(us);
}

void PerCpuSamples::Append(const PerCpuSamples& other) {
  for (size_t cpu = 0; cpu < other.by_cpu_.size(); ++cpu) {
    for (double us : other.by_cpu_[cpu]) Add(cpu, us);
  }
}

double PerCpuSamples::Percentile(double p) {
  std::vector<double> per_cpu;
  for (auto& v : by_cpu_) {
    if (!v.empty()) per_cpu.push_back(perfbench::Percentile(v, p));
  }
  return Median(per_cpu);
}

std::string PerCpuSamples::Describe(double p) {
  std::string out;
  for (auto& v : by_cpu_) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%s%.4g(n=%zu)", out.empty() ? "" : " ",
                  v.empty() ? 0.0 : perfbench::Percentile(v, p), v.size());
    out += buf;
  }
  return out;
}

void RunResult::Wrong(const std::string& kind, const std::string& what) {
  ops[kind].failed++;
  correct = false;
  Note("wrong " + kind + ": " + what);
}

void RunResult::Note(const std::string& what) {
  // Keep the report readable when a fault repeats on every operation.
  if (notes.size() < 20) notes.push_back(what);
}

const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
      {"commit_rate", "1/s"},
      {"commit_latency_p50_us", "us"},
      {"read_latency_p50_us", "us"},
  };
  return kMetrics;
}

const std::vector<std::pair<std::string, std::string>>& LayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"net.wire_us", "us"},
      {"net.queue_wait_us", "us"},
      {"net.exec_us", "us"},
      {"net.reply_write_us", "us"},
      {"net.bytes_per_request", "B"},
      {"amosql.parse_us", "us"},
      {"amosql.session_write_us", "us"},
      {"amosql.session_read_us", "us"},
      {"txn.queue_wait_us", "us"},
      {"txn.txns_per_wave", "1/wave"},
      {"txn.queued_commits", "count"},
      {"txn.fastpath_commits", "count"},
      {"txn.aborts", "count"},
      {"rules.check_phase_us", "us"},
      {"rules.action_us", "us"},
      {"rules.firings", "1/commit"},
      {"rules.rounds", "1/commit"},
      {"core.propagation_us", "us"},
      {"core.level_us", "us"},
      {"core.differentials_executed", "1/commit"},
      {"core.differentials_skipped", "1/commit"},
      {"core.tuples_propagated", "1/commit"},
      {"core.peak_wavefront_tuples", "count"},
      {"objectlog.tuples_examined", "1/commit"},
      {"objectlog.literal_probes", "1/commit"},
      {"objectlog.clause_evals", "1/commit"},
      {"objectlog.closure_cache_reuses", "1/commit"},
      {"storage.update_us", "us"},
      {"storage.commit_us", "us"},
      {"storage.events_logged", "1/commit"},
      {"delta.tuples_taken", "1/commit"},
      {"bench.commit_latency_p95_us", "us"},
      {"bench.commit_latency_p99_us", "us"},
      {"bench.read_latency_p95_us", "us"},
      {"bench.read_latency_p99_us", "us"},
      {"bench.firing_commit_p50_us", "us"},
      {"bench.quiet_commit_p50_us", "us"},
      {"bench.unattributed_us", "us"},
      {"bench.trace_overhead_pct", "%"},
  };
  return kMetrics;
}

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

void PrintResult(const Options& options, const RunResult& result) {
  uint64_t attempted = 0, failed = 0;
  for (const auto& [kind, tally] : result.ops) {
    std::printf("ops %-8s attempted=%llu failed=%llu\n", kind.c_str(),
                static_cast<unsigned long long>(tally.attempted),
                static_cast<unsigned long long>(tally.failed));
    attempted += tally.attempted;
    failed += tally.failed;
  }
  if (!result.ledger.empty()) {
    std::printf("ledger (self time per %s, us; total %.3f):\n",
                result.ledger_per.c_str(), result.ledger_total_us);
    for (const auto& [layer, us] : result.ledger) {
      std::printf("  %-28s %12.3f  %6.1f%%\n", layer.c_str(), us,
                  result.ledger_total_us > 0
                      ? 100.0 * us / result.ledger_total_us
                      : 0.0);
    }
  }
  for (const std::string& note : result.notes) {
    std::printf("note: %s\n", note.c_str());
  }

  const auto& wanted = options.trace ? LayerMetrics() : EndToEndMetrics();
  std::string json = "{\"correct\": ";
  json += result.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, unit] : wanted) {
    auto it = result.metrics.find(name);
    double value = it == result.metrics.end() ? 0.0 : it->second;
    if (!std::isfinite(value)) value = 0.0;
    char num[64];
    std::snprintf(num, sizeof(num), "%.17g", value);
    if (!first) json += ", ";
    first = false;
    json += '"';
    json += JsonEscape(name);
    json += "\": {\"value\": ";
    json += num;
    json += ", \"unit\": \"";
    json += JsonEscape(unit);
    json += "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

obs::MetricsSnapshot RegistryDiff(const obs::MetricsSnapshot& before) {
  return obs::Registry::Global().Snapshot().DiffSince(before);
}

uint64_t HistSum(const obs::MetricsSnapshot& s, const std::string& name) {
  auto it = s.histograms.find(name);
  return it == s.histograms.end() ? 0 : it->second.sum;
}

uint64_t HistCount(const obs::MetricsSnapshot& s, const std::string& name) {
  auto it = s.histograms.find(name);
  return it == s.histograms.end() ? 0 : it->second.count;
}

void AddEngineCounters(const obs::MetricsSnapshot& diff, double commits,
                       RunResult* result) {
  if (commits <= 0) return;
  auto per_commit = [&](const char* metric, uint64_t value) {
    result->metrics[metric] = static_cast<double>(value) / commits;
  };
  per_commit("rules.firings", diff.CounterOr("rules.firings", 0));
  per_commit("rules.rounds", diff.CounterOr("rules.incremental_rounds", 0) +
                                 diff.CounterOr("rules.naive_rounds", 0));
  per_commit("core.differentials_executed",
             diff.CounterOr("propagator.differentials_executed", 0));
  per_commit("core.differentials_skipped",
             diff.CounterOr("propagator.differentials_skipped", 0));
  per_commit("core.tuples_propagated",
             diff.CounterOr("propagator.tuples_propagated", 0));
  per_commit("objectlog.tuples_examined",
             diff.CounterOr("eval.tuples_examined", 0));
  per_commit("objectlog.literal_probes",
             diff.CounterOr("eval.literal_probes", 0));
  per_commit("objectlog.clause_evals", diff.CounterOr("eval.clause_evals", 0));
  per_commit("storage.events_logged", diff.CounterOr("db.events_logged", 0));
  per_commit("delta.tuples_taken", HistSum(diff, "db.delta_tuples_taken"));
  result->metrics["core.level_us"] =
      ToUs(HistSum(diff, "propagator.level_ns")) / commits;
}

}  // namespace perfbench
