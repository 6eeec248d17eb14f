#include "inproc.h"

#include <algorithm>

namespace perfbench {

using deltamon::Database;
using deltamon::Status;

uint64_t ClosureCacheReuses(const deltamon::Engine& engine) {
  uint64_t total = 0;
  for (const auto& cache : engine.rules.eval_caches()) {
    total += cache.indexed_reuses();
  }
  return total;
}

InprocHarness::InprocHarness(deltamon::Engine& engine, bool trace)
    : engine_(engine), trace_(trace) {
  if (!trace_) return;
  // The check-phase hook: the same RuleManager::CheckPhase the manager
  // installs for itself, wrapped in a span.
  engine_.db.SetCheckPhase([this](Database& db) {
    if (!tracing_) return engine_.rules.CheckPhase(db);
    const uint64_t start = NowNs();
    Status s = engine_.rules.CheckPhase(db);
    check_ns_ += NowNs() - start;
    return s;
  });
}

InprocHarness::~InprocHarness() {
  if (!trace_) return;
  deltamon::rules::RuleManager& rules = engine_.rules;
  engine_.db.SetCheckPhase(
      [&rules](Database& db) { return rules.CheckPhase(db); });
}

void InprocHarness::BeginRound() {
  cpu_ = RotateCpu();
  round_commit_ns_ = round_commits_ = 0;
  round_read_ns_ = round_reads_ = 0;
  round_start_ns_ = NowNs();
}

void InprocHarness::EndRound() {
  if (round_commits_ == 0) return;
  const double commits = static_cast<double>(round_commits_);
  round_us_.Add(cpu_, ToUs(NowNs() - round_start_ns_) / commits);
  commit_us_.Add(cpu_, ToUs(round_commit_ns_) / commits);
  if (round_reads_ > 0) {
    read_us_.Add(cpu_, ToUs(round_read_ns_) /
                           static_cast<double>(round_reads_));
  }
}

Status InprocHarness::Commit(const std::function<Status()>& update,
                             bool firing) {
  tracing_ = trace_ && (commits_ / kTraceBlock) % 2 == 1;
  const uint64_t start = NowNs();
  Status s = update();
  const uint64_t updated = NowNs();
  if (s.ok()) s = engine_.db.Commit();
  const uint64_t end = NowNs();
  ++commits_;
  round_commit_ns_ += end - start;
  ++round_commits_;
  (firing ? firing_us_ : quiet_us_).Add(cpu_, ToUs(end - start));
  if (tracing_) {
    ++traced_commits_;
    traced_total_ns_ += end - start;
    update_ns_ += updated - start;
    commit_ns_ += end - updated;
  } else {
    untraced_total_ns_ += end - start;
  }
  if (trace_) {
    peak_wavefront_ =
        std::max(peak_wavefront_,
                 engine_.rules.last_check().propagation.peak_wavefront_tuples);
  }
  tracing_ = false;
  return s;
}

Status InprocHarness::Read(const std::function<Status()>& read) {
  const uint64_t start = NowNs();
  Status s = read();
  const uint64_t ns = NowNs() - start;
  round_read_ns_ += ns;
  ++round_reads_;
  read_ns_ += ns;
  ++reads_;
  return s;
}

void InprocHarness::NoteReadStats(
    const deltamon::objectlog::Evaluator::Stats& stats) {
  read_stats_.clause_evals += stats.clause_evals;
  read_stats_.literal_probes += stats.literal_probes;
  read_stats_.tuples_examined += stats.tuples_examined;
}

void InprocHarness::StartWindow() {
  commit_us_.Clear();
  firing_us_.Clear();
  quiet_us_.Clear();
  read_us_.Clear();
  round_us_.Clear();
  commits_ = traced_commits_ = 0;
  reads_ = read_ns_ = 0;
  traced_total_ns_ = untraced_total_ns_ = 0;
  update_ns_ = commit_ns_ = check_ns_ = action_ns_ = 0;
  peak_wavefront_ = 0;
  read_stats_ = {};
  cache_reuses_before_ = ClosureCacheReuses(engine_);
  before_ = obs::Registry::Global().Snapshot();
  window_start_ns_ = NowNs();
}

void InprocHarness::FinishWindow(RunResult* result) {
  const double window_s =
      static_cast<double>(NowNs() - window_start_ns_) / 1e9;
  auto& m = result->metrics;
  // One over the typical round's wall time per commit: the median over
  // CPUs of each CPU's median, like the latencies, so a stretch in which
  // the host slows some CPUs moves it no more than it moves them.
  const double round_us = round_us_.Percentile(50);
  m["commit_rate"] = round_us > 0 ? 1e6 / round_us : 0.0;
  m["commit_latency_p50_us"] = commit_us_.Percentile(50);
  m["bench.commit_latency_p95_us"] = commit_us_.Percentile(95);
  m["bench.commit_latency_p99_us"] = commit_us_.Percentile(99);
  m["read_latency_p50_us"] = read_us_.Percentile(50);
  m["bench.read_latency_p95_us"] = read_us_.Percentile(95);
  m["bench.read_latency_p99_us"] = read_us_.Percentile(99);
  result->Note("window " + std::to_string(window_s) + " s, " +
               std::to_string(commits_) + " commits, " +
               std::to_string(reads_) + " reads, " +
               std::to_string(commits_ / window_s) + " commits/s overall");
  result->Note("per-CPU p50 round us/commit: " + round_us_.Describe(50));
  result->Note("per-CPU p50 commit us: " + commit_us_.Describe(50));
  result->Note("per-CPU p50 read us: " + read_us_.Describe(50));
  if (!trace_ || traced_commits_ == 0) return;

  // Span means over the traced commits; the total they must add up to is
  // the window's wall time per commit, so the benchmark's own work (input
  // generation, model checks) and the reads show as what they cost.
  const double n = static_cast<double>(traced_commits_);
  const double commits = static_cast<double>(commits_);
  const double total = window_s * 1e6 / commits;
  const double update = ToUs(update_ns_) / n;
  const double commit = ToUs(commit_ns_) / n;
  const double check = ToUs(check_ns_) / n;
  const double action = ToUs(action_ns_) / n;
  const double reads = ToUs(read_ns_) / commits;
  const double unattributed = total - update - commit - reads;
  m["storage.update_us"] = update;
  m["storage.commit_us"] = commit - check;
  m["rules.check_phase_us"] = check;
  m["rules.action_us"] = action;
  m["core.propagation_us"] = check - action;
  m["bench.unattributed_us"] = unattributed;
  m["bench.firing_commit_p50_us"] = firing_us_.Percentile(50);
  m["bench.quiet_commit_p50_us"] = quiet_us_.Percentile(50);
  const uint64_t untraced = commits_ - traced_commits_;
  if (untraced > 0 && untraced_total_ns_ > 0) {
    const double traced = ToUs(traced_total_ns_) / n;
    const double base =
        ToUs(untraced_total_ns_) / static_cast<double>(untraced);
    m["bench.trace_overhead_pct"] = (traced / base - 1.0) * 100.0;
  }
  obs::MetricsSnapshot diff = RegistryDiff(before_);
  diff.counters["eval.clause_evals"] -= read_stats_.clause_evals;
  diff.counters["eval.literal_probes"] -= read_stats_.literal_probes;
  diff.counters["eval.tuples_examined"] -= read_stats_.tuples_examined;
  AddEngineCounters(diff, commits, result);
  m["core.peak_wavefront_tuples"] = static_cast<double>(peak_wavefront_);
  m["objectlog.closure_cache_reuses"] =
      static_cast<double>(ClosureCacheReuses(engine_) - cache_reuses_before_) /
      commits;

  result->ledger = {
      {"storage.update", update},
      {"storage.commit (self)", commit - check},
      {"core.propagation", check - action},
      {"rules.action", action},
      {"objectlog (point reads)", reads},
      {"bench.unattributed", unattributed},
  };
  result->ledger_total_us = total;
}

}  // namespace perfbench
