// The in-process harness shared by bulk_wave and recursive_reroute: it
// times each commit (its updates plus Database::Commit) and each read, and
// in a traced run records spans around the engine's public entry points:
// the update calls, Database::Commit, a check-phase hook wrapping
// RuleManager::CheckPhase, and the rule action callbacks.
#ifndef PERFBENCH_INPROC_H_
#define PERFBENCH_INPROC_H_

#include <functional>
#include <vector>

#include "common.h"
#include "objectlog/eval.h"
#include "rules/engine.h"

namespace perfbench {

class InprocHarness {
 public:
  /// Commits alternate between traced and untraced blocks of this many, so
  /// the traced run measures its own overhead against interleaved
  /// untraced commits of the same workload.
  static constexpr uint64_t kTraceBlock = 16;

  InprocHarness(deltamon::Engine& engine, bool trace);
  /// Puts the rule manager's own check phase back, so the engine never
  /// calls into a destroyed harness.
  ~InprocHarness();
  InprocHarness(const InprocHarness&) = delete;
  InprocHarness& operator=(const InprocHarness&) = delete;

  /// Opens one round of the workload (its commits, reads and model
  /// checks) and moves the thread to the next CPU (RotateCpu), so every
  /// CPU runs whole rounds and each sample mixes a round's kinds of commit
  /// alike.
  void BeginRound();
  /// Closes the round: its mean commit latency, its mean read latency and
  /// its wall time per commit each become one sample of the round's CPU.
  void EndRound();

  /// Runs `update` (the transaction's Database::Set/Insert/Delete calls)
  /// and then Database::Commit, timing both. `firing` says whether the
  /// benchmark's model expects a rule to fire on this commit.
  deltamon::Status Commit(const std::function<deltamon::Status()>& update,
                          bool firing);

  /// Times one read.
  deltamon::Status Read(const std::function<deltamon::Status()>& read);
  /// Reads evaluate through their own Evaluator; handing its statistics
  /// here keeps the objectlog counters of the ledger per-commit work only.
  void NoteReadStats(const deltamon::objectlog::Evaluator::Stats& stats);

  /// Rule action callbacks open one of these for their whole body.
  class ActionSpan {
   public:
    explicit ActionSpan(InprocHarness& h)
        : h_(h), start_(h.tracing_ ? NowNs() : 0) {}
    ~ActionSpan() {
      if (h_.tracing_) h_.action_ns_ += NowNs() - start_;
    }
    ActionSpan(const ActionSpan&) = delete;
    ActionSpan& operator=(const ActionSpan&) = delete;

   private:
    InprocHarness& h_;
    uint64_t start_;
  };

  /// Marks the start of the timed window: resets samples and snapshots the
  /// engine's counters.
  void StartWindow();
  /// Ends the window and fills the commit/read metrics, and in a traced run
  /// the per-layer ledger, into `result`.
  void FinishWindow(RunResult* result);

 private:
  deltamon::Engine& engine_;
  const bool trace_;
  bool tracing_ = false;  // inside a traced block

  uint64_t window_start_ns_ = 0;
  obs::MetricsSnapshot before_;
  uint64_t cache_reuses_before_ = 0;
  size_t peak_wavefront_ = 0;

  size_t cpu_ = 0;  // the CPU slot the current round runs on
  uint64_t round_start_ns_ = 0;
  uint64_t round_commit_ns_ = 0, round_commits_ = 0;
  uint64_t round_read_ns_ = 0, round_reads_ = 0;
  PerCpuSamples round_us_;  // wall time per commit of each round
  PerCpuSamples commit_us_;
  PerCpuSamples firing_us_;
  PerCpuSamples quiet_us_;
  PerCpuSamples read_us_;
  uint64_t commits_ = 0;
  uint64_t reads_ = 0, read_ns_ = 0;
  deltamon::objectlog::Evaluator::Stats read_stats_;

  // Spans summed over the traced commits.
  uint64_t traced_commits_ = 0;
  uint64_t traced_total_ns_ = 0;
  uint64_t untraced_total_ns_ = 0;
  uint64_t update_ns_ = 0;
  uint64_t commit_ns_ = 0;
  uint64_t check_ns_ = 0;
  uint64_t action_ns_ = 0;
};

/// Sum of the closure-cache reuse counters over the rule manager's workers.
uint64_t ClosureCacheReuses(const deltamon::Engine& engine);

}  // namespace perfbench

#endif  // PERFBENCH_INPROC_H_
