// Shared plumbing of the perfbench workloads: options, the seeded input
// generator, clocks, percentiles, the per-layer ledger and the result line.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace perfbench {

namespace obs = deltamon::obs;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Path of the deltamond binary (oltp_commits only).
  std::string deltamond;
};

/// Deterministic generator (splitmix64): the same seed gives the same
/// inputs on every platform, independent of the standard library.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed * 0x9e3779b97f4a7c15ULL + 1) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [lo, hi].
  int64_t Range(int64_t lo, int64_t hi) {
    const uint64_t span = static_cast<uint64_t>(hi - lo + 1);
    return lo + static_cast<int64_t>(Next() % span);
  }
  /// Uniform in [lo, hi], different from `avoid`.
  int64_t RangeExcept(int64_t lo, int64_t hi, int64_t avoid) {
    for (;;) {
      const int64_t v = Range(lo, hi);
      if (v != avoid) return v;
    }
  }

 private:
  uint64_t state_;
};

uint64_t NowNs();
double ToUs(uint64_t ns);

/// Nearest-rank percentile of `v` (0 < p <= 100); sorts `v`.
double Percentile(std::vector<double>& v, double p);
double Median(std::vector<double> v);
/// Peak resident set of this process, in MB.
double SelfPeakRssMb();

/// The CPUs this process was allowed to run on when first asked.
const std::vector<int>& AllowedCpus();
/// Pins thread `tid` (0: the calling thread) to `cpu`.
void PinThread(int tid, int cpu);

/// Moves the calling thread to the next of the CPUs it may run on,
/// round-robin. The in-process workloads call it before every set-up and
/// every commit: on a shared host the CPUs differ in speed by up to 2x and
/// drift over minutes, so a thread left where the scheduler placed it
/// measures whichever CPU it landed on rather than the machine. Returns
/// the index of the CPU moved to among the allowed ones (0 when there is
/// only one).
size_t RotateCpu();

/// Latency samples kept per CPU slot (the index RotateCpu returned). A
/// percentile is taken on each CPU's samples and the median over CPUs is
/// reported, so one CPU slowed by the host moves it no more than the
/// others' noise does.
class PerCpuSamples {
 public:
  void Add(size_t cpu, double us);
  void Append(const PerCpuSamples& other);
  void Clear() { by_cpu_.clear(); }
  double Percentile(double p);
  /// The per-CPU percentiles Percentile(p) takes the median of, as text.
  std::string Describe(double p);

 private:
  std::vector<std::vector<double>> by_cpu_;
};

/// Attempt / failure tally of one operation kind.
struct OpTally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

/// What one run hands back: the operation tallies, the correctness
/// verdict, the metrics, and a human-readable ledger printed before the
/// result line.
struct RunResult {
  bool correct = true;
  std::map<std::string, OpTally> ops;
  std::vector<std::string> notes;
  std::map<std::string, double> metrics;
  /// Per-layer self times (us per `ledger_per`) that the traced run adds
  /// up against the measured total; printed as the ledger table.
  std::vector<std::pair<std::string, double>> ledger;
  double ledger_total_us = 0;
  std::string ledger_per = "commit";

  /// Records a wrong result: the operation counts as failed and the run as
  /// incorrect.
  void Wrong(const std::string& kind, const std::string& what);
  void Note(const std::string& what);
};

/// The end-to-end metrics every untraced run reports, and the per-layer
/// metrics every traced run reports, with their units. A layer a workload
/// does not exercise reports 0.
const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics();
const std::vector<std::pair<std::string, std::string>>& LayerMetrics();

/// Prints the tallies, ledger and notes, then the one-line JSON result.
void PrintResult(const Options& options, const RunResult& result);

/// Difference of the in-process metrics registry since `before`.
obs::MetricsSnapshot RegistryDiff(const obs::MetricsSnapshot& before);
/// Sum and count of a histogram in a snapshot (0 when absent).
uint64_t HistSum(const obs::MetricsSnapshot& s, const std::string& name);
uint64_t HistCount(const obs::MetricsSnapshot& s, const std::string& name);

/// Fills the layer metrics an in-process workload derives from the
/// library's own counters over the timed window, normalised per commit.
void AddEngineCounters(const obs::MetricsSnapshot& diff, double commits,
                       RunResult* result);

RunResult RunOltpCommits(const Options& options);
RunResult RunBulkWave(const Options& options);
RunResult RunRecursiveReroute(const Options& options);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
