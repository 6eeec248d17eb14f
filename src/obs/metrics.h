#ifndef DELTAMON_OBS_METRICS_H_
#define DELTAMON_OBS_METRICS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

/// Compile-time instrumentation toggle. When 0 (cmake -DDELTAMON_OBS=OFF)
/// the DELTAMON_OBS_* macros below expand to nothing and the hot paths
/// carry no diagnostic instrumentation at all; the registry/report API
/// and the operational DELTAMON_METRIC_* macros are always compiled, so
/// /metrics, PROFILE and bench reports keep working (they then report the
/// operational series only).
#ifndef DELTAMON_OBS_ENABLED
#define DELTAMON_OBS_ENABLED 1
#endif

namespace deltamon::obs {

/// Monotonically increasing event count. Arithmetic is unsigned 64-bit and
/// deliberately wraps on overflow (well-defined; see metrics_test).
///
/// All metric objects are updated with relaxed atomics: instrumentation may
/// fire from the propagator's worker threads, and a torn counter would make
/// TSan (rightly) reject the whole build. Relaxed ordering keeps the
/// uncontended cost at a plain add on x86; cross-metric consistency of a
/// Snapshot taken mid-update is not guaranteed (and never was).
class Counter {
 public:
  void Add(uint64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  void Increment() { Add(1); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// A point-in-time level (e.g. resident tuples, undo-log size).
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Latency / size distribution over power-of-two buckets: bucket i counts
/// samples in [2^(i-1), 2^i). Percentiles are answered from the buckets by
/// linear interpolation inside the winning bucket, so p50/p95/p99 are exact
/// to within a factor-of-two bucket width — plenty for "did this wave get
/// slower", at the cost of two words per bucket and no per-sample storage.
class Histogram {
 public:
  static constexpr size_t kBuckets = 64;

  void Record(uint64_t sample);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t min() const {
    uint64_t m = min_.load(std::memory_order_relaxed);
    return m == kNoMin ? 0 : m;
  }
  uint64_t max() const { return max_.load(std::memory_order_relaxed); }
  double mean() const {
    uint64_t n = count();
    return n == 0 ? 0.0
                  : static_cast<double>(sum()) / static_cast<double>(n);
  }

  /// Value at percentile `p` in [0, 100]; 0 when empty.
  uint64_t Percentile(double p) const;

  /// Batch percentile lookup: one bucket walk answers all `n` requested
  /// percentiles (Snapshot asks for p50/p95/p99 per histogram, and three
  /// separate walks showed up in the registry-snapshot micro bench).
  /// `ps` need not be sorted; each out[i] equals Percentile(ps[i]).
  void Percentiles(const double* ps, size_t n, uint64_t* out) const;

  void Reset();

  uint64_t bucket(size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

 private:
  /// Sentinel for "no sample yet"; recorded samples CAS it down.
  static constexpr uint64_t kNoMin = UINT64_MAX;

  std::atomic<uint64_t> buckets_[kBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> min_{kNoMin};
  std::atomic<uint64_t> max_{0};
};

/// One registry dump, decoupled from the live metric objects so it can be
/// diffed (PROFILE) and serialized (bench reports) after further updates.
struct MetricsSnapshot {
  struct HistogramSample {
    uint64_t count = 0;
    uint64_t sum = 0;
    uint64_t min = 0;
    uint64_t max = 0;
    uint64_t p50 = 0;
    uint64_t p95 = 0;
    uint64_t p99 = 0;
    /// Non-empty buckets as (inclusive upper bound, count) pairs, in
    /// ascending bound order — the raw data behind the Prometheus
    /// `_bucket` series (which cumulates them into `le` counts).
    std::vector<std::pair<uint64_t, uint64_t>> buckets;
  };

  std::map<std::string, uint64_t> counters;
  std::map<std::string, int64_t> gauges;
  std::map<std::string, HistogramSample> histograms;

  uint64_t CounterOr(const std::string& name, uint64_t fallback) const {
    auto it = counters.find(name);
    return it == counters.end() ? fallback : it->second;
  }

  /// Per-entry difference `this - before` (counters/histogram counts are
  /// monotonic between resets; gauges keep their absolute value). Entries
  /// that did not change are dropped — the natural PROFILE output.
  MetricsSnapshot DiffSince(const MetricsSnapshot& before) const;
};

/// Runtime enable flag, checked by the instrumentation macros before
/// touching any metric. Defaults to on; a relaxed atomic load keeps the
/// disabled path to one predictable branch.
bool Enabled();
void SetEnabled(bool on);

/// Names metrics and owns their storage. Metric objects live for the
/// registry's lifetime, so instrumentation sites may cache the returned
/// pointers (function-local statics in the hot paths do exactly that).
/// Registration and Snapshot/Reset are serialized by an internal mutex so
/// concurrent first-touch registration from propagation workers is safe;
/// updates through already-obtained pointers never take the lock.
///
/// Naming scheme (see docs/observability.md): dot-separated
/// `<subsystem>.<event>[.<detail>]`, lower_snake_case, with histogram
/// units suffixed (`_ns`, `_tuples`).
class Registry {
 public:
  /// The process-wide registry used by all built-in instrumentation.
  static Registry& Global();

  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  MetricsSnapshot Snapshot() const;

  /// Zeroes every metric (keeps registrations, so cached pointers stay
  /// valid). PROFILE and bench reports prefer DiffSince over Reset.
  void Reset();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// RAII wall-clock timer recording elapsed nanoseconds into a histogram on
/// destruction. `h` may be null (records nothing) so call sites can make
/// the instrumentation decision once, outside loops.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram* h)
      : histogram_(h), start_(h == nullptr
                                  ? std::chrono::steady_clock::time_point{}
                                  : std::chrono::steady_clock::now()) {}
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;
  ~ScopedTimer() {
    if (histogram_ == nullptr) return;
    auto elapsed = std::chrono::steady_clock::now() - start_;
    histogram_->Record(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
            .count()));
  }

 private:
  Histogram* histogram_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace deltamon::obs

/// --- Instrumentation macros -----------------------------------------------
///
/// Two tiers, both honouring the run-time Enabled() switch:
///
/// - DELTAMON_METRIC_* record *operational* metrics — the series /metrics
///   and /healthz exist for (server connections, bytes and frames,
///   backpressure, statements served and failed, statement latency). They
///   are compiled into every build.
/// - DELTAMON_OBS_* record *diagnostic* instrumentation (engine internals,
///   per-phase request timings). A single compile-time switch
///   (-DDELTAMON_OBS=OFF) removes every trace of it from the hot paths.

/// Adds `n` to the global counter `name` (cached static lookup).
#define DELTAMON_METRIC_COUNT(name, n)                                \
  do {                                                                \
    if (::deltamon::obs::Enabled()) {                                 \
      static ::deltamon::obs::Counter* _dm_counter =                  \
          ::deltamon::obs::Registry::Global().GetCounter(name);       \
      _dm_counter->Add(static_cast<uint64_t>(n));                     \
    }                                                                 \
  } while (false)

/// Sets the global gauge `name` (cached static lookup).
#define DELTAMON_METRIC_GAUGE_SET(name, v)                            \
  do {                                                                \
    if (::deltamon::obs::Enabled()) {                                 \
      static ::deltamon::obs::Gauge* _dm_gauge =                      \
          ::deltamon::obs::Registry::Global().GetGauge(name);         \
      _dm_gauge->Set(static_cast<int64_t>(v));                        \
    }                                                                 \
  } while (false)

/// Records `v` into the global histogram `name` (cached static lookup).
#define DELTAMON_METRIC_RECORD(name, v)                               \
  do {                                                                \
    if (::deltamon::obs::Enabled()) {                                 \
      static ::deltamon::obs::Histogram* _dm_hist =                   \
          ::deltamon::obs::Registry::Global().GetHistogram(name);     \
      _dm_hist->Record(static_cast<uint64_t>(v));                     \
    }                                                                 \
  } while (false)

#if DELTAMON_OBS_ENABLED

#define DELTAMON_OBS_COUNT(name, n) DELTAMON_METRIC_COUNT(name, n)
#define DELTAMON_OBS_GAUGE_SET(name, v) DELTAMON_METRIC_GAUGE_SET(name, v)
#define DELTAMON_OBS_RECORD(name, v) DELTAMON_METRIC_RECORD(name, v)

/// Times the enclosing scope into the global histogram `name`.
#define DELTAMON_OBS_SCOPED_TIMER(var, name)                          \
  ::deltamon::obs::Histogram* _dm_timer_h_##var = nullptr;            \
  if (::deltamon::obs::Enabled()) {                                   \
    static ::deltamon::obs::Histogram* _dm_hist =                     \
        ::deltamon::obs::Registry::Global().GetHistogram(name);       \
    _dm_timer_h_##var = _dm_hist;                                     \
  }                                                                   \
  ::deltamon::obs::ScopedTimer var(_dm_timer_h_##var)

/// Runs `stmt` only when instrumentation is compiled in and enabled.
#define DELTAMON_OBS_ONLY(stmt)                                       \
  do {                                                                \
    if (::deltamon::obs::Enabled()) {                                 \
      stmt;                                                           \
    }                                                                 \
  } while (false)

#else  // !DELTAMON_OBS_ENABLED

#define DELTAMON_OBS_COUNT(name, n) \
  do {                              \
  } while (false)
#define DELTAMON_OBS_GAUGE_SET(name, v) \
  do {                                  \
  } while (false)
#define DELTAMON_OBS_RECORD(name, v) \
  do {                               \
  } while (false)
#define DELTAMON_OBS_SCOPED_TIMER(var, name) \
  do {                                       \
  } while (false)
#define DELTAMON_OBS_ONLY(stmt) \
  do {                          \
  } while (false)

#endif  // DELTAMON_OBS_ENABLED

#endif  // DELTAMON_OBS_METRICS_H_
