#ifndef DELTAMON_OBS_RING_H_
#define DELTAMON_OBS_RING_H_

#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

#include "obs/json.h"
#include "obs/metrics.h"  // DELTAMON_OBS_ENABLED

/// --- The bounded ring -------------------------------------------------------
///
/// Every in-memory evidence store of the obs layer — trace spans, the
/// request flight recorder, the slow-statement log, firing provenance and
/// wave capture — is one Ring<T>: a fixed capacity, oldest-first eviction,
/// a 1-based sequence number handed out under the lock, and total/dropped
/// tallies, so a truncated recording announces itself. Readers take a
/// RingView: items and tallies copied under one lock, so a document's
/// header always agrees with its body.
///
/// Clear starts a fresh recording: items, sequence numbers and tallies all
/// restart.

namespace deltamon::obs {

/// True when instrumentation is compiled in. The process-wide capture
/// points that fold away under -DDELTAMON_OBS=OFF are Ring<T, kObsEnabled>.
inline constexpr bool kObsEnabled = DELTAMON_OBS_ENABLED != 0;

/// One consistent read of a ring. `total - dropped == items.size()` and
/// `items.size() <= capacity` always hold.
template <typename T>
struct RingView {
  std::vector<T> items;  ///< oldest to newest
  size_t capacity = 0;
  uint64_t total = 0;    ///< records accepted since construction or Clear
  uint64_t dropped = 0;  ///< of those, records evicted by overflow
};

/// Fixed-capacity ring of the most recent records. One mutex around a
/// vector used circularly: writers append a few records per statement or
/// propagation round (spans: one per span), far off the per-tuple hot
/// path. `kEnabled == false` is the compiled-out ring: Record takes no
/// lock and stores nothing, Snapshot returns an empty view of capacity 0.
template <typename T, bool kEnabled = true>
class Ring {
 public:
  explicit Ring(size_t capacity) : capacity_(kEnabled ? capacity : 0) {}
  Ring(const Ring&) = delete;
  Ring& operator=(const Ring&) = delete;

  /// Appends `item`, evicting the oldest record when full, and returns its
  /// sequence number (0 when compiled out). A T with a `seq` member gets
  /// the number stamped before it is stored. This call dropped a record
  /// (the evicted oldest, or `item` itself at capacity 0) iff the number
  /// exceeds capacity().
  uint64_t Record(T item) {
    if constexpr (!kEnabled) {
      return 0;
    } else {
      std::lock_guard<std::mutex> lock(mu_);
      const uint64_t seq = ++total_;
      if constexpr (requires { item.seq = seq; }) item.seq = seq;
      if (items_.size() < capacity_) {
        items_.push_back(std::move(item));
      } else {
        ++dropped_;
        if (capacity_ != 0) {
          items_[head_] = std::move(item);
          if (++head_ == capacity_) head_ = 0;
        }
      }
      return seq;
    }
  }

  RingView<T> Snapshot() const {
    RingView<T> view;
    view.capacity = capacity_;
    if constexpr (kEnabled) {
      std::lock_guard<std::mutex> lock(mu_);
      view.items.reserve(items_.size());
      view.items.insert(view.items.end(), items_.begin() + head_,
                        items_.end());
      view.items.insert(view.items.end(), items_.begin(),
                        items_.begin() + head_);
      view.total = total_;
      view.dropped = dropped_;
    }
    return view;
  }

  void Clear() {
    if constexpr (kEnabled) {
      std::lock_guard<std::mutex> lock(mu_);
      items_.clear();
      head_ = 0;
      total_ = 0;
      dropped_ = 0;
    }
  }

  size_t capacity() const { return capacity_; }

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  std::vector<T> items_;
  size_t head_ = 0;  ///< index of the oldest item once the ring is full
  uint64_t total_ = 0;
  uint64_t dropped_ = 0;
};

/// A ring document: `doc`'s own keys, then capacity, total_records and
/// dropped_records, then `key`: [item.ToJson()...] oldest first.
template <typename T>
Json RingJson(Json doc, const RingView<T>& view, const char* key) {
  doc.Set("capacity", static_cast<int64_t>(view.capacity));
  doc.Set("total_records", static_cast<int64_t>(view.total));
  doc.Set("dropped_records", static_cast<int64_t>(view.dropped));
  Json items = Json::Array();
  for (const T& item : view.items) items.Append(item.ToJson());
  doc.Set(key, std::move(items));
  return doc;
}

}  // namespace deltamon::obs

#endif  // DELTAMON_OBS_RING_H_
