/// Ring<T>, the one bounded ring behind every obs evidence store: each
/// snapshot is one consistent read while writers race it, and every ring
/// document keeps its keys in their published order. Runs under TSan via
/// the "obs" ctest label.

#include "obs/ring.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "obs/flight_recorder.h"
#include "obs/provenance.h"
#include "obs/wave_recorder.h"

namespace deltamon::obs {
namespace {

/// A record that takes its sequence number from the ring and remembers
/// which writer made it, in what order.
struct Probe {
  uint64_t seq = 0;
  int writer = 0;
  uint64_t index = 0;  ///< 0-based per writer
};

/// The invariants every view must satisfy, whatever the writers are doing:
/// the item count is total - dropped and never above capacity, sequence
/// numbers are contiguous and end at total, and each writer's records
/// appear in the order it made them.
void ExpectConsistent(const RingView<Probe>& view, int writers) {
  ASSERT_LE(view.items.size(), view.capacity);
  ASSERT_EQ(view.items.size(), view.total - view.dropped);
  std::vector<int64_t> last_index(static_cast<size_t>(writers), -1);
  for (size_t i = 0; i < view.items.size(); ++i) {
    const Probe& p = view.items[i];
    ASSERT_EQ(p.seq, view.dropped + 1 + i) << "sequence gap at item " << i;
    int64_t& last = last_index[static_cast<size_t>(p.writer)];
    ASSERT_GT(static_cast<int64_t>(p.index), last)
        << "writer " << p.writer << " reordered";
    last = static_cast<int64_t>(p.index);
  }
}

TEST(RingConsistencyTest, ConcurrentSnapshotsAreConsistentViews) {
  constexpr size_t kCapacity = 64;
  constexpr int kWriters = 4;
  constexpr uint64_t kPerWriter = 20000;
  Ring<Probe> ring(kCapacity);
  std::atomic<bool> done{false};
  std::atomic<uint64_t> views{0};

  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      ExpectConsistent(ring.Snapshot(), kWriters);
      views.fetch_add(1, std::memory_order_relaxed);
    }
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&ring, w] {
      for (uint64_t i = 0; i < kPerWriter; ++i) {
        ring.Record(Probe{.writer = w, .index = i});
      }
    });
  }
  for (std::thread& t : writers) t.join();
  done.store(true, std::memory_order_release);
  reader.join();

  const RingView<Probe> last = ring.Snapshot();
  ExpectConsistent(last, kWriters);
  EXPECT_EQ(last.total, kWriters * kPerWriter);
  EXPECT_EQ(last.dropped, last.total - kCapacity);
  EXPECT_EQ(last.items.size(), kCapacity);
  EXPECT_GT(views.load(), 0u);
}

TEST(RingConsistencyTest, ClearRacingWritersStillYieldsConsistentViews) {
  constexpr int kWriters = 2;
  constexpr uint64_t kPerWriter = 20000;
  Ring<Probe> ring(16);
  std::atomic<bool> done{false};

  std::thread reader([&] {
    int round = 0;
    while (!done.load(std::memory_order_acquire)) {
      // A cleared ring is a fresh recording: the invariants hold across
      // the reset because items, sequence and tallies restart together.
      if (++round % 8 == 0) ring.Clear();
      ExpectConsistent(ring.Snapshot(), kWriters);
    }
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&ring, w] {
      for (uint64_t i = 0; i < kPerWriter; ++i) {
        ring.Record(Probe{.writer = w, .index = i});
      }
    });
  }
  for (std::thread& t : writers) t.join();
  done.store(true, std::memory_order_release);
  reader.join();
  ExpectConsistent(ring.Snapshot(), kWriters);
}

/// Top-level keys of `doc`, in document order.
std::vector<std::string> Keys(const Json& doc) {
  std::vector<std::string> out;
  for (const auto& [key, value] : doc.members()) out.push_back(key);
  return out;
}

TEST(RingDocumentsTest, EveryDocumentKeepsItsKeysInOrder) {
  using KeyList = std::vector<std::string>;
  EXPECT_EQ(Keys(FlightRecorderJson({})),
            (KeyList{"capacity", "total_records", "dropped_records",
                     "requests"}));
  EXPECT_EQ(Keys(SlowLogJson({}, /*threshold_ns=*/0)),
            (KeyList{"threshold_ns", "capacity", "total_records",
                     "dropped_records", "slow"}));
  EXPECT_EQ(Keys(ProvenanceJson({}, /*enabled=*/false)),
            (KeyList{"enabled", "capacity", "total_records",
                     "dropped_records", "firings"}));
  EXPECT_EQ(Keys(WaveFileJson({}, /*enabled=*/false)),
            (KeyList{"schema", "enabled", "capacity", "total_records",
                     "dropped_records", "waves"}));
}

TEST(RingDocumentsTest, HeaderCarriesTheViewTallies) {
  const Json doc = RingJson(Json::Object(),
                            RingView<FiringRecord>{.items = {FiringRecord{}},
                                                   .capacity = 8,
                                                   .total = 12,
                                                   .dropped = 11},
                            "items");
  EXPECT_EQ(doc.Get("capacity")->as_int(), 8);
  EXPECT_EQ(doc.Get("total_records")->as_int(), 12);
  EXPECT_EQ(doc.Get("dropped_records")->as_int(), 11);
  EXPECT_EQ(doc.Get("items")->size(), 1u);
}

}  // namespace
}  // namespace deltamon::obs
