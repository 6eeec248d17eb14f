/// Per-session transaction basics over the AMOSQL surface: snapshot
/// overlays (read-your-writes, isolation of buffered DML), begin/commit/
/// abort statements, autocommit snapshot refresh, the read-only commit
/// fast path and its counter, DDL riding commit waves, and the CommitInfo
/// a committed wave stamps on the session.

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "amosql/session.h"
#include "obs/metrics.h"

namespace deltamon {
namespace {

class TransactionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto r = s1_.Execute(
        "create function stock(integer) -> integer;"
        "set stock(1) = 10;"
        "set stock(2) = 20;"
        "commit;");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }

  Status Exec(amosql::Session& s, const std::string& src) {
    return s.Execute(src).status();
  }

  /// stock(key) through `s`, or INT64_MIN when the row is absent.
  int64_t Stock(amosql::Session& s, int key) {
    auto r = s.Execute("select stock(" + std::to_string(key) + ");");
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    if (!r.ok() || r->rows.empty()) return INT64_MIN;
    return r->rows[0][0].AsInt();
  }

  Engine engine_;
  amosql::Session s1_{engine_};
  amosql::Session s2_{engine_};
};

TEST_F(TransactionTest, ReadYourWritesAndIsolationUntilCommit) {
  ASSERT_TRUE(Exec(s1_, "begin; set stock(1) = 11;").ok());
  // The writer sees its own buffered overlay ...
  EXPECT_EQ(Stock(s1_, 1), 11);
  // ... the other session still sees the committed state ...
  EXPECT_EQ(Stock(s2_, 1), 10);
  ASSERT_TRUE(Exec(s1_, "commit;").ok());
  // ... and sees the new value once the wave commits (autocommit reads
  // re-snapshot per statement).
  EXPECT_EQ(Stock(s2_, 1), 11);
}

TEST_F(TransactionTest, AbortDiscardsBufferedWrites) {
  ASSERT_TRUE(Exec(s1_, "begin; set stock(1) = 99; set stock(3) = 3;").ok());
  EXPECT_EQ(Stock(s1_, 1), 99);
  ASSERT_TRUE(Exec(s1_, "abort;").ok());
  EXPECT_FALSE(s1_.txn_snapshot().HasWrites());
  EXPECT_FALSE(s1_.txn_snapshot().HasReads());
  EXPECT_EQ(Stock(s1_, 1), 10);
  auto r = s1_.Execute("select stock(3);");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->rows.empty());  // the insert never reached the store
}

TEST_F(TransactionTest, RollbackSpellingWorksToo) {
  ASSERT_TRUE(Exec(s1_, "begin; set stock(1) = 99; rollback;").ok());
  EXPECT_EQ(Stock(s1_, 1), 10);
}

TEST_F(TransactionTest, BeginWithBufferedChangesIsRejected) {
  ASSERT_TRUE(Exec(s1_, "begin; set stock(1) = 11;").ok());
  Status s = Exec(s1_, "begin;");
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition) << s.ToString();
  ASSERT_TRUE(Exec(s1_, "abort;").ok());
}

TEST_F(TransactionTest, AutocommitStatementsSeeConcurrentCommits) {
  // No explicit begin: every statement runs against a fresh snapshot, so
  // s2's read observes whatever s1 committed in between.
  EXPECT_EQ(Stock(s2_, 2), 20);
  ASSERT_TRUE(Exec(s1_, "set stock(2) = 21; commit;").ok());
  EXPECT_EQ(Stock(s2_, 2), 21);
}

TEST_F(TransactionTest, ReadOnlyCommitSkipsValidation) {
  // A transaction that buffered nothing commits without queueing — even
  // when a concurrent commit touched what it read (the documented
  // read-skew allowance for read-only transactions).
  ASSERT_TRUE(Exec(s2_, "begin;").ok());
  EXPECT_EQ(Stock(s2_, 1), 10);
  ASSERT_TRUE(Exec(s1_, "set stock(1) = 12; commit;").ok());
  EXPECT_TRUE(Exec(s2_, "commit;").ok());
}

TEST_F(TransactionTest, CommitInfoStampsTheWave) {
  const auto& before = s1_.txn_snapshot().last_commit;
  const uint64_t batch_before = before.batch_id;
  ASSERT_TRUE(Exec(s1_, "set stock(1) = 13; commit;").ok());
  const auto& info = s1_.txn_snapshot().last_commit;
  EXPECT_GT(info.batch_id, batch_before);
  EXPECT_GT(info.version, 0u);
  EXPECT_GE(info.batch_size, 1u);
}

TEST_F(TransactionTest, DdlRidesTheNextCommitWave) {
  // Object creation writes the store directly (DDL is non-transactional)
  // but its events still ride this session's next commit wave.
  ASSERT_TRUE(Exec(s1_,
                   "create type item;"
                   "create function qty(item) -> integer;"
                   "create item instances :a;"
                   "set qty(:a) = 5;"
                   "commit;")
                  .ok());
  auto r = s1_.Execute("select qty(i) for each item i;");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0], Value(5));
}

TEST_F(TransactionTest, EverySessionCommitsThroughTheManager) {
  // There is one commit path: a session fresh off its constructor commits
  // through the engine's group-commit queue like every other session.
  amosql::Session fresh(engine_);
  ASSERT_TRUE(Exec(fresh, "set stock(9) = 90; commit;").ok());
  EXPECT_GT(fresh.txn_snapshot().last_commit.batch_id, 0u);
  EXPECT_EQ(Stock(s1_, 9), 90);
}

TEST_F(TransactionTest, SessionsShareTypeExtents) {
  // The extent of a type belongs to the engine, not to the session that
  // first created objects of it: a later session (a reconnected client)
  // sees those objects and adds its own.
  ASSERT_TRUE(Exec(s1_,
                   "create type item;"
                   "create item instances :a;"
                   "commit;")
                  .ok());
  ASSERT_TRUE(Exec(s2_, "create item instances :b; commit;").ok());
  auto r = s2_.Execute("select i for each item i;");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows.size(), 2u);
}

TEST_F(TransactionTest, ConcurrentFirstSelectsOverANewTypeAreSafe) {
  // `create type` creates the type's extent under the exclusive gate, so a
  // session whose first statement ranges over the type, holding the gate
  // only shared, just looks the extent up while other sessions read the
  // catalog. Run under TSan this is the probe for the catalog insert such
  // sessions used to race on.
  ASSERT_TRUE(
      Exec(s1_, "create type thing; create function w(thing) -> integer;")
          .ok());
  std::thread first([this] {
    auto r = s2_.Execute("select t for each thing t;");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(r->rows.empty());
  });
  std::thread second([this] {
    amosql::Session session(engine_);
    for (int i = 0; i < 200; ++i) {
      auto r = session.Execute("select w(t) for each thing t;");
      ASSERT_TRUE(r.ok()) << r.status().ToString();
    }
  });
  first.join();
  second.join();
}

TEST_F(TransactionTest, DdlOnlyCommitOnAFreshSessionIsNotSkipped) {
  // `create ... instances` writes the store directly. A commit right after
  // it must publish those writes even when nothing was buffered and the
  // session never began a transaction; left uncommitted, another
  // session's failed wave would roll them back.
  ASSERT_TRUE(Exec(s1_,
                   "create type item;"
                   "create function qty(item) -> integer;"
                   "create rule broken() as"
                   "  when for each item i where qty(i) < 0"
                   "  do missing_proc(i);"
                   "activate broken();")
                  .ok());
  amosql::Session fresh(engine_);
  const obs::MetricsSnapshot before = obs::Registry::Global().Snapshot();
  ASSERT_TRUE(Exec(fresh, "create item instances :a; commit;").ok());
  if (DELTAMON_OBS_ENABLED) {
    EXPECT_EQ(obs::Registry::Global().Snapshot().DiffSince(before).CounterOr(
                  "txn.commits", 0),
              1u);
  }

  // The rule's action calls an unregistered procedure, so this wave's
  // check phase fails and the wave is rolled back.
  amosql::Session other(engine_);
  Status failed =
      Exec(other, "create item instances :b; set qty(:b) = -1; commit;");
  EXPECT_EQ(failed.code(), StatusCode::kNotFound) << failed.ToString();

  auto r = fresh.Execute("select i for each item i;");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0], *fresh.GetInterfaceVar("a"));
}

TEST_F(TransactionTest, EveryCommitIsCountedQueuedOrFastPath) {
  if (!DELTAMON_OBS_ENABLED) GTEST_SKIP() << "metrics are compiled out";
  // Each `commit;` either goes through the queue (txn.commits) or takes
  // the read-only / no-op-overlay fast path (txn.commits.fastpath).
  amosql::Session fresh(engine_);
  const std::vector<std::string> batches = {
      "commit;",                              // fresh session: fast path
      "set stock(1) = 11; commit;",           // real write: queued
      "select stock(1); commit;",             // read-only: fast path
      "set stock(1) = 11; commit;",           // no-op overlay: fast path
      "begin; commit;",                       // empty transaction: fast path
      "create type thing;"
      "create thing instances :t; commit;",   // DDL writes: queued
      "set stock(2) = 22; commit; commit;",   // queued, then fast path
  };
  const obs::MetricsSnapshot before = obs::Registry::Global().Snapshot();
  for (const std::string& batch : batches) {
    ASSERT_TRUE(Exec(fresh, batch).ok()) << batch;
  }
  const obs::MetricsSnapshot diff =
      obs::Registry::Global().Snapshot().DiffSince(before);
  const uint64_t queued = diff.CounterOr("txn.commits", 0);
  const uint64_t fastpath = diff.CounterOr("txn.commits.fastpath", 0);
  EXPECT_EQ(queued, 3u);
  EXPECT_EQ(fastpath, 5u);
  EXPECT_EQ(queued + fastpath, 8u) << "one count per commit statement";
}

}  // namespace
}  // namespace deltamon
