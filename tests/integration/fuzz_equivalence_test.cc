/// Differential fuzz harness for parallel propagation (the tentpole
/// correctness claim): on seeded random networks and random transaction
/// batches — insert/delete/rollback mixes — three monitors must agree
/// exactly, every wave:
///
///   naive        full recomputation, diffed against the old extent
///   serial       incremental propagation, num_threads = 1
///   parallel     incremental propagation, num_threads = 2 and 8
///
/// Agreement means identical root Δ-sets AND identical Explain() influent
/// sets (the explainability answer must not depend on the thread count).
/// A companion determinism suite checks the stronger claim: the FULL
/// TraceEntry sequence and Stats are bit-identical for num_threads
/// ∈ {1, 2, 4, 8}.
///
/// Every assertion message carries the seed, so a failure reproduces with
/// a one-line filter.

#include <algorithm>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "amosql/session.h"
#include "common/thread_pool.h"
#include "core/materialized_views.h"
#include "core/network.h"
#include "core/propagator.h"
#include "objectlog/eval.h"
#include "obs/profile.h"
#include "obs/provenance.h"
#include "obs/wave_recorder.h"
#include "rules/engine.h"
#include "rules/wave_replay.h"

namespace deltamon {
namespace {

using objectlog::Clause;
using objectlog::CompareOp;
using objectlog::EvalState;
using objectlog::Literal;
using objectlog::Term;

ColumnType IntCol() { return ColumnType{ValueKind::kInt, kInvalidTypeId}; }

/// A random two-level monitoring scenario, wider than random_network_test's
/// so levels actually hold several nodes for the workers to share: 4 base
/// relations, 3 level-1 join views, 2 level-2 views over those, and a
/// 2-clause union root. Kept as shared nodes (§7.1) the network has
/// per-level widths 4 / 3 / 2 / 1.
class FuzzScenario {
 public:
  explicit FuzzScenario(uint32_t seed) : rng_(seed) {
    for (int b = 0; b < 4; ++b) {
      bases_.push_back(*engine_.db.catalog().CreateStoredFunction(
          "base" + std::to_string(b),
          FunctionSignature{{IntCol()}, {IntCol()}}));
    }
    // Level 1: joins of two random bases, sometimes with a comparison,
    // sometimes with a negated third literal.
    for (int v = 0; v < 3; ++v) {
      RelationId view = *engine_.db.catalog().CreateDerivedFunction(
          "lvl1_" + std::to_string(v),
          FunctionSignature{{}, {IntCol(), IntCol()}});
      Clause c;
      c.head_relation = view;
      c.num_vars = 3;
      c.head_args = {Term::Var(0), Term::Var(2)};
      c.body = {Literal::Relation(PickBase(), {Term::Var(0), Term::Var(1)}),
                Literal::Relation(PickBase(), {Term::Var(1), Term::Var(2)})};
      if (rng_() % 2 == 0) {
        c.body.push_back(
            Literal::Compare(CompareOp::kNe, Term::Var(0), Term::Var(2)));
      }
      if (rng_() % 3 == 0) {
        c.body.push_back(Literal::Relation(
            PickBase(), {Term::Var(2), Term::Var(0)}, /*negated=*/true));
      }
      EXPECT_TRUE(
          engine_.registry.Define(view, std::move(c), engine_.db.catalog())
              .ok());
      views_.push_back(view);
    }
    // Level 2: join a level-1 view with a base relation.
    for (int v = 0; v < 2; ++v) {
      RelationId view = *engine_.db.catalog().CreateDerivedFunction(
          "lvl2_" + std::to_string(v),
          FunctionSignature{{}, {IntCol(), IntCol()}});
      Clause c;
      c.head_relation = view;
      c.num_vars = 3;
      c.head_args = {Term::Var(0), Term::Var(2)};
      c.body = {
          Literal::Relation(views_[rng_() % 3], {Term::Var(0), Term::Var(1)}),
          Literal::Relation(PickBase(), {Term::Var(1), Term::Var(2)})};
      EXPECT_TRUE(
          engine_.registry.Define(view, std::move(c), engine_.db.catalog())
              .ok());
      views_.push_back(view);
    }
    // Root: union over the level-2 views with opposed selections.
    root_ = *engine_.db.catalog().CreateDerivedFunction(
        "cond", FunctionSignature{{}, {IntCol()}});
    for (int k = 0; k < 2; ++k) {
      Clause c;
      c.head_relation = root_;
      c.num_vars = 2;
      c.head_args = {Term::Var(0)};
      c.body = {Literal::Relation(views_[static_cast<size_t>(3 + k)],
                                  {Term::Var(0), Term::Var(1)}),
                Literal::Compare(k == 0 ? CompareOp::kLt : CompareOp::kGe,
                                 Term::Var(1),
                                 Term::Const(Value(int64_t(kDomain / 2))))};
      EXPECT_TRUE(
          engine_.registry.Define(root_, std::move(c), engine_.db.catalog())
              .ok());
    }
    for (RelationId b : bases_) engine_.db.MarkMonitored(b);
    for (RelationId b : bases_) {
      for (int i = 0; i < 20; ++i) {
        EXPECT_TRUE(engine_.db.Insert(b, RandomTuple()).ok());
      }
    }
    EXPECT_TRUE(engine_.db.Commit().ok());
  }

  RelationId PickBase() { return bases_[rng_() % bases_.size()]; }

  Tuple RandomTuple() {
    std::uniform_int_distribution<int64_t> v(0, kDomain - 1);
    return Tuple{Value(v(rng_)), Value(v(rng_))};
  }

  /// Applies a random batch: 1–10 operations, one third deletions.
  void RandomTransaction() {
    std::uniform_int_distribution<int> count(1, 10);
    int n = count(rng_);
    for (int i = 0; i < n; ++i) {
      RelationId b = PickBase();
      if (rng_() % 3 == 0) {
        const BaseRelation* rel = engine_.db.catalog().GetBaseRelation(b);
        if (!rel->rows().empty()) {
          Tuple victim = *rel->rows().begin();
          EXPECT_TRUE(engine_.db.Delete(b, victim).ok());
        }
      } else {
        EXPECT_TRUE(engine_.db.Insert(b, RandomTuple()).ok());
      }
    }
  }

  bool CoinFlip(int one_in) { return rng_() % one_in == 0; }

  /// Naive monitor primitive: full recomputation of the root in `state`
  /// (kOld evaluates every transitive base literal through logical
  /// rollback over the pending Δ-sets).
  TupleSet EvalRoot(EvalState state) {
    objectlog::StateContext ctx;
    auto deltas = engine_.db.PendingDeltas();
    ctx.deltas = &deltas;
    objectlog::Evaluator ev(engine_.db, engine_.registry, ctx);
    TupleSet out;
    EXPECT_TRUE(ev.Evaluate(root_, state, &out).ok());
    return out;
  }

  Engine engine_;
  std::vector<RelationId> bases_;
  std::vector<RelationId> views_;
  RelationId root_ = kInvalidRelationId;
  std::mt19937 rng_;
  static constexpr int64_t kDomain = 9;
};

std::vector<std::string> ExplainStrings(const core::PropagationResult& r,
                                        RelationId root,
                                        const Catalog& catalog) {
  std::vector<std::string> out;
  for (const core::TraceEntry& e : r.Explain(root)) {
    out.push_back(e.ToString(catalog));
  }
  return out;
}

bool SameEntry(const core::TraceEntry& a, const core::TraceEntry& b) {
  return a.target == b.target && a.influent == b.influent &&
         a.reads_plus == b.reads_plus && a.produces_plus == b.produces_plus &&
         a.tuples_consumed == b.tuples_consumed &&
         a.tuples_produced == b.tuples_produced;
}

::testing::AssertionResult SameTrace(const std::vector<core::TraceEntry>& a,
                                     const std::vector<core::TraceEntry>& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << "trace length " << a.size() << " vs " << b.size();
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (!SameEntry(a[i], b[i])) {
      return ::testing::AssertionFailure() << "trace entry " << i << " differs";
    }
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult SameStats(
    const core::PropagationResult::Stats& a,
    const core::PropagationResult::Stats& b) {
  if (a.differentials_executed != b.differentials_executed ||
      a.differentials_skipped != b.differentials_skipped ||
      a.tuples_propagated != b.tuples_propagated ||
      a.peak_wavefront_tuples != b.peak_wavefront_tuples ||
      a.filtered_plus != b.filtered_plus ||
      a.filtered_minus != b.filtered_minus ||
      a.materialized_resident_tuples != b.materialized_resident_tuples) {
    return ::testing::AssertionFailure() << "stats differ";
  }
  return ::testing::AssertionSuccess();
}

/// Data-plane certification: after the Δ-pipeline has churned the flat
/// tuple sets, every base relation must still satisfy the container's
/// structural invariants (slot table ↔ dense array agreement), and its
/// lazily built column indexes must agree with a fresh count over the
/// rows — Delete patches index entries when the flat set swap-removes, so
/// a stale dense position would surface here as a wrong indexed count.
void CertifyContainers(const Database& db,
                       const std::vector<RelationId>& bases) {
  for (RelationId b : bases) {
    const BaseRelation* rel = db.catalog().GetBaseRelation(b);
    ASSERT_TRUE(rel->rows().CheckInvariants()) << "relation " << b;
    for (size_t c = 0; c < rel->arity(); ++c) {
      rel->EnsureIndex(c);
      std::unordered_map<Value, size_t, ValueHash> expected;
      for (const Tuple& r : rel->rows()) ++expected[r[c]];
      for (const auto& [v, n] : expected) {
        ScanPattern pattern(rel->arity());
        pattern[c] = v;
        ASSERT_EQ(rel->Count(pattern), n)
            << "relation " << b << " column " << c << " value " << v;
      }
    }
  }
}

/// The Δ-sets a wave hands back are flat containers too; certify them.
void CertifyResultDeltas(const core::PropagationResult& result) {
  for (const auto& [rel, delta] : result.root_deltas) {
    ASSERT_TRUE(delta.plus().CheckInvariants()) << "root " << rel;
    ASSERT_TRUE(delta.minus().CheckInvariants()) << "root " << rel;
  }
}

struct FuzzConfig {
  uint32_t seed;
  bool materialize;
};

class FuzzEquivalenceTest : public ::testing::TestWithParam<FuzzConfig> {};

/// naive ≡ serial ≡ parallel(2) ≡ parallel(8), over root Δ-sets and
/// Explain() influent sets, across random transaction batches with
/// rollbacks mixed in.
TEST_P(FuzzEquivalenceTest, NaiveSerialParallelAgree) {
  const FuzzConfig& config = GetParam();
  FuzzScenario scenario(config.seed);
  Database& db = scenario.engine_.db;

  core::RootSpec root;
  root.relation = scenario.root_;
  root.needs_minus = true;
  root.strict = true;
  core::BuildOptions options;
  for (RelationId v : scenario.views_) options.keep.insert(v);
  auto net = core::PropagationNetwork::Build(
      {root}, scenario.engine_.registry, db.catalog(), options);
  ASSERT_TRUE(net.ok()) << net.status().ToString();

  const size_t kThreadVariants[] = {1, 2, 8};
  for (int tx = 0; tx < 12; ++tx) {
    SCOPED_TRACE("seed " + std::to_string(config.seed) + " tx " +
                 std::to_string(tx));
    TupleSet before = scenario.EvalRoot(EvalState::kNew);
    scenario.RandomTransaction();

    // Rollback mix: a quarter of the batches are abandoned; the monitors
    // must then see no change at all.
    if (scenario.CoinFlip(4)) {
      ASSERT_TRUE(db.Rollback().ok());
      ASSERT_EQ(scenario.EvalRoot(EvalState::kNew), before);
      continue;
    }

    TupleSet after = scenario.EvalRoot(EvalState::kNew);
    DeltaSet naive = DiffStates(before, after);
    auto deltas = db.TakePendingDeltas();

    std::vector<std::string> serial_explain;
    for (size_t threads : kThreadVariants) {
      // A fresh store per variant: extents are brought forward by the
      // wave, so sharing one store across variants would double-apply.
      core::MaterializedViewStore store;
      if (config.materialize) {
        ASSERT_TRUE(store
                        .Initialize(*net, db, scenario.engine_.registry,
                                    &deltas)
                        .ok());
      }
      core::PropagationOptions popts;
      popts.num_threads = threads;
      core::Propagator propagator(db, scenario.engine_.registry, *net,
                                  config.materialize ? &store : nullptr,
                                  popts);
      auto result = propagator.Propagate(deltas);
      ASSERT_TRUE(result.ok())
          << threads << " threads: " << result.status().ToString();
      ASSERT_EQ(result->root_deltas.at(scenario.root_), naive)
          << threads << " threads disagree with naive recomputation";
      CertifyResultDeltas(*result);
      std::vector<std::string> explain =
          ExplainStrings(*result, scenario.root_, db.catalog());
      if (threads == 1) {
        serial_explain = std::move(explain);
      } else {
        ASSERT_EQ(explain, serial_explain)
            << threads << " threads change the Explain() answer";
      }
    }
    ASSERT_TRUE(db.Commit().ok());
    CertifyContainers(db, scenario.bases_);
  }
}

std::vector<FuzzConfig> FuzzConfigs() {
  std::vector<FuzzConfig> out;
  for (uint32_t seed = 0; seed < 50; ++seed) {
    // Both monitors on even seeds; odd seeds skip materialization to keep
    // runtime flat while still covering 50 seeds in each dimension.
    out.push_back({seed, false});
    if (seed % 2 == 0) out.push_back({seed, true});
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, FuzzEquivalenceTest, ::testing::ValuesIn(FuzzConfigs()),
    [](const ::testing::TestParamInfo<FuzzConfig>& info) {
      return "Seed" + std::to_string(info.param.seed) +
             (info.param.materialize ? "Mat" : "");
    });

class ThreadDeterminismTest : public ::testing::TestWithParam<uint32_t> {};

/// The strong form: the full TraceEntry sequence, every Stats counter, and
/// the per-literal execution profile are bit-identical for num_threads
/// ∈ {1, 2, 4, 8} — the parallel mode is indistinguishable from the serial
/// one, not merely equivalent. Pools are passed in explicitly, covering
/// the reusable-pool path the RuleManager uses (the fuzz suite above
/// covers the temporary-pool path). Per-worker profiles are folded in
/// fixed level order, so Format(/*include_time=*/false) must come back
/// byte-identical regardless of worker count.
TEST_P(ThreadDeterminismTest, TraceAndStatsAreBitIdenticalAcrossThreadCounts) {
  const uint32_t seed = GetParam();
  FuzzScenario scenario(seed);
  Database& db = scenario.engine_.db;

  core::RootSpec root;
  root.relation = scenario.root_;
  root.needs_minus = true;
  root.strict = true;
  core::BuildOptions options;
  for (RelationId v : scenario.views_) options.keep.insert(v);
  auto net = core::PropagationNetwork::Build(
      {root}, scenario.engine_.registry, db.catalog(), options);
  ASSERT_TRUE(net.ok()) << net.status().ToString();

  common::ThreadPool pool2(2);
  common::ThreadPool pool4(4);
  common::ThreadPool pool8(8);
  common::ThreadPool* pools[] = {nullptr, &pool2, &pool4, &pool8};

  for (int tx = 0; tx < 6; ++tx) {
    SCOPED_TRACE("seed " + std::to_string(seed) + " tx " +
                 std::to_string(tx));
    scenario.RandomTransaction();
    auto deltas = db.TakePendingDeltas();

    core::PropagationResult reference;
    std::string reference_profile;
    for (common::ThreadPool* pool : pools) {
      obs::Profile profile;
      core::PropagationOptions popts;
      popts.pool = pool;  // null → serial (num_threads defaults to 1)
      popts.profiler = &profile;
      core::Propagator propagator(db, scenario.engine_.registry, *net,
                                  nullptr, popts);
      auto result = propagator.Propagate(deltas);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      if (pool == nullptr) {
        reference = std::move(*result);
        reference_profile = profile.Format(/*include_time=*/false);
        continue;
      }
      size_t workers = pool->num_workers();
      EXPECT_EQ(result->root_deltas, reference.root_deltas)
          << workers << " threads";
      EXPECT_TRUE(SameTrace(result->trace, reference.trace))
          << workers << " threads";
      EXPECT_TRUE(SameStats(result->stats, reference.stats))
          << workers << " threads";
      EXPECT_EQ(profile.Format(/*include_time=*/false), reference_profile)
          << workers << " threads change the execution profile";
    }
    ASSERT_TRUE(db.Commit().ok());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ThreadDeterminismTest,
                         ::testing::Range(0u, 50u));

class KernelEquivalenceTest : public ::testing::TestWithParam<FuzzConfig> {};

/// The batch-kernel axis: kernels-on and kernels-off runs must produce
/// identical root Δ-sets, TraceEntry sequences, and Stats — at every
/// thread count, with rollbacks mixed in, and (on the Mat configs) with
/// materialized intermediate views, whose stored extents are exactly what
/// the build side of the hash-join kernel scans. Within one mode the
/// execution profile must additionally be byte-identical across thread
/// counts; across modes only the counters' semantics differ (the kernels
/// relabel extent accesses with their join strategy), so profiles are
/// deliberately not compared mode-to-mode.
TEST_P(KernelEquivalenceTest, KernelsOnOffAgreeAcrossThreadCounts) {
  const FuzzConfig& config = GetParam();
  FuzzScenario scenario(config.seed);
  Database& db = scenario.engine_.db;

  core::RootSpec root;
  root.relation = scenario.root_;
  root.needs_minus = true;
  root.strict = true;
  core::BuildOptions options;
  for (RelationId v : scenario.views_) options.keep.insert(v);
  auto net = core::PropagationNetwork::Build(
      {root}, scenario.engine_.registry, db.catalog(), options);
  ASSERT_TRUE(net.ok()) << net.status().ToString();

  common::ThreadPool pool2(2);
  common::ThreadPool pool4(4);
  common::ThreadPool pool8(8);
  common::ThreadPool* pools[] = {nullptr, &pool2, &pool4, &pool8};

  for (int tx = 0; tx < 6; ++tx) {
    SCOPED_TRACE("seed " + std::to_string(config.seed) + " tx " +
                 std::to_string(tx));
    scenario.RandomTransaction();
    if (scenario.CoinFlip(4)) {
      ASSERT_TRUE(db.Rollback().ok());
      continue;
    }
    auto deltas = db.TakePendingDeltas();

    core::PropagationResult reference;  // kernels off, serial
    bool have_reference = false;
    for (bool kernels : {false, true}) {
      std::string mode_profile;
      for (common::ThreadPool* pool : pools) {
        core::MaterializedViewStore store;
        if (config.materialize) {
          ASSERT_TRUE(store
                          .Initialize(*net, db, scenario.engine_.registry,
                                      &deltas)
                          .ok());
        }
        obs::Profile profile;
        core::PropagationOptions popts;
        popts.pool = pool;
        popts.profiler = &profile;
        popts.kernels = kernels;
        core::Propagator propagator(db, scenario.engine_.registry, *net,
                                    config.materialize ? &store : nullptr,
                                    popts);
        auto result = propagator.Propagate(deltas);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        const std::string what = std::string("kernels ") +
                                 (kernels ? "on" : "off") + ", " +
                                 (pool ? std::to_string(pool->num_workers())
                                       : "1") +
                                 " threads";
        if (!have_reference) {
          reference = std::move(*result);
          have_reference = true;
        } else {
          EXPECT_EQ(result->root_deltas, reference.root_deltas) << what;
          EXPECT_TRUE(SameTrace(result->trace, reference.trace)) << what;
          EXPECT_TRUE(SameStats(result->stats, reference.stats)) << what;
        }
        std::string formatted = profile.Format(/*include_time=*/false);
        if (pool == nullptr) {
          mode_profile = std::move(formatted);
        } else {
          EXPECT_EQ(formatted, mode_profile)
              << what << " changes the execution profile within its mode";
        }
      }
    }
    ASSERT_TRUE(db.Commit().ok());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, KernelEquivalenceTest, ::testing::ValuesIn(FuzzConfigs()),
    [](const ::testing::TestParamInfo<FuzzConfig>& info) {
      return "Seed" + std::to_string(info.param.seed) +
             (info.param.materialize ? "Mat" : "");
    });

/// ---------------------------------------------------------------------
/// Concurrency fuzz (ROADMAP item 2 certification): N sessions on their
/// own threads fire random transactions through the group-commit queue,
/// retrying on first-committer-wins aborts. The committed history —
/// replayed serially, in commit order, batch-faithfully (one deferred
/// check phase per wave, as the group leader ran it) — must reproduce the
/// concurrent engine exactly: bit-identical sorted dumps of every base
/// relation and the same multiset of rule firings.
///
/// OCC validation is what makes statement-level replay sound: a committed
/// transaction's every read (including the point reads its buffered
/// folding depended on) is certified untouched by concurrent commits, so
/// re-executing its statements against the commit-order state computes
/// the same effects it computed against its snapshot.

constexpr const char* kConcSchema =
    "create function stock(integer) -> integer;"
    "create function audit(integer) -> integer;"
    "create rule low_stock() as"
    "  when for each integer k where stock(k) < 3"
    "  do note(k, stock(k));"
    "activate low_stock();";

/// One engine + bootstrap session with a thread-safe firing log. The
/// bootstrap session plays deltamond's --init path; worker sessions
/// commit through the same manager concurrently.
class ConcHarness {
 public:
  ConcHarness() {
    boot_.RegisterProcedure(
        "note", [this](Database&, const std::vector<Value>& args) {
          std::lock_guard<std::mutex> lock(mu_);
          firings_.emplace_back(args[0].AsInt(), args[1].AsInt());
          return Status::OK();
        });
    std::string src = kConcSchema;
    for (int k = 0; k < 8; ++k) {
      src += "set stock(" + std::to_string(k) + ") = 10;";
    }
    src += "commit;";
    auto r = boot_.Execute(src);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
  }

  std::vector<std::pair<int64_t, int64_t>> SortedFirings() {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::pair<int64_t, int64_t>> out = firings_;
    std::sort(out.begin(), out.end());
    return out;
  }

  /// Sorted per-relation dump of every base relation — the canonical
  /// store state two engines are compared by.
  std::vector<std::string> Dump() {
    std::vector<std::string> out;
    const Catalog& catalog = engine_.db.catalog();
    for (RelationId id : catalog.AllRelationIds()) {
      const BaseRelation* rel = catalog.GetBaseRelation(id);
      if (rel == nullptr) continue;
      std::vector<std::string> rows;
      for (const Tuple& t : rel->rows()) rows.push_back(t.ToString());
      std::sort(rows.begin(), rows.end());
      for (std::string& row : rows) {
        out.push_back(catalog.RelationName(id) + " " + std::move(row));
      }
    }
    return out;
  }

  Engine engine_;
  amosql::Session boot_{engine_};

 private:
  std::mutex mu_;
  std::vector<std::pair<int64_t, int64_t>> firings_;
};

/// A transaction that survived validation, with the statements to replay.
struct CommittedTxn {
  uint64_t version;
  uint64_t batch;
  std::string ops;
};

struct ConcFuzzConfig {
  uint32_t seed;
  size_t threads;
};

class ConcurrentTxnFuzzTest : public ::testing::TestWithParam<ConcFuzzConfig> {
};

TEST_P(ConcurrentTxnFuzzTest, CommittedHistoryEqualsSerialReplay) {
  const ConcFuzzConfig& config = GetParam();
  ConcHarness live;

  std::mutex log_mu;
  std::vector<CommittedTxn> committed;
  std::vector<std::thread> workers;
  for (size_t t = 0; t < config.threads; ++t) {
    workers.emplace_back([&, t] {
      std::mt19937 rng(config.seed * 131 + static_cast<uint32_t>(t));
      amosql::Session session(live.engine_);
      for (int tx = 0; tx < 6; ++tx) {
        std::string ops;
        const int n = 1 + static_cast<int>(rng() % 4);
        for (int i = 0; i < n; ++i) {
          const char* fn = rng() % 2 == 0 ? "stock" : "audit";
          ops += std::string("set ") + fn + "(" +
                 std::to_string(rng() % 12) + ") = " +
                 std::to_string(rng() % 12) + ";";
        }
        const std::string src = "begin;" + ops + "commit;";
        bool done = false;
        for (int attempt = 0; attempt < 100 && !done; ++attempt) {
          const uint64_t batch_before =
              session.txn_snapshot().last_commit.batch_id;
          auto r = session.Execute(src);
          if (r.ok()) {
            const auto& info = session.txn_snapshot().last_commit;
            // A transaction whose sets folded to a net no-op overlay
            // commits via the read-only fast path without a wave stamp;
            // it changed nothing, so it has no place in the history.
            if (info.batch_id != batch_before) {
              std::lock_guard<std::mutex> lock(log_mu);
              committed.push_back({info.version, info.batch_id, ops});
            }
            done = true;
          } else {
            // Only first-committer-wins aborts are expected; anything
            // else is a real failure.
            ASSERT_EQ(r.status().code(), StatusCode::kTxnConflict)
                << r.status().ToString();
          }
        }
        EXPECT_TRUE(done) << "transaction starved after 100 retries";
      }
    });
  }
  for (std::thread& w : workers) w.join();

  // Every committed transaction received a distinct commit version.
  std::sort(committed.begin(), committed.end(),
            [](const CommittedTxn& a, const CommittedTxn& b) {
              return a.version < b.version;
            });
  for (size_t i = 1; i < committed.size(); ++i) {
    ASSERT_NE(committed[i].version, committed[i - 1].version);
  }

  // Batch-faithful serial replay: transactions in commit order, one
  // serial commit (= one deferred check phase) per commit wave — exactly
  // the Δ-union the group leader propagated.
  ConcHarness replay;
  for (size_t i = 0; i < committed.size();) {
    std::string batch_src;
    const uint64_t batch = committed[i].batch;
    for (; i < committed.size() && committed[i].batch == batch; ++i) {
      batch_src += committed[i].ops;
    }
    batch_src += "commit;";
    auto r = replay.boot_.Execute(batch_src);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }

  EXPECT_EQ(live.Dump(), replay.Dump());
  // Firing order within a wave follows the Δ-union's iteration order,
  // which replay need not reproduce tuple-for-tuple; the multiset must
  // match (per-wave sets are compared implicitly through the dumps).
  EXPECT_EQ(live.SortedFirings(), replay.SortedFirings());
}

std::vector<ConcFuzzConfig> ConcFuzzConfigs() {
  std::vector<ConcFuzzConfig> out;
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    for (uint32_t seed = 0; seed < 4; ++seed) out.push_back({seed, threads});
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, ConcurrentTxnFuzzTest, ::testing::ValuesIn(ConcFuzzConfigs()),
    [](const ::testing::TestParamInfo<ConcFuzzConfig>& info) {
      return "Seed" + std::to_string(info.param.seed) + "Threads" +
             std::to_string(info.param.threads);
    });

/// Session-level kernel equivalence: the same seeded AMOSQL workload —
/// updates, deletions via re-sets, commits, and a rule that fires through
/// the check phase — run once with kernels on (the default) and once with
/// `set kernels off;`, must leave bit-identical sorted store dumps and the
/// same multiset of rule firings, at several thread settings.
class KernelSessionFuzzTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(KernelSessionFuzzTest, DumpsAndFiringsMatchWithKernelsOff) {
  const uint32_t seed = GetParam();
  auto run = [&](const std::string& prelude) {
    ConcHarness harness;
    auto setup = harness.boot_.Execute(prelude);
    EXPECT_TRUE(setup.ok()) << setup.status().ToString();
    std::mt19937 rng(seed);
    for (int tx = 0; tx < 10; ++tx) {
      std::string ops;
      const int n = 1 + static_cast<int>(rng() % 5);
      for (int i = 0; i < n; ++i) {
        const char* fn = rng() % 2 == 0 ? "stock" : "audit";
        ops += std::string("set ") + fn + "(" + std::to_string(rng() % 12) +
               ") = " + std::to_string(rng() % 12) + ";";
      }
      ops += "commit;";
      auto r = harness.boot_.Execute(ops);
      EXPECT_TRUE(r.ok()) << r.status().ToString();
    }
    return std::make_pair(harness.Dump(), harness.SortedFirings());
  };

  for (const char* threads : {"1", "4"}) {
    SCOPED_TRACE("seed " + std::to_string(seed) + " threads " + threads);
    const std::string set_threads = std::string("set threads ") + threads + ";";
    auto on = run(set_threads);
    auto off = run(set_threads + "set kernels off;");
    EXPECT_EQ(on.first, off.first) << "store dumps diverge";
    EXPECT_EQ(on.second, off.second) << "rule firings diverge";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelSessionFuzzTest,
                         ::testing::Range(0u, 10u));

/// ---------------------------------------------------------------------
/// Provenance determinism: with lineage capture armed, the exported
/// lineage trees of every root Δ-row must be byte-identical for
/// num_threads ∈ {1, 2, 4, 8} × kernels on/off — and arming capture must
/// not change the root Δ-sets themselves (the per-row restricted
/// evaluations union to exactly the one-shot result).

std::string LineageDump(const core::PropagationResult& result,
                        RelationId root, const Catalog& catalog) {
  auto it = result.root_deltas.find(root);
  if (it == result.root_deltas.end()) return std::string();
  std::string out;
  for (bool plus : {true, false}) {
    for (const Tuple& t :
         SortedTuples(plus ? it->second.plus() : it->second.minus())) {
      out += result.lineage.Export(root, plus, t, catalog).Dump();
    }
  }
  return out;
}

class LineageDeterminismTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(LineageDeterminismTest,
       LineageIsBitIdenticalAcrossThreadsAndKernels) {
  const uint32_t seed = GetParam();
  FuzzScenario scenario(seed);
  Database& db = scenario.engine_.db;

  core::RootSpec root;
  root.relation = scenario.root_;
  root.needs_minus = true;
  root.strict = true;
  core::BuildOptions options;
  for (RelationId v : scenario.views_) options.keep.insert(v);
  auto net = core::PropagationNetwork::Build(
      {root}, scenario.engine_.registry, db.catalog(), options);
  ASSERT_TRUE(net.ok()) << net.status().ToString();

  common::ThreadPool pool2(2);
  common::ThreadPool pool4(4);
  common::ThreadPool pool8(8);
  common::ThreadPool* pools[] = {nullptr, &pool2, &pool4, &pool8};

  for (int tx = 0; tx < 6; ++tx) {
    SCOPED_TRACE("seed " + std::to_string(seed) + " tx " +
                 std::to_string(tx));
    scenario.RandomTransaction();
    auto deltas = db.TakePendingDeltas();

    // Lineage-off reference: arming capture must not change the answer.
    core::PropagationResult plain;
    {
      core::Propagator propagator(db, scenario.engine_.registry, *net,
                                  nullptr, core::PropagationOptions{});
      auto result = propagator.Propagate(deltas);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      plain = std::move(*result);
    }

    std::string reference_dump;
    bool have_reference = false;
    for (bool kernels : {false, true}) {
      for (common::ThreadPool* pool : pools) {
        core::PropagationOptions popts;
        popts.pool = pool;
        popts.kernels = kernels;
        popts.lineage = true;
        core::Propagator propagator(db, scenario.engine_.registry, *net,
                                    nullptr, popts);
        auto result = propagator.Propagate(deltas);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        const std::string what = std::string("kernels ") +
                                 (kernels ? "on" : "off") + ", " +
                                 (pool ? std::to_string(pool->num_workers())
                                       : "1") +
                                 " threads";
        EXPECT_EQ(result->root_deltas, plain.root_deltas)
            << what << ": lineage capture changed the root Δ-sets";
        std::string dump =
            LineageDump(*result, scenario.root_, db.catalog());
        if (!have_reference) {
          reference_dump = std::move(dump);
          have_reference = true;
          // Every base influent feeding the root must surface as a
          // lineage leaf somewhere in the reference export.
          if (!plain.root_deltas.at(scenario.root_).empty()) {
            EXPECT_NE(reference_dump.find("\"base\": true"),
                      std::string::npos);
          }
        } else {
          EXPECT_EQ(dump, reference_dump)
              << what << " changes the exported lineage";
        }
      }
    }
    ASSERT_TRUE(db.Commit().ok());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LineageDeterminismTest,
                         ::testing::Range(0u, 20u));

#if DELTAMON_OBS_ENABLED

/// ---------------------------------------------------------------------
/// Session-level provenance + wave capture/replay round trip: a seeded
/// AMOSQL workload with provenance and wave capture armed must (a) record
/// firings whose rendered lineage documents are byte-identical across
/// thread counts and kernel modes, and (b) dump waves that replay
/// bit-identically against a rebuilt engine — including replays under
/// different settings.

std::string CanonicalFirings(const std::vector<obs::FiringRecord>& records) {
  std::string out;
  for (const obs::FiringRecord& r : records) {
    // Identity stamps (seq, trace id, commit version) are skipped: the
    // determinism claim is about the firing content and its lineage.
    out += r.rule + " round " + std::to_string(r.round) + "\n";
    for (const std::string& i : r.instances) out += "  " + i + "\n";
    out += r.lineage.Dump();
  }
  return out;
}

class ProvenanceSessionFuzzTest : public ::testing::TestWithParam<uint32_t> {
};

TEST_P(ProvenanceSessionFuzzTest, LineageAndWavesDeterministicAndReplayable) {
  const uint32_t seed = GetParam();

  auto run = [&](const std::string& prelude) {
    obs::GlobalProvenanceLog().Clear();
    obs::GlobalWaveRecorder().Clear();
    auto harness = std::make_unique<ConcHarness>();
    auto setup = harness->boot_.Execute(
        prelude + "set provenance on; set wave_capture on;");
    EXPECT_TRUE(setup.ok()) << setup.status().ToString();
    std::mt19937 rng(seed);
    for (int tx = 0; tx < 8; ++tx) {
      std::string ops;
      const int n = 1 + static_cast<int>(rng() % 5);
      for (int i = 0; i < n; ++i) {
        const char* fn = rng() % 2 == 0 ? "stock" : "audit";
        ops += std::string("set ") + fn + "(" + std::to_string(rng() % 12) +
               ") = " + std::to_string(rng() % 12) + ";";
      }
      ops += "commit;";
      auto r = harness->boot_.Execute(ops);
      EXPECT_TRUE(r.ok()) << r.status().ToString();
    }
    harness->engine_.rules.SetProvenanceEnabled(false);
    harness->engine_.rules.SetWaveCaptureEnabled(false);
    return std::make_pair(
        CanonicalFirings(obs::GlobalProvenanceLog().Snapshot().items),
        obs::GlobalWaveRecorder().Snapshot().items);
  };

  auto [reference_firings, captured] = run("set threads 1;");
  // Every transaction touched base relations, so capture must have seen
  // at least one wave — an empty recording would make the comparisons
  // below vacuously true.
  ASSERT_FALSE(captured.empty());
  for (const char* prelude :
       {"set threads 2;", "set threads 4;", "set threads 8;",
        "set threads 4; set kernels off;"}) {
    SCOPED_TRACE(std::string("seed ") + std::to_string(seed) + " " +
                 prelude);
    auto [firings, waves] = run(prelude);
    EXPECT_EQ(firings, reference_firings)
        << prelude << " changes the recorded provenance";
    ASSERT_EQ(waves.size(), captured.size());
    for (size_t i = 0; i < waves.size(); ++i) {
      EXPECT_EQ(waves[i].OutcomeJson().Dump(),
                captured[i].OutcomeJson().Dump())
          << prelude << " wave " << i;
    }
  }

  // File round trip: dump -> parse must reproduce the records exactly.
  const obs::Json file = obs::WaveFileJson({.items = captured,
                                            .capacity = 64,
                                            .total = captured.size(),
                                            .dropped = 0},
                                           /*enabled=*/true);
  auto reparsed = obs::ParseWaveFile(file.Dump());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  ASSERT_EQ(reparsed->size(), captured.size());
  for (size_t i = 0; i < captured.size(); ++i) {
    EXPECT_EQ(reparsed->at(i).ToJson().Dump(), captured[i].ToJson().Dump());
  }

  // Replay against rebuilt engines: default settings, then deliberately
  // different ones — outcomes must be bit-identical either way.
  struct ReplayVariant {
    size_t threads;
    bool kernels;
  };
  for (const ReplayVariant& variant :
       {ReplayVariant{1, true}, ReplayVariant{4, false}}) {
    SCOPED_TRACE("replay threads " + std::to_string(variant.threads) +
                 " kernels " + (variant.kernels ? "on" : "off"));
    ConcHarness replay;
    replay.engine_.rules.SetNumThreads(variant.threads);
    replay.engine_.rules.SetKernelsEnabled(variant.kernels);
    auto report =
        rules::ReplayWaves(replay.engine_.db, replay.engine_.rules, captured);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    std::string diffs;
    for (const std::string& m : report->mismatches) diffs += m;
    EXPECT_TRUE(report->ok()) << diffs;
    EXPECT_EQ(report->waves_checked, captured.size());
    replay.engine_.rules.SetWaveCaptureEnabled(false);
  }
  obs::GlobalProvenanceLog().Clear();
  obs::GlobalWaveRecorder().Clear();
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProvenanceSessionFuzzTest,
                         ::testing::Range(0u, 8u));

#endif  // DELTAMON_OBS_ENABLED

}  // namespace
}  // namespace deltamon
