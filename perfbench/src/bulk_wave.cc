// bulk_wave: the paper's fig. 7 transaction, in-process through the
// Database API. Every wave changes quantity, delivery_time and
// consume_freq of every item in one commit; several monitor rules share
// the inventory. Waves alternate: a "down" wave pushes a random slice of
// items below their threshold (every rule fires for exactly that slice), an
// "up" wave lifts them back (Δ− only, no firing).
#include <algorithm>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common.h"
#include "inproc.h"
#include "objectlog/eval.h"
#include "rules/engine.h"

namespace perfbench {
namespace {

using namespace deltamon;
using objectlog::ArithOp;
using objectlog::Clause;
using objectlog::CompareOp;
using objectlog::Literal;
using objectlog::Term;

constexpr size_t kItems = 400;
constexpr size_t kRules = 4;
/// Items pushed below their threshold by each down wave.
constexpr size_t kSlice = kItems / 20;
/// Propagation threads. With two, every wave waits for the slower worker:
/// on a shared 4-CPU host the quartile spread of the commit p99 over ten
/// seeds was 27 % of its median.
constexpr size_t kThreads = 1;
/// Point reads after each wave. One ~9 us read per wave gave a median
/// that moved with whichever items and cache lines the read happened to
/// touch; a round's reads are averaged into one sample.
constexpr size_t kReadsPerWave = 16;
constexpr size_t kSetupReps = 16;
constexpr int kWarmupRounds = 2;

ColumnType IntCol() { return ColumnType{ValueKind::kInt, kInvalidTypeId}; }
ColumnType ObjCol(TypeId type) { return ColumnType{ValueKind::kObject, type}; }

/// The benchmark's own copy of every item's inputs.
struct Item {
  Oid oid;
  Oid supplier;
  int64_t quantity = 0;
  int64_t consume_freq = 0;
  int64_t delivery_time = 0;
  int64_t min_stock = 0;
  int64_t Threshold() const { return consume_freq * delivery_time + min_stock; }
  bool Low() const { return quantity < Threshold(); }
};

struct State {
  Engine engine;
  RelationId quantity = kInvalidRelationId;
  RelationId min_stock = kInvalidRelationId;
  RelationId consume_freq = kInvalidRelationId;
  RelationId supplies = kInvalidRelationId;
  RelationId delivery_time = kInvalidRelationId;
  RelationId threshold = kInvalidRelationId;
  std::vector<Item> items;
  std::unordered_map<uint64_t, size_t> index_of;  // oid.id -> item
  /// Instances each rule received in the current commit.
  std::vector<std::vector<Tuple>> received;
  InprocHarness* harness = nullptr;
};

Status SetInt(Engine& e, RelationId fn, Oid o, int64_t v) {
  return e.db.Set(fn, Tuple{Value(o)}, Tuple{Value(v)});
}

/// The paper's inventory schema (§3.1) with `kRules` monitor rules, each on
/// its own copy of the condition
///   cnd_k(I) <- quantity(I,Q) AND threshold(I,T) AND Q < T
///   threshold(I,T) <- consume_freq(I,C) AND supplies(S,I) AND
///                     delivery_time(I,S,D) AND G = C*D AND
///                     min_stock(I,M) AND T = G+M
Result<std::unique_ptr<State>> Build(uint64_t seed) {
  auto st = std::make_unique<State>();
  Engine& e = st->engine;
  Catalog& cat = e.db.catalog();
  DELTAMON_ASSIGN_OR_RETURN(TypeId item, cat.CreateType("item"));
  DELTAMON_ASSIGN_OR_RETURN(TypeId supplier, cat.CreateType("supplier"));
  auto int_fn = [&](const char* name) {
    return cat.CreateStoredFunction(
        name, FunctionSignature{{ObjCol(item)}, {IntCol()}});
  };
  DELTAMON_ASSIGN_OR_RETURN(st->quantity, int_fn("quantity"));
  DELTAMON_ASSIGN_OR_RETURN(st->min_stock, int_fn("min_stock"));
  DELTAMON_ASSIGN_OR_RETURN(st->consume_freq, int_fn("consume_freq"));
  DELTAMON_ASSIGN_OR_RETURN(
      st->supplies,
      cat.CreateStoredFunction(
          "supplies", FunctionSignature{{ObjCol(supplier)}, {ObjCol(item)}}));
  DELTAMON_ASSIGN_OR_RETURN(
      st->delivery_time,
      cat.CreateStoredFunction(
          "delivery_time",
          FunctionSignature{{ObjCol(item), ObjCol(supplier)}, {IntCol()}}));
  DELTAMON_ASSIGN_OR_RETURN(
      st->threshold,
      cat.CreateDerivedFunction("threshold",
                                FunctionSignature{{ObjCol(item)}, {IntCol()}}));
  {
    Clause c;
    c.head_relation = st->threshold;
    c.num_vars = 7;
    c.var_names = {"I", "T", "C", "S", "D", "G", "M"};
    const int I = 0, T = 1, C = 2, S = 3, D = 4, G = 5, M = 6;
    c.head_args = {Term::Var(I), Term::Var(T)};
    c.body = {
        Literal::Relation(st->consume_freq, {Term::Var(I), Term::Var(C)}),
        Literal::Relation(st->supplies, {Term::Var(S), Term::Var(I)}),
        Literal::Relation(st->delivery_time,
                          {Term::Var(I), Term::Var(S), Term::Var(D)}),
        Literal::Arith(ArithOp::kMul, Term::Var(G), Term::Var(C), Term::Var(D)),
        Literal::Relation(st->min_stock, {Term::Var(I), Term::Var(M)}),
        Literal::Arith(ArithOp::kAdd, Term::Var(T), Term::Var(G), Term::Var(M)),
    };
    DELTAMON_RETURN_IF_ERROR(
        e.registry.Define(st->threshold, std::move(c), cat));
  }

  // Population: every item starts well above its threshold.
  Rng rng(seed);
  for (size_t i = 0; i < kItems; ++i) {
    Item it;
    DELTAMON_ASSIGN_OR_RETURN(it.oid, cat.CreateObject(item));
    DELTAMON_ASSIGN_OR_RETURN(it.supplier, cat.CreateObject(supplier));
    it.consume_freq = rng.Range(1, 20);
    it.delivery_time = rng.Range(1, 10);
    it.min_stock = rng.Range(10, 100);
    it.quantity = it.Threshold() + rng.Range(1, 500);
    DELTAMON_RETURN_IF_ERROR(SetInt(e, st->min_stock, it.oid, it.min_stock));
    DELTAMON_RETURN_IF_ERROR(
        SetInt(e, st->consume_freq, it.oid, it.consume_freq));
    DELTAMON_RETURN_IF_ERROR(SetInt(e, st->quantity, it.oid, it.quantity));
    DELTAMON_RETURN_IF_ERROR(
        e.db.Set(st->supplies, Tuple{Value(it.supplier)},
                 Tuple{Value(it.oid)}));
    DELTAMON_RETURN_IF_ERROR(
        e.db.Set(st->delivery_time, Tuple{Value(it.oid), Value(it.supplier)},
                 Tuple{Value(it.delivery_time)}));
    st->index_of[it.oid.id] = i;
    st->items.push_back(it);
  }
  DELTAMON_RETURN_IF_ERROR(e.db.Commit());

  // Activation: kRules strict rules, each on its own condition relation.
  e.rules.SetNumThreads(kThreads);
  st->received.resize(kRules);
  State* raw = st.get();
  for (size_t k = 0; k < kRules; ++k) {
    DELTAMON_ASSIGN_OR_RETURN(
        RelationId cnd,
        cat.CreateDerivedFunction("cnd_monitor_items_" + std::to_string(k),
                                  FunctionSignature{{}, {ObjCol(item)}}));
    Clause c;
    c.head_relation = cnd;
    c.num_vars = 3;
    c.var_names = {"I", "Q", "T"};
    c.head_args = {Term::Var(0)};
    c.body = {
        Literal::Relation(st->quantity, {Term::Var(0), Term::Var(1)}),
        Literal::Relation(st->threshold, {Term::Var(0), Term::Var(2)}),
        Literal::Compare(CompareOp::kLt, Term::Var(1), Term::Var(2)),
    };
    DELTAMON_RETURN_IF_ERROR(e.registry.Define(cnd, std::move(c), cat));
    DELTAMON_ASSIGN_OR_RETURN(
        rules::RuleId rule,
        e.rules.CreateRule(
            "monitor_items_" + std::to_string(k), cnd,
            [raw, k](Database&, const Tuple&, const std::vector<Tuple>& xs) {
              auto& got = raw->received[k];
              if (raw->harness == nullptr) {
                got.insert(got.end(), xs.begin(), xs.end());
              } else {
                InprocHarness::ActionSpan span(*raw->harness);
                got.insert(got.end(), xs.begin(), xs.end());
              }
              return Status::OK();
            }));
    DELTAMON_RETURN_IF_ERROR(e.rules.Activate(rule));
  }
  // The propagation network is built lazily; building it here keeps that
  // one-off cost in set-up.
  DELTAMON_RETURN_IF_ERROR(e.rules.network().status());
  return st;
}

/// One wave: new consume_freq and delivery_time for every item, and a new
/// quantity that is below the new threshold for the items in `low` and
/// above it for the rest. Checks that every rule received exactly the
/// items whose condition went false -> true.
void Wave(State& st, const std::vector<bool>& low, Rng& rng, RunResult* r) {
  std::vector<Item> next = st.items;
  std::vector<size_t> expected;
  for (size_t i = 0; i < next.size(); ++i) {
    Item& it = next[i];
    it.consume_freq = rng.RangeExcept(1, 20, it.consume_freq);
    it.delivery_time = rng.RangeExcept(1, 10, it.delivery_time);
    const int64_t t = it.Threshold();
    it.quantity = low[i] ? rng.RangeExcept(0, t - 1, it.quantity)
                         : rng.RangeExcept(t, t + 500, it.quantity);
    if (it.Low() && !st.items[i].Low()) expected.push_back(i);
  }
  for (auto& v : st.received) v.clear();
  Engine& e = st.engine;
  Status s = st.harness->Commit(
      [&]() -> Status {
        for (const Item& it : next) {
          DELTAMON_RETURN_IF_ERROR(SetInt(e, st.quantity, it.oid, it.quantity));
          DELTAMON_RETURN_IF_ERROR(
              e.db.Set(st.delivery_time,
                       Tuple{Value(it.oid), Value(it.supplier)},
                       Tuple{Value(it.delivery_time)}));
          DELTAMON_RETURN_IF_ERROR(
              SetInt(e, st.consume_freq, it.oid, it.consume_freq));
        }
        return Status::OK();
      },
      /*firing=*/!expected.empty());
  r->ops["wave"].attempted++;
  if (!s.ok()) {
    r->ops["wave"].failed++;
    r->Note("wave failed: " + s.ToString());
    (void)e.db.Rollback();
    return;
  }
  st.items = std::move(next);
  for (size_t k = 0; k < st.received.size(); ++k) {
    std::vector<size_t> got;
    for (const Tuple& t : st.received[k]) {
      auto it = st.index_of.find(t[0].AsObject().id);
      got.push_back(it == st.index_of.end() ? SIZE_MAX : it->second);
    }
    std::sort(got.begin(), got.end());
    if (got != expected) {
      r->Wrong("wave", "rule " + std::to_string(k) + " received " +
                           std::to_string(got.size()) +
                           " instances, expected " +
                           std::to_string(expected.size()));
      return;
    }
  }
}

/// Point read of the derived threshold of one item, checked against the
/// benchmark's own arithmetic.
void ReadOne(State& st, Rng& rng, RunResult* r) {
  const Item& it = st.items[static_cast<size_t>(rng.Range(0, kItems - 1))];
  TupleSet out;
  Status s = st.harness->Read([&]() -> Status {
    objectlog::Evaluator ev(st.engine.db, st.engine.registry,
                            objectlog::StateContext{});
    ScanPattern pattern(2);
    pattern[0] = Value(it.oid);
    Status ps =
        ev.Probe(st.threshold, objectlog::EvalState::kNew, pattern, &out);
    st.harness->NoteReadStats(ev.stats());
    return ps;
  });
  r->ops["read"].attempted++;
  if (!s.ok()) {
    r->ops["read"].failed++;
    r->Note("read failed: " + s.ToString());
    return;
  }
  const std::vector<Tuple> rows = SortedTuples(out);
  if (rows.size() != 1 || !rows[0][1].is_int() ||
      rows[0][1].AsInt() != it.Threshold()) {
    r->Wrong("read", "threshold mismatch");
  }
}

void Read(State& st, Rng& rng, RunResult* r) {
  for (size_t i = 0; i < kReadsPerWave; ++i) ReadOne(st, rng, r);
}

/// One round: a down wave on a fresh random slice, reads, the up wave
/// that lifts the slice back, reads.
void Round(State& st, Rng& rng, RunResult* r) {
  st.harness->BeginRound();
  std::vector<bool> low(kItems, false);
  for (size_t picked = 0; picked < kSlice;) {
    const size_t i = static_cast<size_t>(rng.Range(0, kItems - 1));
    if (!low[i]) {
      low[i] = true;
      ++picked;
    }
  }
  Wave(st, low, rng, r);
  Read(st, rng, r);
  Wave(st, std::vector<bool>(kItems, false), rng, r);
  Read(st, rng, r);
  st.harness->EndRound();
}

}  // namespace

RunResult RunBulkWave(const Options& options) {
  RunResult result;

  std::vector<double> setup_s;
  std::unique_ptr<State> st;
  for (size_t rep = 0; rep < kSetupReps; ++rep) {
    st.reset();
    RotateCpu();
    const uint64_t start = NowNs();
    Result<std::unique_ptr<State>> built = Build(options.seed);
    setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
    if (!built.ok()) {
      result.ops["setup"].attempted++;
      result.Wrong("setup", built.status().ToString());
      return result;
    }
    st = std::move(*built);
  }
  result.metrics["setup_s"] = Median(setup_s);
  result.Note("items=" + std::to_string(kItems) + " rules=" +
              std::to_string(kRules) + " slice=" + std::to_string(kSlice) +
              " threads=" + std::to_string(kThreads) + " reads/wave=" +
              std::to_string(kReadsPerWave));

  InprocHarness harness(st->engine, options.trace);
  st->harness = &harness;
  Rng rng(options.seed ^ 0x5eedULL);
  for (int i = 0; i < kWarmupRounds; ++i) Round(*st, rng, &result);

  harness.StartWindow();
  const uint64_t deadline =
      NowNs() + static_cast<uint64_t>(options.seconds * 1e9);
  while (NowNs() < deadline) Round(*st, rng, &result);
  harness.FinishWindow(&result);
  st->harness = nullptr;

  // Final state: the stored quantities equal the benchmark's model.
  const BaseRelation* rel =
      st->engine.db.catalog().GetBaseRelation(st->quantity);
  for (const Item& it : st->items) {
    ScanPattern pattern(2);
    pattern[0] = Value(it.oid);
    int64_t found = -1;
    rel->Scan(pattern, [&](const Tuple& t) {
      found = t[1].AsInt();
      return true;
    });
    if (found != it.quantity) {
      result.correct = false;
      result.Note("final quantity mismatch");
      break;
    }
  }
  result.metrics["peak_rss_mb"] = SelfPeakRssMb();
  return result;
}

}  // namespace perfbench
