// recursive_reroute: a linear-recursive reachability condition in the shape
// of examples/dependency_monitor — critical nodes that transitively depend
// on an unstable node — over a sparse graph. Every transaction re-routes
// one chord edge: it deletes the chord in place (paths go away, DRed) and
// inserts the next one (new paths appear, semi-naive fixpoint), and the
// strict rule fires for exactly the pairs that became at risk.
#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "inproc.h"
#include "objectlog/eval.h"
#include "rules/engine.h"

namespace perfbench {
namespace {

using namespace deltamon;
using objectlog::Clause;
using objectlog::Literal;
using objectlog::Term;

/// Nodes form segments of kSegment (see MakeGraph).
constexpr int64_t kNodes = 128;
constexpr int64_t kSegment = 8;
/// Chords the run cycles through (see MakeChords).
constexpr size_t kChords = 64;
constexpr size_t kSetupReps = 16;
constexpr int kWarmupRounds = 8;

using Pair = std::pair<int64_t, int64_t>;
using Edges = std::vector<std::vector<int64_t>>;

ColumnType IntCol() { return ColumnType{ValueKind::kInt, kInvalidTypeId}; }

/// The benchmark's own copy of the graph.
struct Graph {
  Edges out{static_cast<size_t>(kNodes)};
  std::vector<bool> critical = std::vector<bool>(kNodes, false);
  std::vector<bool> unstable = std::vector<bool>(kNodes, false);
  std::vector<int64_t> critical_nodes;

  /// Unstable nodes reachable from `from` over one or more edges, with
  /// `extra` (if any) added to the graph.
  std::vector<int64_t> UnstableReach(int64_t from,
                                     const Pair* extra = nullptr) const {
    std::vector<bool> seen(kNodes, false);
    std::vector<int64_t> stack = {from};
    std::vector<int64_t> found;
    while (!stack.empty()) {
      const int64_t n = stack.back();
      stack.pop_back();
      auto visit = [&](int64_t m) {
        if (seen[static_cast<size_t>(m)]) return;
        seen[static_cast<size_t>(m)] = true;
        if (unstable[static_cast<size_t>(m)]) found.push_back(m);
        stack.push_back(m);
      };
      for (int64_t m : out[static_cast<size_t>(n)]) visit(m);
      if (extra != nullptr && extra->first == n) visit(extra->second);
    }
    std::sort(found.begin(), found.end());
    return found;
  }

  /// The condition's extent: (critical, unstable) pairs joined by a path.
  std::set<Pair> AtRisk(const Pair* extra = nullptr) const {
    std::set<Pair> pairs;
    for (int64_t c : critical_nodes) {
      for (int64_t u : UnstableReach(c, extra)) pairs.insert({c, u});
    }
    return pairs;
  }
};

struct Chord {
  Pair edge;
  /// Pairs that become at risk when this chord replaces the previous one.
  std::vector<Pair> fires;
};

struct State {
  Engine engine;
  RelationId depends = kInvalidRelationId;
  RelationId at_risk = kInvalidRelationId;
  Graph graph;
  std::vector<Chord> chords;
  std::vector<Pair> received;
  InprocHarness* harness = nullptr;
};

/// The graph has a fixed shape, so the work of a commit does not depend on
/// the seed: each segment is a binary tree whose last node links into the
/// next segment's root, pairing segments into chains of 2 * kSegment
/// nodes. The seed picks one critical and one unstable node per segment.
Graph MakeGraph(Rng& rng) {
  Graph g;
  for (int64_t s = 0; s < kNodes / kSegment; ++s) {
    const int64_t root = s * kSegment;
    for (int64_t j = 1; j < kSegment; ++j) {
      g.out[static_cast<size_t>(root + (j - 1) / 2)].push_back(root + j);
    }
    if (s % 2 == 0) {
      const int64_t last = root + kSegment - 1;
      g.out[static_cast<size_t>(last)].push_back(root + kSegment);
    }
    const int64_t c = root + rng.Range(0, kSegment - 1);
    g.critical[static_cast<size_t>(c)] = true;
    g.critical_nodes.push_back(c);
    const int64_t u = root + rng.RangeExcept(0, kSegment - 1, c - root);
    g.unstable[static_cast<size_t>(u)] = true;
  }
  return g;
}

/// A cycle of join chords, each from the last node of one chain to the
/// start of another. Consecutive chords touch four different chains, so
/// every re-route does the same amount of work whatever the seed. Each
/// chord records, by BFS over the benchmark's copy of the edges, the pairs
/// that become at risk when it replaces its predecessor.
std::vector<Chord> MakeChords(const Graph& g, Rng& rng) {
  constexpr int64_t kChain = 2 * kSegment;
  constexpr int64_t kNumChains = kNodes / kChain;
  std::vector<Pair> chains;  // (from chain, to chain)
  auto disjoint = [](const Pair& a, const Pair& b) {
    return a.first != b.first && a.first != b.second && a.second != b.first &&
           a.second != b.second;
  };
  while (chains.size() < kChords) {
    const int64_t from = rng.Range(0, kNumChains - 1);
    const Pair c{from, rng.RangeExcept(0, kNumChains - 1, from)};
    if (!chains.empty() && !disjoint(c, chains.back())) continue;
    if (chains.size() + 1 == kChords && !disjoint(c, chains.front())) continue;
    chains.push_back(c);
  }
  std::vector<Chord> chords;
  for (const Pair& c : chains) {
    chords.push_back({{c.first * kChain + kChain - 1, c.second * kChain}, {}});
  }
  for (size_t j = 0; j < chords.size(); ++j) {
    const Chord& prev = chords[(j + chords.size() - 1) % chords.size()];
    const std::set<Pair> before = g.AtRisk(&prev.edge);
    for (const Pair& p : g.AtRisk(&chords[j].edge)) {
      if (!before.contains(p)) chords[j].fires.push_back(p);
    }
  }
  return chords;
}

Result<std::unique_ptr<State>> Build(uint64_t seed) {
  auto st = std::make_unique<State>();
  Engine& e = st->engine;
  Catalog& cat = e.db.catalog();
  DELTAMON_ASSIGN_OR_RETURN(
      st->depends,
      cat.CreateStoredFunction("depends_on",
                               FunctionSignature{{IntCol()}, {IntCol()}}));
  DELTAMON_ASSIGN_OR_RETURN(
      RelationId unstable,
      cat.CreateStoredFunction("unstable", FunctionSignature{{IntCol()}, {}}));
  DELTAMON_ASSIGN_OR_RETURN(
      RelationId critical,
      cat.CreateStoredFunction("critical", FunctionSignature{{IntCol()}, {}}));
  // reaches(x,y) <- depends_on(x,y)
  // reaches(x,z) <- depends_on(x,y) AND reaches(y,z)
  DELTAMON_ASSIGN_OR_RETURN(
      RelationId reaches,
      cat.CreateDerivedFunction("reaches",
                                FunctionSignature{{}, {IntCol(), IntCol()}}));
  {
    Clause base;
    base.head_relation = reaches;
    base.num_vars = 2;
    base.head_args = {Term::Var(0), Term::Var(1)};
    base.body = {Literal::Relation(st->depends, {Term::Var(0), Term::Var(1)})};
    DELTAMON_RETURN_IF_ERROR(e.registry.Define(reaches, std::move(base), cat));
    Clause step;
    step.head_relation = reaches;
    step.num_vars = 3;
    step.head_args = {Term::Var(0), Term::Var(2)};
    step.body = {Literal::Relation(st->depends, {Term::Var(0), Term::Var(1)}),
                 Literal::Relation(reaches, {Term::Var(1), Term::Var(2)})};
    DELTAMON_RETURN_IF_ERROR(e.registry.Define(reaches, std::move(step), cat));
  }
  // cnd_at_risk(c,u) <- critical(c) AND reaches(c,u) AND unstable(u)
  DELTAMON_ASSIGN_OR_RETURN(
      st->at_risk,
      cat.CreateDerivedFunction("cnd_at_risk",
                                FunctionSignature{{}, {IntCol(), IntCol()}}));
  {
    Clause c;
    c.head_relation = st->at_risk;
    c.num_vars = 2;
    c.head_args = {Term::Var(0), Term::Var(1)};
    c.body = {Literal::Relation(critical, {Term::Var(0)}),
              Literal::Relation(reaches, {Term::Var(0), Term::Var(1)}),
              Literal::Relation(unstable, {Term::Var(1)})};
    DELTAMON_RETURN_IF_ERROR(e.registry.Define(st->at_risk, std::move(c), cat));
  }

  Rng rng(seed);
  st->graph = MakeGraph(rng);
  st->chords = MakeChords(st->graph, rng);
  // The last chord of the cycle is in place; the first re-route replaces it.
  const Pair& last = st->chords.back().edge;
  DELTAMON_RETURN_IF_ERROR(
      e.db.Insert(st->depends, Tuple{Value(last.first), Value(last.second)}));
  for (int64_t n = 0; n < kNodes; ++n) {
    for (int64_t m : st->graph.out[static_cast<size_t>(n)]) {
      DELTAMON_RETURN_IF_ERROR(
          e.db.Insert(st->depends, Tuple{Value(n), Value(m)}));
    }
    if (st->graph.critical[static_cast<size_t>(n)]) {
      DELTAMON_RETURN_IF_ERROR(e.db.Insert(critical, Tuple{Value(n)}));
    }
    if (st->graph.unstable[static_cast<size_t>(n)]) {
      DELTAMON_RETURN_IF_ERROR(e.db.Insert(unstable, Tuple{Value(n)}));
    }
  }
  DELTAMON_RETURN_IF_ERROR(e.db.Commit());

  State* raw = st.get();
  DELTAMON_ASSIGN_OR_RETURN(
      rules::RuleId rule,
      e.rules.CreateRule(
          "page_at_risk", st->at_risk,
          [raw](Database&, const Tuple&, const std::vector<Tuple>& xs) {
            auto record = [&] {
              for (const Tuple& t : xs) {
                raw->received.push_back({t[0].AsInt(), t[1].AsInt()});
              }
            };
            if (raw->harness == nullptr) {
              record();
            } else {
              InprocHarness::ActionSpan span(*raw->harness);
              record();
            }
            return Status::OK();
          }));
  DELTAMON_RETURN_IF_ERROR(e.rules.Activate(rule));
  // The propagation network is built lazily; building it here keeps that
  // one-off cost in set-up.
  DELTAMON_RETURN_IF_ERROR(e.rules.network().status());
  return st;
}

/// Replaces chord `from` by chord `to` in one transaction and checks that
/// the rule fired for exactly the pairs `to` puts at risk.
void Reroute(State& st, const Chord& from, const Chord& to, RunResult* r) {
  st.received.clear();
  Engine& e = st.engine;
  Status s = st.harness->Commit(
      [&]() -> Status {
        DELTAMON_RETURN_IF_ERROR(
            e.db.Delete(st.depends, Tuple{Value(from.edge.first),
                                          Value(from.edge.second)}));
        return e.db.Insert(st.depends,
                           Tuple{Value(to.edge.first), Value(to.edge.second)});
      },
      /*firing=*/!to.fires.empty());
  r->ops["reroute"].attempted++;
  if (!s.ok()) {
    r->ops["reroute"].failed++;
    r->Note("reroute failed: " + s.ToString());
    (void)e.db.Rollback();
    return;
  }
  std::vector<Pair> got = st.received;
  std::sort(got.begin(), got.end());
  if (got != to.fires) {
    r->Wrong("reroute", "fired " + std::to_string(got.size()) +
                            " pairs, expected " +
                            std::to_string(to.fires.size()));
  }
}

/// Which unstable nodes one critical node is at risk from, checked
/// against a BFS over the benchmark's copy of the edges.
void Read(State& st, const Pair* chord, Rng& rng, RunResult* r) {
  const int64_t c = st.graph.critical_nodes[static_cast<size_t>(
      rng.Range(0, static_cast<int64_t>(st.graph.critical_nodes.size()) - 1))];
  TupleSet out;
  Status s = st.harness->Read([&]() -> Status {
    objectlog::Evaluator ev(st.engine.db, st.engine.registry,
                            objectlog::StateContext{});
    ScanPattern pattern(2);
    pattern[0] = Value(c);
    Status ps = ev.Probe(st.at_risk, objectlog::EvalState::kNew, pattern, &out);
    st.harness->NoteReadStats(ev.stats());
    return ps;
  });
  r->ops["read"].attempted++;
  if (!s.ok()) {
    r->ops["read"].failed++;
    r->Note("read failed: " + s.ToString());
    return;
  }
  std::vector<int64_t> got;
  for (const Tuple& t : SortedTuples(out)) got.push_back(t[1].AsInt());
  if (got != st.graph.UnstableReach(c, chord)) {
    r->Wrong("read", "at-risk set of node " + std::to_string(c));
  }
}

/// One round: a re-route, then a read.
void Round(State& st, size_t round, Rng& rng, RunResult* r) {
  const size_t n = st.chords.size();
  const Chord& to = st.chords[round % n];
  st.harness->BeginRound();
  Reroute(st, st.chords[(round + n - 1) % n], to, r);
  Read(st, &to.edge, rng, r);
  st.harness->EndRound();
}

}  // namespace

RunResult RunRecursiveReroute(const Options& options) {
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
  size_t edges = 0;
  for (const auto& v : st->graph.out) edges += v.size();
  result.Note("nodes=" + std::to_string(kNodes) + " edges=" +
              std::to_string(edges) + " critical=" +
              std::to_string(st->graph.critical_nodes.size()) + " at_risk=" +
              std::to_string(st->graph.AtRisk().size()) + " chords=" +
              std::to_string(st->chords.size()));

  InprocHarness harness(st->engine, options.trace);
  st->harness = &harness;
  Rng rng(options.seed ^ 0x5eedULL);
  size_t round = 0;
  for (int i = 0; i < kWarmupRounds; ++i) Round(*st, round++, rng, &result);

  harness.StartWindow();
  const uint64_t deadline =
      NowNs() + static_cast<uint64_t>(options.seconds * 1e9);
  while (NowNs() < deadline) Round(*st, round++, rng, &result);
  harness.FinishWindow(&result);
  st->harness = nullptr;
  result.metrics["peak_rss_mb"] = SelfPeakRssMb();
  return result;
}

}  // namespace perfbench
