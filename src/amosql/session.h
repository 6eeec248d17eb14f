#ifndef DELTAMON_AMOSQL_SESSION_H_
#define DELTAMON_AMOSQL_SESSION_H_

#include <cassert>
#include <functional>
#include <memory>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "amosql/compiler.h"
#include "amosql/parser.h"
#include "objectlog/eval.h"
#include "rules/engine.h"

namespace deltamon::obs {
struct RequestContext;
}  // namespace deltamon::obs

namespace deltamon::amosql {

/// Result of executing AMOSQL source: the rows of the last `select`
/// statement (empty for pure DDL/DML input) plus any session-command
/// output (`profile`, `show metrics`) accumulated in execution order.
struct QueryResult {
  std::vector<Tuple> rows;  // deterministically sorted
  /// Text report of profile / show metrics statements; empty otherwise.
  std::string report;

  std::string ToString() const;
};

/// An AMOSQL session over an Engine: parses and executes statements,
/// maintains interface variables (:item1) and registered foreign
/// procedures, and creates per-type extent relations on demand.
///
/// Every session runs as an optimistic transaction of the engine's
/// TransactionManager — the interactive shell, the examples and the tests
/// exactly as the network server's connections; one session alone is the
/// N=1 case. Statements take the manager's engine gate (shared for reads
/// and DML, exclusive for DDL and admin commands). DML buffers into a
/// private snapshot overlay instead of writing the shared store, and
/// `commit` goes through the group-commit queue with first-committer-wins
/// validation: a kTxnConflict result means the transaction was aborted and
/// can be retried. DDL writes the shared store directly and is not undone
/// by `abort`.
///
///   Engine engine;
///   Session session(engine);
///   session.RegisterProcedure("order", ...);
///   auto r = session.Execute(R"(
///     create type item;
///     create function quantity(item) -> integer;
///     ...
///     activate monitor_items();
///     set quantity(:item1) = 120;
///     commit;
///   )");
class Session : public ExtentProvider {
 public:
  /// A foreign procedure (paper §3: "foreign functions written in Lisp or
  /// C"), callable from rule actions: order(i, max_stock(i) - quantity(i)).
  using Procedure =
      std::function<Status(Database& db, const std::vector<Value>& args)>;

  explicit Session(Engine& engine) : engine_(engine) {}
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;
  ~Session() override { engine_.txn.Release(txn_); }

  Engine& engine() { return engine_; }

  /// Kept for source compatibility with callers written when sessions had
  /// a second, direct-write commit path (the perfbench harness calls it):
  /// every session already commits through `engine().txn`, so this does
  /// nothing. Debug builds assert that `mgr` is that manager.
  void AttachTransactionManager(
      [[maybe_unused]] txn::TransactionManager* mgr) {
    assert(mgr == &engine_.txn);
  }

  /// This session's transaction snapshot; last_commit describes the most
  /// recent group-commit wave that committed it (for tests and metrics).
  const TxnSnapshot& txn_snapshot() const { return txn_; }

  /// Registers a procedure for this session's rule actions. Rules keep
  /// the session's procedure table alive, not the session, and look names
  /// up when they fire, so a procedure registered after `create rule`
  /// still resolves. Register before other sessions can commit waves that
  /// fire this session's rules: the table has no lock of its own.
  void RegisterProcedure(const std::string& name, Procedure proc) {
    (*procedures_)[name] = std::move(proc);
  }

  /// Parses and executes every statement in `source`; fails fast on the
  /// first error. Returns the last select's rows.
  Result<QueryResult> Execute(const std::string& source);

  /// Execute with `profile` attached to everything the source evaluates
  /// (session evaluators and the propagator), exactly as `explain analyze`
  /// attaches one — used by the network executor's slow-statement capture.
  /// The previous profiler is restored afterwards.
  Result<QueryResult> ExecuteProfiled(const std::string& source,
                                      obs::Profile* profile);

  /// Session environment (interface variables, without the ':').
  Result<Value> GetInterfaceVar(const std::string& name) const;
  void SetInterfaceVar(const std::string& name, Value value) {
    env_[name] = std::move(value);
  }

  /// ExtentProvider: the stored relation holding all objects of `type`
  /// created through any session, named "_extent_<typename>". `create
  /// type` creates it; a type made through the catalog directly gets it
  /// from the first session that needs it.
  Result<RelationId> ExtentRelation(TypeId type) override;

 private:
  Status ExecStatement(const Statement& stmt, QueryResult* last_select);
  Status ExecProfile(const ProfileStmt& stmt, QueryResult* last_select);
  Status ExecExplainAnalyze(const ExplainAnalyzeStmt& stmt,
                            QueryResult* last_select);
  Status ExecAnalyzeRule(const AnalyzeRuleStmt& stmt,
                         QueryResult* last_select);
  Status ExecTrace(const TraceStmt& stmt, QueryResult* last_select);
  Status ExecShowNetwork(const ShowNetworkStmt& stmt, QueryResult* last_select);
  Status ExecShowSlow(QueryResult* last_select);
  Status ExecShowProvenance(QueryResult* last_select);
  Status ExecExplainFiring(const ExplainFiringStmt& stmt,
                           QueryResult* last_select);
  Status ExecDumpWaves(const DumpWavesStmt& stmt, QueryResult* last_select);
  Status ExecCreateFunction(const CreateFunctionStmt& stmt);
  Status ExecCreateRule(const CreateRuleStmt& stmt);
  Status ExecCreateInstances(const CreateInstancesStmt& stmt);
  Status ExecUpdate(const UpdateStmt& stmt);
  Status ExecActivate(const ActivateStmt& stmt);
  Status ExecSelect(const SelectStmt& stmt, QueryResult* out);

  Status ExecBegin();
  Status ExecCommit();
  Status ExecRollback();

  /// Evaluates a ground expression (no query variables) to a single Value.
  Result<Value> EvalGroundExpr(const Expr& expr);
  /// Evaluates several ground expressions.
  Result<std::vector<Value>> EvalGroundExprs(const std::vector<ExprPtr>& es);

  /// The engine gate (see txn::TransactionManager).
  std::shared_mutex& gate() { return engine_.txn.engine_mutex(); }

  /// StateContext for session-level evaluators: routes stored-relation
  /// reads through the transaction snapshot (overlay view + footprint
  /// recording).
  objectlog::StateContext EvalContext();

  /// Lazily registers the snapshot and — outside an explicit transaction,
  /// while nothing is buffered — re-snapshots it at the current version,
  /// so autocommit statements each get a fresh consistent read point.
  /// Caller must hold the engine gate.
  void RefreshSnapshotLocked();

  /// Feeds the profile's observed scan/probe selectivities into the
  /// catalog's StatsStore so subsequent literal orderings learn from them.
  void RecordObservedStats(const obs::Profile& profile);

  using ProcedureTable = std::unordered_map<std::string, Procedure>;

  Engine& engine_;
  std::unordered_map<std::string, Value> env_;
  /// Shared with the actions of the rules this session created, which may
  /// fire after the session is gone.
  std::shared_ptr<ProcedureTable> procedures_ =
      std::make_shared<ProcedureTable>();
  std::unordered_map<TypeId, RelationId> extents_;
  /// Non-null while an `explain analyze` statement is executing: every
  /// evaluator the session creates (selects, ground expressions) attaches
  /// to it, and a commit hands it to the transaction manager, which
  /// profiles that transaction's solo wave (check phase and rule actions).
  obs::Profile* active_profiler_ = nullptr;

  TxnSnapshot txn_;
  /// Whether txn_ has been registered with the manager yet (lazy begin).
  bool txn_started_ = false;
  /// Set by DDL that writes tuples directly (create instances): those
  /// events bypass the overlay and ride the next commit wave, so commit
  /// must go through the queue even when the overlay is empty.
  bool ddl_dirty_ = false;
};

/// The single statement-execution entry point shared by every AMOSQL
/// front end — the interactive REPL (amosql_shell), the network server
/// (deltamond), the remote REPL (deltamon-cli via the server), and tests.
/// Parses and executes the ';'-terminated statements in `source` against
/// the session, failing fast on the first error. Front ends must not
/// parse or dispatch statements themselves; route everything through
/// here so the language has exactly one execution path.
Result<QueryResult> ExecuteStatement(Session& session,
                                     const std::string& source);

/// Per-request execution knobs for server front ends. `context` (when
/// non-null) identifies the request: the statement runs under a root
/// "amosql.statement" span carrying the connection id and ordinal, and —
/// because the executor installs the context's trace id for the duration —
/// every span the statement produces links back to it. `profiler` (when
/// non-null) receives the per-literal profile of everything the statement
/// evaluates, as `explain analyze` would.
struct StatementOptions {
  const obs::RequestContext* context = nullptr;
  obs::Profile* profiler = nullptr;
};

/// ExecuteStatement with request identity and optional profiling attached;
/// the plain overload above is equivalent to passing default options.
Result<QueryResult> ExecuteStatement(Session& session,
                                     const std::string& source,
                                     const StatementOptions& options);

/// Renders a QueryResult the way the REPL prints it: the rows (one per
/// line), a "(N rows)" trailer when any, then the session-command report.
std::string FormatResult(const QueryResult& result);

}  // namespace deltamon::amosql

#endif  // DELTAMON_AMOSQL_SESSION_H_
