#ifndef DELTAMON_NET_EXECUTOR_H_
#define DELTAMON_NET_EXECUTOR_H_

#include <string>

#include "amosql/session.h"
#include "obs/flight_recorder.h"
#include "rules/engine.h"

namespace deltamon::net {

/// Statement-execution entry point for the server. Every session commits
/// through the engine's transaction manager, so statements of different
/// connections run concurrently: they synchronize at the engine gate —
/// shared for reads and buffered DML, exclusive for DDL — and at the
/// group-commit queue, which batches the Δ-sets of ready transactions into
/// one deferred check phase. The executor itself holds no lock: request
/// identity and slow-statement capture live in the calling thread's trace
/// scope (obs::TraceScope), not in process-global state.
///
/// Records net.statements_served / net.statement_errors counters and the
/// net.statement_latency_ns histogram (queue wait included — that is what
/// a client observes).
class Executor {
 public:
  explicit Executor(Engine& engine) : engine_(engine) {}
  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  Engine& engine() { return engine_; }

  /// Executes one statement batch. When `record` is non-null the executor
  /// stamps its dequeue/exec-end phases (feeding net.queue_wait_ns and
  /// net.exec_ns), installs the record's trace id for span attribution,
  /// and — when the global slow threshold is armed — captures the full
  /// span tree + literal profile of over-threshold statements. Callers
  /// without a request identity (bootstrap, tests) pass nullptr and get
  /// the plain execution.
  Result<amosql::QueryResult> Execute(amosql::Session& session,
                                      const std::string& source,
                                      obs::RequestRecord* record = nullptr);

  /// Stats-annotated Graphviz DOT of the propagation network — the same
  /// rendering `show network [rule]` produces — for the admin HTTP
  /// /debug/network endpoint. Takes the engine gate exclusively: statements
  /// rebuild the network lazily under it. `rule` empty = the whole network.
  Result<std::string> NetworkDot(const std::string& rule);

 private:
  Engine& engine_;
};

}  // namespace deltamon::net

#endif  // DELTAMON_NET_EXECUTOR_H_
