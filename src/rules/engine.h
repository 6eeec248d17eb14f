#ifndef DELTAMON_RULES_ENGINE_H_
#define DELTAMON_RULES_ENGINE_H_

#include "objectlog/registry.h"
#include "rules/rule_manager.h"
#include "storage/database.h"
#include "txn/manager.h"

namespace deltamon {

/// Convenience aggregate wiring a database, the derived-relation registry,
/// the rule manager, and the transaction manager together — the full
/// active-DBMS stack. Most programs (and the AMOSQL session) build on this.
///
///   Engine engine;
///   engine.db.catalog().CreateType("item");
///   ... define functions and clauses ...
///   engine.rules.CreateRule(...); engine.rules.Activate(...);
///   ... updates ...
///   engine.db.Commit();   // deferred check phase runs here
///
/// Database::Commit is the engine primitive: in-process programs that own
/// the engine alone (the paper benches) may drive it directly, as above,
/// and `txn` runs the same deferred check phase once per commit wave. Every
/// amosql::Session commits through `txn` — one optimistic transaction per
/// session, with snapshot reads and group-committed check phases. Direct
/// writes bypass the sessions' snapshots and conflict validation, so make
/// them only while no session has a transaction in flight.
struct Engine {
  Engine() : rules(db, registry), txn(db, rules) {}
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  Database db;
  objectlog::DerivedRegistry registry;
  rules::RuleManager rules;
  txn::TransactionManager txn;
};

}  // namespace deltamon

#endif  // DELTAMON_RULES_ENGINE_H_
