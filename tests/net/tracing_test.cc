// End-to-end request tracing over real sockets: the HELLO trace-info
// flag, the trace line in statement reports, the /debug/requests flight
// recorder (phase decomposition, trace-id uniqueness across concurrent
// clients), the slow-statement log, the /debug/network DOT endpoint, and
// a concurrent recorder read/write probe for TSan. Runs under ASan and
// TSan (ctest label "net").

#include <sys/socket.h>
#include <sys/time.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "net/client.h"
#include "net/http.h"
#include "net/server.h"
#include "net/socket.h"
#include "obs/flight_recorder.h"
#include "obs/json.h"
#include "rules/engine.h"

namespace deltamon::net {
namespace {

class TracingFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    // The recorder and slow log are process globals shared by every test
    // in this binary: start from a clean slate.
    obs::GlobalRequestRecorder().Clear();
    obs::GlobalSlowLog().Clear();
    obs::SetSlowThresholdNs(0);
  }

  void TearDown() override {
    if (server_) server_->Stop();
    obs::SetSlowThresholdNs(0);
    obs::GlobalSlowLog().Clear();
  }

  void StartServer(ServerOptions options = {}) {
    options.port = 0;
    server_ = std::make_unique<Server>(engine_, options);
    ASSERT_TRUE(server_->Start().ok());
  }

  void StartServerWithAdmin() {
    ServerOptions options;
    options.enable_admin = true;
    options.admin_port = 0;
    StartServer(options);
    ASSERT_NE(server_->admin_port(), 0);
  }

  Result<Client> Connect(bool trace_info = false) {
    return Client::Connect("127.0.0.1", server_->port(),
                           kDefaultMaxFrameSize, trace_info);
  }

  Engine engine_;
  std::unique_ptr<Server> server_;
};

std::string AdminGet(uint16_t port, const std::string& path) {
  Result<int> fd = ConnectTcp("127.0.0.1", port);
  EXPECT_TRUE(fd.ok());
  if (!fd.ok()) return "";
  timeval timeout{5, 0};
  ::setsockopt(*fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  EXPECT_TRUE(
      WriteAll(*fd, "GET " + path + " HTTP/1.1\r\nHost: x\r\n\r\n").ok());
  std::string response;
  char buf[4096];
  while (true) {
    Result<size_t> n = ReadSome(*fd, buf, sizeof(buf));
    if (!n.ok() || *n == 0) break;
    response.append(buf, *n);
  }
  CloseFd(*fd);
  return response;
}

/// Strips the HTTP status line and headers, returning the body.
std::string HttpBody(const std::string& response) {
  const size_t split = response.find("\r\n\r\n");
  return split == std::string::npos ? std::string()
                                    : response.substr(split + 4);
}

/// Polls /debug/requests until `want` records carrying `statement` are
/// visible (reply-flush completion races the client's read of the reply).
std::vector<obs::RequestRecord> WaitForRecords(const std::string& statement,
                                               size_t want) {
  for (int attempt = 0; attempt < 200; ++attempt) {
    std::vector<obs::RequestRecord> matching;
    for (obs::RequestRecord& r :
         obs::GlobalRequestRecorder().Snapshot().items) {
      if (r.statement == statement) matching.push_back(std::move(r));
    }
    if (matching.size() >= want) return matching;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return {};
}

TEST_F(TracingFixture, TraceInfoLineFollowsTheHelloFlag) {
  StartServer();
  Result<Client> plain = Connect(/*trace_info=*/false);
  ASSERT_TRUE(plain.ok());
  Result<Client::Response> r = plain->Execute("commit;");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->report.find("-- trace"), std::string::npos)
      << "a client that did not opt in must see byte-identical replies";

  Result<Client> traced = Connect(/*trace_info=*/true);
  ASSERT_TRUE(traced.ok());
  r = traced->Execute("commit;");
  ASSERT_TRUE(r.ok()) << r.status();
  if (obs::kObsEnabled) {
    EXPECT_NE(r->report.find("-- trace"), std::string::npos) << r->report;
    EXPECT_NE(r->report.find("queue"), std::string::npos) << r->report;
    EXPECT_NE(r->report.find("exec"), std::string::npos) << r->report;
  } else {
    EXPECT_EQ(r->report.find("-- trace"), std::string::npos)
        << "OBS=OFF builds mint no trace info";
  }
}

TEST_F(TracingFixture, ErrorRepliesNeverCarryATraceLine) {
  StartServer();
  Result<Client> traced = Connect(/*trace_info=*/true);
  ASSERT_TRUE(traced.ok());
  Result<Client::Response> r = traced->Execute("select nonsense;");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().message().find("-- trace"), std::string::npos)
      << "ERR bodies are part of the protocol surface and stay untouched";
}

TEST_F(TracingFixture, CompletedStatementIsFindableInDebugRequests) {
  StartServerWithAdmin();
  {
    Result<Client> client = Connect();
    ASSERT_TRUE(client.ok());
    ASSERT_TRUE(client->Execute("commit;").ok());
  }

  if (!obs::kObsEnabled) {
    // OBS=OFF: the endpoint still serves a valid — empty — document.
    auto doc = obs::Json::Parse(
        HttpBody(AdminGet(server_->admin_port(), "/debug/requests")));
    ASSERT_TRUE(doc.ok()) << doc.status();
    EXPECT_EQ(doc->Get("requests")->size(), 0u);
    GTEST_SKIP() << "request tracing is compiled out";
  }

  const std::vector<obs::RequestRecord> records =
      WaitForRecords("commit;", 1);
  ASSERT_EQ(records.size(), 1u);
  const obs::RequestRecord& r = records[0];
  EXPECT_GT(r.context.trace_id, 0u);
  EXPECT_EQ(r.context.statement_ordinal, 1u);
  EXPECT_TRUE(r.ok);
  EXPECT_TRUE(r.reply_flushed);
  EXPECT_GT(r.reply_bytes, 0u);
  // Phase stamps are monotonic and the decomposition accounts for the
  // end-to-end latency: the three phases can only undershoot the total
  // (by the exec-end -> reply-queued gap), never overshoot it.
  EXPECT_LE(r.enqueue_ns, r.dequeue_ns);
  EXPECT_LE(r.dequeue_ns, r.exec_end_ns);
  EXPECT_LE(r.exec_end_ns, r.reply_queued_ns);
  EXPECT_LE(r.reply_queued_ns, r.reply_flushed_ns);
  EXPECT_GT(r.TotalNs(), 0u);
  EXPECT_LE(r.QueueWaitNs() + r.ExecNs() + r.ReplyWriteNs(), r.TotalNs());

  // The HTTP view of the same record: well-formed JSON with the
  // statement, its trace id, and the phase breakdown.
  const std::string response =
      AdminGet(server_->admin_port(), "/debug/requests");
  EXPECT_NE(response.find("200 OK"), std::string::npos);
  EXPECT_NE(response.find("application/json"), std::string::npos);
  auto doc = obs::Json::Parse(HttpBody(response));
  ASSERT_TRUE(doc.ok()) << doc.status();
  const obs::Json* requests = doc->Get("requests");
  ASSERT_NE(requests, nullptr);
  ASSERT_GE(requests->size(), 1u);
  bool found = false;
  for (const obs::Json& request : requests->array_items()) {
    if (request.Get("statement")->as_string() != "commit;") continue;
    found = true;
    EXPECT_EQ(request.Get("trace_id")->as_int(),
              static_cast<int64_t>(r.context.trace_id));
    EXPECT_GT(request.Get("phases")->Get("total_ns")->as_int(), 0);
  }
  EXPECT_TRUE(found) << HttpBody(response);
}

TEST_F(TracingFixture, DebugRequestsTraceIsLoadableChromeJson) {
  StartServerWithAdmin();
  {
    Result<Client> client = Connect();
    ASSERT_TRUE(client.ok());
    ASSERT_TRUE(client->Execute("commit;").ok());
  }
  if (obs::kObsEnabled) {
    ASSERT_EQ(WaitForRecords("commit;", 1).size(), 1u);
  }
  auto doc = obs::Json::Parse(
      HttpBody(AdminGet(server_->admin_port(), "/debug/requests/trace")));
  ASSERT_TRUE(doc.ok()) << doc.status();
  const obs::Json* events = doc->Get("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  if (obs::kObsEnabled) {
    ASSERT_GE(events->size(), 1u);
    for (const obs::Json& e : events->array_items()) {
      EXPECT_EQ(e.Get("ph")->as_string(), "X");
      EXPECT_GE(e.Get("ts")->as_double(), 0.0);
    }
  } else {
    EXPECT_EQ(events->size(), 0u);
  }
}

TEST_F(TracingFixture, ConcurrentClientsGetUniqueMonotonicTraceIds) {
  if (!obs::kObsEnabled) {
    GTEST_SKIP() << "request tracing is compiled out";
  }
  StartServer();
  constexpr int kClients = 16;
  constexpr int kStatements = 3;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([this, &failures] {
      Result<Client> client = Connect();
      if (!client.ok()) {
        failures.fetch_add(1);
        return;
      }
      for (int s = 0; s < kStatements; ++s) {
        if (!client->Execute("commit;").ok()) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  ASSERT_EQ(failures.load(), 0);

  const std::vector<obs::RequestRecord> records =
      WaitForRecords("commit;", kClients * kStatements);
  ASSERT_EQ(records.size(), size_t{kClients * kStatements});

  std::set<uint64_t> trace_ids;
  std::map<uint64_t, std::vector<const obs::RequestRecord*>> by_conn;
  for (const obs::RequestRecord& r : records) {
    trace_ids.insert(r.context.trace_id);
    by_conn[r.context.connection_id].push_back(&r);
  }
  EXPECT_EQ(trace_ids.size(), records.size())
      << "trace ids must be unique across connections";
  ASSERT_EQ(by_conn.size(), size_t{kClients});
  for (auto& [conn_id, conn_records] : by_conn) {
    std::sort(conn_records.begin(), conn_records.end(),
              [](const obs::RequestRecord* a, const obs::RequestRecord* b) {
                return a->context.statement_ordinal <
                       b->context.statement_ordinal;
              });
    for (size_t s = 0; s < conn_records.size(); ++s) {
      // Ordinals are 1-based, gapless and per-connection; trace ids rise
      // with them (each is minted when its QUERY frame is parsed, and a
      // blocking client pipelines nothing).
      EXPECT_EQ(conn_records[s]->context.statement_ordinal, s + 1);
      if (s > 0) {
        EXPECT_GT(conn_records[s]->context.trace_id,
                  conn_records[s - 1]->context.trace_id);
      }
    }
  }
}

TEST_F(TracingFixture, SlowStatementCapturesSpanTreeAndProfile) {
  if (!obs::kObsEnabled) {
    GTEST_SKIP() << "request tracing is compiled out";
  }
  StartServerWithAdmin();
  // Everything is "slow" at a 1ns threshold; no sleeping required.
  obs::SetSlowThresholdNs(1);

  Result<Client> client = Connect();
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client
                  ->Execute(
                      "create type item;"
                      "create function quantity(item) -> integer;"
                      "create rule watch_low() as"
                      "  when for each item i where quantity(i) < 10"
                      "  do set quantity(i) = 10;"
                      "create item instances :a;"
                      "set quantity(:a) = 42;"
                      "commit;"
                      "activate watch_low();")
                  .ok());
  Result<Client::Response> r = client->Execute(
      "set quantity(:a) = 5;"
      "commit;");
  ASSERT_TRUE(r.ok()) << r.status();

  const std::vector<obs::SlowRecord> slow =
      obs::GlobalSlowLog().Snapshot().items;
  ASSERT_GE(slow.size(), 1u);
  const obs::SlowRecord& last = slow.back();
  EXPECT_GT(last.context.trace_id, 0u);
  EXPECT_GT(last.elapsed_ns, 0u);
  // The captured span tree is rooted at the statement span; the commit
  // ran a deferred check phase underneath it.
  EXPECT_NE(last.span_tree.find("amosql.statement"), std::string::npos)
      << last.span_tree;
  EXPECT_NE(last.span_tree.find("rules.check_phase"), std::string::npos)
      << last.span_tree;
  EXPECT_FALSE(last.profile_text.empty());

  // The HTTP view parses and carries the same evidence.
  const std::string response = AdminGet(server_->admin_port(), "/debug/slow");
  EXPECT_NE(response.find("200 OK"), std::string::npos);
  auto doc = obs::Json::Parse(HttpBody(response));
  ASSERT_TRUE(doc.ok()) << doc.status();
  ASSERT_GE(doc->Get("slow")->size(), 1u);
  const obs::Json& entry = doc->Get("slow")->at(doc->Get("slow")->size() - 1);
  EXPECT_NE(entry.Get("span_tree")->as_string().find("amosql.statement"),
            std::string::npos);
  ASSERT_NE(entry.Get("chrome_trace"), nullptr);
  EXPECT_NE(entry.Get("chrome_trace")->Get("traceEvents"), nullptr);

  // `show slow;` renders the same log as a report, from any session.
  Result<Client::Response> show = client->Execute("show slow;");
  ASSERT_TRUE(show.ok()) << show.status();
  EXPECT_NE(show->report.find("SLOW STATEMENTS"), std::string::npos)
      << show->report;
  EXPECT_NE(show->report.find("rules.check_phase"), std::string::npos)
      << show->report;
}

/// Occurrences of `needle` in `text`.
size_t CountOf(const std::string& text, const std::string& needle) {
  size_t n = 0;
  for (size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + needle.size())) {
    ++n;
  }
  return n;
}

TEST_F(TracingFixture, ConcurrentSlowCapturesKeepTheirOwnSpans) {
  if (!obs::kObsEnabled) {
    GTEST_SKIP() << "request tracing is compiled out";
  }
  ServerOptions options;
  options.enable_admin = false;
  options.num_workers = 2;
  StartServer(options);
  {
    Result<Client> setup = Connect();
    ASSERT_TRUE(setup.ok());
    ASSERT_TRUE(setup
                    ->Execute("create function quantity(integer) -> integer;"
                              "create rule watch_low() as"
                              "  when for each integer i where quantity(i) < 10"
                              "  do set quantity(i) = 10;"
                              "activate watch_low();")
                    .ok());
  }
  // Everything is "slow" at a 1ns threshold.
  obs::SetSlowThresholdNs(1);

  // Two connections commit at once. Each statement's spans go to its own
  // private ring, and each captured commit runs alone in its wave. The
  // commit queue is held until both commits wait in it, so one leader runs
  // both waves; in about half the rounds it runs the other connection's
  // wave first, which must still land in that connection's ring.
  constexpr int kRounds = 12;  // 24 records fit the 32-entry log
  Result<Client> first = Connect();
  Result<Client> second = Connect();
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  auto commit = [](Client& c, int key, int value) {
    Result<Client::Response> r =
        c.Execute("set quantity(" + std::to_string(key) + ") = " +
                  std::to_string(value) + "; commit;");
    EXPECT_TRUE(r.ok()) << r.status();
  };
  for (int round = 0; round < kRounds; ++round) {
    const int value = round % 2 == 0 ? 5 : 50;
    engine_.txn.SetCommitPaused(true);
    std::thread a(commit, std::ref(*first), 100 + round, value);
    std::thread b(commit, std::ref(*second), 200 + round, value);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (engine_.txn.queued_commits() < 2 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const size_t queued = engine_.txn.queued_commits();
    engine_.txn.SetCommitPaused(false);
    a.join();
    b.join();
    ASSERT_EQ(queued, 2u) << "both commits must wait in the queue";
  }

  std::set<uint64_t> connections;
  size_t commits = 0;
  for (const obs::SlowRecord& slow : obs::GlobalSlowLog().Snapshot().items) {
    if (slow.statement.find("commit;") == std::string::npos) continue;
    ++commits;
    connections.insert(slow.context.connection_id);
    const std::string& tree = slow.span_tree;
    EXPECT_EQ(CountOf(tree, "amosql.statement "), 1u) << tree;
    EXPECT_EQ(CountOf(tree, "rules.check_phase "), 1u) << tree;
    EXPECT_NE(tree.find("connection=" +
                        std::to_string(slow.context.connection_id) + ","),
              std::string::npos)
        << tree;
    // Every span in the ring carries this statement's trace id.
    EXPECT_EQ(CountOf(tree, "trace_id="),
              CountOf(tree, "trace_id=" +
                                std::to_string(slow.context.trace_id)))
        << tree;
  }
  EXPECT_EQ(commits, 2u * kRounds);
  EXPECT_EQ(connections.size(), 2u);
}

TEST_F(TracingFixture, DebugNetworkServesDotForActiveRules) {
  StartServerWithAdmin();
  // With no active rules the network is empty: a clean 404, not a crash.
  std::string response = AdminGet(server_->admin_port(), "/debug/network");
  EXPECT_NE(response.find("404 Not Found"), std::string::npos) << response;

  Result<Client> client = Connect();
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client
                  ->Execute(
                      "create type item;"
                      "create function quantity(item) -> integer;"
                      "create rule watch_low() as"
                      "  when for each item i where quantity(i) < 10"
                      "  do set quantity(i) = 10;"
                      "activate watch_low();")
                  .ok());

  response = AdminGet(server_->admin_port(), "/debug/network");
  EXPECT_NE(response.find("200 OK"), std::string::npos) << response;
  EXPECT_NE(response.find("digraph propagation"), std::string::npos);
  EXPECT_NE(response.find("cnd_watch_low"), std::string::npos);

  response =
      AdminGet(server_->admin_port(), "/debug/network?rule=watch_low");
  EXPECT_NE(response.find("200 OK"), std::string::npos) << response;
  EXPECT_NE(response.find("digraph propagation"), std::string::npos);

  response =
      AdminGet(server_->admin_port(), "/debug/network?rule=no_such_rule");
  EXPECT_NE(response.find("404 Not Found"), std::string::npos) << response;
}

// TSan probe: worker threads completing requests write into the global
// recorder and slow log while the admin thread renders /debug documents
// from them. No server needed — this drives the exact shared state.
TEST_F(TracingFixture, ConcurrentRecorderWritesAndAdminReadsAreClean) {
  obs::SetSlowThresholdNs(1);
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < 4; ++w) {
    writers.emplace_back([&stop, w] {
      uint64_t ordinal = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        obs::RequestRecord r;
        r.context.trace_id = obs::NextTraceId();
        r.context.connection_id = static_cast<uint64_t>(w) + 1;
        r.context.statement_ordinal = ++ordinal;
        r.statement = "commit;";
        r.enqueue_ns = obs::MonotonicNowNs();
        r.dequeue_ns = r.enqueue_ns + 10;
        r.exec_end_ns = r.dequeue_ns + 10;
        r.reply_queued_ns = r.exec_end_ns + 1;
        r.reply_flushed_ns = r.reply_queued_ns + 5;
        r.reply_flushed = true;
        obs::GlobalRequestRecorder().Record(std::move(r));
        obs::SlowRecord slow;
        slow.context.trace_id = ordinal;
        slow.statement = "commit;";
        slow.elapsed_ns = 10;
        obs::GlobalSlowLog().Record(std::move(slow));
      }
    });
  }
  std::thread reader([&stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      const std::string requests =
          HandleAdminRequest("GET /debug/requests HTTP/1.1\r\n\r\n");
      EXPECT_NE(requests.find("HTTP/1.1 200"), std::string::npos);
      const std::string slow =
          HandleAdminRequest("GET /debug/slow HTTP/1.1\r\n\r\n");
      EXPECT_NE(slow.find("HTTP/1.1 200"), std::string::npos);
      HandleAdminRequest("GET /debug/requests/trace HTTP/1.1\r\n\r\n");
      obs::GlobalRequestRecorder().Snapshot();
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  stop.store(true);
  for (std::thread& t : writers) t.join();
  reader.join();
  // The recorder stayed bounded no matter how fast the writers ran.
  EXPECT_LE(obs::GlobalRequestRecorder().Snapshot().items.size(),
            obs::GlobalRequestRecorder().capacity());
  obs::GlobalRequestRecorder().Clear();
}

/// Value of the response header `name` as an integer; -1 when absent.
int64_t HeaderValue(const std::string& response, const std::string& name) {
  const size_t pos = response.find("\r\n" + name + ": ");
  if (pos == std::string::npos) return -1;
  return std::stoll(response.substr(pos + name.size() + 4));
}

// The X-Deltamon-Flight-* headers and the /debug/requests body come from
// one snapshot: while writers race the admin reader, every response's
// headers equal its body's tallies, and the body holds total - dropped
// records, never more than capacity.
TEST_F(TracingFixture, DebugRequestsHeadersMatchTheBody) {
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < 3; ++w) {
    writers.emplace_back([&stop] {
      while (!stop.load(std::memory_order_relaxed)) {
        obs::RequestRecord r;
        r.context.trace_id = obs::NextTraceId();
        r.statement = "commit;";
        obs::GlobalRequestRecorder().Record(std::move(r));
      }
    });
  }
  int responses = 0;
  for (; responses < 200; ++responses) {
    const std::string response =
        HandleAdminRequest("GET /debug/requests HTTP/1.1\r\n\r\n");
    auto doc = obs::Json::Parse(HttpBody(response));
    ASSERT_TRUE(doc.ok()) << doc.status();
    const int64_t capacity = doc->Get("capacity")->as_int();
    const int64_t total = doc->Get("total_records")->as_int();
    const int64_t dropped = doc->Get("dropped_records")->as_int();
    const int64_t items = static_cast<int64_t>(doc->Get("requests")->size());
    ASSERT_EQ(HeaderValue(response, "X-Deltamon-Flight-Capacity"), capacity);
    ASSERT_EQ(HeaderValue(response, "X-Deltamon-Flight-Total"), total);
    ASSERT_EQ(HeaderValue(response, "X-Deltamon-Flight-Dropped"), dropped);
    ASSERT_EQ(items, total - dropped);
    ASSERT_LE(items, capacity);
  }
  stop.store(true);
  for (std::thread& t : writers) t.join();
  EXPECT_EQ(responses, 200);
  obs::GlobalRequestRecorder().Clear();
}

}  // namespace
}  // namespace deltamon::net
