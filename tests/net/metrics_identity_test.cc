// Satellite of the deltamond PR: `show metrics prometheus;` (AMOSQL) and
// the admin HTTP /metrics endpoint must be byte-identical views — both
// are thin wrappers over the same obs::FormatPrometheus(Snapshot()) call,
// and this suite pins that contract. Also probes that taking a registry
// snapshot from a non-engine thread is safe while counters are hot
// (run under TSan via the "net" ctest label).

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "amosql/session.h"
#include "net/http.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "rules/engine.h"

namespace deltamon::net {
namespace {

/// process_uptime_seconds is the one time-varying line in the Prometheus
/// document; byte-identity comparisons between two renders taken at
/// different instants must strip it (and assert it was there).
std::string StripUptime(const std::string& body) {
  const std::string key = "\nprocess_uptime_seconds ";
  const size_t pos = body.find(key);
  EXPECT_NE(pos, std::string::npos) << body;
  if (pos == std::string::npos) return body;
  size_t eol = body.find('\n', pos + 1);
  if (eol == std::string::npos) eol = body.size();
  return body.substr(0, pos) + body.substr(eol);
}

TEST(MetricsIdentity, SessionAndHttpRenderIdenticalBytes) {
  // Seed the global registry with every metric kind so the comparison is
  // over a non-trivial document. These are operational series, recorded
  // in every build, so the seeding uses the always-compiled macros.
  obs::Registry::Global().Reset();
  DELTAMON_METRIC_COUNT("net.connections_accepted", 3);
  DELTAMON_METRIC_COUNT("net.bytes_in", 1234);
  DELTAMON_METRIC_GAUGE_SET("net.connections_active", 2);
  DELTAMON_METRIC_RECORD("net.statement_latency_ns", 1000);
  DELTAMON_METRIC_RECORD("net.statement_latency_ns", 2000000);

  Engine engine;
  amosql::Session session(engine);
  Result<amosql::QueryResult> shown =
      session.Execute("show metrics prometheus;");
  ASSERT_TRUE(shown.ok()) << shown.status().ToString();
  EXPECT_TRUE(shown->rows.empty());

  // No metric is touched between the two renderings, so the snapshots —
  // and therefore the bytes, minus the uptime stamp — must match exactly.
  const std::string via_http = MetricsBody();
  EXPECT_EQ(StripUptime(shown->report), StripUptime(via_http));
  EXPECT_NE(via_http.find("net_connections_accepted 3"), std::string::npos)
      << via_http;
  EXPECT_NE(via_http.find("deltamon_build_info{version=\""),
            std::string::npos)
      << via_http;
  EXPECT_NE(via_http.find("net_connections_active 2"), std::string::npos);
  EXPECT_NE(via_http.find("net_statement_latency_ns_bucket"),
            std::string::npos);
}

TEST(MetricsIdentity, HttpHandlerServesTheSharedBody) {
  obs::Registry::Global().Reset();
  DELTAMON_METRIC_COUNT("net.frames_in", 7);
  const std::string response =
      HandleAdminRequest("GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
  // The response body after the blank line is exactly MetricsBody().
  const size_t split = response.find("\r\n\r\n");
  ASSERT_NE(split, std::string::npos);
  EXPECT_EQ(StripUptime(response.substr(split + 4)),
            StripUptime(MetricsBody()));
  EXPECT_NE(response.find("text/plain; version=0.0.4"), std::string::npos);
}

TEST(MetricsIdentity, HealthzAndErrors) {
  EXPECT_NE(HandleAdminRequest("GET /healthz HTTP/1.1\r\n\r\n").find("200"),
            std::string::npos);
  EXPECT_NE(HandleAdminRequest("GET /metrics?x=1 HTTP/1.1\r\n\r\n")
                .find("200"),
            std::string::npos);
  EXPECT_NE(HandleAdminRequest("PUT /metrics HTTP/1.1\r\n\r\n").find("405"),
            std::string::npos);
  EXPECT_NE(HandleAdminRequest("GET /other HTTP/1.1\r\n\r\n").find("404"),
            std::string::npos);
  EXPECT_NE(HandleAdminRequest("garbage").find("400"), std::string::npos);
}

TEST(MetricsIdentity, SnapshotIsSafeFromNonEngineThreads) {
  // The admin HTTP thread snapshots the registry while engine threads
  // bump counters. Hammer both sides; TSan certifies the absence of
  // races, and the final snapshot must account for every increment.
  obs::Registry::Global().Reset();
  constexpr int kWriters = 4;
  constexpr int kIncrementsPerWriter = 5000;
  std::atomic<bool> done{false};

  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      const std::string body = MetricsBody();
      EXPECT_NE(body.find('\n'), std::string::npos);
    }
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([] {
      for (int i = 0; i < kIncrementsPerWriter; ++i) {
        DELTAMON_METRIC_COUNT("net.race_probe", 1);
        DELTAMON_METRIC_RECORD("net.race_probe_ns", i);
      }
    });
  }
  for (std::thread& t : writers) t.join();
  done.store(true, std::memory_order_release);
  reader.join();

  const std::string final_body = MetricsBody();
  EXPECT_NE(final_body.find("net_race_probe " +
                            std::to_string(kWriters * kIncrementsPerWriter)),
            std::string::npos)
      << final_body;
}

}  // namespace
}  // namespace deltamon::net
