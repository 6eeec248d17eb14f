#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "amosql/session.h"
#include "obs/flight_recorder.h"
#include "obs/provenance.h"
#include "obs/report.h"
#include "obs/wave_recorder.h"

namespace deltamon::amosql {
namespace {

/// The observability statement family: `set slow_ms`, `set provenance`,
/// `set wave_capture`, `show provenance`, `explain firing`, `dump waves`.
/// The grammar and `set slow_ms` work in every build; the provenance and
/// wave statements refuse cleanly when compiled with DELTAMON_OBS=OFF.
class ObsStatementTest : public ::testing::Test {
 protected:
  ObsStatementTest() {
    obs::GlobalProvenanceLog().Clear();
    obs::GlobalWaveRecorder().Clear();
    session_.RegisterProcedure(
        "note", [this](Database&, const std::vector<Value>& args) {
          fired_.push_back(args[0].AsInt());
          return Status::OK();
        });
    auto r = session_.Execute(
        "create function stock(integer) -> integer;"
        "create rule low_stock() as"
        "  when for each integer k where stock(k) < 3"
        "  do note(k);"
        "activate low_stock();"
        "set stock(1) = 10; set stock(2) = 10; commit;");
    EXPECT_TRUE(r.ok()) << r.status().ToString();
  }

  ~ObsStatementTest() override {
    obs::SetProvenanceEnabled(false);
    obs::GlobalProvenanceLog().Clear();
    obs::SetWaveCaptureEnabled(false);
    obs::GlobalWaveRecorder().Clear();
  }

  Result<QueryResult> Exec(const std::string& src) {
    return session_.Execute(src);
  }

  Engine engine_;
  Session session_{engine_};
  std::vector<int64_t> fired_;
};

TEST_F(ObsStatementTest, ParserRejectsMalformedStatements) {
  EXPECT_FALSE(Exec("dump waves;").ok());
  EXPECT_FALSE(Exec("explain firing low_stock 0;").ok());
  EXPECT_FALSE(Exec("set slow_ms;").ok());
  EXPECT_FALSE(Exec("set provenance maybe;").ok());
}

TEST_F(ObsStatementTest, SlowMsWorksInEveryBuild) {
  const uint64_t before = obs::SlowThresholdNs();
  auto r = Exec("set slow_ms 250;");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_NE(r->report.find("SLOW_MS 250"), std::string::npos);
  EXPECT_EQ(obs::SlowThresholdNs(), 250u * 1000000u);

  r = Exec("show settings;");
  ASSERT_TRUE(r.ok());
  EXPECT_NE(r->report.find("slow_ms 250"), std::string::npos);
  obs::SetSlowThresholdNs(before);
}

#if DELTAMON_OBS_ENABLED

TEST_F(ObsStatementTest, ExplainFiringWalksLineageToBaseRows) {
  ASSERT_TRUE(Exec("set provenance on;").ok());
  ASSERT_TRUE(Exec("set stock(1) = 2; commit;").ok());
  ASSERT_EQ(fired_.size(), 1u);

  auto r = Exec("explain firing low_stock;");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_NE(r->report.find("EXPLAIN FIRING low_stock"), std::string::npos);
  EXPECT_NE(r->report.find("instance"), std::string::npos);
  // The tree bottoms out at the stock(1)=2 base Δ-row.
  EXPECT_NE(r->report.find("stock"), std::string::npos);
  EXPECT_NE(r->report.find("(base)"), std::string::npos);

  r = Exec("show provenance;");
  ASSERT_TRUE(r.ok());
  EXPECT_NE(r->report.find("low_stock"), std::string::npos);
}

TEST_F(ObsStatementTest, ExplainFiringWritesJsonArtifact) {
  ASSERT_TRUE(Exec("set provenance on;").ok());
  ASSERT_TRUE(Exec("set stock(2) = 1; commit;").ok());
  const std::string path =
      ::testing::TempDir() + "/deltamon_explain_firing_test.json";
  auto r = Exec("explain firing \"" + path + "\" low_stock;");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_NE(r->report.find("FIRING JSON " + path), std::string::npos);
  auto text = obs::ReadTextFile(path);
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  auto doc = obs::Json::Parse(*text);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->Get("rule")->as_string(), "low_stock");
}

TEST_F(ObsStatementTest, ExplainFiringErrorsAreSpecific) {
  // Typo'd rule: an unknown-rule error, not "no recorded firing".
  EXPECT_FALSE(Exec("explain firing no_such_rule;").ok());
  // Known rule but provenance never enabled: the error says how to fix it.
  auto r = Exec("explain firing low_stock;");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("provenance is off"),
            std::string::npos);
}

TEST_F(ObsStatementTest, DumpWavesRoundTripsThroughTheParser) {
  ASSERT_TRUE(Exec("set wave_capture on;").ok());
  ASSERT_TRUE(Exec("set stock(1) = 7; commit;").ok());
  const std::string path = ::testing::TempDir() + "/deltamon_waves_test.json";
  auto r = Exec("dump waves \"" + path + "\";");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_NE(r->report.find("WAVES " + path), std::string::npos);
  auto text = obs::ReadTextFile(path);
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  auto waves = obs::ParseWaveFile(*text);
  ASSERT_TRUE(waves.ok()) << waves.status().ToString();
  ASSERT_FALSE(waves->empty());
  EXPECT_EQ(waves->front().influents.front().relation, "stock");
}

TEST_F(ObsStatementTest, SettingsReportCarriesTheObsToggles) {
  ASSERT_TRUE(Exec("set provenance on;").ok());
  ASSERT_TRUE(Exec("set wave_capture on;").ok());
  auto r = Exec("show settings;");
  ASSERT_TRUE(r.ok());
  EXPECT_NE(r->report.find("provenance on"), std::string::npos);
  EXPECT_NE(r->report.find("wave_capture on"), std::string::npos);
  ASSERT_TRUE(Exec("set provenance off;").ok());
  ASSERT_TRUE(Exec("set wave_capture off;").ok());
  r = Exec("show settings;");
  ASSERT_TRUE(r.ok());
  EXPECT_NE(r->report.find("provenance off"), std::string::npos);
  EXPECT_NE(r->report.find("wave_capture off"), std::string::npos);
}

#else  // !DELTAMON_OBS_ENABLED

TEST_F(ObsStatementTest, ProvenanceStatementsRefuseClearly) {
  for (const char* src :
       {"set provenance on;", "set wave_capture on;", "show provenance;",
        "explain firing low_stock;", "dump waves \"/tmp/x.json\";"}) {
    auto r = Exec(src);
    ASSERT_FALSE(r.ok()) << src;
    EXPECT_NE(r.status().ToString().find("observability disabled"),
              std::string::npos)
        << src;
  }
  // The settings report still renders the (permanently off) toggles.
  auto r = Exec("show settings;");
  ASSERT_TRUE(r.ok());
  EXPECT_NE(r->report.find("provenance off"), std::string::npos);
}

#endif  // DELTAMON_OBS_ENABLED

}  // namespace
}  // namespace deltamon::amosql
