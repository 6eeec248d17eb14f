#include "rules/wave_replay.h"

#include <algorithm>
#include <utility>

#include "obs/metrics.h"

namespace deltamon::rules {

std::string WaveReplayReport::ToString() const {
  std::string out = "REPLAY " + std::to_string(waves_checked) + " waves, " +
                    std::to_string(commits) + " commits: ";
  if (ok()) {
    out += "identical\n";
    return out;
  }
  out += std::to_string(mismatches.size()) + " mismatches\n";
  for (const std::string& m : mismatches) out += m;
  return out;
}

Result<WaveReplayReport> ReplayWaves(
    Database& db, RuleManager& rules,
    const std::vector<obs::WaveRecord>& recorded) {
  WaveReplayReport report;
  if (recorded.empty()) return report;
  if (!DELTAMON_OBS_ENABLED) {
    return Status::FailedPrecondition(
        "replay: observability disabled (built with DELTAMON_OBS=OFF)");
  }
  if (recorded.front().round != 1) {
    return Status::FailedPrecondition(
        "replay: wave file starts mid-check-phase (round " +
        std::to_string(recorded.front().round) +
        "); the capture ring overflowed — re-record with a larger ring");
  }

  obs::GlobalWaveRecorder().Clear();
  rules.SetWaveCaptureEnabled(true);

  for (size_t i = 0; i < recorded.size(); ++i) {
    if (recorded[i].round != 1) continue;
    for (const obs::WaveRelationDelta& delta : recorded[i].influents) {
      DELTAMON_ASSIGN_OR_RETURN(RelationId rel,
                                db.catalog().FindRelation(delta.relation));
      for (const Tuple& t : delta.plus) {
        DELTAMON_RETURN_IF_ERROR(db.Insert(rel, t));
      }
      for (const Tuple& t : delta.minus) {
        DELTAMON_RETURN_IF_ERROR(db.Delete(rel, t));
      }
    }
    DELTAMON_RETURN_IF_ERROR(db.Commit());
    ++report.commits;
  }

  rules.SetWaveCaptureEnabled(false);
  const std::vector<obs::WaveRecord> replayed =
      obs::GlobalWaveRecorder().Snapshot().items;

  if (replayed.size() != recorded.size()) {
    report.mismatches.push_back(
        "  wave count diverged: recorded " +
        std::to_string(recorded.size()) + ", replay produced " +
        std::to_string(replayed.size()) + "\n");
  }
  const size_t n = std::min(recorded.size(), replayed.size());
  for (size_t i = 0; i < n; ++i) {
    const std::string want = recorded[i].OutcomeJson().Dump();
    const std::string got = replayed[i].OutcomeJson().Dump();
    ++report.waves_checked;
    if (want == got) continue;
    report.mismatches.push_back("  wave " + std::to_string(i) +
                                " diverged\n  recorded:\n" + want +
                                "  replayed:\n" + got);
  }
  return report;
}

}  // namespace deltamon::rules
