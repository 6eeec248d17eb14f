// perfbench: runs one workload of the deltamon benchmark and prints its
// operation tallies, its per-layer ledger (traced runs) and, as the last
// line, the JSON result. perfbench/run.py builds and invokes it.
//
//   perfbench --workload bulk_wave --seed 1 --seconds 10 --trace 0
//             [--deltamond path/to/deltamond]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--deltamond") {
      options.deltamond = value;
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (argc % 2 == 0 || options.seconds <= 0) {
    std::fprintf(stderr, "perfbench: bad arguments\n");
    return 2;
  }

  perfbench::RunResult result;
  if (options.workload == "oltp_commits") {
    if (options.deltamond.empty()) {
      std::fprintf(stderr, "perfbench: oltp_commits needs --deltamond\n");
      return 2;
    }
    result = perfbench::RunOltpCommits(options);
  } else if (options.workload == "bulk_wave") {
    result = perfbench::RunBulkWave(options);
  } else if (options.workload == "recursive_reroute") {
    result = perfbench::RunRecursiveReroute(options);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 options.workload.c_str());
    return 2;
  }
  perfbench::PrintResult(options, result);
  return 0;
}
