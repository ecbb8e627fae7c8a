// perfbench: wall-clock benchmark of the serving stack.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --scratch <dir>
//
// Prints human-readable notes, then one JSON object as the last line of
// stdout: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end set, with --trace 1 the per-layer set
// (README.md). Exit code 0 only when every check passed.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

namespace crowdtopk::perfbench {
namespace {

bool ParseArgs(int argc, char** argv, RunOptions* options) {
  bool have_workload = false, have_seconds = false, have_scratch = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      options->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options->seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return false;
    } else if (flag == "--seconds") {
      options->seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || options->seconds <= 0) {
        return false;
      }
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      options->trace = value == "1";
    } else if (flag == "--scratch") {
      options->scratch = value;
      have_scratch = true;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload && have_seconds && have_scratch;
}

}  // namespace
}  // namespace crowdtopk::perfbench

int main(int argc, char** argv) {
  using namespace crowdtopk::perfbench;
  RunOptions options;
  options.seed = 20170514;
  if (!ParseArgs(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> --scratch <dir>\n");
    return 2;
  }
  Report report;
  if (options.workload == "replay_cold" ||
      options.workload == "replay_shared_durable") {
    RunReplayWorkload(options, &report);
  } else if (options.workload == "net_router_small") {
    RunNetWorkload(options, &report);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 options.workload.c_str());
    return 2;
  }
  report.Print();
  return report.correct() ? 0 : 1;
}
