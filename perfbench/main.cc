// perfbench: the repository's benchmark program.
//
//   perfbench --workload W --seed N --seconds S --trace 0|1 [--trace-dir D]
//
// perfbench/run.py builds the binary and runs it. Workloads and metrics are described
// in perfbench/README.md; BENCHMARK.json at the repository root lists them.
#include <cstdio>
#include <filesystem>

#include "perfbench/common.h"

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  std::string error;
  if (!ParseArgs(argc, argv, &args, &error)) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return 2;
  }
  const bool cnn = args.workload == "cnn_f32_b1" || args.workload == "cnn_u8_b1";
  if (!cnn && args.workload != "serve_wire") {
    std::fprintf(stderr, "perfbench: unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  if (args.trace) {
    std::error_code ec;
    std::filesystem::create_directories(args.trace_dir, ec);
  }
  const Outcome outcome = cnn ? RunCnn(args) : RunServe(args);
  if (!outcome.valid) {
    std::fprintf(stderr, "perfbench: run invalid, nothing reported: %s\n",
                 outcome.invalid_reason.c_str());
    return 3;
  }
  if (!PrintOutcome(args, outcome)) {
    return 4;
  }
  // Any output that disagrees with the reference fails the command.
  return outcome.wrong == 0 ? 0 : 1;
}
