// memx_perfbench, the memx benchmark program. One process per run:
//
//   memx_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--ops <n>] [--record] [--expected <dir>]
//                  [--work <dir>] [--out <dir>]
//
// Set-up generates the workload's inputs from the seed into the work
// directory (timed, repeated, median reported as setup_s); the
// measured loop reads only those inputs. Every operation's output is
// checked against the ledger recorded under --expected; the last
// stdout line is the JSON result. See perfbench/README.md.
#include <exception>
#include <iostream>

#include "common.hpp"

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  try {
    args = parseArgs(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "memx_perfbench: " << e.what() << '\n';
    return 2;
  }
  Result result;
  int status = 0;
  try {
    if (args.workload == "paper_mpeg") {
      status = runPaperMpeg(args, result);
    } else if (args.workload == "policy_sweep") {
      status = runPolicySweep(args, result);
    } else if (args.workload == "trace_stream") {
      status = runTraceStream(args, result);
    } else if (args.workload == "serve_mix") {
      status = runServeMix(args, result);
    } else {
      std::cerr << "memx_perfbench: unknown workload " << args.workload << '\n';
      return 2;
    }
  } catch (const std::exception& e) {
    std::cerr << "memx_perfbench: " << e.what() << '\n';
    return 1;
  }
  if (status != 0) return status;
  result.print();
  return 0;
}
