// Shared helpers for the gated performance harnesses (sweep_speed,
// search_speed, trace_ingest, serve_speed).
#pragma once

#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>

#include "memx/core/explorer.hpp"
#include "memx/core/selection.hpp"
#include "memx/kernels/benchmarks.hpp"
#include "memx/obs/recorder.hpp"
#include "memx/report/table.hpp"

namespace memx::bench {

/// Explorer options matching the paper's main experimental setup
/// (Em = 4.95 nJ Cypress part, Section-4.1 layout applied).
inline ExploreOptions paperOptions() {
  ExploreOptions o;
  o.ranges.minCacheBytes = 16;
  o.ranges.maxCacheBytes = 1024;
  o.ranges.minLineBytes = 4;
  o.ranges.maxLineBytes = 64;
  o.ranges.maxAssociativity = 8;
  o.ranges.maxTiling = 16;
  o.energy.emNj = 4.95;
  o.optimizeLayout = true;
  return o;
}

/// Print a titled section.
inline void section(const std::string& title) {
  std::cout << "\n=== " << title << " ===\n";
}

/// Emit one instrumented run's RunReport: print the human-readable
/// summary, append the report object under a "report" key into the
/// BENCH_*.json stream (callers write the surrounding object), and dump
/// the chrome://tracing timeline next to it.
inline void emitRunReport(const memx::obs::RunReport& report,
                          std::ostream& benchJson,
                          const std::string& tracePath) {
  std::cout << '\n' << report.summary();
  benchJson << ", \"report\": ";
  report.writeJson(benchJson);
  std::ofstream trace(tracePath);
  report.writeChromeTrace(trace);
  std::cout << "trace-event timeline written to " << tracePath
            << " (load via chrome://tracing or ui.perfetto.dev)\n";
}

}  // namespace memx::bench
