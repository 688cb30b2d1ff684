// Sweep-engine speed check: the full Compress sweep on the reference
// per-point path (Explorer::evaluate per sweep key, regenerating the
// trace every time) versus the shared-trace one-pass engine (explore()
// and exploreParallel(), analytic for this LRU sweep), plus an
// instrumented parallel run with an obs::Recorder attached to measure
// the observability layer's overhead (budget: < 5%), plus engine
// comparisons: explore() against the same plan simulated in
// MultiCacheSim banks (planSweep -> buildGroupTrace -> configFor ->
// bank -> makePoint; budget: analytic >= 2x points/sec), once on the
// paper's read-only energy metric, once with write-back + write energy
// on (exact writebacks via dirty-stack accounting), and on FIFO and
// tree-PLRU sweeps (served by the single-pass policy-grid engine).
// Every plan must put these sweeps on the analytic engine. Asserts
// every path produces bit-identical DesignPoint vectors, then writes
// BENCH_sweep_speed.json with points/sec of each path and engine, the
// speedups (including fifo_*/plru_* fields for the grid engine), the
// sink overhead, and the full RunReport, and BENCH_sweep_trace.json
// with the chrome://tracing worker timeline. Exits nonzero on any
// mismatch or blown budget.
//
// This is a plain main (no google-benchmark): the determinism check is
// the point, and each path is simply timed best-of-kReps (every rep does
// the same cold-trace work) to shrug off scheduler noise.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "memx/cachesim/multi_sim.hpp"
#include "memx/core/parallel_explorer.hpp"

namespace {

using memx::ConfigKey;
using memx::DesignPoint;
using memx::ExplorationResult;
using memx::Explorer;
using memx::Kernel;

double seconds(std::chrono::steady_clock::time_point t0,
               std::chrono::steady_clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

/// Bit-exact comparison: the shared-trace engine must not perturb a
/// single ULP relative to per-point evaluation.
bool identical(const std::vector<DesignPoint>& a,
               const std::vector<DesignPoint>& b, const char* label) {
  if (a.size() != b.size()) {
    std::cerr << "MISMATCH (" << label << "): " << a.size() << " vs "
              << b.size() << " points\n";
    return false;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    const DesignPoint& x = a[i];
    const DesignPoint& y = b[i];
    const bool same =
        x.key == y.key && x.accesses == y.accesses &&
        x.missRate == y.missRate && x.cycles == y.cycles &&
        x.energyNj == y.energyNj;
    if (!same) {
      std::cerr << "MISMATCH (" << label << ") at point " << i << " "
                << x.key.label() << '\n';
      return false;
    }
  }
  return true;
}

/// The simulating side of each engine comparison: the plan explore()
/// runs, with every group's configurations simulated in one
/// MultiCacheSim bank and folded through the same point model. The
/// group traces stay alive in `traces`, as explore() keeps them in its
/// trace cache, so the two sides differ only in the engine (reusing one
/// cache-hot trace buffer made this side ~10% faster).
std::vector<DesignPoint> simulatedSweep(const Explorer& g,
                                        const Kernel& kernel,
                                        std::vector<memx::Trace>& traces) {
  const memx::SweepPlan plan = g.planSweep(kernel, g.sweepKeys());
  std::vector<DesignPoint> out(plan.keys.size());
  Explorer::PatternCache patterns;
  for (const memx::SweepPlan::Group& group : plan.groups) {
    const memx::Trace& trace =
        traces.emplace_back(g.buildGroupTrace(kernel, group, patterns));
    const double addBs = g.addrActivityFor(trace);
    std::vector<memx::CacheConfig> configs;
    configs.reserve(group.keyIndices.size());
    for (const std::size_t idx : group.keyIndices) {
      configs.push_back(g.configFor(plan.keys[idx]));
    }
    memx::MultiCacheSim bank(configs);
    bank.run(trace);
    for (std::size_t j = 0; j < configs.size(); ++j) {
      const std::size_t idx = group.keyIndices[j];
      out[idx] = g.makePoint(configs[j], plan.keys[idx].tiling,
                             bank.stats(j), addBs);
    }
  }
  return out;
}

/// True iff every group of `g`'s plan runs on the analytic engine.
bool plannedAnalytic(const Explorer& g, const Kernel& kernel) {
  const memx::SweepPlan plan = g.planSweep(kernel, g.sweepKeys());
  for (const memx::SweepPlan::Group& group : plan.groups) {
    if (group.backend != memx::SweepBackend::StackDist) return false;
  }
  return !plan.groups.empty();
}

}  // namespace

int main() {
  const Kernel kernel = memx::compressKernel();
  const Explorer grid(memx::bench::paperOptions());
  const std::vector<ConfigKey> keys = grid.sweepKeys();

  memx::bench::section("Sweep-engine speed (" + kernel.name + ", " +
                       std::to_string(keys.size()) + " points)");

  // Pre-warm the layout memo (untimed): the Section-4.1 conflict-free
  // assignment is computed and memoized identically by every path and is
  // untouched by the sweep engine, so the timings below isolate what the
  // engine changed — trace generation and cache evaluation.
  (void)grid.planSweep(kernel, keys);

  // The engine paths finish in ~10 ms, so any single rep is at the mercy
  // of one scheduler blip; best-of-9 reliably lands each timing in a
  // quiet window (the whole bench still runs in ~2 s).
  constexpr int kReps = 9;

  // Reference path: one evaluate() per key, trace regenerated per point.
  double baseSec = 1e30;
  std::vector<DesignPoint> baseline;
  for (int rep = 0; rep < kReps; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<DesignPoint> pts;
    pts.reserve(keys.size());
    for (const ConfigKey& key : keys) {
      pts.push_back(grid.evaluate(kernel, grid.configFor(key), key.tiling));
    }
    baseSec = std::min(baseSec, seconds(t0, std::chrono::steady_clock::now()));
    baseline = std::move(pts);
  }

  // Shared-trace one-pass engine, serial and parallel. Each serial rep
  // runs on a pristine copy of `grid` (warm layouts, empty trace cache)
  // so every rep generates the group traces from scratch, like the
  // baseline regenerates its per-point traces. The serial timing itself
  // happens in the interleaved engine loop below so the engine speedups
  // pair measurements taken under the same machine conditions.
  double sharedSec = 1e30;
  std::vector<DesignPoint> sharedPts;

  double parSec = 1e30;
  std::vector<DesignPoint> parPts;
  for (int rep = 0; rep < kReps; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    ExplorationResult r = memx::exploreParallel(grid, kernel);
    parSec = std::min(parSec, seconds(t0, std::chrono::steady_clock::now()));
    parPts = std::move(r.points);
  }

  // Instrumented parallel run: recorder attached, fresh per rep so the
  // kept report describes exactly one run. The timing difference against
  // the uninstrumented parallel path is the observability overhead.
  double obsSec = 1e30;
  std::vector<DesignPoint> obsPts;
  memx::obs::RunReport report;
  for (int rep = 0; rep < kReps; ++rep) {
    memx::obs::Recorder recorder;
    Explorer observed = grid;
    observed.setRecorder(&recorder);
    const auto t0 = std::chrono::steady_clock::now();
    ExplorationResult r = memx::exploreParallel(observed, kernel);
    obsSec = std::min(obsSec, seconds(t0, std::chrono::steady_clock::now()));
    obsPts = std::move(r.points);
    report = recorder.report();
  }

  // Engine comparisons: explore() on each sweep against the same plan
  // simulated in MultiCacheSim banks, once on the paper's read-only
  // metric, once with write-back + write energy on (the sweep the
  // paper's write-energy experiments run), and under FIFO and tree-PLRU
  // replacement, where the analytic engine is the single-pass
  // PolicyGridProfile instead of the Hill-Smith profile. Every one of
  // these plans must put its groups on the analytic engine.
  memx::ExploreOptions wbOptions = memx::bench::paperOptions();
  wbOptions.includeWriteEnergy = true;  // writePolicy defaults to WriteBack
  const Explorer wbGrid(wbOptions);
  memx::ExploreOptions fifoOptions = memx::bench::paperOptions();
  fifoOptions.replacement = memx::ReplacementPolicy::FIFO;
  const Explorer fifoGrid(fifoOptions);
  memx::ExploreOptions plruOptions = memx::bench::paperOptions();
  plruOptions.replacement = memx::ReplacementPolicy::TreePLRU;
  const Explorer plruGrid(plruOptions);
  // planSweep also warms each layout memo (untimed).
  const bool allAnalytic =
      plannedAnalytic(grid, kernel) && plannedAnalytic(wbGrid, kernel) &&
      plannedAnalytic(fifoGrid, kernel) && plannedAnalytic(plruGrid, kernel);
  if (!allAnalytic) {
    std::cerr << "MISMATCH: planSweep did not put the LRU, write-back + "
                 "write-energy, FIFO and PLRU sweeps on the analytic "
                 "engine\n";
  }

  // The engine timings are interleaved inside one rep loop: each
  // speedup pairs two ~10 ms measurements taken back to back, so both
  // sides of a ratio see the same background-load conditions, and the
  // budgets check the median of the per-rep ratios — separate loops
  // (and ratios of independently-taken minima) made the speedups
  // seesaw on a busy machine even at best-of-9.
  auto timeExplore = [&](const Explorer& g, double& best,
                         std::vector<DesignPoint>& pts) {
    const Explorer fresh = g;  // warm layouts, empty trace cache
    const auto t0 = std::chrono::steady_clock::now();
    ExplorationResult r = fresh.explore(kernel);
    const double sec = seconds(t0, std::chrono::steady_clock::now());
    best = std::min(best, sec);
    pts = std::move(r.points);
    return sec;
  };
  auto timeSimulated = [&](const Explorer& g, double& best,
                           std::vector<DesignPoint>& pts) {
    const Explorer fresh = g;  // same starting state as timeExplore
    std::vector<memx::Trace> traces;  // freed untimed, like fresh's cache
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<DesignPoint> r = simulatedSweep(fresh, kernel, traces);
    const double sec = seconds(t0, std::chrono::steady_clock::now());
    best = std::min(best, sec);
    pts = std::move(r);
    return sec;
  };
  double simSec = 1e30, wbSimSec = 1e30, wbStackSec = 1e30;
  double fifoSimSec = 1e30, fifoStackSec = 1e30;
  double plruSimSec = 1e30, plruStackSec = 1e30;
  std::vector<DesignPoint> simPts, wbSimPts, wbStackPts;
  std::vector<DesignPoint> fifoSimPts, fifoStackPts, plruSimPts,
      plruStackPts;
  std::vector<double> stackRatios, wbRatios, fifoRatios, plruRatios;
  for (int rep = 0; rep < kReps; ++rep) {
    const double simT = timeSimulated(grid, simSec, simPts);
    const double sharedT = timeExplore(grid, sharedSec, sharedPts);
    const double wbSimT = timeSimulated(wbGrid, wbSimSec, wbSimPts);
    const double wbStackT = timeExplore(wbGrid, wbStackSec, wbStackPts);
    const double fifoSimT = timeSimulated(fifoGrid, fifoSimSec, fifoSimPts);
    const double fifoStackT =
        timeExplore(fifoGrid, fifoStackSec, fifoStackPts);
    const double plruSimT = timeSimulated(plruGrid, plruSimSec, plruSimPts);
    const double plruStackT =
        timeExplore(plruGrid, plruStackSec, plruStackPts);
    stackRatios.push_back(simT / sharedT);
    wbRatios.push_back(wbSimT / wbStackT);
    fifoRatios.push_back(fifoSimT / fifoStackT);
    plruRatios.push_back(plruSimT / plruStackT);
  }

  const bool ok = identical(baseline, sharedPts, "explore") &&
                  identical(baseline, parPts, "exploreParallel") &&
                  identical(baseline, obsPts, "exploreParallel+recorder") &&
                  identical(baseline, simPts, "multisim banks") &&
                  identical(wbSimPts, wbStackPts,
                            "writeback+write-energy stackdist") &&
                  identical(fifoSimPts, fifoStackPts, "fifo policy grid") &&
                  identical(plruSimPts, plruStackPts, "plru policy grid") &&
                  allAnalytic;
  const double n = static_cast<double>(keys.size());
  const double speedup = baseSec / sharedSec;
  auto medianOf = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  const double backendSpeedup = medianOf(stackRatios);
  const double wbBackendSpeedup = medianOf(wbRatios);
  const double fifoBackendSpeedup = medianOf(fifoRatios);
  const double plruBackendSpeedup = medianOf(plruRatios);
  const double overheadPct = 100.0 * (obsSec - parSec) / parSec;

  std::printf("per-point baseline : %8.3f s  (%9.1f points/s)\n", baseSec,
              n / baseSec);
  std::printf("shared-trace serial: %8.3f s  (%9.1f points/s)  %.2fx\n",
              sharedSec, n / sharedSec, speedup);
  std::printf("shared-trace para. : %8.3f s  (%9.1f points/s)  %.2fx\n",
              parSec, n / parSec, baseSec / parSec);
  std::printf("para. + report sink: %8.3f s  (%9.1f points/s)  %+.1f%% overhead\n",
              obsSec, n / obsSec, overheadPct);
  std::printf("multisim banks     : %8.3f s  (%9.1f points/s)\n", simSec,
              n / simSec);
  std::printf("stackdist (serial) : %8.3f s  (%9.1f points/s)  %.2fx vs multisim\n",
              sharedSec, n / sharedSec, backendSpeedup);
  std::printf("wb+energy multisim : %8.3f s  (%9.1f points/s)\n", wbSimSec,
              n / wbSimSec);
  std::printf("wb+energy stackdist: %8.3f s  (%9.1f points/s)  %.2fx vs multisim\n",
              wbStackSec, n / wbStackSec, wbBackendSpeedup);
  std::printf("fifo multisim      : %8.3f s  (%9.1f points/s)\n", fifoSimSec,
              n / fifoSimSec);
  std::printf("fifo policy grid   : %8.3f s  (%9.1f points/s)  %.2fx vs multisim\n",
              fifoStackSec, n / fifoStackSec, fifoBackendSpeedup);
  std::printf("plru multisim      : %8.3f s  (%9.1f points/s)\n", plruSimSec,
              n / plruSimSec);
  std::printf("plru policy grid   : %8.3f s  (%9.1f points/s)  %.2fx vs multisim\n",
              plruStackSec, n / plruStackSec, plruBackendSpeedup);
  std::printf("bit-identical      : %s\n", ok ? "yes" : "NO");

  // Budgets: the analytic engine must earn its keep over per-config
  // simulation on every sweep it serves, and the report sink must stay
  // in the noise (absolute guard for sub-100ms runs where one scheduler
  // blip is a large percentage).
  const bool fastEnough =
      backendSpeedup >= 2.0 && wbBackendSpeedup >= 2.0 &&
      fifoBackendSpeedup >= 2.0 && plruBackendSpeedup >= 2.0;
  if (backendSpeedup < 2.0) {
    std::cerr << "BUDGET: stackdist speedup " << backendSpeedup
              << "x is below the 2x floor\n";
  }
  if (wbBackendSpeedup < 2.0) {
    std::cerr << "BUDGET: write-back stackdist speedup "
              << wbBackendSpeedup << "x is below the 2x floor\n";
  }
  if (fifoBackendSpeedup < 2.0) {
    std::cerr << "BUDGET: FIFO policy-grid speedup " << fifoBackendSpeedup
              << "x is below the 2x floor\n";
  }
  if (plruBackendSpeedup < 2.0) {
    std::cerr << "BUDGET: PLRU policy-grid speedup " << plruBackendSpeedup
              << "x is below the 2x floor\n";
  }
  const bool lowOverhead = overheadPct < 5.0 || (obsSec - parSec) < 0.05;
  if (!lowOverhead) {
    std::cerr << "BUDGET: instrumentation overhead " << overheadPct
              << "% exceeds the 5% budget\n";
  }

  std::ofstream json("BENCH_sweep_speed.json");
  json << "{\"workload\": \"" << kernel.name << "\", \"points\": "
       << keys.size() << ", \"per_point_seconds\": " << baseSec
       << ", \"shared_seconds\": " << sharedSec
       << ", \"parallel_seconds\": " << parSec
       << ", \"instrumented_seconds\": " << obsSec
       << ", \"per_point_points_per_sec\": " << n / baseSec
       << ", \"shared_points_per_sec\": " << n / sharedSec
       << ", \"parallel_points_per_sec\": " << n / parSec
       << ", \"instrumented_points_per_sec\": " << n / obsSec
       << ", \"multisim_seconds\": " << simSec
       << ", \"multisim_points_per_sec\": " << n / simSec
       << ", \"writeback_multisim_seconds\": " << wbSimSec
       << ", \"writeback_multisim_points_per_sec\": " << n / wbSimSec
       << ", \"writeback_stackdist_seconds\": " << wbStackSec
       << ", \"writeback_stackdist_points_per_sec\": " << n / wbStackSec
       << ", \"writeback_backend_speedup\": " << wbBackendSpeedup
       << ", \"fifo_multisim_seconds\": " << fifoSimSec
       << ", \"fifo_multisim_points_per_sec\": " << n / fifoSimSec
       << ", \"fifo_stackdist_seconds\": " << fifoStackSec
       << ", \"fifo_stackdist_points_per_sec\": " << n / fifoStackSec
       << ", \"fifo_backend_speedup\": " << fifoBackendSpeedup
       << ", \"plru_multisim_seconds\": " << plruSimSec
       << ", \"plru_multisim_points_per_sec\": " << n / plruSimSec
       << ", \"plru_stackdist_seconds\": " << plruStackSec
       << ", \"plru_stackdist_points_per_sec\": " << n / plruStackSec
       << ", \"plru_backend_speedup\": " << plruBackendSpeedup
       << ", \"speedup\": " << speedup
       << ", \"backend_speedup\": " << backendSpeedup
       << ", \"sink_overhead_pct\": " << overheadPct
       << ", \"identical\": " << (ok ? "true" : "false");
  memx::bench::emitRunReport(report, json, "BENCH_sweep_trace.json");
  json << "}\n";

  return (ok && fastEnough && lowOverhead) ? 0 : 1;
}
