// Sweep-engine speed check: the full Compress sweep on the reference
// per-point path (Explorer::evaluate per sweep key, regenerating the
// trace every time) versus the shared-trace one-pass engine (explore()
// and exploreParallel()), plus an instrumented parallel run with an
// obs::Recorder attached to measure the observability layer's overhead
// (budget: < 5%), plus engine comparisons: explore() against the same
// plan with every configuration simulated on its own (planSweep ->
// buildGroupTrace -> configFor -> simulateTrace -> makePoint; budget:
// engine >= 2x points/sec), on the paper's read-only energy metric
// (LRU), with write-back + write energy on (exact writebacks via
// dirty-stack accounting), and under FIFO, tree-PLRU and Random
// replacement (served by the single-pass policy grid). Every plan must
// put its groups on StackDist. Asserts every path produces
// bit-identical DesignPoint vectors, then writes BENCH_sweep_speed.json
// with points/sec of each path and each comparison's two sides, the
// speedups, the sink overhead, and the full RunReport, and
// BENCH_sweep_trace.json with the chrome://tracing worker timeline.
// Exits nonzero on any mismatch or blown budget.
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
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "memx/cachesim/cache_sim.hpp"
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

/// The simulated side of each engine comparison: the plan explore()
/// runs, with every configuration simulated on its own (simulateTrace)
/// against its group's trace and folded through the same point model.
/// The group traces stay alive in `traces`, as explore() keeps them in
/// its trace cache, so the two sides differ only in the engine.
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
    for (const std::size_t idx : group.keyIndices) {
      const memx::CacheConfig config = g.configFor(plan.keys[idx]);
      out[idx] = g.makePoint(config, plan.keys[idx].tiling,
                             memx::simulateTrace(config, trace), addBs);
    }
  }
  return out;
}

/// True iff every group of `g`'s plan runs on StackDist.
bool plannedStackDist(const Explorer& g, const Kernel& kernel) {
  const memx::SweepPlan plan = g.planSweep(kernel, g.sweepKeys());
  for (const memx::SweepPlan::Group& group : plan.groups) {
    if (group.backend != memx::SweepBackend::StackDist) return false;
  }
  return !plan.groups.empty();
}

/// One engine comparison: explore() against simulatedSweep() on the
/// same options, both sides timed in the same rep.
struct Comparison {
  Comparison(const char* label, Explorer g)
      : name(label), explorer(std::move(g)) {}

  const char* name;  ///< report label and JSON field prefix
  Explorer explorer;
  double simSec = 1e30;
  double engineSec = 1e30;
  std::vector<DesignPoint> simPts;
  std::vector<DesignPoint> enginePts;
  std::vector<double> ratios;  ///< per-rep simulated / engine time
  double speedup = 0.0;        ///< median of `ratios`
};

memx::ExploreOptions withReplacement(memx::ReplacementPolicy rp) {
  memx::ExploreOptions o = memx::bench::paperOptions();
  o.replacement = rp;
  return o;
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
  // with every configuration simulated on its own, on the paper's
  // read-only metric (LRU, the Hill-Smith profile), with write-back +
  // write energy on (the sweep the paper's write-energy experiments
  // run), and under FIFO, tree-PLRU and Random replacement, where the
  // engine's profile is the single-pass policy grid. Every one of these
  // plans must put its groups on StackDist.
  memx::ExploreOptions wbOptions = memx::bench::paperOptions();
  wbOptions.includeWriteEnergy = true;  // writePolicy defaults to WriteBack
  std::vector<Comparison> comparisons;
  comparisons.emplace_back("lru", grid);
  comparisons.emplace_back("writeback", Explorer(wbOptions));
  comparisons.emplace_back(
      "fifo", Explorer(withReplacement(memx::ReplacementPolicy::FIFO)));
  comparisons.emplace_back(
      "plru", Explorer(withReplacement(memx::ReplacementPolicy::TreePLRU)));
  comparisons.emplace_back(
      "random", Explorer(withReplacement(memx::ReplacementPolicy::Random)));
  // planSweep also warms each layout memo (untimed).
  bool allStackDist = true;
  for (const Comparison& c : comparisons) {
    if (!plannedStackDist(c.explorer, kernel)) {
      std::cerr << "MISMATCH: planSweep did not put the " << c.name
                << " sweep on StackDist\n";
      allStackDist = false;
    }
  }

  // The engine timings are interleaved inside one rep loop: each
  // speedup pairs two ~10 ms measurements taken back to back, so both
  // sides of a ratio see the same background-load conditions, and the
  // budgets check the median of the per-rep ratios — separate loops
  // (and ratios of independently-taken minima) made the speedups
  // seesaw on a busy machine even at best-of-9.
  for (int rep = 0; rep < kReps; ++rep) {
    for (Comparison& c : comparisons) {
      double simT = 0.0;
      {
        const Explorer fresh = c.explorer;  // warm layouts, no traces
        std::vector<memx::Trace> traces;    // freed untimed, like fresh's
        const auto t0 = std::chrono::steady_clock::now();
        c.simPts = simulatedSweep(fresh, kernel, traces);
        simT = seconds(t0, std::chrono::steady_clock::now());
      }
      double engineT = 0.0;
      {
        const Explorer fresh = c.explorer;  // same starting state
        const auto t0 = std::chrono::steady_clock::now();
        ExplorationResult r = fresh.explore(kernel);
        engineT = seconds(t0, std::chrono::steady_clock::now());
        c.enginePts = std::move(r.points);
      }
      c.simSec = std::min(c.simSec, simT);
      c.engineSec = std::min(c.engineSec, engineT);
      c.ratios.push_back(simT / engineT);
    }
  }
  const Comparison& lru = comparisons.front();
  const double sharedSec = lru.engineSec;

  bool ok = identical(baseline, lru.enginePts, "explore") &&
            identical(baseline, parPts, "exploreParallel") &&
            identical(baseline, obsPts, "exploreParallel+recorder") &&
            identical(baseline, lru.simPts, "per-config simulation") &&
            allStackDist;
  for (const Comparison& c : comparisons) {
    ok = identical(c.simPts, c.enginePts, c.name) && ok;
  }
  const double n = static_cast<double>(keys.size());
  const double speedup = baseSec / sharedSec;
  const double overheadPct = 100.0 * (obsSec - parSec) / parSec;

  std::printf("per-point baseline : %8.3f s  (%9.1f points/s)\n", baseSec,
              n / baseSec);
  std::printf("shared-trace serial: %8.3f s  (%9.1f points/s)  %.2fx\n",
              sharedSec, n / sharedSec, speedup);
  std::printf("shared-trace para. : %8.3f s  (%9.1f points/s)  %.2fx\n",
              parSec, n / parSec, baseSec / parSec);
  std::printf("para. + report sink: %8.3f s  (%9.1f points/s)  %+.1f%% overhead\n",
              obsSec, n / obsSec, overheadPct);

  // Budgets: the engine must earn its keep over per-config simulation
  // on every sweep it serves, and the report sink must stay in the
  // noise (absolute guard for sub-100ms runs where one scheduler blip
  // is a large percentage).
  bool fastEnough = true;
  for (Comparison& c : comparisons) {
    std::vector<double> sorted = c.ratios;
    std::sort(sorted.begin(), sorted.end());
    c.speedup = sorted[sorted.size() / 2];
    std::printf("%-9s simulated: %8.3f s  (%9.1f points/s)\n", c.name,
                c.simSec, n / c.simSec);
    std::printf("%-9s engine   : %8.3f s  (%9.1f points/s)  %.2fx vs "
                "simulated\n",
                c.name, c.engineSec, n / c.engineSec, c.speedup);
    if (c.speedup < 2.0) {
      std::cerr << "BUDGET: " << c.name << " engine speedup " << c.speedup
                << "x is below the 2x floor\n";
      fastEnough = false;
    }
  }
  std::printf("bit-identical      : %s\n", ok ? "yes" : "NO");
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
       << ", \"instrumented_points_per_sec\": " << n / obsSec;
  for (const Comparison& c : comparisons) {
    const std::string p = std::string(", \"") + c.name + "_";
    json << p << "simulated_seconds\": " << c.simSec
         << p << "simulated_points_per_sec\": " << n / c.simSec
         << p << "engine_seconds\": " << c.engineSec
         << p << "engine_points_per_sec\": " << n / c.engineSec
         << p << "backend_speedup\": " << c.speedup;
  }
  json << ", \"speedup\": " << speedup
       << ", \"sink_overhead_pct\": " << overheadPct
       << ", \"identical\": " << (ok ? "true" : "false");
  memx::bench::emitRunReport(report, json, "BENCH_sweep_trace.json");
  json << "}\n";

  return (ok && fastEnough && lowOverhead) ? 0 : 1;
}
