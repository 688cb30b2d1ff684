// policy_sweep: every registered kernel x {LRU, FIFO, TreePLRU, Random}
// x {write-back, write-through}, write energy on, tight layout, through
// exploreParallel with four threads. One client, closed loop; one
// operation is the whole grid of cells in the seed's order. The layout
// module does no work here; the LRU stack-distance profile, the
// FIFO/PLRU policy grid, the MultiSim bank (Random), trace generation
// and the parallel scheduler all do.
#include <algorithm>
#include <fstream>
#include <random>
#include <sstream>

#include "common.hpp"
#include "memx/core/parallel_explorer.hpp"
#include "memx/kernels/registry.hpp"
#include "memx/obs/recorder.hpp"
#include "memx/report/result_io.hpp"

namespace perfbench {
namespace {

constexpr unsigned kThreads = 4;

struct Cell {
  std::string kernelName;
  memx::ReplacementPolicy replacement = memx::ReplacementPolicy::LRU;
  memx::WritePolicy write = memx::WritePolicy::WriteBack;

  [[nodiscard]] std::string name() const {
    return kernelName + '/' + memx::toString(replacement) + '/' +
           memx::toString(write);
  }
};

constexpr memx::ReplacementPolicy kPolicies[] = {
    memx::ReplacementPolicy::LRU, memx::ReplacementPolicy::FIFO,
    memx::ReplacementPolicy::TreePLRU, memx::ReplacementPolicy::Random};
constexpr memx::WritePolicy kWrites[] = {memx::WritePolicy::WriteBack,
                                         memx::WritePolicy::WriteThrough};

memx::ExploreOptions cellOptions(const Cell& cell) {
  memx::ExploreOptions o;
  o.ranges.onChipBytes = 16384;
  o.ranges.maxCacheBytes = 16384;
  o.ranges.maxLineBytes = 256;
  o.ranges.maxAssociativity = 8;
  o.ranges.maxTiling = 16;
  o.includeWriteEnergy = true;
  o.optimizeLayout = false;
  o.replacement = cell.replacement;
  o.writePolicy = cell.write;
  return o;
}

/// Set-up: the grid of cells in a seeded order, one "kernel policy
/// write" index triple per line.
void writeCells(const fs::path& file, std::uint64_t seed) {
  std::vector<std::string> lines;
  const auto& kernels = memx::kernelRegistryNames();
  for (std::size_t k = 0; k < kernels.size(); ++k) {
    for (std::size_t p = 0; p < std::size(kPolicies); ++p) {
      for (std::size_t w = 0; w < std::size(kWrites); ++w) {
        lines.push_back(kernels[k] + ' ' + std::to_string(p) + ' ' +
                        std::to_string(w));
      }
    }
  }
  std::shuffle(lines.begin(), lines.end(), std::mt19937_64(seed));
  std::ofstream out(file);
  for (const std::string& line : lines) out << line << '\n';
  if (!out) throw std::runtime_error("cannot write " + file.string());
}

std::vector<Cell> readCells(const fs::path& file) {
  std::ifstream in(file);
  std::vector<Cell> cells;
  std::string kernel;
  std::size_t p = 0;
  std::size_t w = 0;
  while (in >> kernel >> p >> w) {
    if (p >= std::size(kPolicies) || w >= std::size(kWrites)) {
      throw std::runtime_error("bad cell line in " + file.string());
    }
    cells.push_back(Cell{kernel, kPolicies[p], kWrites[w]});
  }
  if (cells.empty()) throw std::runtime_error("no cells in " + file.string());
  return cells;
}

/// Worker utilization and straggler share of one traced grid, from the
/// recorder's spans. The grid's exploreParallel calls run one after
/// another, and spans are ordered by start, so each exploreParallel span
/// is followed by the worker.drain and group.evaluate spans it bounds.
void parallelShares(const memx::obs::RunReport& report, Layers& layers) {
  double wall = 0.0;
  double capacity = 0.0;
  double busy = 0.0;
  double straggler = 0.0;
  const memx::obs::SpanRecord* outer = nullptr;
  double longest = 0.0;
  const auto close = [&] {
    if (outer != nullptr) straggler += longest;
    longest = 0.0;
  };
  for (const memx::obs::SpanRecord& s : report.spans) {
    if (s.name == "exploreParallel") {
      close();
      outer = &s;
      wall += s.durationSec();
      continue;
    }
    if (outer == nullptr || s.endNs > outer->endNs) continue;
    if (s.name == "group.evaluate") longest = std::max(longest, s.durationSec());
    if (s.name == "worker.drain") {
      capacity += outer->durationSec();
      busy += s.durationSec();
    }
  }
  close();
  if (capacity > 0) layers.set("core.worker_utilization", busy / capacity);
  if (wall > 0) layers.set("core.straggler_share", straggler / wall);
}

}  // namespace

int runPolicySweep(const Args& args, Result& result) {
  const fs::path dir = kWorkDir / "policy_sweep";
  fs::create_directories(dir);
  const fs::path cellsFile = dir / "cells.txt";
  EndToEnd e2e;
  e2e.setupSec = timedSetup([&] { writeCells(cellsFile, args.seed); });
  const std::vector<Cell> cells = readCells(cellsFile);
  std::vector<memx::Kernel> kernels;
  for (const Cell& cell : cells) kernels.push_back(memx::registeredKernel(cell.kernelName));
  Ledger ledger(kExpectedDir / "policy_sweep.tsv", args.record);

  // One whole grid through exploreParallel: its wall time is the sum of
  // the calls, and it sets e2e.hypervolume to the grid's mean ratio.
  const auto runGrid = [&](memx::obs::Recorder* recorder) {
    EndToEnd::Op op;
    op.requests = 1.0;
    double hv = 0.0;
    for (std::size_t c = 0; c < cells.size(); ++c) {
      result.attempt();
      try {
        memx::Explorer grid(cellOptions(cells[c]));
        grid.setRecorder(recorder);
        const auto t0 = Clock::now();
        const memx::ExplorationResult r =
            memx::exploreParallel(grid, kernels[c], kThreads);
        op.sec += secondsSince(t0);
        if (!ledger.check(cells[c].name(), resultDigest(r))) {
          result.fail("policy_sweep cell " + cells[c].name() +
                      ": result CSV digest differs");
          continue;
        }
        op.points += static_cast<double>(r.points.size());
        op.refs += referencesOf(r);
        hv += sweepHypervolumeRatio(ledger, "hv/" + cells[c].name(), r.points);
      } catch (const std::exception& e) {
        result.fail("policy_sweep cell " + cells[c].name() + ": " + e.what());
      }
    }
    e2e.hypervolume = hv / static_cast<double>(cells.size());
    return op;
  };

  if (!args.trace) {
    // The first grid warms the allocator and caches and is not counted.
    // The grid keeps kThreads cores busy, so the probe walks on as many.
    closedLoop(
        args, 1, e2e,
        [&]() -> std::optional<EndToEnd::Op> {
          const std::uint64_t failedBefore = result.failed();
          const EndToEnd::Op op = runGrid(nullptr);
          if (result.failed() != failedBefore) return std::nullopt;
          return op;
        },
        [] { return parallelProbeSeconds(kThreads); });
    reportEndToEnd(e2e, result);
    ledger.save();
    return 0;
  }

  Layers layers;
  static_cast<void>(runGrid(nullptr));  // warm-up, as in the untraced run
  const double untraced = runGrid(nullptr).sec;
  {
    memx::obs::Recorder recorder;
    const double traced = runGrid(&recorder).sec;
    parallelShares(recorder.report(), layers);
    layers.set("obs.overhead_ratio", traced / untraced);
    writeChromeTrace(args, recorder);
  }
  // Serial pass through the sweep primitives, timing each call.
  memx::obs::Recorder serial;
  const auto t0 = Clock::now();
  for (std::size_t c = 0; c < cells.size(); ++c) {
    result.attempt();
    memx::Explorer explorer(cellOptions(cells[c]));
    explorer.setRecorder(&serial);
    const memx::ExplorationResult r = tracedSweep(explorer, kernels[c], layers);
    std::string csv;
    {
      const LayerSpan span(layers, "report.csv_s", &serial);
      csv = memx::toCsvString(r);
    }
    if (!ledger.check(cells[c].name(), digest(csv))) {
      result.fail("policy_sweep serial cell " + cells[c].name() +
                  ": result CSV digest differs");
    }
  }
  const double serialWall = secondsSince(t0);
  finishLayers(layers, serial, 1.0, serialWall);
  writeChromeTrace(args, serial, "serial");
  layers.report(result);
  std::ostringstream os;
  os << "serial pass " << serialWall << " s; layout.plan_s share "
     << layers.get("layout.plan_s") / serialWall << "; parallel grid "
     << untraced << " s untraced";
  result.note(os.str());
  ledger.save();
  return 0;
}

}  // namespace perfbench
