// paper_mpeg: the Section-5 MPEG decoder composite with the Section-4.1
// layout on, at the paper's ranges, followed by bound-constrained
// selection. One client, closed loop; each operation builds a fresh
// Explorer, so layout certification is paid every time, as a CLI user
// pays it on every run.
#include <fstream>
#include <random>
#include <sstream>

#include "common.hpp"
#include "memx/core/selection.hpp"
#include "memx/mpeg/composite.hpp"
#include "memx/obs/recorder.hpp"
#include "memx/report/result_io.hpp"
#include "memx/util/numeric_io.hpp"

namespace perfbench {
namespace {

using memx::CompositeProgram;
using memx::DesignPoint;

memx::ExploreOptions mpegOptions() {
  memx::ExploreOptions o;
  o.ranges.minCacheBytes = 16;
  o.ranges.maxCacheBytes = 512;
  o.ranges.minLineBytes = 4;
  o.ranges.maxLineBytes = 16;
  o.ranges.maxAssociativity = 8;
  o.ranges.maxTiling = 16;
  o.energy.emNj = 4.95;
  o.optimizeLayout = true;
  return o;
}

/// Selection bounds as fractions of the way from the best to the worst
/// combined point, so the seed picks them without knowing the results.
struct Bounds {
  double cycleFrac = 0.0;
  double energyFrac = 0.0;
};

constexpr int kBoundSets = 16;

void writeBounds(const fs::path& file, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> frac(0.05, 0.95);
  std::ofstream out(file);
  for (int i = 0; i < kBoundSets; ++i) {
    const double c = frac(rng);
    const double e = frac(rng);
    out << memx::formatDouble17(c) << ' ' << memx::formatDouble17(e) << '\n';
  }
  if (!out) throw std::runtime_error("cannot write " + file.string());
}

std::vector<Bounds> readBounds(const fs::path& file) {
  std::ifstream in(file);
  std::vector<Bounds> bounds;
  Bounds b;
  while (in >> b.cycleFrac >> b.energyFrac) bounds.push_back(b);
  if (bounds.empty()) throw std::runtime_error("no bounds in " + file.string());
  return bounds;
}

struct Selection {
  std::optional<DesignPoint> minEnergy;
  std::optional<DesignPoint> minCycles;
  std::optional<DesignPoint> bounded;
  double cycleBound = 0.0;
  double energyBound = 0.0;
};

Selection select(const std::vector<DesignPoint>& points, const Bounds& b) {
  Selection s;
  s.minEnergy = memx::minEnergyPoint(points);
  s.minCycles = memx::minCyclePoint(points);
  double maxCycles = 0.0;
  double maxEnergy = 0.0;
  for (const DesignPoint& p : points) {
    maxCycles = std::max(maxCycles, p.cycles);
    maxEnergy = std::max(maxEnergy, p.energyNj);
  }
  s.cycleBound = s.minCycles->cycles +
                 b.cycleFrac * (maxCycles - s.minCycles->cycles);
  s.energyBound = s.minEnergy->energyNj +
                  b.energyFrac * (maxEnergy - s.minEnergy->energyNj);
  s.bounded = memx::bestUnderBounds(points, s.cycleBound, s.energyBound);
  return s;
}

std::string pointText(const std::optional<DesignPoint>& p) {
  if (!p) return "none";
  return p->label() + ' ' + memx::formatDouble17(p->energyNj) + ' ' +
         memx::formatDouble17(p->cycles);
}

/// Empty when the operation's outputs are right, else the first reason.
std::string checkOutput(Ledger& ledger, const CompositeProgram::Result& r,
                        const Selection& s) {
  std::string perKernel;
  for (const memx::ExplorationResult& k : r.perKernel) {
    perKernel += memx::toCsvString(k);
  }
  if (!ledger.check("combined_csv", resultDigest(r.combined))) {
    return "combined result CSV digest differs";
  }
  if (!ledger.check("per_kernel_csv", digest(perKernel))) {
    return "per-kernel result CSV digest differs";
  }
  if (!ledger.check("min_energy", pointText(s.minEnergy))) {
    return "min-energy point differs: " + pointText(s.minEnergy);
  }
  if (!ledger.check("min_cycles", pointText(s.minCycles))) {
    return "min-cycle point differs: " + pointText(s.minCycles);
  }
  // The bounded pick depends on the seed's bounds: check it against a
  // brute-force scan instead of the ledger.
  std::optional<double> best;
  for (const DesignPoint& p : r.combined.points) {
    if (p.cycles <= s.cycleBound && p.energyNj <= s.energyBound &&
        (!best || p.energyNj < *best)) {
      best = p.energyNj;
    }
  }
  if (best.has_value() != s.bounded.has_value() ||
      (best && (s.bounded->energyNj != *best ||
                s.bounded->cycles > s.cycleBound))) {
    return "bound-constrained selection disagrees with a brute-force scan";
  }
  return {};
}

double referencesOf(const CompositeProgram::Result& r) {
  double refs = 0.0;
  for (const memx::ExplorationResult& k : r.perKernel) refs += perfbench::referencesOf(k);
  return refs;
}

/// CompositeProgram::explore re-driven kernel by kernel through the
/// public sweep primitives and combineResults, each call timed.
CompositeProgram::Result tracedExplore(const CompositeProgram& program,
                                       memx::obs::Recorder& recorder,
                                       Layers& layers) {
  memx::Explorer explorer(mpegOptions());
  explorer.setRecorder(&recorder);
  CompositeProgram::Result r;
  for (std::size_t j = 0; j < program.kernelCount(); ++j) {
    r.tripCounts.push_back(program.trips(j));
    r.perKernel.push_back(tracedSweep(explorer, program.kernel(j), layers));
  }
  const LayerSpan span(layers, "mpeg.combine_s", &recorder);
  r.combined = memx::combineResults(program.name(), r.perKernel, r.tripCounts);
  return r;
}

}  // namespace

int runPaperMpeg(const Args& args, Result& result) {
  const fs::path dir = kWorkDir / "paper_mpeg";
  fs::create_directories(dir);
  const fs::path boundsFile = dir / "bounds.txt";
  EndToEnd e2e;
  e2e.setupSec = timedSetup([&] { writeBounds(boundsFile, args.seed); });
  const std::vector<Bounds> bounds = readBounds(boundsFile);
  Ledger ledger(kExpectedDir / "paper_mpeg.tsv", args.record);

  unsigned opIndex = 0;
  const auto runOp = [&](memx::obs::Recorder* recorder,
                         Layers* layers) -> std::optional<EndToEnd::Op> {
    const unsigned i = opIndex++;
    result.attempt();
    try {
      const auto t0 = Clock::now();
      const CompositeProgram program = memx::mpegDecoder();
      CompositeProgram::Result r;
      if (recorder != nullptr) {
        r = tracedExplore(program, *recorder, *layers);
      } else {
        const memx::Explorer explorer(mpegOptions());
        r = program.explore(explorer);
      }
      const Selection s = select(r.combined.points, bounds[i % bounds.size()]);
      const double sec = secondsSince(t0);
      const std::string why = checkOutput(ledger, r, s);
      if (!why.empty()) {
        result.fail("paper_mpeg op " + std::to_string(i) + ": " + why);
        return std::nullopt;
      }
      e2e.hypervolume = sweepHypervolumeRatio(ledger, "hv", r.combined.points);
      EndToEnd::Op op;
      op.sec = sec;
      op.points = static_cast<double>(r.combined.points.size());
      op.refs = referencesOf(r);
      op.requests = 1.0;
      return op;
    } catch (const std::exception& e) {
      result.fail("paper_mpeg op " + std::to_string(i) + ": " + e.what());
      return std::nullopt;
    }
  };

  if (!args.trace) {
    closedLoop(args, 0, e2e, [&] { return runOp(nullptr, nullptr); });
    reportEndToEnd(e2e, result);
  } else {
    // One untraced operation for the tracing overhead, then traced ones.
    const auto first = runOp(nullptr, nullptr);
    const double untraced = first ? first->sec : 0.0;
    Layers layers;
    memx::obs::Recorder recorder;
    std::vector<double> traced;
    const auto start = Clock::now();
    double last = 0.0;
    for (unsigned i = 0; moreOps(args, i, start, last); ++i) {
      const auto op = runOp(&recorder, &layers);
      last = op ? op->sec : 0.0;
      traced.push_back(last);
    }
    const double ops = static_cast<double>(traced.size());
    double total = 0.0;
    for (const double t : traced) total += t;
    finishLayers(layers, recorder, ops, total / ops);
    layers.set("obs.overhead_ratio", median(traced) / untraced);
    layers.report(result);
    std::ostringstream os;
    os << "traced op " << total / ops << " s; layout.plan_s share "
       << layers.get("layout.plan_s") / (total / ops);
    result.note(os.str());
    writeChromeTrace(args, recorder);
  }
  ledger.save();
  return 0;
}

}  // namespace perfbench
