// Golden-results regression: miss/cycle/energy numbers for the paper
// kernels at Table-level configurations, pinned in tests/golden/*.csv.
// A silent change to the trace generator, the simulator or the models
// fails here with the exact per-point delta.
//
// Regenerating (only when a model change is *intended*):
//   MEMX_REGEN_GOLDEN=1 ./build/tests/test_golden_regression
// rewrites the corpus in the source tree; commit the diff alongside the
// change that caused it.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <string>

#include "memx/core/explorer.hpp"
#include "memx/kernels/benchmarks.hpp"
#include "memx/report/result_io.hpp"
#include "mpeg_optima.hpp"

#ifndef MEMX_GOLDEN_DIR
#error "MEMX_GOLDEN_DIR must point at tests/golden"
#endif

namespace memx {
namespace {

/// The corpus sweep: restricted MemExplore ranges around the paper's
/// table configurations (T 16..256, L 4..32, S <= 4, B <= 4) with the
/// paper-default energy/timing parameters and the Sec. 4.1 layout.
ExploreOptions goldenOptions() {
  ExploreOptions o;
  o.ranges.onChipBytes = 256;
  o.ranges.maxCacheBytes = 256;
  o.ranges.minCacheBytes = 16;
  o.ranges.minLineBytes = 4;
  o.ranges.maxLineBytes = 32;
  o.ranges.maxAssociativity = 4;
  o.ranges.maxTiling = 4;
  return o;
}

struct GoldenKernel {
  const char* file;
  Kernel kernel;
};

std::vector<GoldenKernel> goldenKernels() {
  std::vector<GoldenKernel> kernels;
  kernels.push_back({"compress.csv", compressKernel()});
  kernels.push_back({"matadd.csv", matrixAddKernel(8)});
  kernels.push_back({"dequant.csv", dequantKernel(16)});
  kernels.push_back({"transpose.csv", transposeKernel(16)});
  return kernels;
}

std::string goldenPath(const char* file) {
  return std::string(MEMX_GOLDEN_DIR) + "/" + file;
}

/// Relative comparison with an absolute floor; prints the delta.
void expectClose(const char* field, const std::string& label,
                 double golden, double current) {
  const double tol = 1e-9 * (std::abs(golden) + 1.0);
  EXPECT_NEAR(current, golden, tol)
      << label << " " << field << " drifted: golden=" << golden
      << " current=" << current << " delta=" << (current - golden);
}

TEST(GoldenRegression, PaperKernelSweepsMatchCorpus) {
  const bool regen = std::getenv("MEMX_REGEN_GOLDEN") != nullptr;
  const Explorer explorer(goldenOptions());

  for (const GoldenKernel& g : goldenKernels()) {
    const ExplorationResult current = explorer.explore(g.kernel);
    const std::string path = goldenPath(g.file);

    if (regen) {
      std::ofstream out(path);
      ASSERT_TRUE(out.good()) << "cannot write " << path;
      writeResultCsv(out, current);
      continue;
    }

    std::ifstream in(path);
    ASSERT_TRUE(in.good())
        << "missing golden corpus " << path
        << " (regenerate with MEMX_REGEN_GOLDEN=1)";
    const ExplorationResult golden = readResultCsv(in);

    EXPECT_EQ(golden.workload, current.workload);
    ASSERT_EQ(golden.points.size(), current.points.size())
        << g.file << ": sweep shape changed";
    for (std::size_t i = 0; i < golden.points.size(); ++i) {
      const DesignPoint& want = golden.points[i];
      const DesignPoint& got = current.points[i];
      ASSERT_EQ(want.key, got.key)
          << g.file << ": key order changed at point " << i;
      const std::string label = current.workload + "/" + got.label();
      EXPECT_EQ(want.accesses, got.accesses) << label;
      expectClose("miss_rate", label, want.missRate, got.missRate);
      expectClose("cycles", label, want.cycles, got.cycles);
      expectClose("energy_nj", label, want.energyNj, got.energyNj);
    }
  }
}

// The Section-5 composite at the paper's range (T <= 512). Layout
// certification makes it take seconds, so it lives in this slow binary;
// tier 1 runs the same assertions up to T = 128
// (Composite.MpegOptimaExistAndDiffer).
TEST(Composite, MpegOptimaAtPaperRange) {
  ExploreOptions o;
  o.ranges.minCacheBytes = 16;
  o.ranges.maxCacheBytes = 512;
  o.ranges.minLineBytes = 4;
  o.ranges.maxLineBytes = 16;
  o.ranges.maxAssociativity = 8;
  o.ranges.maxTiling = 8;
  expectMpegOptimaDiffer(o);
}

}  // namespace
}  // namespace memx
