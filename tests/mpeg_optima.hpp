// Section-5 / Figure-10 shape of the MPEG composite, shared by the
// tier-1 composite test (a reduced range) and the slow golden
// regression (the paper's range).
#pragma once

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "memx/core/selection.hpp"
#include "memx/mpeg/composite.hpp"

namespace memx {

/// The composite's min-energy key differs from its min-cycles key, and
/// the per-kernel min-energy keys take at least two distinct values,
/// none of them the composite's (DESIGN.md section 4, shape 5).
inline void expectMpegOptimaDiffer(const ExploreOptions& o) {
  const CompositeProgram p = mpegDecoder();
  const auto r = p.explore(Explorer(o));
  const auto minE = minEnergyPoint(r.combined.points);
  const auto minC = minCyclePoint(r.combined.points);
  ASSERT_TRUE(minE.has_value());
  ASSERT_TRUE(minC.has_value());
  EXPECT_NE(minE->key, minC->key);
  EXPECT_LE(minE->energyNj, minC->energyNj);
  EXPECT_LE(minC->cycles, minE->cycles);

  // Figure 10: different kernels prefer different corners of the design
  // space, and none of their optima is the whole-program optimum.
  std::set<std::string> kernelOptima;
  for (const ExplorationResult& kernel : r.perKernel) {
    const auto best = minEnergyPoint(kernel.points);
    ASSERT_TRUE(best.has_value());
    EXPECT_NE(best->key, minE->key) << kernel.workload;
    kernelOptima.insert(best->label());
  }
  EXPECT_GE(kernelOptima.size(), 2u);
}

}  // namespace memx
