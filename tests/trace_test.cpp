#include <gtest/gtest.h>

#include <type_traits>

#include "memx/trace/generators.hpp"
#include "memx/trace/trace.hpp"
#include "memx/trace/trace_stats.hpp"
#include "memx/util/assert.hpp"

namespace memx {
namespace {

TEST(MemRef, FactoriesSetFields) {
  const MemRef r = readRef(100, 8);
  EXPECT_EQ(r.addr, 100u);
  EXPECT_EQ(r.size, 8u);
  EXPECT_EQ(r.type, AccessType::Read);

  const MemRef w = writeRef(4);
  EXPECT_EQ(w.type, AccessType::Write);
  EXPECT_EQ(w.size, 4u);
}

TEST(Trace, PushAndIterate) {
  Trace t;
  EXPECT_TRUE(t.empty());
  t.push(readRef(0));
  t.push(writeRef(4));
  EXPECT_EQ(t.size(), 2u);
  EXPECT_EQ(t[0].addr, 0u);
  EXPECT_EQ(t[1].type, AccessType::Write);
}

TEST(Trace, ReadWriteCounts) {
  Trace t;
  t.push(readRef(0));
  t.push(readRef(4));
  t.push(writeRef(8));
  EXPECT_EQ(t.readCount(), 2u);
  EXPECT_EQ(t.writeCount(), 1u);
}

TEST(Trace, AppendPreservesOrder) {
  Trace a;
  a.push(readRef(0));
  Trace b;
  b.push(readRef(100));
  b.push(readRef(200));
  a.append(b);
  ASSERT_EQ(a.size(), 3u);
  EXPECT_EQ(a[1].addr, 100u);
  EXPECT_EQ(a[2].addr, 200u);
}

// The source is a view over a caller-owned trace; binding it to a
// temporary would dangle, so that constructor does not exist.
static_assert(!std::is_constructible_v<VectorTraceSource, Trace&&>);
static_assert(std::is_constructible_v<VectorTraceSource, const Trace&>);

TEST(TraceSource, VectorSourceDrains) {
  Trace t;
  t.push(readRef(0));
  t.push(readRef(4));
  VectorTraceSource src(t);
  const Trace drained = drain(src);
  ASSERT_EQ(drained.size(), 2u);
  EXPECT_EQ(drained[1].addr, 4u);
  EXPECT_FALSE(src.next().has_value());
}

TEST(Generators, StridedTraceAddresses) {
  const Trace t = stridedTrace(100, 4, 8);
  ASSERT_EQ(t.size(), 4u);
  EXPECT_EQ(t[0].addr, 100u);
  EXPECT_EQ(t[3].addr, 124u);
}

TEST(Generators, NegativeStride) {
  const Trace t = stridedTrace(100, 3, -4);
  EXPECT_EQ(t[2].addr, 92u);
}

TEST(Generators, ZeroStrideRepeats) {
  const Trace t = stridedTrace(64, 5, 0);
  for (const MemRef& r : t) EXPECT_EQ(r.addr, 64u);
}

TEST(Generators, RandomTraceDeterministicPerSeed) {
  const Trace a = randomTrace(0, 1024, 100, 42);
  const Trace b = randomTrace(0, 1024, 100, 42);
  const Trace c = randomTrace(0, 1024, 100, 43);
  EXPECT_EQ(a.refs(), b.refs());
  EXPECT_NE(a.refs(), c.refs());
}

TEST(Generators, RandomTraceStaysInSpan) {
  const Trace t = randomTrace(1000, 256, 500, 7, 4);
  for (const MemRef& r : t) {
    EXPECT_GE(r.addr, 1000u);
    EXPECT_LT(r.addr + r.size, 1000u + 256u + 1u);
    EXPECT_EQ((r.addr - 1000u) % 4, 0u);
  }
}

TEST(Generators, LoopingTraceRevisits) {
  const Trace t = loopingTrace(0, 4, 3);
  ASSERT_EQ(t.size(), 12u);
  EXPECT_EQ(t[0].addr, t[4].addr);
  EXPECT_EQ(t[3].addr, t[11].addr);
}

TEST(Generators, PingPongAlternates) {
  const Trace t = pingPongTrace(0, 1000, 3, 4);
  ASSERT_EQ(t.size(), 6u);
  EXPECT_EQ(t[0].addr, 0u);
  EXPECT_EQ(t[1].addr, 1000u);
  EXPECT_EQ(t[4].addr, 8u);
  EXPECT_EQ(t[5].addr, 1008u);
}

TEST(Generators, RejectBadArguments) {
  EXPECT_THROW(stridedTrace(0, 4, 4, 0), ContractViolation);
  EXPECT_THROW(randomTrace(0, 2, 10, 1, 4), ContractViolation);
}

TEST(TraceStats, CountsAndFootprint) {
  Trace t;
  t.push(readRef(0, 4));
  t.push(writeRef(16, 4));
  t.push(readRef(8, 4));
  const TraceStats s = computeStats(t, 8);
  EXPECT_EQ(s.total, 3u);
  EXPECT_EQ(s.reads, 2u);
  EXPECT_EQ(s.writes, 1u);
  EXPECT_EQ(s.minAddr, 0u);
  EXPECT_EQ(s.maxAddr, 19u);
  EXPECT_EQ(s.footprint(), 20u);
}

TEST(TraceStats, UniqueLinesAtLineSize) {
  Trace t;
  t.push(readRef(0, 4));
  t.push(readRef(4, 4));   // same 8-byte line as 0
  t.push(readRef(8, 4));   // new line
  t.push(readRef(0, 4));   // repeat
  const TraceStats s = computeStats(t, 8);
  EXPECT_EQ(s.uniqueAddresses, 3u);
  EXPECT_EQ(s.uniqueLines, 2u);
}

TEST(TraceStats, StraddlingAccessTouchesTwoLines) {
  Trace t;
  t.push(readRef(6, 4));  // bytes 6..9 straddle lines 0 and 1 (L=8)
  const TraceStats s = computeStats(t, 8);
  EXPECT_EQ(s.uniqueLines, 2u);
}

TEST(TraceStats, EmptyTrace) {
  const TraceStats s = computeStats(Trace{}, 16);
  EXPECT_EQ(s.total, 0u);
  EXPECT_EQ(s.footprint(), 0u);
}

TEST(TraceStats, RejectsNonPow2Line) {
  EXPECT_THROW((void)computeStats(Trace{}, 12), ContractViolation);
}

TEST(TraceStats, StrideHistogram) {
  const Trace t = stridedTrace(0, 5, 8);
  const auto hist = strideHistogram(t);
  ASSERT_EQ(hist.size(), 1u);
  EXPECT_EQ(hist.at(8), 4u);
}

TEST(TraceStats, StrideHistogramMixed) {
  Trace t;
  t.push(readRef(0));
  t.push(readRef(8));
  t.push(readRef(4));
  const auto hist = strideHistogram(t);
  EXPECT_EQ(hist.at(8), 1u);
  EXPECT_EQ(hist.at(-4), 1u);
}

}  // namespace
}  // namespace memx
