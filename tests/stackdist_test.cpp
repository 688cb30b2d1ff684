// Known-answer and oracle tests for the stack-distance engine: the
// OrderedStack Fenwick core, the Hill-Smith all-associativity profile
// and the StackDistSim bank. Hand-traced expectations are pinned like
// ref_cache_sim_test.cpp; everything else is diffed against CacheSim
// or the naive reference walk (memx/check/ref_stack_dist.hpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "memx/cachesim/cache_sim.hpp"
#include "memx/check/random_gen.hpp"
#include "memx/check/ref_stack_dist.hpp"
#include "memx/stackdist/all_assoc.hpp"
#include "memx/stackdist/ordered_stack.hpp"
#include "memx/stackdist/policy_grid.hpp"
#include "memx/stackdist/stackdist_sim.hpp"
#include "memx/trace/working_set.hpp"
#include "memx/util/assert.hpp"

namespace memx {
namespace {

// --- OrderedStack ---------------------------------------------------

TEST(OrderedStack, HandTracedDistances) {
  // Touch sequence a b a c b a; the LRU stack evolves as
  //   a | b a | a b | c a b | b c a | a b c
  // so the distances are: cold, cold, 1, cold, 2, 2.
  OrderedStack s;
  EXPECT_EQ(s.touch('a'), kColdDistance);
  EXPECT_EQ(s.touch('b'), kColdDistance);
  EXPECT_EQ(s.touch('a'), 1u);
  EXPECT_EQ(s.touch('c'), kColdDistance);
  EXPECT_EQ(s.touch('b'), 2u);
  EXPECT_EQ(s.touch('a'), 2u);
  EXPECT_EQ(s.uniqueLines(), 3u);
}

TEST(OrderedStack, MruReaccessIsDistanceZero) {
  OrderedStack s;
  EXPECT_EQ(s.touch(7), kColdDistance);
  EXPECT_EQ(s.touch(7), 0u);
  EXPECT_EQ(s.touch(7), 0u);
  EXPECT_EQ(s.uniqueLines(), 1u);
}

TEST(OrderedStack, CompactionPreservesDistances) {
  // initialCapacity 2 forces a tree rebuild every couple of touches;
  // distances must be indistinguishable from a large-capacity stack.
  OrderedStack tight(2);
  OrderedStack roomy(1024);
  std::mt19937_64 rng(42);
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t line = rng() % 64;
    ASSERT_EQ(tight.touch(line), roomy.touch(line)) << "touch " << i;
  }
  EXPECT_EQ(tight.uniqueLines(), roomy.uniqueLines());
}

TEST(OrderedStack, CyclicSweepDistanceEqualsWorkingSetMinusOne) {
  OrderedStack s;
  for (std::uint64_t line = 0; line < 8; ++line) {
    EXPECT_EQ(s.touch(line), kColdDistance);
  }
  for (int round = 0; round < 3; ++round) {
    for (std::uint64_t line = 0; line < 8; ++line) {
      EXPECT_EQ(s.touch(line), 7u) << "round " << round;
    }
  }
}

// --- ReuseProfile (reimplemented on OrderedStack) vs the naive walk --

TEST(ReuseProfileOracle, MatchesNaiveWalkOnRandomTraces) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const Trace trace = randomCheckTrace(seed, 200, 800);
    for (const std::uint32_t lineBytes : {4u, 16u}) {
      const ReuseProfile fast(trace, lineBytes);
      const RefReuseProfile ref(trace, lineBytes);
      ASSERT_EQ(fast.accesses(), ref.accesses()) << "seed " << seed;
      ASSERT_EQ(fast.coldMisses(), ref.coldMisses()) << "seed " << seed;
      ASSERT_EQ(fast.uniqueLines(), ref.uniqueLines()) << "seed " << seed;
      for (std::uint64_t d = 0; d < ref.uniqueLines(); ++d) {
        ASSERT_EQ(fast.countAtDistance(d), ref.countAtDistance(d))
            << "seed " << seed << " L=" << lineBytes << " d=" << d;
      }
    }
  }
}

// --- AllAssocProfile known answers -----------------------------------

TEST(AllAssocProfile, HandTracedMissGrid) {
  // 4-byte reads touching lines 0, 1, 0, 2, 0, 4 (L = 4).
  Trace t;
  for (const std::uint64_t addr : {0u, 4u, 0u, 8u, 0u, 16u}) {
    t.push(readRef(addr, 4));
  }
  const AllAssocProfile p(t, 4, 2, 2);
  EXPECT_EQ(p.accesses(), 6u);
  EXPECT_EQ(p.reads(), 6u);
  EXPECT_EQ(p.writes(), 0u);
  EXPECT_EQ(p.lineProbes(), 6u);

  // Hand-traced LRU miss counts (see the sequence above):
  //   1 set, 1 way: only line re-accesses after no intervening touch
  //   hit; there are none -> 6 misses.
  EXPECT_EQ(p.misses(1, 1), 6u);
  //   1 set, 2 ways: the three re-accesses of line 0 at global stack
  //   distance 1 hit -> 4 misses (the cold touches).
  EXPECT_EQ(p.misses(1, 2), 4u);
  //   2 sets (even lines -> set 0, line 1 alone in set 1), 1 way: the
  //   second access of line 0 hits (distance 0 in its set) -> 5.
  EXPECT_EQ(p.misses(2, 1), 5u);
  //   2 sets, 2 ways: every re-access of line 0 hits -> cold only.
  EXPECT_EQ(p.misses(2, 2), 4u);

  // Cold misses are the infinite-distance bucket: at the deepest
  // tracked geometry only the 4 first touches miss.
  EXPECT_EQ(p.readMisses(1, 2), 4u);
  EXPECT_EQ(p.writeMisses(1, 2), 0u);
}

TEST(AllAssocProfile, MatchesCacheSimOnTheHandTrace) {
  Trace t;
  for (const std::uint64_t addr : {0u, 4u, 0u, 8u, 0u, 16u}) {
    t.push(readRef(addr, 4));
  }
  const AllAssocProfile p(t, 4, 2, 2);
  for (const std::uint32_t sets : {1u, 2u}) {
    for (const std::uint32_t assoc : {1u, 2u}) {
      CacheConfig c;
      c.lineBytes = 4;
      c.associativity = assoc;
      c.sizeBytes = 4 * sets * assoc;
      const CacheStats sim = simulateTrace(c, t);
      EXPECT_EQ(p.misses(sets, assoc), sim.misses())
          << "sets=" << sets << " ways=" << assoc;
      EXPECT_EQ(p.lineFills(sets, assoc), sim.lineFills)
          << "sets=" << sets << " ways=" << assoc;
    }
  }
}

TEST(AllAssocProfile, StraddlingReferenceProbesBothLines) {
  // A 4-byte access at address 2 spans lines 0 and 1 (L = 4). The
  // reference misses when either probe misses.
  Trace t;
  t.push(readRef(2, 4));
  t.push(readRef(2, 4));
  const AllAssocProfile p(t, 4, 1, 2);
  EXPECT_EQ(p.accesses(), 2u);
  EXPECT_EQ(p.lineProbes(), 4u);
  // 1 way: after the first reference the cache holds line 1, so the
  // second reference's line-0 probe misses again -> both refs miss.
  EXPECT_EQ(p.misses(1, 1), 2u);
  // 2 ways: both lines resident, second reference hits.
  EXPECT_EQ(p.misses(1, 2), 1u);
  EXPECT_EQ(p.lineFills(1, 2), 2u);  // the two cold fills
  EXPECT_EQ(p.lineFills(1, 1), 4u);  // every probe refills
}

TEST(AllAssocProfile, WriteThroughMemWritesCountWriteProbes) {
  Trace t;
  t.push(writeRef(0, 4));   // 1 probe
  t.push(writeRef(2, 4));   // straddles: 2 probes
  t.push(readRef(0, 4));    // reads never write memory
  const AllAssocProfile p(t, 4, 1, 2);
  EXPECT_EQ(p.writes(), 2u);
  EXPECT_EQ(p.reads(), 1u);
  const CacheStats wt = p.stats(1, 2, WritePolicy::WriteThrough);
  EXPECT_EQ(wt.memWrites, 3u);  // one word store per write probe
  const CacheStats wb = p.stats(1, 2, WritePolicy::WriteBack);
  EXPECT_EQ(wb.memWrites, 0u);
  EXPECT_EQ(wb.writebacks, 0u);  // both dirty lines stay resident
  // Hit/miss accounting is write-policy independent.
  EXPECT_EQ(wt.misses(), wb.misses());
}

// --- Dirty-stack writeback known answers ----------------------------

/// Writebacks of a write-back LRU cache (1 set of `assoc` ways, L = 4)
/// simulated over `t` — the oracle every hand trace is double-checked
/// against.
std::uint64_t simWritebacks(const Trace& t, std::uint32_t assoc,
                            std::uint32_t sets = 1) {
  CacheConfig c;
  c.lineBytes = 4;
  c.associativity = assoc;
  c.sizeBytes = 4 * sets * assoc;
  c.writePolicy = WritePolicy::WriteBack;
  return simulateTrace(c, t).writebacks;
}

TEST(AllAssocProfile, WritebackOnDirtyEvictionPerAssociativity) {
  // w0 r0 w0 r4 r8 (L = 4, lines 0/1/2). Re-dirtying resident line 0
  // (write, read hit, write again) still costs exactly one writeback
  // when it is finally evicted:
  //   1 way : r4 evicts dirty line 0 (wb), r8 evicts clean line 1.
  //   2 ways: r8 evicts LRU line 0, still dirty from w0 (wb).
  Trace t;
  t.push(writeRef(0, 4));
  t.push(readRef(0, 4));
  t.push(writeRef(0, 4));
  t.push(readRef(4, 4));
  t.push(readRef(8, 4));
  const AllAssocProfile p(t, 4, 1, 2);
  EXPECT_EQ(p.writebacks(1, 1), 1u);
  EXPECT_EQ(p.writebacks(1, 2), 1u);
  EXPECT_EQ(p.writebacks(1, 1), simWritebacks(t, 1));
  EXPECT_EQ(p.writebacks(1, 2), simWritebacks(t, 2));
}

TEST(AllAssocProfile, ReadAfterWriteKeepsTheDirtyBit) {
  // w0 r0 r4: the read hit must not clean line 0, so the direct-mapped
  // eviction at r4 still writes it back.
  Trace t;
  t.push(writeRef(0, 4));
  t.push(readRef(0, 4));
  t.push(readRef(4, 4));
  const AllAssocProfile p(t, 4, 1, 2);
  EXPECT_EQ(p.writebacks(1, 1), 1u);
  EXPECT_EQ(p.writebacks(1, 1), simWritebacks(t, 1));
  EXPECT_EQ(p.writebacks(1, 2), 0u);  // 2 ways: line 0 dirty at end
  EXPECT_EQ(p.writebacks(1, 2), simWritebacks(t, 2));
}

TEST(AllAssocProfile, WriteStraddlingTwoLinesDirtiesBoth) {
  // A 4-byte write at address 2 spans lines 0 and 1 (L = 4); both
  // probes dirty their line, exactly like CacheSim's per-probe loop.
  //   1 way : the straddle itself evicts dirty line 0 (probe of line 1),
  //           then r8 evicts dirty line 1 -> 2 writebacks.
  //   2 ways: r8 evicts dirty line 0, r12 evicts dirty line 1 -> 2.
  Trace t;
  t.push(writeRef(2, 4));
  t.push(readRef(8, 4));
  t.push(readRef(12, 4));
  const AllAssocProfile p(t, 4, 1, 2);
  EXPECT_EQ(p.writebacks(1, 1), 2u);
  EXPECT_EQ(p.writebacks(1, 2), 2u);
  EXPECT_EQ(p.writebacks(1, 1), simWritebacks(t, 1));
  EXPECT_EQ(p.writebacks(1, 2), simWritebacks(t, 2));
}

TEST(AllAssocProfile, CleanEvictionAfterDeepReReference) {
  // w0 r4 r0 r4 r8: line 0's dirty state is per-configuration. The
  // 1-way cache writes it back at r4, refills it CLEAN at r0, and must
  // not write it back again at the second r4; the 2-way cache keeps the
  // original dirty fill resident (r0 hits) and pays its single
  // writeback only when r8 finally evicts line 0.
  Trace t;
  t.push(writeRef(0, 4));
  t.push(readRef(4, 4));
  t.push(readRef(0, 4));
  t.push(readRef(4, 4));
  t.push(readRef(8, 4));
  const AllAssocProfile p(t, 4, 1, 2);
  EXPECT_EQ(p.writebacks(1, 1), 1u);
  EXPECT_EQ(p.writebacks(1, 2), 1u);
  EXPECT_EQ(p.writebacks(1, 1), simWritebacks(t, 1));
  EXPECT_EQ(p.writebacks(1, 2), simWritebacks(t, 2));
}

TEST(AllAssocProfile, DirtyLinesAtTraceEndAreNeverWrittenBack) {
  // w0 w4: both lines fit in 2 ways and are dirty when the trace ends;
  // CacheSim does not flush, so neither does the profile. The 1-way
  // cache did evict dirty line 0 under w4's fill.
  Trace t;
  t.push(writeRef(0, 4));
  t.push(writeRef(4, 4));
  const AllAssocProfile p(t, 4, 1, 2);
  EXPECT_EQ(p.writebacks(1, 2), 0u);
  EXPECT_EQ(p.writebacks(1, 1), 1u);
  EXPECT_EQ(p.writebacks(1, 2), simWritebacks(t, 2));
  EXPECT_EQ(p.writebacks(1, 1), simWritebacks(t, 1));
  const CacheStats wb = p.stats(1, 2, WritePolicy::WriteBack);
  EXPECT_EQ(wb.writebacks, 0u);
  EXPECT_EQ(wb.memWrites, 0u);  // write-back/write-allocate: no stores
}

TEST(AllAssocProfile, StatsMatchCacheSimOnRandomTraces) {
  // The full stats() surface against the simulator over the whole
  // (sets, ways) grid, write-back and write-through, random streams.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const Trace trace = randomCheckTrace(seed, 200, 700);
    const std::uint32_t lineBytes = (seed % 2 == 0) ? 8u : 16u;
    const AllAssocProfile p(trace, lineBytes, 8, 4);
    for (const std::uint32_t sets : {1u, 2u, 4u, 8u}) {
      for (const std::uint32_t assoc : {1u, 2u, 4u}) {
        for (const WritePolicy wp :
             {WritePolicy::WriteBack, WritePolicy::WriteThrough}) {
          CacheConfig c;
          c.lineBytes = lineBytes;
          c.associativity = assoc;
          c.sizeBytes = lineBytes * sets * assoc;
          c.writePolicy = wp;
          const CacheStats sim = simulateTrace(c, trace);
          const CacheStats got = p.stats(sets, assoc, wp);
          ASSERT_EQ(got.reads, sim.reads);
          ASSERT_EQ(got.writes, sim.writes);
          ASSERT_EQ(got.readHits, sim.readHits)
              << "seed " << seed << " " << c.label();
          ASSERT_EQ(got.readMisses, sim.readMisses)
              << "seed " << seed << " " << c.label();
          ASSERT_EQ(got.writeHits, sim.writeHits)
              << "seed " << seed << " " << c.label();
          ASSERT_EQ(got.writeMisses, sim.writeMisses)
              << "seed " << seed << " " << c.label();
          ASSERT_EQ(got.lineFills, sim.lineFills)
              << "seed " << seed << " " << c.label();
          ASSERT_EQ(got.memWrites, sim.memWrites)
              << "seed " << seed << " " << c.label();
          ASSERT_EQ(got.writebacks, sim.writebacks)
              << "seed " << seed << " " << c.label() << " " << toString(wp);
        }
      }
    }
  }
}

TEST(AllAssocProfile, RejectsBadArguments) {
  Trace t;
  t.push(readRef(0));
  EXPECT_THROW(AllAssocProfile(t, 12, 4, 2), ContractViolation);
  EXPECT_THROW(AllAssocProfile(t, 8, 3, 2), ContractViolation);
  EXPECT_THROW(AllAssocProfile(t, 8, 4, 0), ContractViolation);

  const AllAssocProfile p(t, 8, 4, 2);
  EXPECT_THROW((void)p.misses(3, 1), ContractViolation);   // not pow2
  EXPECT_THROW((void)p.misses(8, 1), ContractViolation);   // > maxSets
  EXPECT_THROW((void)p.misses(1, 0), ContractViolation);   // ways < 1
  EXPECT_THROW((void)p.misses(1, 3), ContractViolation);   // > maxAssoc

  Trace bad;
  bad.push(MemRef{0, 0, AccessType::Read});
  EXPECT_THROW(AllAssocProfile(bad, 8, 1, 1), ContractViolation);
}

// --- PolicyGridProfile known answers ---------------------------------

/// CacheStats of a `policy` cache (`sets` x `assoc`, L = 4) simulated
/// over `t` — the oracle every grid hand trace is double-checked
/// against.
CacheStats simPolicy(const Trace& t, ReplacementPolicy policy,
                     std::uint32_t sets, std::uint32_t assoc,
                     WritePolicy wp = WritePolicy::WriteBack) {
  CacheConfig c;
  c.lineBytes = 4;
  c.associativity = assoc;
  c.sizeBytes = 4 * sets * assoc;
  c.replacement = policy;
  c.writePolicy = wp;
  return simulateTrace(c, t);
}

/// One 4-byte read per entry, entry i touching line `lines[i]` (L = 4).
Trace lineTrace(std::initializer_list<std::uint64_t> lines) {
  Trace t;
  for (const std::uint64_t line : lines) t.push(readRef(line * 4, 4));
  return t;
}

TEST(PolicyGridProfile, FifoEvictionOrderIgnoresReReference) {
  // Lines A=0 B=1 C=2 in 1 set of 2 ways, sequence A B A C A. The A
  // re-reference does not refresh A's fill stamp, so C still evicts A
  // (the oldest fill) and the final A misses again: 4 FIFO misses.
  // LRU protects the re-referenced A and evicts B instead: 3 misses.
  const Trace t = lineTrace({0, 1, 0, 2, 0});
  const PolicyGridProfile fifo(t, ReplacementPolicy::FIFO, 4, 1, 2);
  EXPECT_EQ(fifo.accesses(), 5u);
  EXPECT_EQ(fifo.misses(1, 2), 4u);
  EXPECT_EQ(fifo.misses(1, 2),
            simPolicy(t, ReplacementPolicy::FIFO, 1, 2).misses());
  const AllAssocProfile lru(t, 4, 1, 2);
  EXPECT_EQ(lru.misses(1, 2), 3u);
}

TEST(PolicyGridProfile, PinnedBeladyAnomalyMoreWaysMoreMisses) {
  // Bélády's anomaly, pinned: FIFO over line sequence 3 4 1 2 0 3.
  // Both geometries hold four lines, yet the 2-set x 2-way cache takes
  // 5 misses while the fully associative 1-set x 4-way cache takes 6
  // (its round-robin cursor evicts line 3 under the fill of line 0, so
  // the final re-access of 3 misses; the split cache keeps 3 resident
  // in set 1). More ways, more misses at fixed capacity — FIFO grid
  // cells are not inclusive, which is exactly why PolicyGridProfile
  // simulates every cell instead of reading a Mattson histogram, and
  // why no "bigger cell hits => smaller cell hits" shortcut is legal.
  const Trace t = lineTrace({3, 4, 1, 2, 0, 3});
  const PolicyGridProfile p(t, ReplacementPolicy::FIFO, 4, 2, 4);
  EXPECT_EQ(p.misses(2, 2), 5u);
  EXPECT_EQ(p.misses(1, 4), 6u);
  EXPECT_EQ(p.misses(2, 2),
            simPolicy(t, ReplacementPolicy::FIFO, 2, 2).misses());
  EXPECT_EQ(p.misses(1, 4),
            simPolicy(t, ReplacementPolicy::FIFO, 1, 4).misses());
}

TEST(PolicyGridProfile, PlruTwoWaysDegeneratesToLru) {
  // A single tree bit over 2 ways is precise LRU: on A B A C A the
  // re-referenced A survives (3 misses, like AllAssocProfile), unlike
  // FIFO's 4 in FifoEvictionOrderIgnoresReReference.
  const Trace t = lineTrace({0, 1, 0, 2, 0});
  const PolicyGridProfile plru(t, ReplacementPolicy::TreePLRU, 4, 1, 2);
  EXPECT_EQ(plru.misses(1, 2), 3u);
  EXPECT_EQ(plru.misses(1, 2),
            simPolicy(t, ReplacementPolicy::TreePLRU, 1, 2).misses());
  const AllAssocProfile lru(t, 4, 1, 2);
  EXPECT_EQ(lru.misses(1, 2), plru.misses(1, 2));
}

TEST(PolicyGridProfile, PlruFourWayTreeBitFlips) {
  // A B C D A E B C in 1 set of 4 ways, tree bits hand-walked with
  // CacheSim's lo/hi/mid layout (root = bit 0, left child = bit 1,
  // right child = bit 2; a set bit points right, away from the touch):
  //   A miss w0 -> 011, B miss w1 -> 001, C miss w2 -> 100,
  //   D miss w3 -> 000, A hit w0 -> 011 (root now points right),
  //   E miss: root right, bit 2 clear -> victim w2 evicts C (LRU would
  //   evict B; FIFO would evict A), fill E -> 110,
  //   B hit w1 -> 101, C miss: root right, bit 2 set -> victim w3
  //   evicts D, fill C -> 000.
  // 6 misses, 2 hits — a count that separates tree-PLRU (6) from both
  // FIFO (5) and true LRU (7) on the same sequence.
  const Trace t = lineTrace({0, 1, 2, 3, 0, 4, 1, 2});
  const PolicyGridProfile plru(t, ReplacementPolicy::TreePLRU, 4, 1, 4);
  EXPECT_EQ(plru.misses(1, 4), 6u);
  EXPECT_EQ(plru.misses(1, 4),
            simPolicy(t, ReplacementPolicy::TreePLRU, 1, 4).misses());
  const PolicyGridProfile fifo(t, ReplacementPolicy::FIFO, 4, 1, 4);
  EXPECT_EQ(fifo.misses(1, 4), 5u);
  const AllAssocProfile lru(t, 4, 1, 4);
  EXPECT_EQ(lru.misses(1, 4), 7u);
}

TEST(PolicyGridProfile, PlruEightWayTreeBitFlips) {
  // Three tree levels: lines 0..7 cold-fill ways 0..7, then
  //   0 hit w0 (root and both level-1/2 bits on its path point right),
  //   8 miss: victim walk crosses the root into the upper half and
  //     evicts line 4 from w4,
  //   4 miss: w4's fill pointed the root left again, so the walk stays
  //     in the lower half and evicts line 2 from w2,
  //   9 miss: evicts line 6 from w6.
  // 11 misses, 1 hit (hand-walked against CacheSim's exact tree).
  const Trace t = lineTrace({0, 1, 2, 3, 4, 5, 6, 7, 0, 8, 4, 9});
  const PolicyGridProfile plru(t, ReplacementPolicy::TreePLRU, 4, 1, 8);
  EXPECT_EQ(plru.accesses(), 12u);
  EXPECT_EQ(plru.misses(1, 8), 11u);
  EXPECT_EQ(plru.misses(1, 8),
            simPolicy(t, ReplacementPolicy::TreePLRU, 1, 8).misses());
}

TEST(PolicyGridProfile, DirtyEvictionWritebackPerPolicy) {
  // w0 r0 w0 r4 r8 in 1 set of 2 ways. Re-dirtying resident line 0
  // through the MRU fast path (write, read hit, write again) must cost
  // exactly one writeback when r8's fill finally evicts it — for both
  // grid policies, matching the write-back simulator; the 1-way column
  // pays one writeback at r4 and evicts clean line 1 at r8.
  Trace t;
  t.push(writeRef(0, 4));
  t.push(readRef(0, 4));
  t.push(writeRef(0, 4));
  t.push(readRef(4, 4));
  t.push(readRef(8, 4));
  for (const ReplacementPolicy policy :
       {ReplacementPolicy::FIFO, ReplacementPolicy::TreePLRU}) {
    const PolicyGridProfile p(t, policy, 4, 1, 2);
    EXPECT_EQ(p.writebacks(1, 1), 1u) << toString(policy);
    EXPECT_EQ(p.writebacks(1, 2), 1u) << toString(policy);
    EXPECT_EQ(p.writebacks(1, 1), simPolicy(t, policy, 1, 1).writebacks);
    EXPECT_EQ(p.writebacks(1, 2), simPolicy(t, policy, 1, 2).writebacks);
    const CacheStats wb = p.stats(1, 2, WritePolicy::WriteBack);
    EXPECT_EQ(wb.writebacks, 1u) << toString(policy);
    EXPECT_EQ(wb.memWrites, 0u) << toString(policy);
    // Write-through never writes back; one word store per write probe.
    const CacheStats wt = p.stats(1, 2, WritePolicy::WriteThrough);
    EXPECT_EQ(wt.writebacks, 0u) << toString(policy);
    EXPECT_EQ(wt.memWrites, 2u) << toString(policy);
    EXPECT_EQ(wt.misses(), wb.misses()) << toString(policy);
  }
}

TEST(PolicyGridProfile, ChunkedFeedIsBitIdenticalToOnePass) {
  // Cell state persists across feed() calls (Random cells' generators
  // included), so any chunking — even one that lands mid-straddle —
  // matches a whole-trace pass.
  for (const ReplacementPolicy policy :
       {ReplacementPolicy::FIFO, ReplacementPolicy::TreePLRU,
        ReplacementPolicy::Random}) {
    const Trace trace = randomCheckTrace(11, 150, 600);
    const PolicyGridProfile whole(trace, policy, 8, 4, 4);
    PolicyGridProfile chunked(policy, 8, 4, 4);
    std::size_t fed = 0;
    std::size_t chunk = 1;
    while (fed < trace.size()) {
      const std::size_t n = std::min(chunk, trace.size() - fed);
      chunked.feed(trace.refs().data() + fed, n);
      fed += n;
      chunk = chunk * 2 + 1;
    }
    for (const std::uint32_t sets : {1u, 2u, 4u}) {
      for (const std::uint32_t assoc : {1u, 2u, 4u}) {
        ASSERT_EQ(chunked.misses(sets, assoc), whole.misses(sets, assoc))
            << toString(policy) << " sets=" << sets << " ways=" << assoc;
        ASSERT_EQ(chunked.writebacks(sets, assoc),
                  whole.writebacks(sets, assoc))
            << toString(policy) << " sets=" << sets << " ways=" << assoc;
      }
    }
  }
}

TEST(PolicyGridProfile, RestrictedCellsMatchFullGridAndGuardTheRest) {
  // Cells are independent (no inclusion — see the pinned anomaly
  // above), so a pass restricted to the cells a bank queries must be
  // bit-identical to the full lattice on those cells; the masked-off
  // cells are never simulated and their accessors enforce it. Random
  // cells each own their generator, so masking a cell off shifts no
  // other cell's victim stream.
  for (const ReplacementPolicy policy :
       {ReplacementPolicy::FIFO, ReplacementPolicy::TreePLRU,
        ReplacementPolicy::Random}) {
    const Trace trace = randomCheckTrace(13, 150, 600);
    const PolicyGridProfile whole(trace, policy, 8, 8, 4);
    PolicyGridProfile narrow(policy, 8, 8, 4);
    // A diagonal plus one corner — the shape sweeps actually query.
    const std::vector<std::pair<std::uint32_t, std::uint32_t>> queried = {
        {1, 1}, {2, 2}, {4, 4}, {8, 1}};
    narrow.restrictCells(queried);
    EXPECT_EQ(narrow.cellCount(), 4u);
    EXPECT_EQ(whole.cellCount(), 12u);
    narrow.feed(trace);
    for (const auto& [sets, ways] : queried) {
      ASSERT_EQ(narrow.misses(sets, ways), whole.misses(sets, ways))
          << toString(policy) << " sets=" << sets << " ways=" << ways;
      ASSERT_EQ(narrow.lineFills(sets, ways), whole.lineFills(sets, ways))
          << toString(policy) << " sets=" << sets << " ways=" << ways;
      ASSERT_EQ(narrow.writebacks(sets, ways), whole.writebacks(sets, ways))
          << toString(policy) << " sets=" << sets << " ways=" << ways;
    }
    // Unrestricted-pass invariants that do not depend on cells.
    EXPECT_EQ(narrow.accesses(), whole.accesses());
    EXPECT_EQ(narrow.lineProbes(), whole.lineProbes());
    // A masked-off cell was never simulated; querying it is a contract
    // violation, not a silent zero.
    EXPECT_THROW((void)narrow.misses(1, 2), ContractViolation);
    EXPECT_THROW((void)narrow.stats(2, 4, WritePolicy::WriteBack),
                 ContractViolation);
  }

  // The restriction must precede the first feed (cell state cannot be
  // reconstructed mid-trace), the list must be non-empty, and every
  // listed cell must lie inside the profiled grid.
  PolicyGridProfile late(ReplacementPolicy::FIFO, 8, 4, 2);
  Trace t;
  t.push(readRef(0));
  late.feed(t);
  EXPECT_THROW(late.restrictCells({{1, 1}}), ContractViolation);
  PolicyGridProfile fresh(ReplacementPolicy::FIFO, 8, 4, 2);
  EXPECT_THROW(fresh.restrictCells({}), ContractViolation);
  EXPECT_THROW(fresh.restrictCells({{8, 1}}), ContractViolation);
  EXPECT_THROW(fresh.restrictCells({{3, 1}}), ContractViolation);
}

TEST(PolicyGridProfile, RejectsBadArguments) {
  Trace t;
  t.push(readRef(0));
  using PGP = PolicyGridProfile;
  const ReplacementPolicy fifo = ReplacementPolicy::FIFO;
  EXPECT_THROW(PGP(t, ReplacementPolicy::LRU, 8, 4, 2), ContractViolation);
  EXPECT_THROW(PGP(t, fifo, 12, 4, 2), ContractViolation);  // L not pow2
  EXPECT_THROW(PGP(t, fifo, 8, 3, 2), ContractViolation);   // sets not pow2
  EXPECT_THROW(PGP(t, fifo, 8, 4, 0), ContractViolation);
  EXPECT_THROW(PGP(t, fifo, 8, 4, 128), ContractViolation);  // > 64 ways

  const PGP p(t, fifo, 8, 4, 2);
  EXPECT_THROW((void)p.misses(3, 1), ContractViolation);   // not pow2
  EXPECT_THROW((void)p.misses(8, 1), ContractViolation);   // > maxSets
  EXPECT_THROW((void)p.misses(1, 0), ContractViolation);   // ways < 1
  EXPECT_THROW((void)p.misses(1, 3), ContractViolation);   // > maxAssoc

  Trace bad;
  bad.push(MemRef{0, 0, AccessType::Read});
  EXPECT_THROW(PGP(bad, fifo, 8, 1, 1), ContractViolation);
}

// --- StackDistSim ----------------------------------------------------

/// Every member of `bank` after one StackDistSim run must match a
/// per-config simulateTrace (CacheSim, same default seed), every field.
void expectBankMatchesPerConfigSimulation(
    const std::vector<CacheConfig>& bank, const Trace& trace,
    std::uint64_t seed) {
  StackDistSim profiled(bank);
  profiled.run(trace);
  for (std::size_t i = 0; i < bank.size(); ++i) {
    const CacheStats want = simulateTrace(bank[i], trace);
    const CacheStats& got = profiled.stats(i);
    const std::string where = "seed " + std::to_string(seed) + " " +
                              bank[i].label() + " " +
                              toString(bank[i].replacement);
    ASSERT_EQ(got.readMisses, want.readMisses) << where;
    ASSERT_EQ(got.writeMisses, want.writeMisses) << where;
    ASSERT_EQ(got.readHits, want.readHits) << where;
    ASSERT_EQ(got.writeHits, want.writeHits) << where;
    ASSERT_EQ(got.lineFills, want.lineFills) << where;
    ASSERT_EQ(got.memWrites, want.memWrites) << where;
    ASSERT_EQ(got.writebacks, want.writebacks) << where;
  }
}

TEST(StackDistSim, MatchesPerConfigSimulationAcrossRandomLruBanks) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    // Mixed line sizes in one bank exercise the per-line-size grouping.
    const std::vector<CacheConfig> bank = {
        randomLruCacheConfig(seed),
        randomLruCacheConfig(seed + 1000),
        randomLruCacheConfig(seed + 2000),
    };
    expectBankMatchesPerConfigSimulation(
        bank, randomCheckTrace(seed, 200, 800), seed);
  }
}

TEST(StackDistSim, GroupsSharingALineSizeUseOnePass) {
  CacheConfig a = randomLruCacheConfig(2);  // write-back variant
  CacheConfig b = a;
  b.associativity = 1;
  CacheConfig c = a;
  c.sizeBytes *= 2;
  CacheConfig d = a;
  d.lineBytes *= 2;
  d.sizeBytes *= 2;
  const StackDistSim bankSim({a, b, c, d});
  EXPECT_EQ(bankSim.size(), 4u);
  EXPECT_EQ(bankSim.passCount(), 2u);  // two distinct line sizes
}

TEST(StackDistSim, RejectsConfigsOutsideItsDomain) {
  // FIFO, tree-PLRU and Random sweeps are served by the
  // PolicyGridProfile engine; only no-write-allocate caches (writes
  // bypass the cache, which no profile models) are refused.
  CacheConfig fifo = randomLruCacheConfig(1);
  fifo.replacement = ReplacementPolicy::FIFO;
  EXPECT_TRUE(StackDistSim::supports(fifo));

  CacheConfig plru = randomLruCacheConfig(1);
  plru.replacement = ReplacementPolicy::TreePLRU;
  EXPECT_TRUE(StackDistSim::supports(plru));

  CacheConfig rnd = randomLruCacheConfig(1);
  rnd.replacement = ReplacementPolicy::Random;
  EXPECT_TRUE(StackDistSim::supports(rnd));

  CacheConfig noAlloc = randomLruCacheConfig(1);
  noAlloc.allocatePolicy = AllocatePolicy::NoWriteAllocate;
  EXPECT_FALSE(StackDistSim::supports(noAlloc));
  EXPECT_THROW(StackDistSim({noAlloc}), ContractViolation);

  EXPECT_TRUE(StackDistSim::supports(randomLruCacheConfig(1)));
  EXPECT_THROW(StackDistSim({}), ContractViolation);
}

TEST(StackDistSim, FifoAndPlruGroupsUseTheGridEngine) {
  CacheConfig lru = randomLruCacheConfig(2);
  CacheConfig fifo = lru;
  fifo.replacement = ReplacementPolicy::FIFO;
  CacheConfig plru = lru;
  plru.replacement = ReplacementPolicy::TreePLRU;
  plru.sizeBytes *= 2;
  const StackDistSim bank({lru, fifo, plru});
  EXPECT_EQ(bank.size(), 3u);
  // Same line size but three distinct replacement policies: one LRU
  // pass plus two analytic grid passes.
  EXPECT_EQ(bank.passCount(), 3u);
  EXPECT_EQ(bank.gridPassCount(), 2u);
  EXPECT_GT(bank.gridCellCount(), 0u);
}

TEST(StackDistSim, MatchesPerConfigSimulationAcrossRandomGridBanks) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    CacheConfig fifo = randomLruCacheConfig(seed);
    fifo.replacement = ReplacementPolicy::FIFO;
    CacheConfig plru = randomLruCacheConfig(seed + 1000);
    plru.replacement = ReplacementPolicy::TreePLRU;
    // A Random member plus its direct-mapped and fully associative
    // siblings: the cell that never draws and the one that draws over
    // every way.
    CacheConfig rnd = randomLruCacheConfig(seed + 3000);
    rnd.replacement = ReplacementPolicy::Random;
    CacheConfig rndDm = rnd;
    rndDm.associativity = 1;
    CacheConfig rndFa = rnd;
    rndFa.associativity = std::min(rnd.numLines(), 64u);
    const std::vector<CacheConfig> bank = {
        fifo, plru, rnd, rndDm, rndFa, randomLruCacheConfig(seed + 2000)};
    expectBankMatchesPerConfigSimulation(
        bank, randomCheckTrace(seed, 200, 800), seed);
  }
}

TEST(StackDistSim, IsSingleShot) {
  StackDistSim bank({randomLruCacheConfig(3)});
  EXPECT_THROW((void)bank.stats(0), ContractViolation);  // before run()
  const Trace trace = randomCheckTrace(3, 50, 100);
  bank.run(trace);
  (void)bank.stats(0);
  EXPECT_THROW(bank.run(trace), ContractViolation);
}

TEST(StackDistSim, ConvenienceWrapperPreservesInputOrder) {
  const std::vector<CacheConfig> bank = {randomLruCacheConfig(5),
                                         randomLruCacheConfig(6)};
  const Trace trace = randomCheckTrace(5, 100, 200);
  const std::vector<CacheStats> stats = stackDistStats(bank, trace);
  ASSERT_EQ(stats.size(), 2u);
  StackDistSim direct(bank);
  direct.run(trace);
  for (std::size_t i = 0; i < bank.size(); ++i) {
    EXPECT_EQ(stats[i].misses(), direct.stats(i).misses());
    EXPECT_EQ(stats[i].accesses(), direct.stats(i).accesses());
  }
}

}  // namespace
}  // namespace memx
