#include "memx/stackdist/policy_grid.hpp"

#include <algorithm>
#include <bit>
#include <limits>

#include "memx/util/assert.hpp"
#include "memx/util/bits.hpp"

namespace memx {
namespace {

/// Seed of every Random cell's generator: CacheSim's default rngSeed,
/// so cell (sets, ways) draws exactly the victims a standalone
/// simulateTrace of that geometry draws.
constexpr std::uint64_t kRandomSeed = 1;

/// CacheSim::plruTouch on a caller-held word: walk the lo/hi/mid tree
/// toward `way`, pointing every traversed node away from it. Identical
/// bit layout to CacheSim for every associativity it can represent (its
/// tree word is 32-bit, capping it at 33 ways; this one is 64-bit and
/// serves the full ways <= 64 grid).
inline void plruTouchWord(std::uint64_t& bits, std::size_t way,
                          std::uint32_t assoc) {
  std::size_t node = 0;
  std::size_t lo = 0;
  std::size_t hi = assoc;
  while (hi - lo > 1) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (way < mid) {
      bits |= (std::uint64_t{1} << node);  // point right, away
      node = 2 * node + 1;
      hi = mid;
    } else {
      bits &= ~(std::uint64_t{1} << node);  // point left
      node = 2 * node + 2;
      lo = mid;
    }
  }
}

/// CacheSim::plruVictim on a caller-held word: follow the pointers.
[[nodiscard]] inline std::size_t plruVictimWord(std::uint64_t bits,
                                                std::uint32_t assoc) {
  std::size_t node = 0;
  std::size_t lo = 0;
  std::size_t hi = assoc;
  while (hi - lo > 1) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (bits & (std::uint64_t{1} << node)) {  // points right
      node = 2 * node + 2;
      lo = mid;
    } else {
      node = 2 * node + 1;
      hi = mid;
    }
  }
  return lo;
}

}  // namespace

PolicyGridProfile::PolicyGridProfile(ReplacementPolicy policy,
                                     std::uint32_t lineBytes,
                                     std::uint32_t maxSets,
                                     std::uint32_t maxAssoc)
    : policy_(policy), lineBytes_(lineBytes) {
  MEMX_EXPECTS(policy != ReplacementPolicy::LRU,
               "PolicyGridProfile models FIFO, TreePLRU and Random only "
               "(LRU grids belong to AllAssocProfile)");
  MEMX_EXPECTS(isPow2(lineBytes), "lineBytes must be a power of two");
  MEMX_EXPECTS(isPow2(maxSets), "maxSets must be a power of two");
  MEMX_EXPECTS(isPow2(maxAssoc), "maxAssoc must be a power of two");
  MEMX_EXPECTS(maxAssoc <= 64,
               "per-set dirty mask and PLRU tree bits pack into one word, "
               "capping the grid at 64 ways");
  // The key arrays total (2*maxSets - 1) * (2*maxAssoc - 1) slots; the
  // same budget AllAssocProfile enforces, covering every geometry
  // pow2Range can produce by orders of magnitude.
  const auto totalSlots = (2 * static_cast<std::uint64_t>(maxSets) - 1) *
                          (2 * static_cast<std::uint64_t>(maxAssoc) - 1);
  MEMX_EXPECTS(totalSlots <= (std::uint64_t{1} << 28),
               "maxSets * maxAssoc grid too large");

  lineShift_ = log2Exact(lineBytes);
  numS_ = log2Exact(maxSets) + 1;
  numJ_ = log2Exact(maxAssoc) + 1;

  const std::size_t cells = std::size_t{numS_} * numJ_;
  readMiss_.assign(cells, 0);
  writeMiss_.assign(cells, 0);
  lineFill_.assign(cells, 0);
  dirtyEvict_.assign(cells, 0);
  anyMiss_.assign(cells, 0);

  levelMask_.assign(numS_, (1u << numJ_) - 1);  // numJ_ <= 7
  rebuildPlan();
}

void PolicyGridProfile::rebuildPlan() {
  levels_.clear();
  cellPlan_.clear();
  std::size_t keyNext = 0;
  std::size_t setNext = 0;
  std::size_t mruNext = 0;
  for (unsigned s = 0; s < numS_; ++s) {
    if (levelMask_[s] == 0) continue;
    LevelPlan lv;
    lv.s = s;
    lv.setMask = (std::uint64_t{1} << s) - 1;
    lv.mruBase = mruNext;
    lv.keyBase = keyNext;
    lv.setBase = setNext;
    lv.cellBegin = static_cast<std::uint32_t>(cellPlan_.size());
    std::uint32_t keyStride = 0;
    std::uint32_t setStride = 0;
    for (std::uint32_t rem = levelMask_[s]; rem != 0; rem &= rem - 1) {
      const auto j = static_cast<unsigned>(std::countr_zero(rem));
      const std::size_t cell = std::size_t{s} * numJ_ + j;
      cellPlan_.push_back(CellPlan{j, 1u << j,
                                   static_cast<std::uint32_t>(cell),
                                   keyStride, setStride});
      keyStride += 1u << j;
      setStride += 1;
    }
    lv.keyStride = keyStride;
    lv.setStride = setStride;
    lv.cellEnd = static_cast<std::uint32_t>(cellPlan_.size());
    levels_.push_back(lv);
    keyNext += (std::size_t{1} << s) * keyStride;
    setNext += (std::size_t{1} << s) * setStride;
    mruNext += std::size_t{1} << s;
  }
  activeCells_ = cellPlan_.size();

  keys_.assign(keyNext, 0);
  dirtyMask_.assign(setNext, 0);
  if (policy_ == ReplacementPolicy::FIFO) {
    cursor_.assign(setNext, 0);
  } else if (policy_ == ReplacementPolicy::TreePLRU) {
    treeBits_.assign(setNext, 0);
  } else {
    // One generator per active cell, seeded like CacheSim's default.
    rng_.assign(activeCells_, std::mt19937_64(kRandomSeed));
  }
  mruKey_.assign(mruNext, 0);
  mruDirty_.assign(mruNext, 0);
}

void PolicyGridProfile::restrictCells(
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>& cells) {
  MEMX_EXPECTS(probes_ == 0 && reads_ == 0 && writes_ == 0,
               "restrictCells must be called before the first feed");
  MEMX_EXPECTS(!cells.empty(),
               "a restricted pass needs at least one (sets, ways) cell");
  std::fill(levelMask_.begin(), levelMask_.end(), 0u);
  for (const auto& [numSets, assoc] : cells) {
    const std::size_t cell = cellIndex(numSets, assoc);
    levelMask_[cell / numJ_] |= (1u << (cell % numJ_));
  }
  rebuildPlan();
}

PolicyGridProfile::PolicyGridProfile(const Trace& trace,
                                     ReplacementPolicy policy,
                                     std::uint32_t lineBytes,
                                     std::uint32_t maxSets,
                                     std::uint32_t maxAssoc)
    : PolicyGridProfile(policy, lineBytes, maxSets, maxAssoc) {
  feed(trace);
}

void PolicyGridProfile::feed(const MemRef* refs, std::size_t count) {
  switch (policy_) {
    case ReplacementPolicy::FIFO:
      feedImpl<ReplacementPolicy::FIFO>(refs, count);
      break;
    case ReplacementPolicy::TreePLRU:
      feedImpl<ReplacementPolicy::TreePLRU>(refs, count);
      break;
    case ReplacementPolicy::Random:
      feedImpl<ReplacementPolicy::Random>(refs, count);
      break;
    case ReplacementPolicy::LRU:
      break;  // refused by the constructor
  }
}

template <ReplacementPolicy kPolicy, bool kWrite, bool kStraddle>
void PolicyGridProfile::probeLevel(const LevelPlan& level,
                                   std::uint64_t setIdx, std::uint64_t key,
                                   std::uint64_t* missCounters) {
  constexpr bool kPlru = kPolicy == ReplacementPolicy::TreePLRU;
  // Visit only the active cells of this level (all of them on an
  // unrestricted pass) through the flat plan descriptors. The level's
  // state is set-major, so every cell's slots for this set index sit
  // in the two strips resolved here.
  std::uint64_t* const keyStrip =
      keys_.data() + level.keyBase +
      static_cast<std::size_t>(setIdx) * level.keyStride;
  const std::size_t setRow =
      level.setBase + static_cast<std::size_t>(setIdx) * level.setStride;
  const CellPlan* cp = cellPlan_.data() + level.cellBegin;
  const CellPlan* const end = cellPlan_.data() + level.cellEnd;
  for (; cp != end; ++cp) {
    const std::uint32_t ways = cp->ways;
    std::uint64_t* const keys = keyStrip + cp->keySub;
    const std::size_t m = setRow + cp->setSub;

    // Valid slots form a prefix (fills prefer the first empty way and
    // nothing invalidates), so the scan stops at the first empty slot.
    std::uint32_t firstEmpty = ways;
    std::uint32_t hitWay = ways;
    for (std::uint32_t w = 0; w < ways; ++w) {
      const std::uint64_t k = keys[w];
      if (k == key) {
        hitWay = w;
        break;
      }
      if (k == 0) {
        firstEmpty = w;
        break;
      }
    }

    if (hitWay < ways) {
      // Hit: FIFO and Random leave their state untouched; PLRU
      // re-points the tree; a write dirties the way. No counters — hits
      // are derived.
      if constexpr (kPlru) plruTouchWord(treeBits_[m], hitWay, ways);
      if constexpr (kWrite) dirtyMask_[m] |= (std::uint64_t{1} << hitWay);
      continue;
    }

    // Miss: pick the victim exactly as CacheSim::victimWay does. For
    // FIFO the first-empty-then-oldest-fill rule *is* a cyclic cursor
    // (fills land at 0, 1, ... in order, stamps only ever grow); for
    // PLRU and Random the first empty way wins before the tree or the
    // cell's generator is consulted, and a 1-way cell never draws
    // (CacheSim's direct-mapped path has no victim choice to make).
    std::uint32_t victim;
    if constexpr (kPolicy == ReplacementPolicy::FIFO) {
      victim = cursor_[m];
      cursor_[m] = (victim + 1) & (ways - 1);
    } else if constexpr (kPlru) {
      victim = firstEmpty < ways
                   ? firstEmpty
                   : static_cast<std::uint32_t>(
                         plruVictimWord(treeBits_[m], ways));
    } else {
      victim = firstEmpty;
      if (firstEmpty == ways) {
        victim = 0;
        if (ways > 1) {
          std::uniform_int_distribution<std::size_t> dist(0, ways - 1);
          victim = static_cast<std::uint32_t>(
              dist(rng_[static_cast<std::size_t>(cp - cellPlan_.data())]));
        }
      }
    }
    const std::uint64_t evicted = keys[victim];
    if (evicted != 0 && ((dirtyMask_[m] >> victim) & 1) != 0) {
      ++dirtyEvict_[cp->cell];
    }
    keys[victim] = key;
    if constexpr (kWrite) {
      dirtyMask_[m] |= (std::uint64_t{1} << victim);
    } else {
      dirtyMask_[m] &= ~(std::uint64_t{1} << victim);
    }
    if constexpr (kPlru) plruTouchWord(treeBits_[m], victim, ways);
    ++lineFill_[cp->cell];
    if constexpr (kStraddle) {
      anyMiss_[cp->cell] = 1;
    } else {
      ++missCounters[cp->cell];
    }
  }
}

template <ReplacementPolicy kPolicy>
void PolicyGridProfile::feedImpl(const MemRef* refs, std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    const MemRef& ref = refs[i];
    MEMX_EXPECTS(ref.size > 0, "access size must be positive");
    const bool readLike = isReadLike(ref.type);
    if (readLike) {
      ++reads_;
    } else {
      ++writes_;
    }
    std::vector<std::uint64_t>& refMiss = readLike ? readMiss_ : writeMiss_;

    const std::uint64_t firstLine = ref.addr >> lineShift_;
    const std::uint64_t lastLine = (ref.addr + ref.size - 1) >> lineShift_;

    if (firstLine == lastLine) {
      // Fast path — an access contained in one line (the overwhelmingly
      // common case): the reference misses a cell iff its single probe
      // does, so probeLevel charges misses straight to the counters.
      ++probes_;
      if (!readLike) ++writeProbes_;
      const std::uint64_t key = firstLine + 1;
      for (const LevelPlan& lv : levels_) {
        const std::uint64_t idx = firstLine & lv.setMask;
        const std::size_t m = lv.mruBase + static_cast<std::size_t>(idx);
        if (mruKey_[m] == key && (readLike || mruDirty_[m] != 0)) {
          // MRU short-circuit: the previous probe of this set was this
          // line, so it is resident in every cell — and a finer set's
          // probes are a subsequence of this one's, so every remaining
          // level is an MRU re-touch too. Writes take this exit only
          // when that previous probe left the line dirty everywhere.
          break;
        }
        if (readLike) {
          probeLevel<kPolicy, false, false>(lv, idx, key, refMiss.data());
        } else {
          probeLevel<kPolicy, true, false>(lv, idx, key, refMiss.data());
        }
        // In the slow path the old MRU entry never satisfies the write
        // fast-path test, so `isWrite` alone is the new dirty flag.
        mruKey_[m] = key;
        mruDirty_[m] = readLike ? 0 : 1;
      }
      continue;
    }

    // A straddling access probes every touched line; the reference
    // misses a cell iff any probe does (CacheSim's per-access rule),
    // merged through the per-cell scratch flags.
    for (const CellPlan& cp : cellPlan_) anyMiss_[cp.cell] = 0;
    for (std::uint64_t line = firstLine; line <= lastLine; ++line) {
      ++probes_;
      if (!readLike) ++writeProbes_;
      const std::uint64_t key = line + 1;
      for (const LevelPlan& lv : levels_) {
        const std::uint64_t idx = line & lv.setMask;
        const std::size_t m = lv.mruBase + static_cast<std::size_t>(idx);
        if (mruKey_[m] == key && (readLike || mruDirty_[m] != 0)) break;
        if (readLike) {
          probeLevel<kPolicy, false, true>(lv, idx, key, nullptr);
        } else {
          probeLevel<kPolicy, true, true>(lv, idx, key, nullptr);
        }
        mruKey_[m] = key;
        mruDirty_[m] = readLike ? 0 : 1;
      }
      if (line == std::numeric_limits<std::uint64_t>::max()) break;
    }
    for (const CellPlan& cp : cellPlan_) {
      if (anyMiss_[cp.cell] != 0) ++refMiss[cp.cell];
    }
  }
}

std::size_t PolicyGridProfile::cellIndex(std::uint32_t numSets,
                                         std::uint32_t assoc) const {
  MEMX_EXPECTS(isPow2(numSets), "numSets must be a power of two");
  MEMX_EXPECTS(isPow2(assoc), "associativity must be a power of two");
  const unsigned s = log2Exact(numSets);
  const unsigned j = log2Exact(assoc);
  MEMX_EXPECTS(s < numS_, "numSets exceeds the profiled maxSets");
  MEMX_EXPECTS(j < numJ_, "associativity exceeds the profiled maxAssoc");
  return std::size_t{s} * numJ_ + j;
}

std::size_t PolicyGridProfile::cellOf(std::uint32_t numSets,
                                      std::uint32_t assoc) const {
  const std::size_t cell = cellIndex(numSets, assoc);
  MEMX_EXPECTS(((levelMask_[cell / numJ_] >> (cell % numJ_)) & 1u) != 0,
               "cell was masked off by restrictCells and never simulated");
  return cell;
}

std::uint64_t PolicyGridProfile::misses(std::uint32_t numSets,
                                        std::uint32_t assoc) const {
  const std::size_t cell = cellOf(numSets, assoc);
  return readMiss_[cell] + writeMiss_[cell];
}

std::uint64_t PolicyGridProfile::readMisses(std::uint32_t numSets,
                                            std::uint32_t assoc) const {
  return readMiss_[cellOf(numSets, assoc)];
}

std::uint64_t PolicyGridProfile::writeMisses(std::uint32_t numSets,
                                             std::uint32_t assoc) const {
  return writeMiss_[cellOf(numSets, assoc)];
}

std::uint64_t PolicyGridProfile::lineFills(std::uint32_t numSets,
                                           std::uint32_t assoc) const {
  return lineFill_[cellOf(numSets, assoc)];
}

std::uint64_t PolicyGridProfile::writebacks(std::uint32_t numSets,
                                            std::uint32_t assoc) const {
  return dirtyEvict_[cellOf(numSets, assoc)];
}

CacheStats PolicyGridProfile::stats(std::uint32_t numSets,
                                    std::uint32_t assoc,
                                    WritePolicy writePolicy) const {
  CacheStats out;
  out.reads = reads_;
  out.writes = writes_;
  out.readMisses = readMisses(numSets, assoc);
  out.readHits = reads_ - out.readMisses;
  out.writeMisses = writeMisses(numSets, assoc);
  out.writeHits = writes_ - out.writeMisses;
  out.lineFills = lineFills(numSets, assoc);
  // Write-through lines never dirty, so only write-back evicts dirty
  // lines; conversely only write-through stores words through to
  // memory. Both match CacheSim field for field (the dirty tracking of
  // the pass never influences victim selection, so one pass serves
  // both policies).
  out.writebacks = writePolicy == WritePolicy::WriteBack
                       ? writebacks(numSets, assoc)
                       : 0;
  out.memWrites =
      writePolicy == WritePolicy::WriteThrough ? writeProbes_ : 0;
  return out;
}

}  // namespace memx
