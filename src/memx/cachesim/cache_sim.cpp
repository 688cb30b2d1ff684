#include "memx/cachesim/cache_sim.hpp"

#include <algorithm>

#include "memx/util/assert.hpp"
#include "memx/util/bits.hpp"

namespace memx {

CacheSim::CacheSim(const CacheConfig& config, std::uint64_t rngSeed)
    : config_(config), rng_(rngSeed) {
  config_.validate();
  // The PLRU tree over A ways has A - 1 internal nodes packed into one
  // word per set, so the policy is representable up to 64 ways; wider
  // trees would silently wrap the node shifts below, so refuse loudly.
  MEMX_EXPECTS(config_.replacement != ReplacementPolicy::TreePLRU ||
                   config_.associativity <= 64,
               "TreePLRU supports at most 64 ways per set");
  lineShift_ = log2Exact(config_.lineBytes);
  setShift_ = log2Exact(config_.numSets());
  setMask_ = config_.numSets() - 1;
  lines_.resize(static_cast<std::size_t>(config_.numSets()) *
                config_.associativity);
  plruBits_.assign(config_.numSets(), 0);
}

void CacheSim::plruTouch(std::uint32_t setIndex, std::size_t way) {
  // The tree is only consulted by plruVictim, so policies other than
  // TreePLRU need not maintain it.
  if (config_.replacement != ReplacementPolicy::TreePLRU ||
      config_.associativity < 2) {
    return;
  }
  std::uint64_t& bits = plruBits_[setIndex];
  std::size_t node = 0;
  std::size_t lo = 0;
  std::size_t hi = config_.associativity;
  while (hi - lo > 1) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (way < mid) {
      bits |= (std::uint64_t{1} << node);  // point right, away from
      node = 2 * node + 1;                 // the touched way
      hi = mid;
    } else {
      bits &= ~(std::uint64_t{1} << node);  // point left
      node = 2 * node + 2;
      lo = mid;
    }
  }
}

std::size_t CacheSim::plruVictim(std::uint32_t setIndex) const {
  if (config_.associativity < 2) return 0;
  const std::uint64_t bits = plruBits_[setIndex];
  std::size_t node = 0;
  std::size_t lo = 0;
  std::size_t hi = config_.associativity;
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

std::uint32_t CacheSim::setIndexOf(std::uint64_t addr) const noexcept {
  return static_cast<std::uint32_t>((addr >> lineShift_) & setMask_);
}

std::uint64_t CacheSim::tagOf(std::uint64_t addr) const noexcept {
  return addr >> lineShift_ >> setShift_;
}

bool CacheSim::contains(std::uint64_t addr) const {
  const std::uint32_t set = setIndexOf(addr);
  const std::uint64_t tag = tagOf(addr);
  const std::size_t base =
      static_cast<std::size_t>(set) * config_.associativity;
  for (std::size_t w = 0; w < config_.associativity; ++w) {
    const Line& line = lines_[base + w];
    if (line.valid && line.tag == tag) return true;
  }
  return false;
}

std::size_t CacheSim::validLineCount() const {
  return static_cast<std::size_t>(
      std::count_if(lines_.begin(), lines_.end(),
                    [](const Line& l) { return l.valid; }));
}

std::size_t CacheSim::victimWay(std::uint32_t setIndex) {
  const std::size_t base =
      static_cast<std::size_t>(setIndex) * config_.associativity;
  switch (config_.replacement) {
    case ReplacementPolicy::LRU:
    case ReplacementPolicy::FIFO: {
      // One scan serves both: prefer the first invalid way, else the
      // oldest stamp (last use for LRU, fill time for FIFO).
      std::size_t best = 0;
      std::uint64_t bestStamp = ~std::uint64_t{0};
      for (std::size_t w = 0; w < config_.associativity; ++w) {
        const Line& line = lines_[base + w];
        if (!line.valid) return w;
        if (line.stamp < bestStamp) {
          bestStamp = line.stamp;
          best = w;
        }
      }
      return best;
    }
    case ReplacementPolicy::Random: {
      for (std::size_t w = 0; w < config_.associativity; ++w) {
        if (!lines_[base + w].valid) return w;
      }
      std::uniform_int_distribution<std::size_t> dist(
          0, config_.associativity - 1);
      return dist(rng_);
    }
    case ReplacementPolicy::TreePLRU: {
      for (std::size_t w = 0; w < config_.associativity; ++w) {
        if (!lines_[base + w].valid) return w;
      }
      return plruVictim(setIndex);
    }
  }
  return 0;
}

bool CacheSim::probeLineIndex(std::uint64_t lineIndex, AccessType type,
                              AccessOutcome* outcome) {
  const std::uint32_t set = static_cast<std::uint32_t>(lineIndex & setMask_);
  const std::uint64_t tag = lineIndex >> setShift_;

  if (config_.associativity == 1) {
    // Direct-mapped: way 0 of the set is the only candidate, every
    // replacement policy degenerates to it, and the stamp/clock are
    // never read. Same statistics as the set-associative path below.
    Line& line = lines_[set];
    if (line.valid && line.tag == tag) {
      if (type == AccessType::Write) {
        if (config_.writePolicy == WritePolicy::WriteBack) {
          line.dirty = true;
        } else {
          ++stats_.memWrites;
        }
      }
      return true;
    }
    if (!isReadLike(type) &&
        config_.allocatePolicy != AllocatePolicy::WriteAllocate) {
      ++stats_.memWrites;
      return false;
    }
    if (line.valid && line.dirty) {
      ++stats_.writebacks;
      if (outcome != nullptr) {
        ++outcome->writebacks;
        outcome->evictedDirtyLines.push_back(
            ((line.tag << setShift_) | set) << lineShift_);
      }
    }
    line.valid = true;
    line.tag = tag;
    line.dirty = false;
    ++stats_.lineFills;
    if (outcome != nullptr) ++outcome->fills;
    if (type == AccessType::Write) {
      if (config_.writePolicy == WritePolicy::WriteBack) {
        line.dirty = true;
      } else {
        ++stats_.memWrites;
      }
    }
    return false;
  }

  const std::size_t base =
      static_cast<std::size_t>(set) * config_.associativity;
  ++clock_;

  for (std::size_t w = 0; w < config_.associativity; ++w) {
    Line& line = lines_[base + w];
    if (line.valid && line.tag == tag) {
      if (config_.replacement == ReplacementPolicy::LRU) line.stamp = clock_;
      plruTouch(set, w);
      if (type == AccessType::Write) {
        if (config_.writePolicy == WritePolicy::WriteBack) {
          line.dirty = true;
        } else {
          ++stats_.memWrites;
        }
      }
      return true;
    }
  }

  // Miss.
  const bool allocate = isReadLike(type) ||
                        config_.allocatePolicy == AllocatePolicy::WriteAllocate;
  if (!allocate) {
    ++stats_.memWrites;  // write straight around the cache
    return false;
  }

  const std::size_t w = victimWay(set);
  Line& victim = lines_[base + w];
  if (victim.valid && victim.dirty) {
    ++stats_.writebacks;
    if (outcome != nullptr) {
      ++outcome->writebacks;
      // Reconstruct the victim's byte address from tag and set index.
      outcome->evictedDirtyLines.push_back(
          ((victim.tag << setShift_) | set) << lineShift_);
    }
  }
  victim.valid = true;
  victim.tag = tag;
  victim.stamp = clock_;
  victim.dirty = false;
  plruTouch(set, w);
  ++stats_.lineFills;
  if (outcome != nullptr) ++outcome->fills;
  if (type == AccessType::Write) {
    if (config_.writePolicy == WritePolicy::WriteBack) {
      victim.dirty = true;
    } else {
      ++stats_.memWrites;
    }
  }
  return false;
}

AccessOutcome CacheSim::access(const MemRef& ref) {
  MEMX_EXPECTS(ref.size > 0, "access size must be positive");
  AccessOutcome outcome;
  bool allHit = true;
  const std::uint64_t lastLine = (ref.addr + ref.size - 1) >> lineShift_;
  for (std::uint64_t line = ref.addr >> lineShift_; line <= lastLine;
       ++line) {
    allHit &= probeLineIndex(line, ref.type, &outcome);
  }
  outcome.hit = allHit;
  countAccess(allHit, ref.type);
  return outcome;
}

void CacheSim::accessLinesFast(std::uint64_t firstLine,
                               std::uint64_t lastLine, AccessType type) {
  bool allHit = true;
  for (std::uint64_t line = firstLine; line <= lastLine; ++line) {
    allHit &= probeLineIndex(line, type, nullptr);
  }
  countAccess(allHit, type);
}

void CacheSim::countAccess(bool allHit, AccessType type) {
  if (isReadLike(type)) {
    ++stats_.reads;
    allHit ? ++stats_.readHits : ++stats_.readMisses;
  } else {
    ++stats_.writes;
    allHit ? ++stats_.writeHits : ++stats_.writeMisses;
  }
}

void CacheSim::run(const Trace& trace) {
  for (const MemRef& ref : trace) {
    MEMX_EXPECTS(ref.size > 0, "access size must be positive");
    accessLinesFast(ref.addr >> lineShift_,
                    (ref.addr + ref.size - 1) >> lineShift_, ref.type);
  }
}

void CacheSim::run(TraceSource& source) {
  while (const std::optional<MemRef> ref = source.next()) {
    MEMX_EXPECTS(ref->size > 0, "access size must be positive");
    accessLinesFast(ref->addr >> lineShift_,
                    (ref->addr + ref->size - 1) >> lineShift_, ref->type);
  }
}

void CacheSim::reset() {
  std::fill(lines_.begin(), lines_.end(), Line{});
  std::fill(plruBits_.begin(), plruBits_.end(), 0u);
  clock_ = 0;
  stats_ = CacheStats{};
}

CacheStats simulateTrace(const CacheConfig& config, const Trace& trace) {
  CacheSim sim(config);
  sim.run(trace);
  return sim.stats();
}

}  // namespace memx
