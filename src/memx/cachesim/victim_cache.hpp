// Direct-mapped cache with a small fully-associative victim buffer
// (Jouppi 1990).
//
// The paper removes conflict misses in software (Section-4.1 data
// placement); a victim cache is the classic hardware answer to the same
// problem. The `ext_victim_cache` reproduce_paper entry pits the two
// against each other on the same workloads.
#pragma once

#include <cstdint>
#include <vector>

#include "memx/cachesim/cache_config.hpp"
#include "memx/cachesim/cache_stats.hpp"
#include "memx/trace/trace.hpp"

namespace memx {

/// Statistics of a victim-cache run.
struct VictimStats {
  CacheStats main;              ///< the direct-mapped cache's counters
  std::uint64_t victimHits = 0;  ///< misses rescued by the victim buffer
  std::uint64_t victimMisses = 0;  ///< misses that went to memory

  /// Miss rate after victim-buffer rescue.
  [[nodiscard]] double effectiveMissRate() const noexcept {
    const auto n = main.accesses();
    return n == 0 ? 0.0
                  : static_cast<double>(victimMisses) /
                        static_cast<double>(n);
  }
  /// Fraction of direct-mapped misses the buffer rescued.
  [[nodiscard]] double rescueRate() const noexcept {
    const auto m = victimHits + victimMisses;
    return m == 0 ? 0.0
                  : static_cast<double>(victimHits) /
                        static_cast<double>(m);
  }
};

/// A direct-mapped cache backed by an `entries`-line fully-associative
/// LRU victim buffer. On a main-cache miss the buffer is probed; a hit
/// swaps the line back, a miss fetches from memory and pushes the
/// evicted line into the buffer.
class VictimCache {
public:
  /// `config` must be direct-mapped; `victimEntries` >= 1.
  VictimCache(const CacheConfig& config, std::uint32_t victimEntries);

  /// Present one reference (reads and writes probe identically; the
  /// model is traffic-oriented like the paper's).
  void access(const MemRef& ref);

  /// Run a whole trace.
  void run(const Trace& trace);

  [[nodiscard]] const VictimStats& stats() const noexcept {
    return stats_;
  }
  [[nodiscard]] std::uint32_t victimEntries() const noexcept {
    return static_cast<std::uint32_t>(victim_.size());
  }

private:
  struct MainLine {
    std::uint64_t tag = 0;
    bool valid = false;
  };
  struct VictimLine {
    std::uint64_t lineAddr = 0;
    std::uint64_t lastUse = 0;
    bool valid = false;
  };

  void probeLine(std::uint64_t lineAddr, AccessType type);

  CacheConfig config_;
  std::vector<MainLine> lines_;
  std::vector<VictimLine> victim_;
  std::uint64_t clock_ = 0;
  VictimStats stats_;
};

}  // namespace memx
