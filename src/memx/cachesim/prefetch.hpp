// Sequential prefetching (Smith's one-block-lookahead, plus Jouppi-style
// tagged prefetch).
//
// The paper buys spatial locality by enlarging L, paying Em * L on every
// miss; a next-line prefetcher gets the same streaming benefit at small
// L by fetching line k+1 on a miss to (or first use of) line k. The
// `ablation_prefetch` reproduce_paper entry compares the two levers.
#pragma once

#include <cstdint>
#include <unordered_set>

#include "memx/cachesim/cache_sim.hpp"

namespace memx {

/// When the next line is prefetched.
enum class PrefetchPolicy : std::uint8_t {
  None,        ///< plain cache
  OnMiss,      ///< prefetch k+1 whenever k misses
  Tagged,      ///< prefetch k+1 on miss AND on first demand-hit of a
               ///< prefetched line (Gindele/Jouppi tagged prefetch)
};

/// Statistics of a prefetching run. `demand` excludes the prefetch
/// probes themselves; their traffic is reported via `prefetches`.
struct PrefetchStats {
  CacheStats demand;            ///< demand-access counters
  std::uint64_t prefetches = 0; ///< lines fetched ahead of demand
  std::uint64_t usefulPrefetches = 0;  ///< later hit by a demand access

  /// Fraction of prefetched lines that were used before eviction.
  [[nodiscard]] double accuracy() const noexcept {
    return prefetches == 0 ? 0.0
                           : static_cast<double>(usefulPrefetches) /
                                 static_cast<double>(prefetches);
  }
  /// Total memory traffic (line fills incl. prefetches per demand
  /// access).
  [[nodiscard]] double trafficPerAccess() const noexcept {
    const auto n = demand.accesses();
    return n == 0 ? 0.0
                  : static_cast<double>(demand.lineFills + prefetches) /
                        static_cast<double>(n);
  }
};

/// A cache with a next-line prefetcher in front of it.
class PrefetchingCache {
public:
  PrefetchingCache(const CacheConfig& config, PrefetchPolicy policy);

  /// Present one demand reference.
  void access(const MemRef& ref);

  /// Run a whole trace.
  void run(const Trace& trace);

  /// Demand statistics with the prefetch probes separated out.
  [[nodiscard]] PrefetchStats stats() const;

  [[nodiscard]] PrefetchPolicy policy() const noexcept { return policy_; }
  [[nodiscard]] const CacheConfig& config() const noexcept {
    return cache_.config();
  }

private:
  void maybePrefetch(std::uint64_t lineAddr);

  CacheSim cache_;
  PrefetchPolicy policy_;
  std::uint64_t prefetches_ = 0;
  std::uint64_t useful_ = 0;
  /// Lines brought in by the prefetcher and not yet demanded.
  std::unordered_set<std::uint64_t> pendingTagged_;
};

}  // namespace memx
