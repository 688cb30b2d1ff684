// Trace-driven set-associative cache simulator.
//
// This is the Dinero-class substrate the paper names as the alternative to
// its closed-form expressions: a functional (contents-free) simulator that
// tracks tags, dirtiness and replacement state, and reports hit/miss and
// traffic counts for an arbitrary reference stream.
#pragma once

#include <cstdint>
#include <random>
#include <vector>

#include "memx/cachesim/cache_config.hpp"
#include "memx/cachesim/cache_stats.hpp"
#include "memx/trace/trace.hpp"

namespace memx {

/// Outcome of presenting one reference to the cache.
struct AccessOutcome {
  bool hit = true;           ///< whole access was a hit (all lines touched)
  std::uint32_t fills = 0;   ///< line fills this access caused
  std::uint32_t writebacks = 0;  ///< dirty evictions this access caused
  /// Byte addresses of the dirty lines evicted by this access (size ==
  /// writebacks); lets a next level absorb the write-back traffic.
  std::vector<std::uint64_t> evictedDirtyLines;
};

/// A single-level data cache.
///
/// Accesses wider than a line, or straddling a line boundary, are split
/// into per-line probes; the access counts as a miss if any probe misses.
class CacheSim {
public:
  /// Constructs an empty (all-invalid) cache. Throws on invalid config.
  explicit CacheSim(const CacheConfig& config, std::uint64_t rngSeed = 1);

  /// Present one reference; updates state and statistics.
  AccessOutcome access(const MemRef& ref);

  /// Run a whole trace through the cache (statistics-only: identical
  /// state and counter updates to access(), without assembling the
  /// per-access AccessOutcome).
  void run(const Trace& trace);

  /// Drain `source` through the cache, statistics-only like
  /// run(Trace). Callable repeatedly; cache state persists, which is
  /// how the streamed drivers split warmup from counted references.
  void run(TraceSource& source);

  /// Drop all contents and statistics (configuration is kept).
  void reset();

  [[nodiscard]] const CacheConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] const CacheStats& stats() const noexcept { return stats_; }

  /// True when `addr`'s line is currently resident (no state change).
  [[nodiscard]] bool contains(std::uint64_t addr) const;

  /// Number of currently valid lines (test/debug aid).
  [[nodiscard]] std::size_t validLineCount() const;

  /// Set index for a byte address under this geometry.
  [[nodiscard]] std::uint32_t setIndexOf(std::uint64_t addr) const noexcept;
  /// Tag for a byte address under this geometry.
  [[nodiscard]] std::uint64_t tagOf(std::uint64_t addr) const noexcept;

private:
  struct Line {
    std::uint64_t tag = 0;
    /// Replacement stamp. LRU reads it as last-use time (refreshed on
    /// every touch); FIFO reads it as fill time (written only on fill);
    /// Random and TreePLRU never read it. One field serves both, which
    /// keeps the line small — the set scan is the simulator's hot loop.
    std::uint64_t stamp = 0;
    bool valid = false;
    bool dirty = false;
  };

  /// Probe one line-sized piece of an access, keyed by line index
  /// (addr >> lineShift_). Returns true on hit. `outcome` may be null to
  /// skip per-access outcome bookkeeping (statistics and cache state
  /// update identically either way).
  bool probeLineIndex(std::uint64_t lineIndex, AccessType type,
                      AccessOutcome* outcome);
  /// Statistics-only access of the line span [firstLine, lastLine]
  /// (line indices, i.e. addr / lineBytes): the run() hot path.
  void accessLinesFast(std::uint64_t firstLine, std::uint64_t lastLine,
                       AccessType type);
  /// Shared tail of access/accessLinesFast: per-access counters.
  void countAccess(bool allHit, AccessType type);
  [[nodiscard]] std::size_t victimWay(std::uint32_t setIndex);

  /// Point the set's PLRU tree away from the just-touched way.
  void plruTouch(std::uint32_t setIndex, std::size_t way);
  /// Way the set's PLRU tree currently points at.
  [[nodiscard]] std::size_t plruVictim(std::uint32_t setIndex) const;

  CacheConfig config_;
  // Geometry is all powers of two (validated), so the address splits
  // reduce to shifts and masks precomputed here.
  unsigned lineShift_ = 0;   ///< log2(lineBytes)
  unsigned setShift_ = 0;    ///< log2(numSets)
  std::uint64_t setMask_ = 0;  ///< numSets - 1
  std::vector<Line> lines_;  ///< numSets * associativity, set-major
  std::vector<std::uint64_t> plruBits_;  ///< one tree per set (<= 64 ways)
  std::uint64_t clock_ = 0;
  CacheStats stats_;
  std::mt19937_64 rng_;
};

/// Convenience: simulate `trace` on a fresh cache, return the statistics.
[[nodiscard]] CacheStats simulateTrace(const CacheConfig& config,
                                       const Trace& trace);

}  // namespace memx
