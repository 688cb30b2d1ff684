// Stack-distance / policy-grid evaluation of a bank of cache configs.
//
// StackDistSim is the one sweep engine: configs in, per-config
// CacheStats out, one run() over a trace. Instead of simulating each
// member it builds one profile per distinct (line size, replacement
// policy) and reads every member's hit/miss counts off that profile's
// (sets, associativity) grid. LRU members ride an AllAssocProfile
// (Hill–Smith stack distances: O(n)-class work per line size,
// independent of the member count); FIFO, tree-PLRU and Random members
// ride a PolicyGridProfile (a single-pass grid simulator with an MRU
// short-circuit — these policies are not stack algorithms, so the
// shared work is the address decode, the set-index cascade and the
// streamed chunk, not a common stack). Either way the trace is decoded
// once per profile, which is what makes large sweeps cheap.
//
// Every replacement policy with write-allocate fills is in the
// engine's domain (supports() is what the constructor checks;
// Explorer::planSweep sends every sweep here). Both write policies are
// exact, including write-back dirty-eviction counts — see
// AllAssocProfile's dirty-stack accounting and PolicyGridProfile's
// per-cell dirty bits. Per-config simulation (CacheSim, RefCacheSim)
// is the oracle it is checked against, not a second engine.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "memx/cachesim/cache_config.hpp"
#include "memx/cachesim/cache_stats.hpp"
#include "memx/stackdist/all_assoc.hpp"
#include "memx/stackdist/policy_grid.hpp"
#include "memx/trace/trace.hpp"

namespace memx {

/// A bank of write-allocate configurations evaluated from per-(line
/// size, policy) profiles.
class StackDistSim {
public:
  /// Throws on an empty bank, an invalid config, or a config outside
  /// the analytic domain (see supports()).
  explicit StackDistSim(const std::vector<CacheConfig>& configs);

  /// True iff the profiles yield exact statistics for `config`: any
  /// replacement policy with write-allocate fills. (Geometry is
  /// unrestricted; both write policies are exact — write-through word
  /// stores and write-back dirty evictions alike fall out of a single
  /// pass. No-write-allocate writes bypass the cache, which no profile
  /// models.)
  [[nodiscard]] static bool supports(const CacheConfig& config) noexcept {
    return config.allocatePolicy == AllocatePolicy::WriteAllocate;
  }

  /// Profile `trace` once per distinct (line size, policy) and fill
  /// every member's statistics. Single-shot: a second call throws
  /// (profiles are per-trace; build a new bank per trace).
  void run(const Trace& trace);

  /// Drain `source` through streaming profiles in chunks of `chunkRefs`
  /// references: one pass over the stream feeds every group, so
  /// out-of-core traces profile in bounded memory with bit-identical
  /// statistics to the whole-trace run. Callable repeatedly — profile
  /// state persists and stats() reflects everything streamed so far,
  /// which is how the streamed drivers split warmup from counted
  /// references. Cannot be mixed with run(Trace) on the same bank.
  void run(TraceSource& source,
           std::size_t chunkRefs = kDefaultTraceChunkRefs);

  [[nodiscard]] std::size_t size() const noexcept { return configs_.size(); }
  [[nodiscard]] const CacheConfig& config(std::size_t i) const {
    return configs_[i];
  }
  /// Statistics of member `i`; only valid after run().
  [[nodiscard]] const CacheStats& stats(std::size_t i) const;

  /// Number of trace passes run() makes (= distinct (line size,
  /// policy) groups in the bank); exposed for observability counters.
  [[nodiscard]] std::size_t passCount() const noexcept {
    return groups_.size();
  }
  /// How many of those passes are policy-grid (non-LRU) passes, and
  /// how many (sets, ways) cells those grids simulate in total (each
  /// pass is restricted to the distinct geometries its members query)
  /// — the stackdist.grid_passes / stackdist.grid_cells counters.
  [[nodiscard]] std::size_t gridPassCount() const noexcept {
    return gridPasses_;
  }
  [[nodiscard]] std::size_t gridCellCount() const noexcept {
    return gridCells_;
  }

private:
  /// Members sharing one (line size, replacement policy) share one
  /// profile: an AllAssocProfile for LRU, a PolicyGridProfile else.
  struct LineGroup {
    std::uint32_t lineBytes = 0;
    ReplacementPolicy policy = ReplacementPolicy::LRU;
    std::uint32_t maxSets = 1;
    std::uint32_t maxAssoc = 1;
    std::vector<std::size_t> members;  ///< indices into configs_
    /// Distinct (numSets, associativity) pairs among the members; grid
    /// groups restrict their pass to exactly these cells.
    std::vector<std::pair<std::uint32_t, std::uint32_t>> cells;
  };

  /// Re-derive every member's statistics from its group's profile
  /// (valid at any chunk boundary — the profiles are incremental).
  void refreshStats();
  void buildProfiles();

  std::vector<CacheConfig> configs_;
  std::vector<LineGroup> groups_;
  std::vector<CacheStats> stats_;
  /// Incremental profiles, parallel to groups_ (exactly one per group
  /// is engaged, by the group's policy); built lazily by the first
  /// run() call. run(Trace) feeds them whole, run(TraceSource&) in
  /// chunks — the state is identical either way.
  std::vector<AllAssocProfile> lruProfiles_;
  std::vector<PolicyGridProfile> gridProfiles_;
  /// Per-group index into lruProfiles_ or gridProfiles_.
  std::vector<std::size_t> profileIndex_;
  std::size_t gridPasses_ = 0;
  std::size_t gridCells_ = 0;
  bool ran_ = false;
  bool streaming_ = false;
};

/// Convenience: evaluate `trace` against every config analytically,
/// returning the per-config statistics in input order. Exactly matches
/// simulateTrace per config for supported configs, every field
/// included.
[[nodiscard]] std::vector<CacheStats> stackDistStats(
    const std::vector<CacheConfig>& configs, const Trace& trace);

}  // namespace memx
