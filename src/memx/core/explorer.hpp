// The MemExplore algorithm (paper Section 1):
//
//   for on-chip memory size M (powers of 2)
//     for cache size T <= M
//       for line size L <= T
//         for set associativity S <= 8
//           for tiling size B <= T/L
//             estimate cycles C and energy E
//   select (T, L, S, B) maximizing performance under the given bounds.
//
// Every point is evaluated by trace-driven simulation of the (optionally
// tiled) kernel under the chosen off-chip layout, then run through the
// paper's cycle and energy models.
//
// The sweep hot path is trace-reusing and one-pass: the reference trace
// of a design point depends only on the tiling B and the memory layout,
// so explore() groups the (T, L, S, B) grid by (B, layout signature),
// generates each distinct trace once (cached in a TraceCache keyed like
// the layout memo), and evaluates every configuration of a group against
// the shared immutable trace in a single pass of the one sweep engine,
// StackDistSim: one profile per (line size, policy) serves all (T, S)
// at once — Hill–Smith stack distances for LRU, the single-pass policy
// grid for FIFO, tree-PLRU and Random (per-cell generators seeded like
// CacheSim's replay its victims exactly). Results are bit-identical to
// evaluating each point in isolation, which evaluate() does by
// simulation.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <shared_mutex>
#include <string>
#include <vector>

#include "memx/cachesim/cache_stats.hpp"
#include "memx/core/design_point.hpp"
#include "memx/energy/energy_model.hpp"
#include "memx/loopir/kernel.hpp"
#include "memx/loopir/memory_layout.hpp"
#include "memx/loopir/trace_gen.hpp"
#include "memx/timing/cycle_model.hpp"
#include "memx/trace/trace.hpp"

namespace memx {

namespace obs {
class Recorder;
}  // namespace obs

namespace search {
struct SearchOptions;
struct SearchResult;
}  // namespace search

/// Power-of-two sweep bounds of the MemExplore loops.
struct ExploreRanges {
  std::uint32_t onChipBytes = 1024;   ///< M: upper limit on cache size
  std::uint32_t minCacheBytes = 16;   ///< smallest T
  std::uint32_t maxCacheBytes = 1024; ///< largest T (clamped to M)
  std::uint32_t minLineBytes = 4;     ///< smallest L
  std::uint32_t maxLineBytes = 64;    ///< largest L (clamped to T)
  std::uint32_t maxAssociativity = 8; ///< largest S (paper caps at 8)
  std::uint32_t maxTiling = 16;       ///< largest B (clamped to T/L)
  bool sweepAssociativity = true;     ///< false => direct-mapped only
  bool sweepTiling = true;            ///< false => B = 1 only

  void validate() const;
};

/// The engine a sweep group runs on (see SweepPlan::Group::backend).
/// Every group runs on StackDist now; the enum and both enumerators stay
/// only because the benchmark's per-layer attribution
/// (perfbench/src/common.cpp) names them, and go with its next change.
enum class SweepBackend : std::uint8_t {
  /// Retired per-config simulator bank; planSweep never picks it.
  MultiSim,
  /// Single-pass profiles (StackDistSim): LRU stack distances or the
  /// FIFO/tree-PLRU/Random policy grid serve every (T, S) of a line
  /// size at once, exact under both write policies.
  StackDist,
};

/// Everything that parameterizes an exploration run.
struct ExploreOptions {
  ExploreRanges ranges;
  EnergyParams energy;
  TimingParams timing;
  /// Apply the Section-4.1 conflict-free off-chip assignment before
  /// simulating (the paper's "optimized" rows); false = tight layout.
  bool optimizeLayout = true;
  /// Measure Add_bs from the generated trace (Gray-coded) instead of
  /// using the analytic default of kDefaultAddrSwitchesPerAccess.
  bool measureBusActivity = true;
  /// Account write traffic in the energy metric (the paper's model is
  /// read-only; see CacheEnergyModel::totalIncludingWritesNj).
  bool includeWriteEnergy = false;
  WritePolicy writePolicy = WritePolicy::WriteBack;
  ReplacementPolicy replacement = ReplacementPolicy::LRU;
};

/// Stable text form of the sweep bounds alone. Part of
/// canonicalExploreKey; exposed separately so the serve result store
/// can strip the bounds off a key and recognize covering-range cache
/// hits (a narrower request served from a wider cached sweep).
[[nodiscard]] std::string canonicalRangesKey(const ExploreRanges& ranges);

/// Stable text form of everything in `options` *except* the ranges:
/// energy and timing coefficients, layout/bus/write-energy flags and
/// policies. Equal model keys mean any sweep key visited by both runs
/// gets the bit-identical point.
[[nodiscard]] std::string canonicalModelKey(const ExploreOptions& options);

/// canonicalRangesKey + canonicalModelKey: everything in `options` that
/// determines a sweep's numerical output. Two option sets with equal
/// keys produce bit-identical results for the same workload — this is
/// the cache-key half of the serve result store. Locale-independent
/// (doubles via %.17g-equivalent round-trip formatting).
[[nodiscard]] std::string canonicalExploreKey(const ExploreOptions& options);

/// All evaluated points for one workload.
///
/// Thread-safety: concurrent find()/at()/buildIndex() calls on a shared
/// result are safe — the lazily built lookup index is guarded by a
/// shared mutex, so logically-const reads never race on its
/// construction (the serve result store hands one cached result to many
/// workers at once). Mutating `workload`/`points` (or calling
/// invalidateIndex()) still requires external synchronization, like any
/// non-const use.
struct ExplorationResult {
  std::string workload;
  std::vector<DesignPoint> points;

  ExplorationResult() = default;
  /// Copies and moves carry the data, not the index: the destination
  /// rebuilds lazily on first find(). (The index is position-relative,
  /// and dropping it keeps these members safe against concurrent
  /// lookups on the source.)
  ExplorationResult(const ExplorationResult& other);
  ExplorationResult& operator=(const ExplorationResult& other);
  ExplorationResult(ExplorationResult&& other) noexcept;
  ExplorationResult& operator=(ExplorationResult&& other) noexcept;

  /// Point with the given key; throws when the sweep did not visit it.
  [[nodiscard]] const DesignPoint& at(const ConfigKey& key) const;
  /// Point with the given key, if visited. Backed by a lazily built
  /// sorted index, so repeated lookups over a full sweep are O(log n)
  /// instead of a linear scan. Not noexcept: the rebuild allocates.
  /// When `points` only grew since the last lookup, the new tail is
  /// sorted and merged into the index instead of rebuilding it from
  /// scratch — incremental archives (searchPareto evaluates in many
  /// small batches) stay O(new + merge) per batch, not O(n log n).
  /// A full rebuild happens when invalidateIndex() was called, when
  /// `points` shrank, or when an indexed entry no longer matches its
  /// point (in-place key mutation is detected on lookup rather than
  /// silently returning the wrong point).
  [[nodiscard]] const DesignPoint* find(const ConfigKey& key) const;

  /// Precompute the lookup index now (idempotent). Publishers that
  /// share a result across threads call this once at publish time so
  /// every subsequent concurrent find() takes only the shared lock.
  void buildIndex() const;

  /// Declare the index stale after mutating `points` in place (for
  /// example rewriting a point's key). Size changes are picked up
  /// automatically; same-size mutations need this call so the next
  /// find() rebuilds instead of consulting stale entries.
  void invalidateIndex() noexcept;

  /// Full index rebuilds performed so far (diagnostic: a growing
  /// archive should append, not rebuild — see the regression test).
  [[nodiscard]] std::uint64_t indexRebuilds() const noexcept;
  /// Incremental merges of appended points into the index.
  [[nodiscard]] std::uint64_t indexAppends() const noexcept;

private:
  struct Lookup {
    const DesignPoint* point = nullptr;
    bool stale = false;  ///< an indexed entry no longer matches its point
  };

  /// True when the index mirrors `points` at the current generation.
  [[nodiscard]] bool indexCurrentLocked() const;
  /// Rebuild or append as appropriate; requires the unique lock.
  void refreshIndexLocked() const;
  void rebuildIndexLocked() const;
  /// Index only the points appended since the index was built and
  /// merge them in (requires a current index that is a prefix view).
  void appendToIndexLocked() const;
  [[nodiscard]] Lookup lookupLocked(const ConfigKey& key) const;

  /// Guards every index_* member below. find() takes it shared on the
  /// built-index fast path and exclusive to (re)build.
  mutable std::shared_mutex indexMutex_;
  /// (key, position) pairs sorted lexicographically; duplicate keys keep
  /// their points order so find() returns the first occurrence.
  mutable std::vector<std::pair<ConfigKey, std::size_t>> index_;
  /// Bumped by invalidateIndex(); the index remembers the generation it
  /// was built at and rebuilds on mismatch.
  std::uint64_t generation_ = 0;
  mutable std::uint64_t indexedGeneration_ = 0;
  mutable bool indexBuilt_ = false;
  mutable std::uint64_t indexRebuilds_ = 0;
  mutable std::uint64_t indexAppends_ = 0;
};

/// A sweep restructured for shared-trace evaluation: the key grid plus
/// its partition into trace groups. All keys of one group share a tiling
/// and a memory layout, hence one reference trace. Group layout pointers
/// alias the owning Explorer's layout memo: a plan stays valid until
/// that Explorer is destroyed or clearCaches() is called. Plans carry
/// the layout-memo generation they were stamped with at planSweep time;
/// using a group after clearCaches() fails the generation check with a
/// ContractViolation instead of dereferencing a dangling layout.
struct SweepPlan {
  struct Group {
    /// Tiling applied to the loop nest for this group's trace (1 when
    /// the kernel is too shallow to tile, whatever B the keys carry).
    std::uint32_t traceTiling = 1;
    /// Kernel + tiling + layout-signature key of the shared trace.
    std::string traceKey;
    const MemoryLayout* layout = nullptr;
    std::vector<std::size_t> keyIndices;  ///< indices into `keys`
    /// Layout-memo generation at planning time; checked by
    /// buildGroupTrace/evaluateGroup against the owning Explorer.
    std::uint64_t generation = 0;
    /// Engine of the group: always StackDist (kept for the benchmark's
    /// per-layer attribution; see SweepBackend).
    SweepBackend backend = SweepBackend::StackDist;
  };

  std::vector<ConfigKey> keys;
  std::vector<Group> groups;
  std::uint64_t generation = 0;  ///< same stamp, plan-level
};

/// Drives the sweep and evaluates individual design points.
class Explorer {
public:
  /// Layout-independent access patterns memoized per trace tiling.
  /// Thread-confined: the parallel explorer gives each worker its own.
  using PatternCache = std::map<std::uint32_t, AccessPattern>;

  explicit Explorer(ExploreOptions options = {});

  /// Evaluate one (cache, tiling) point of `kernel` by simulation. This
  /// is the reference per-point path: it regenerates the trace on every
  /// call (the sweep entry points below share traces instead).
  [[nodiscard]] DesignPoint evaluate(const Kernel& kernel,
                                     const CacheConfig& cache,
                                     std::uint32_t tiling = 1) const;

  /// Run the full MemExplore sweep over `kernel` on the shared-trace
  /// one-pass engine. Bit-identical to calling evaluate() per sweep key.
  [[nodiscard]] ExplorationResult explore(const Kernel& kernel) const;

  /// Multi-objective NSGA-II search over the joint design space,
  /// returning a Pareto front over (energy, cycles, size) instead of a
  /// grid of points. By default the space is this explorer's own
  /// single-level (T, L, S, B) range with its configured policies and
  /// layout choice; SearchOptions::space widens it to joint
  /// policy/layout/L2 spaces. Evaluations route through the same
  /// planSweep machinery as explore(), so fronts are deterministic per
  /// seed. Defined in memx/search (link memx_search or the umbrella
  /// `memx` target).
  [[nodiscard]] search::SearchResult searchPareto(
      const Kernel& kernel, const search::SearchOptions& options) const;

  /// Every (T, L, S, B) coordinate the configured ranges visit.
  [[nodiscard]] std::vector<ConfigKey> sweepKeys() const;

  /// Partition `keys` into trace groups (computing and memoizing the
  /// layouts). Serial; the returned plan can then be evaluated group
  /// by group, concurrently if desired.
  [[nodiscard]] SweepPlan planSweep(const Kernel& kernel,
                                    std::vector<ConfigKey> keys) const;

  /// Generate (or fetch from `patterns`) the access pattern behind
  /// `group` and materialize its trace. Pure apart from `patterns`;
  /// safe to call concurrently with distinct pattern caches.
  [[nodiscard]] Trace buildGroupTrace(const Kernel& kernel,
                                      const SweepPlan::Group& group,
                                      PatternCache& patterns) const;

  /// Evaluate every key of `group` against its shared trace in one
  /// StackDistSim pass, writing results into `out` at the keys'
  /// positions. Touches no mutable Explorer state (thread-safe).
  void evaluateGroup(const SweepPlan::Group& group, const Trace& trace,
                     double addrActivity,
                     const std::vector<ConfigKey>& keys,
                     std::vector<DesignPoint>& out) const;

  /// Add_bs for `trace` under the configured measurement option.
  [[nodiscard]] double addrActivityFor(const Trace& trace) const;

  /// CacheConfig for a sweep key with this run's policies applied.
  [[nodiscard]] CacheConfig configFor(const ConfigKey& key) const;

  /// Fold simulated stats into a DesignPoint via the paper's cycle and
  /// energy models, with write energy and leakage as configured: the
  /// one point model every sweep, trace and per-point path shares.
  [[nodiscard]] DesignPoint makePoint(const CacheConfig& config,
                                      std::uint32_t tiling,
                                      const CacheStats& stats,
                                      double addBs) const;

  /// Drop the memoized layouts and traces and bump the cache
  /// generation: outstanding SweepPlans become stale and every
  /// buildGroupTrace/evaluateGroup call on them throws a
  /// ContractViolation (re-plan with planSweep() to continue). The
  /// caches only ever grow otherwise; see traceCacheBytes() for the
  /// footprint.
  void clearCaches() noexcept;

  /// Approximate heap footprint of the trace cache in bytes.
  [[nodiscard]] std::size_t traceCacheBytes() const noexcept;

  /// Attach an observability recorder (nullptr detaches). Not owned;
  /// must outlive every exploration call made through this Explorer.
  /// With no recorder attached every instrumentation site reduces to a
  /// single null check; results are bit-identical either way.
  void setRecorder(obs::Recorder* recorder) noexcept {
    recorder_ = recorder;
  }
  [[nodiscard]] obs::Recorder* recorder() const noexcept {
    return recorder_;
  }

  [[nodiscard]] const ExploreOptions& options() const noexcept {
    return options_;
  }

private:
  /// Memoized Section-4.1 layout per (kernel, T, L, S, B); candidates are
  /// certified against the tiled traversal when one is supplied. Keyed by
  /// kernel name + cache label + tiling; not thread-safe.
  const MemoryLayout& layoutFor(const Kernel& kernel,
                                const CacheConfig& cache,
                                const Kernel* tiledProbe,
                                std::uint32_t tiling) const;

  /// A shared immutable trace plus its measured bus activity.
  struct TraceEntry {
    Trace trace;
    double addrActivity = 0.0;
  };

  /// Memoized trace per SweepPlan::Group::traceKey (serial use only;
  /// the parallel explorer materializes worker-local traces instead).
  const TraceEntry& traceFor(const Kernel& kernel,
                             const SweepPlan::Group& group,
                             PatternCache& patterns) const;

  ExploreOptions options_;
  CycleModel cycleModel_;
  obs::Recorder* recorder_ = nullptr;
  mutable std::map<std::string, MemoryLayout> layoutCache_;
  mutable std::map<std::string, TraceEntry> traceCache_;
  /// Bumped by clearCaches(); plans stamped with an older generation
  /// are rejected before their dangling layout pointers can be read.
  mutable std::uint64_t cacheGeneration_ = 0;
};

}  // namespace memx
