#include "memx/core/explorer.hpp"

#include <algorithm>
#include <utility>

#include "memx/cachesim/bus_monitor.hpp"
#include "memx/cachesim/cache_sim.hpp"
#include "memx/layout/offchip_assign.hpp"
#include "memx/loopir/trace_gen.hpp"
#include "memx/obs/recorder.hpp"
#include "memx/stackdist/stackdist_sim.hpp"
#include "memx/util/assert.hpp"
#include "memx/util/bits.hpp"
#include "memx/util/numeric_io.hpp"
#include "memx/util/pow2_range.hpp"
#include "memx/xform/tiling.hpp"

namespace memx {

std::string canonicalRangesKey(const ExploreRanges& r) {
  std::string key;
  key.reserve(128);
  const auto u = [&](const char* name, std::uint64_t v) {
    key += name;
    key += '=';
    key += std::to_string(v);
    key += ';';
  };
  u("onchip", r.onChipBytes);
  u("minT", r.minCacheBytes);
  u("maxT", r.maxCacheBytes);
  u("minL", r.minLineBytes);
  u("maxL", r.maxLineBytes);
  u("maxS", r.maxAssociativity);
  u("maxB", r.maxTiling);
  u("sweepS", r.sweepAssociativity ? 1 : 0);
  u("sweepB", r.sweepTiling ? 1 : 0);
  return key;
}

std::string canonicalModelKey(const ExploreOptions& options) {
  const EnergyParams& e = options.energy;
  const TimingParams& t = options.timing;
  std::string key;
  key.reserve(256);
  const auto u = [&](const char* name, std::uint64_t v) {
    key += name;
    key += '=';
    key += std::to_string(v);
    key += ';';
  };
  const auto d = [&](const char* name, double v) {
    key += name;
    key += '=';
    key += formatDouble17(v);
    key += ';';
  };
  d("alpha", e.alphaPj);
  d("beta", e.betaPj);
  d("gamma", e.gammaPj);
  d("dact", e.dataActivity);
  d("em", e.emNj);
  u("mainbpa", e.mainBytesPerAccess);
  u("tag", e.includeTagArray ? 1 : 0);
  u("abits", e.addressBits);
  d("leak", e.leakagePjPerBytePerCycle);
  key += "hit=";
  for (const double v : t.hitCyclesByAssoc) key += formatDouble17(v) + ",";
  key += ";miss=";
  for (const double v : t.missCyclesByLine) key += formatDouble17(v) + ",";
  key += ';';
  u("layout", options.optimizeLayout ? 1 : 0);
  u("bus", options.measureBusActivity ? 1 : 0);
  u("wenergy", options.includeWriteEnergy ? 1 : 0);
  key += "wp=" + toString(options.writePolicy) + ";";
  key += "repl=" + toString(options.replacement) + ";";
  // The engine suffix follows from repl= alone, and "multisim" names an
  // engine Random no longer runs on; it stays in the text so keys (and
  // the cache_key digests served from them, which the benchmark's
  // serve_mix ledger pins) keep their bytes.
  key += options.replacement == ReplacementPolicy::Random
             ? "backend=multisim"
             : "backend=stackdist";
  return key;
}

std::string canonicalExploreKey(const ExploreOptions& options) {
  return canonicalRangesKey(options.ranges) + canonicalModelKey(options);
}

void ExploreRanges::validate() const {
  MEMX_EXPECTS(isPow2(onChipBytes) && isPow2(minCacheBytes) &&
                   isPow2(maxCacheBytes) && isPow2(minLineBytes) &&
                   isPow2(maxLineBytes) && isPow2(maxAssociativity) &&
                   isPow2(maxTiling),
               "all sweep bounds must be powers of two");
  MEMX_EXPECTS(minCacheBytes <= maxCacheBytes, "cache range inverted");
  MEMX_EXPECTS(minLineBytes <= maxLineBytes, "line range inverted");
  MEMX_EXPECTS(minLineBytes >= 4,
               "the cycle model tabulates line sizes from 4 bytes");
}

ExplorationResult::ExplorationResult(const ExplorationResult& other)
    : workload(other.workload), points(other.points) {}

ExplorationResult& ExplorationResult::operator=(
    const ExplorationResult& other) {
  if (this != &other) {
    workload = other.workload;
    points = other.points;
    const std::unique_lock lock(indexMutex_);
    index_.clear();
    indexBuilt_ = false;
  }
  return *this;
}

ExplorationResult::ExplorationResult(ExplorationResult&& other) noexcept
    : workload(std::move(other.workload)),
      points(std::move(other.points)) {
  // The moved-from index would alias positions in the now-empty points
  // vector; drop it so a stray find() on the source rebuilds cleanly.
  other.index_.clear();
  other.indexBuilt_ = false;
}

ExplorationResult& ExplorationResult::operator=(
    ExplorationResult&& other) noexcept {
  if (this != &other) {
    workload = std::move(other.workload);
    points = std::move(other.points);
    index_.clear();
    indexBuilt_ = false;
    other.index_.clear();
    other.indexBuilt_ = false;
  }
  return *this;
}

const DesignPoint& ExplorationResult::at(const ConfigKey& key) const {
  const DesignPoint* p = find(key);
  MEMX_EXPECTS(p != nullptr,
               "design point " + key.label() + " was not explored");
  return *p;
}

const DesignPoint* ExplorationResult::find(const ConfigKey& key) const {
  {
    // Fast path: the index is current, so concurrent lookups share the
    // lock and never touch mutable state.
    const std::shared_lock lock(indexMutex_);
    if (indexCurrentLocked()) {
      const Lookup r = lookupLocked(key);
      if (!r.stale) return r.point;
    }
  }
  const std::unique_lock lock(indexMutex_);
  if (!indexCurrentLocked()) refreshIndexLocked();
  Lookup r = lookupLocked(key);
  // Last line of defense against an in-place key rewrite that skipped
  // invalidateIndex(): the entry must still describe its point. A
  // mismatch means the index is stale — rebuild once and retry rather
  // than returning a point whose key is not `key`.
  if (r.stale) {
    rebuildIndexLocked();
    r = lookupLocked(key);
  }
  return r.point;
}

void ExplorationResult::buildIndex() const {
  const std::unique_lock lock(indexMutex_);
  if (!indexCurrentLocked()) refreshIndexLocked();
}

void ExplorationResult::invalidateIndex() noexcept {
  const std::unique_lock lock(indexMutex_);
  ++generation_;
}

std::uint64_t ExplorationResult::indexRebuilds() const noexcept {
  const std::shared_lock lock(indexMutex_);
  return indexRebuilds_;
}

std::uint64_t ExplorationResult::indexAppends() const noexcept {
  const std::shared_lock lock(indexMutex_);
  return indexAppends_;
}

bool ExplorationResult::indexCurrentLocked() const {
  return indexBuilt_ && indexedGeneration_ == generation_ &&
         index_.size() == points.size();
}

void ExplorationResult::refreshIndexLocked() const {
  if (indexBuilt_ && indexedGeneration_ == generation_ &&
      index_.size() < points.size()) {
    appendToIndexLocked();
  } else {
    rebuildIndexLocked();
  }
}

ExplorationResult::Lookup ExplorationResult::lookupLocked(
    const ConfigKey& key) const {
  const auto it = std::lower_bound(
      index_.begin(), index_.end(), key,
      [](const std::pair<ConfigKey, std::size_t>& entry,
         const ConfigKey& k) { return entry.first < k; });
  if (it == index_.end() || it->first != key) return {nullptr, false};
  if (points[it->second].key != key) return {nullptr, true};
  return {&points[it->second], false};
}

void ExplorationResult::rebuildIndexLocked() const {
  index_.clear();
  index_.reserve(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    index_.emplace_back(points[i].key, i);
  }
  std::sort(index_.begin(), index_.end());
  indexedGeneration_ = generation_;
  indexBuilt_ = true;
  ++indexRebuilds_;
}

void ExplorationResult::appendToIndexLocked() const {
  const std::size_t start = index_.size();
  index_.reserve(points.size());
  for (std::size_t i = start; i < points.size(); ++i) {
    index_.emplace_back(points[i].key, i);
  }
  // (key, position) pairs: sorting the tail and merging keeps equal
  // keys ordered by position, exactly like a full rebuild, so find()
  // still returns the first occurrence.
  std::sort(index_.begin() + static_cast<std::ptrdiff_t>(start),
            index_.end());
  std::inplace_merge(index_.begin(),
                     index_.begin() + static_cast<std::ptrdiff_t>(start),
                     index_.end());
  ++indexAppends_;
}

Explorer::Explorer(ExploreOptions options)
    : options_(std::move(options)), cycleModel_(options_.timing) {
  options_.ranges.validate();
  options_.energy.validate();
}

const MemoryLayout& Explorer::layoutFor(const Kernel& kernel,
                                        const CacheConfig& cache,
                                        const Kernel* tiledProbe,
                                        std::uint32_t tiling) const {
  const std::string key =
      kernel.name + '|' + cache.label() + "|B" + std::to_string(tiling);
  const auto it = layoutCache_.find(key);
  if (it != layoutCache_.end()) {
    if (recorder_ != nullptr) recorder_->counter("layout.cache_hit").add();
    return it->second;
  }
  if (recorder_ != nullptr) recorder_->counter("layout.cache_miss").add();
  MemoryLayout layout =
      options_.optimizeLayout
          ? assignConflictFree(kernel, cache, 0, tiledProbe).layout
          : sequentialLayout(kernel);
  return layoutCache_.emplace(key, std::move(layout)).first->second;
}

CacheConfig Explorer::configFor(const ConfigKey& key) const {
  CacheConfig config;
  config.sizeBytes = key.cacheBytes;
  config.lineBytes = key.lineBytes;
  config.associativity = key.associativity;
  config.writePolicy = options_.writePolicy;
  config.replacement = options_.replacement;
  return config;
}

double Explorer::addrActivityFor(const Trace& trace) const {
  return options_.measureBusActivity ? measureAddrActivity(trace)
                                     : kDefaultAddrSwitchesPerAccess;
}

DesignPoint Explorer::makePoint(const CacheConfig& config,
                                std::uint32_t tiling,
                                const CacheStats& stats,
                                double addBs) const {
  const CacheEnergyModel energyModel(config, options_.energy, addBs);
  DesignPoint point;
  point.key = ConfigKey{config.sizeBytes, config.lineBytes,
                        config.associativity, tiling};
  point.accesses = stats.accesses();
  point.missRate = stats.missRate();
  point.cycles = cycleModel_.cycles(stats, config, tiling);
  point.energyNj = options_.includeWriteEnergy
                       ? energyModel.totalIncludingWritesNj(stats)
                       : energyModel.totalNj(stats);
  point.energyNj += energyModel.leakageNj(point.cycles);
  return point;
}

DesignPoint Explorer::evaluate(const Kernel& kernel,
                               const CacheConfig& cache,
                               std::uint32_t tiling) const {
  const obs::ScopedSpan span(recorder_, "evaluate.point");
  cache.validate();
  MEMX_EXPECTS(tiling >= 1, "tiling size must be at least 1");

  CacheConfig config = cache;
  config.writePolicy = options_.writePolicy;
  config.replacement = options_.replacement;

  // The class analysis behind the Section-4.1 layout always runs on the
  // untiled kernel, but candidate layouts are certified against the
  // traversal that will actually execute (the tiled one when B > 1).
  const bool tileable = tiling > 1 && kernel.nest.depth() >= 2;
  std::optional<Kernel> tiled;
  if (tileable) tiled = tile2D(kernel, tiling);

  const MemoryLayout& layout =
      layoutFor(kernel, config, tiled ? &*tiled : nullptr, tiling);

  const Trace trace =
      tiled ? generateTrace(*tiled, layout) : generateTrace(kernel, layout);

  const CacheStats stats = simulateTrace(config, trace);
  return makePoint(config, tiling, stats, addrActivityFor(trace));
}

std::vector<ConfigKey> Explorer::sweepKeys() const {
  const ExploreRanges& r = options_.ranges;
  std::vector<ConfigKey> keys;
  const std::uint32_t maxCache =
      std::min(r.maxCacheBytes, r.onChipBytes);
  for (const std::uint64_t T : pow2Range(r.minCacheBytes, maxCache)) {
    const std::uint64_t maxLine =
        std::min<std::uint64_t>(r.maxLineBytes, T);
    for (const std::uint64_t L : pow2Range(r.minLineBytes, maxLine)) {
      const std::uint64_t lines = T / L;
      const std::uint64_t maxS =
          r.sweepAssociativity
              ? std::min<std::uint64_t>(r.maxAssociativity, lines)
              : 1;
      for (const std::uint64_t S : pow2Range(1, maxS)) {
        const std::uint64_t maxB =
            r.sweepTiling ? std::min<std::uint64_t>(r.maxTiling, lines)
                          : 1;
        for (const std::uint64_t B : pow2Range(1, maxB)) {
          keys.push_back(ConfigKey{static_cast<std::uint32_t>(T),
                                   static_cast<std::uint32_t>(L),
                                   static_cast<std::uint32_t>(S),
                                   static_cast<std::uint32_t>(B)});
        }
      }
    }
  }
  return keys;
}

SweepPlan Explorer::planSweep(const Kernel& kernel,
                              std::vector<ConfigKey> keys) const {
  const obs::ScopedSpan span(recorder_, "planSweep");
  SweepPlan plan;
  plan.generation = cacheGeneration_;
  plan.keys = std::move(keys);
  // Tiled variants used only to certify layouts; the trace-generating
  // tiling happens later, once per pattern.
  std::map<std::uint32_t, Kernel> tiledProbes;
  std::map<std::string, std::size_t> groupIndex;
  for (std::size_t i = 0; i < plan.keys.size(); ++i) {
    const ConfigKey& key = plan.keys[i];
    MEMX_EXPECTS(key.tiling >= 1, "tiling size must be at least 1");
    const CacheConfig config = configFor(key);
    config.validate();

    const bool tileable = key.tiling > 1 && kernel.nest.depth() >= 2;
    const Kernel* probe = nullptr;
    if (tileable) {
      auto it = tiledProbes.find(key.tiling);
      if (it == tiledProbes.end()) {
        it = tiledProbes.emplace(key.tiling, tile2D(kernel, key.tiling))
                 .first;
      }
      probe = &it->second;
    }
    const MemoryLayout& layout = layoutFor(kernel, config, probe, key.tiling);

    // Keys whose traversal is untiled (B = 1, or a nest too shallow to
    // tile) share one pattern regardless of the B they carry.
    const std::uint32_t traceTiling = tileable ? key.tiling : 1;
    const std::string traceKey = kernel.name + "|B" +
                                 std::to_string(traceTiling) + '|' +
                                 layout.signature();
    const auto [it, inserted] =
        groupIndex.try_emplace(traceKey, plan.groups.size());
    if (inserted) {
      plan.groups.push_back(SweepPlan::Group{traceTiling, traceKey,
                                             &layout, {},
                                             cacheGeneration_});
    }
    plan.groups[it->second].keyIndices.push_back(i);
  }
  if (recorder_ != nullptr) {
    recorder_->counter("plan.keys").add(plan.keys.size());
    recorder_->counter("plan.groups").add(plan.groups.size());
  }
  return plan;
}

Trace Explorer::buildGroupTrace(const Kernel& kernel,
                                const SweepPlan::Group& group,
                                PatternCache& patterns) const {
  MEMX_EXPECTS(group.generation == cacheGeneration_,
               "stale SweepPlan: Explorer::clearCaches() invalidated this "
               "plan's layout pointers; re-plan with planSweep()");
  const obs::ScopedSpan span(recorder_, "trace.build");
  auto it = patterns.find(group.traceTiling);
  if (it == patterns.end()) {
    if (recorder_ != nullptr) recorder_->counter("pattern.cache_miss").add();
    AccessPattern pattern =
        group.traceTiling > 1
            ? generateAccessPattern(tile2D(kernel, group.traceTiling))
            : generateAccessPattern(kernel);
    it = patterns.emplace(group.traceTiling, std::move(pattern)).first;
  } else if (recorder_ != nullptr) {
    recorder_->counter("pattern.cache_hit").add();
  }
  Trace trace = materializeTrace(it->second, *group.layout);
  if (recorder_ != nullptr) {
    recorder_->counter("trace.accesses").add(trace.size());
    recorder_->counter("trace.bytes").add(trace.size() * sizeof(MemRef));
  }
  return trace;
}

void Explorer::evaluateGroup(const SweepPlan::Group& group,
                             const Trace& trace, double addrActivity,
                             const std::vector<ConfigKey>& keys,
                             std::vector<DesignPoint>& out) const {
  MEMX_EXPECTS(group.generation == cacheGeneration_,
               "stale SweepPlan: Explorer::clearCaches() invalidated this "
               "plan's layout pointers; re-plan with planSweep()");
  const obs::ScopedSpan span(recorder_, "group.evaluate");
  std::vector<CacheConfig> configs;
  configs.reserve(group.keyIndices.size());
  for (const std::size_t idx : group.keyIndices) {
    configs.push_back(configFor(keys[idx]));
  }
  StackDistSim bank(configs);
  bank.run(trace);
  for (std::size_t j = 0; j < group.keyIndices.size(); ++j) {
    const std::size_t idx = group.keyIndices[j];
    out[idx] =
        makePoint(configs[j], keys[idx].tiling, bank.stats(j), addrActivity);
  }
  if (recorder_ != nullptr) {
    recorder_->counter("sweep.groups").add();
    recorder_->counter("sweep.groups_stackdist").add();
    recorder_->counter("sweep.points").add(group.keyIndices.size());
    recorder_->counter("stackdist.passes").add(bank.passCount());
    // FIFO/PLRU/Random groups run as single-pass grid simulations;
    // count those passes and the (sets, ways) cells they cover so sweep
    // reports show how much of the run the grid engine carried.
    recorder_->counter("stackdist.grid_passes").add(bank.gridPassCount());
    recorder_->counter("stackdist.grid_cells").add(bank.gridCellCount());
    // Trace references actually profiled (one pass per line size),
    // versus the trace.size() * configs a per-config simulation pays.
    recorder_->counter("stackdist.accesses")
        .add(trace.size() * bank.passCount());
    // Dirty evictions the pass charged across the group's member
    // configs (0 for write-through runs, where lines never dirty) — the
    // write-back traffic the energy model sees.
    std::uint64_t dirtyEvictions = 0;
    for (std::size_t j = 0; j < group.keyIndices.size(); ++j) {
      dirtyEvictions += bank.stats(j).writebacks;
    }
    recorder_->counter("stackdist.dirty_evictions").add(dirtyEvictions);
  }
}

const Explorer::TraceEntry& Explorer::traceFor(
    const Kernel& kernel, const SweepPlan::Group& group,
    PatternCache& patterns) const {
  auto it = traceCache_.find(group.traceKey);
  if (it == traceCache_.end()) {
    if (recorder_ != nullptr) recorder_->counter("trace.cache_miss").add();
    TraceEntry entry;
    entry.trace = buildGroupTrace(kernel, group, patterns);
    entry.addrActivity = addrActivityFor(entry.trace);
    it = traceCache_.emplace(group.traceKey, std::move(entry)).first;
  } else if (recorder_ != nullptr) {
    recorder_->counter("trace.cache_hit").add();
    recorder_->counter("trace.cache_hit_bytes")
        .add(it->second.trace.size() * sizeof(MemRef));
  }
  return it->second;
}

ExplorationResult Explorer::explore(const Kernel& kernel) const {
  const obs::ScopedSpan span(recorder_, "explore");
  const SweepPlan plan = planSweep(kernel, sweepKeys());
  ExplorationResult result;
  result.workload = kernel.name;
  result.points.resize(plan.keys.size());
  PatternCache patterns;
  for (const SweepPlan::Group& group : plan.groups) {
    const TraceEntry& entry = traceFor(kernel, group, patterns);
    evaluateGroup(group, entry.trace, entry.addrActivity, plan.keys,
                  result.points);
  }
  return result;
}

void Explorer::clearCaches() noexcept {
  layoutCache_.clear();
  traceCache_.clear();
  ++cacheGeneration_;
}

std::size_t Explorer::traceCacheBytes() const noexcept {
  std::size_t bytes = 0;
  for (const auto& [key, entry] : traceCache_) {
    bytes += key.size() + entry.trace.size() * sizeof(MemRef);
  }
  return bytes;
}

}  // namespace memx
