#include "memx/core/trace_explorer.hpp"

#include "memx/cachesim/bus_monitor.hpp"
#include "memx/cachesim/cache_sim.hpp"
#include "memx/cachesim/multi_sim.hpp"
#include "memx/stackdist/stackdist_sim.hpp"
#include "memx/timing/cycle_model.hpp"

namespace memx {

namespace {

DesignPoint foldTracePoint(const CacheConfig& config, const CacheStats& stats,
                           double addBs, const ExploreOptions& options,
                           const CycleModel& cycleModel) {
  const CacheEnergyModel energyModel(config, options.energy, addBs);
  DesignPoint point;
  point.key = ConfigKey{config.sizeBytes, config.lineBytes,
                        config.associativity, 1};
  point.accesses = stats.accesses();
  point.missRate = stats.missRate();
  point.cycles = cycleModel.cycles(stats, config, 1);
  point.energyNj = energyModel.totalNj(stats);
  return point;
}

/// Tees every delivered reference into a BusMonitor (when measuring bus
/// activity) on its way to the replay loop, so the streamed path gets
/// Add_bs from the same single pass instead of a second trace scan.
class MeterSource final : public TraceSource {
public:
  MeterSource(TraceSource& inner, BusMonitor* bus)
      : inner_(&inner), bus_(bus) {}

  [[nodiscard]] std::optional<MemRef> next() override {
    auto ref = inner_->next();
    if (ref && bus_ != nullptr) bus_->observe(*ref);
    return ref;
  }
  [[nodiscard]] IngestStats ingest() const override {
    return inner_->ingest();
  }

private:
  TraceSource* inner_;
  BusMonitor* bus_;
};

/// Counted-region results of one streamed replay.
struct StreamedReplay {
  std::vector<CacheStats> stats;  ///< per-member, warmup excluded
  double addBs = 0.0;             ///< counted-region Add_bs
  std::uint64_t replayedRefs = 0;  ///< warmup + counted references
};

/// Drive `bank` (MultiCacheSim or StackDistSim — same run/stats
/// interface) from `source` under `window`. Warmup exclusion is a
/// snapshot subtraction: every CacheStats and BusStats field is an
/// additive accumulator, so counted = end - warmup boundary.
template <typename Bank>
StreamedReplay replayStreamed(Bank& bank, std::size_t members,
                              TraceSource& source, const TraceWindow& window,
                              bool measureBus, std::size_t chunkRefs,
                              obs::Recorder* recorder) {
  obs::ScopedSpan ingestSpan(recorder, "trace.ingest");
  const IngestStats ingestBase = source.ingest();

  WindowedSource windowed(source, window);
  BusMonitor bus;
  MeterSource metered(windowed, measureBus ? &bus : nullptr);

  std::vector<CacheStats> base(members);
  BusStats busBase;
  if (window.warmup > 0) {
    obs::ScopedSpan warmSpan(recorder, "trace.warmup");
    WindowedSource warm(metered, TraceWindow{0, 0, window.warmup});
    bank.run(warm, chunkRefs);
    for (std::size_t i = 0; i < members; ++i) base[i] = bank.stats(i);
    busBase = bus.stats();
  }
  {
    obs::ScopedSpan replaySpan(recorder, "trace.replay");
    bank.run(metered, chunkRefs);
  }

  if (recorder != nullptr) {
    const IngestStats ingestEnd = source.ingest();
    recorder->counter("trace.bytes_read")
        .add(ingestEnd.bytesRead - ingestBase.bytesRead);
    recorder->counter("trace.refs_decoded")
        .add(ingestEnd.refsDecoded - ingestBase.refsDecoded);
  }

  StreamedReplay out;
  // Every member sees every reference, so member 0's end-of-run access
  // count is the whole replay, warmup included.
  out.replayedRefs = bank.stats(0).accesses();
  out.stats.reserve(members);
  for (std::size_t i = 0; i < members; ++i) {
    out.stats.push_back(bank.stats(i) - base[i]);
  }
  const BusStats busEnd = bus.stats();
  const std::uint64_t busAccesses = busEnd.accesses - busBase.accesses;
  // With a trivial window this division is bit-for-bit the one
  // measureAddrActivity performs, keeping streamed DesignPoints
  // identical to the materialized path.
  out.addBs =
      busAccesses == 0
          ? 0.0
          : static_cast<double>(busEnd.addrBitSwitches -
                                busBase.addrBitSwitches) /
                static_cast<double>(busAccesses);
  return out;
}

}  // namespace

DesignPoint evaluateTracePoint(const Trace& trace, const CacheConfig& cache,
                               const ExploreOptions& options) {
  cache.validate();
  options.energy.validate();

  CacheConfig config = cache;
  config.writePolicy = options.writePolicy;
  config.replacement = options.replacement;

  const CacheStats stats = simulateTrace(config, trace);
  const double addBs = options.measureBusActivity
                           ? measureAddrActivity(trace)
                           : kDefaultAddrSwitchesPerAccess;
  const CycleModel cycleModel(options.timing);
  return foldTracePoint(config, stats, addBs, options, cycleModel);
}

ExplorationResult exploreTrace(const std::string& name, const Trace& trace,
                               const ExploreOptions& options) {
  ExploreOptions o = options;
  o.ranges.sweepTiling = false;
  const Explorer grid(o);  // reuse the sweep-key generator; validates

  // The trace is fixed, so the whole (T, L, S) grid is one config bank:
  // a single trace pass, with the bus activity measured once instead of
  // per point. The bank honors the same backend resolution explore()
  // uses (stack-distance profiles for LRU/write-allocate runs,
  // MultiCacheSim otherwise).
  const std::vector<ConfigKey> keys = grid.sweepKeys();
  std::vector<CacheConfig> configs;
  configs.reserve(keys.size());
  for (const ConfigKey& key : keys) configs.push_back(grid.configFor(key));

  ExplorationResult result;
  result.workload = name;
  if (keys.empty()) return result;

  const std::vector<CacheStats> stats =
      grid.resolvedBackend() == SweepBackend::StackDist
          ? stackDistStats(configs, trace)
          : simulateTraceMulti(configs, trace);
  const double addBs = o.measureBusActivity
                           ? measureAddrActivity(trace)
                           : kDefaultAddrSwitchesPerAccess;
  const CycleModel cycleModel(o.timing);
  result.points.reserve(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    result.points.push_back(
        foldTracePoint(configs[i], stats[i], addBs, o, cycleModel));
  }
  return result;
}

DesignPoint evaluateTracePoint(TraceSource& source, const CacheConfig& cache,
                               const ExploreOptions& options,
                               const TraceWindow& window,
                               std::size_t chunkRefs,
                               obs::Recorder* recorder) {
  cache.validate();
  options.energy.validate();

  CacheConfig config = cache;
  config.writePolicy = options.writePolicy;
  config.replacement = options.replacement;

  // A one-member MultiCacheSim bank replays exactly as simulateTrace
  // does (same default seed), so the trivial-window result matches the
  // Trace overload bit for bit.
  MultiCacheSim bank({config});
  const StreamedReplay replay =
      replayStreamed(bank, 1, source, window, options.measureBusActivity,
                     chunkRefs, recorder);
  const double addBs = options.measureBusActivity
                           ? replay.addBs
                           : kDefaultAddrSwitchesPerAccess;
  const CycleModel cycleModel(options.timing);
  return foldTracePoint(config, replay.stats[0], addBs, options, cycleModel);
}

ExplorationResult exploreTrace(const std::string& name, TraceSource& source,
                               const ExploreOptions& options,
                               const TraceWindow& window,
                               std::size_t chunkRefs,
                               obs::Recorder* recorder) {
  ExploreOptions o = options;
  o.ranges.sweepTiling = false;
  const Explorer grid(o);  // reuse the sweep-key generator; validates

  const std::vector<ConfigKey> keys = grid.sweepKeys();
  std::vector<CacheConfig> configs;
  configs.reserve(keys.size());
  for (const ConfigKey& key : keys) configs.push_back(grid.configFor(key));

  ExplorationResult result;
  result.workload = name;
  if (keys.empty()) return result;

  // One bank, one pass over the stream, same backend resolution as the
  // Trace overload. The two bank types share the run/stats interface,
  // so one driver serves both. The work counters match
  // Explorer::evaluateGroup's, over every replayed reference (warmup
  // included: the bank does that work too).
  StreamedReplay replay;
  if (grid.resolvedBackend() == SweepBackend::StackDist) {
    StackDistSim bank(configs);
    replay = replayStreamed(bank, configs.size(), source, window,
                            o.measureBusActivity, chunkRefs, recorder);
    if (recorder != nullptr) {
      recorder->counter("stackdist.passes").add(bank.passCount());
      recorder->counter("stackdist.accesses")
          .add(replay.replayedRefs * bank.passCount());
    }
  } else {
    MultiCacheSim bank(configs);
    replay = replayStreamed(bank, configs.size(), source, window,
                            o.measureBusActivity, chunkRefs, recorder);
    if (recorder != nullptr) {
      recorder->counter("sim.accesses")
          .add(replay.replayedRefs * configs.size());
    }
  }
  if (recorder != nullptr) {
    recorder->counter("sweep.points").add(keys.size());
  }
  const double addBs = o.measureBusActivity ? replay.addBs
                                            : kDefaultAddrSwitchesPerAccess;
  const CycleModel cycleModel(o.timing);
  result.points.reserve(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    result.points.push_back(
        foldTracePoint(configs[i], replay.stats[i], addBs, o, cycleModel));
  }
  return result;
}

}  // namespace memx
