#include "memx/core/trace_explorer.hpp"

#include "memx/cachesim/bus_monitor.hpp"
#include "memx/cachesim/cache_sim.hpp"
#include "memx/cachesim/multi_sim.hpp"
#include "memx/stackdist/stackdist_sim.hpp"

namespace memx {

namespace {

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

/// The CacheConfig of `cache` under the run's write and replacement
/// policies.
CacheConfig withPolicies(const CacheConfig& cache,
                         const ExploreOptions& options) {
  cache.validate();
  CacheConfig config = cache;
  config.writePolicy = options.writePolicy;
  config.replacement = options.replacement;
  return config;
}

}  // namespace

DesignPoint evaluateTracePoint(const Trace& trace, const CacheConfig& cache,
                               const ExploreOptions& options) {
  const Explorer model(options);  // the point model; validates
  const CacheConfig config = withPolicies(cache, options);
  return model.makePoint(config, 1, simulateTrace(config, trace),
                         model.addrActivityFor(trace));
}

ExplorationResult exploreTrace(const std::string& name, const Trace& trace,
                               const ExploreOptions& options) {
  VectorTraceSource source(trace);
  return exploreTrace(name, source, options);
}

DesignPoint evaluateTracePoint(TraceSource& source, const CacheConfig& cache,
                               const ExploreOptions& options,
                               const TraceWindow& window,
                               std::size_t chunkRefs,
                               obs::Recorder* recorder) {
  const Explorer model(options);  // the point model; validates
  const CacheConfig config = withPolicies(cache, options);

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
  return model.makePoint(config, 1, replay.stats[0], addBs);
}

ExplorationResult exploreTrace(const std::string& name, TraceSource& source,
                               const ExploreOptions& options,
                               const TraceWindow& window,
                               std::size_t chunkRefs,
                               obs::Recorder* recorder) {
  ExploreOptions o = options;
  o.ranges.sweepTiling = false;  // a fixed trace has no tiling to sweep
  const Explorer grid(o);  // sweep keys, configs and the point model

  const std::vector<ConfigKey> keys = grid.sweepKeys();
  std::vector<CacheConfig> configs;
  configs.reserve(keys.size());
  for (const ConfigKey& key : keys) configs.push_back(grid.configFor(key));

  ExplorationResult result;
  result.workload = name;
  if (keys.empty()) return result;

  // The trace is fixed, so the whole (T, L, S) grid is one bank and one
  // pass over the stream, with the bus activity measured in the same
  // pass. The engine follows planSweep's rule: Random simulates, every
  // other policy is analytic. The two bank types share the run/stats
  // interface, so one driver serves both. The work counters match
  // Explorer::evaluateGroup's, over every replayed reference (warmup
  // included: the bank does that work too).
  StreamedReplay replay;
  if (o.replacement != ReplacementPolicy::Random) {
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
  result.points.reserve(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    result.points.push_back(
        grid.makePoint(configs[i], 1, replay.stats[i], addBs));
  }
  return result;
}

}  // namespace memx
