// Shared plumbing of memx_perfbench: argument parsing,
// timing summaries, the expected-output ledger, and the one-line JSON
// result the benchmark prints last.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "memx/core/explorer.hpp"

namespace memx::obs {
class Recorder;
}  // namespace memx::obs

namespace perfbench {

using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

[[nodiscard]] double secondsSince(Clock::time_point start);

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Fixed number of measured operations instead of a time budget
  /// (0 = time-bounded). Used by the benchmark's own tests.
  unsigned ops = 0;
  /// Compute every expected output from the current code and write the
  /// ledger instead of checking against it.
  bool record = false;
};

// Relative to the repository root, where the benchmark runs.
inline const fs::path kExpectedDir = "perfbench/expected";  ///< the ledger
inline const fs::path kWorkDir = ".bench_work";  ///< generated inputs
inline const fs::path kOutDir = ".bench_out";    ///< Chrome traces

[[nodiscard]] Args parseArgs(int argc, char** argv);

/// Median plus the highest of p90/p99/p99.9 that still has at least ten
/// samples beyond it (the median stands in when there are fewer than 20).
struct Timing {
  double median = 0.0;
  double tail = 0.0;
  double tailPercentile = 50.0;
  std::size_t samples = 0;
};
[[nodiscard]] Timing summarize(std::vector<double> samples);
[[nodiscard]] double median(std::vector<double> samples);

/// Peak resident set size of this process so far, in MiB.
[[nodiscard]] double peakRssMib();

/// 16-hex-digit FNV-1a digest (the serve layer's cache-key digest).
[[nodiscard]] std::string digest(std::string_view text);

/// Expected outputs recorded at the reference commit, one
/// `key<TAB>value` line each, in <kExpectedDir>/<workload>.tsv.
class Ledger {
public:
  Ledger(fs::path file, bool record);
  /// Record mode: store `actual` under `key` and return true. Check
  /// mode: true iff the ledger holds exactly `actual` under `key`.
  bool check(const std::string& key, const std::string& actual);
  /// Recorded value (check mode) or nullopt.
  [[nodiscard]] std::optional<std::string> get(const std::string& key) const;
  [[nodiscard]] bool recording() const noexcept { return record_; }
  /// Write the ledger back (record mode only).
  void save() const;

private:
  fs::path file_;
  bool record_;
  std::map<std::string, std::string> values_;
};

/// Accumulates the run's outcome and metrics and prints the final JSON.
class Result {
public:
  void attempt() { ++attempted_; }
  /// Count one failed operation and say why on stderr.
  void fail(const std::string& why);
  void metric(const std::string& name, double value, const std::string& unit);
  /// Human-readable note on stdout (never the last line).
  void note(const std::string& line) const;
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }
  /// The last stdout line: {"correct","attempted","failed","metrics"}.
  void print() const;

private:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<Metric> metrics_;
};

/// Machine-speed probe: a dependent walk over an L2-sized table, about
/// 0.1 s. On the shared machines this benchmark runs on, memory-bound
/// code speeds up and slows down by up to 2x over seconds to minutes as
/// neighbours come and go; memx's operation times follow this probe's,
/// though they swing wider (see README "Calibration").
[[nodiscard]] double probeSeconds();

/// The same walk on `threads` threads at once, returning their mean time:
/// the probe for workloads that keep that many cores busy.
[[nodiscard]] double parallelProbeSeconds(unsigned threads);

/// Probe time that defines one calibrated second.
inline constexpr double kReferenceProbeSec = 0.1;

/// Factor turning wall seconds into calibrated seconds for work
/// bracketed by the probe times `before` and `after`.
[[nodiscard]] double calibration(double before, double after);

/// Whether to start another operation: `--ops` of them when given,
/// otherwise at least one, and more while the next (as long as the
/// last) still fits in `--seconds` from `start`.
[[nodiscard]] bool moreOps(const Args& args, unsigned done,
                           Clock::time_point start, double lastSec);

/// Runs `setup` at least five times and for at least a quarter second,
/// returning the median time of one set-up in calibrated seconds.
[[nodiscard]] double timedSetup(const std::function<void()>& setup);

/// Throughput-and-latency metrics every workload reports, in calibrated
/// seconds. Throughputs are medians over the run's operations of work
/// per operation divided by its calibrated time, so one slow operation
/// does not move them; latencies come from `requestSec`, one calibrated
/// sample per public call.
struct EndToEnd {
  struct Op {
    double sec = 0.0;       ///< wall seconds
    double scale = 1.0;     ///< calibration() around the operation
    double points = 0.0;    ///< design points returned
    double refs = 0.0;      ///< references evaluated or ingested
    double requests = 0.0;  ///< public calls made
  };
  double setupSec = 0.0;
  std::vector<Op> ops;
  std::vector<double> requestSec;
  double hypervolume = 0.0;
};
void reportEndToEnd(const EndToEnd& e2e, Result& result);

/// Closed loop of one client: runs `op` while moreOps() allows, after
/// `warmUp` uncounted runs that still spend the time budget. Each run
/// is bracketed by `probe`s (probeSeconds() unless a workload brings a
/// probe shaped like its own work, of the order of kReferenceProbeSec)
/// and returns its timed work (wall seconds of the calls, without the
/// output check), or nullopt when it failed.
void closedLoop(const Args& args, unsigned warmUp, EndToEnd& e2e,
                const std::function<std::optional<EndToEnd::Op>()>& op,
                const std::function<double()>& probe = probeSeconds);

/// Per-layer metrics. Every traced run emits the full set, with zero
/// for layers the workload does not exercise.
class Layers {
public:
  Layers();
  void set(const std::string& name, double value);
  void add(const std::string& name, double value);
  [[nodiscard]] double get(const std::string& name) const;
  void report(Result& result) const;

private:
  std::map<std::string, double> values_;
};

/// Outside timer around one call into a layer: adds the call's seconds
/// to `metric` in `layers` and records a span of the same name on
/// `recorder` (when attached), so the Chrome trace shows it too.
class LayerSpan {
public:
  LayerSpan(Layers& layers, std::string metric, memx::obs::Recorder* recorder);
  ~LayerSpan();
  LayerSpan(const LayerSpan&) = delete;
  LayerSpan& operator=(const LayerSpan&) = delete;

private:
  Layers& layers_;
  std::string metric_;
  memx::obs::Recorder* recorder_;
  std::int64_t startNs_;
  Clock::time_point start_;
};

/// Explorer::explore re-driven through its public sweep primitives
/// (planSweep, buildGroupTrace, evaluateGroup) with a LayerSpan around
/// each call; bit-identical to explorer.explore(kernel). evaluateGroup
/// time goes to the bucket of the group's planned backend and the run's
/// replacement policy.
[[nodiscard]] memx::ExplorationResult tracedSweep(const memx::Explorer& explorer,
                                                  const memx::Kernel& kernel,
                                                  Layers& layers);

/// Counters every traced sweep reads from its obs::Recorder, divided by
/// `ops`.
void addSweepCounters(const memx::obs::Recorder& recorder, double ops,
                      Layers& layers);

/// Close a traced pass of `ops` operations taking `wallPerOp` each:
/// turn the outside-timed layer totals into per-operation values, add
/// the recorder's counters per operation, and set layout.s_per_key and
/// obs.layer_coverage (the share of the wall the timed layers cover).
void finishLayers(Layers& layers, const memx::obs::Recorder& recorder,
                  double ops, double wallPerOp);

/// Write a Chrome trace of `recorder` to
/// <kOutDir>/<workload>[.<part>].trace.json.
void writeChromeTrace(const Args& args, const memx::obs::Recorder& recorder,
                      const std::string& part = "");

/// Sum of the returned points' `accesses`: the references the sweep
/// evaluated its design points on (mrefs_per_s of kernel sweeps).
[[nodiscard]] double referencesOf(const memx::ExplorationResult& result);

/// Digest of a sweep's result CSV (the bit-exact output check).
[[nodiscard]] std::string resultDigest(const memx::ExplorationResult& result);

/// search_hv of a sweep: the (energy, cycles) hypervolume of its front
/// over the one
/// recorded for the same sweep (1.0 while results are unchanged). The
/// ledger holds the reference point and recorded hypervolume under
/// `key`; record mode writes them.
[[nodiscard]] double sweepHypervolumeRatio(
    Ledger& ledger, const std::string& key,
    const std::vector<memx::DesignPoint>& points);

int runPaperMpeg(const Args& args, Result& result);
int runPolicySweep(const Args& args, Result& result);
int runTraceStream(const Args& args, Result& result);
int runServeMix(const Args& args, Result& result);

}  // namespace perfbench
