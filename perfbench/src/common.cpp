#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "memx/core/selection.hpp"
#include "memx/obs/recorder.hpp"
#include "memx/report/result_io.hpp"
#include "memx/serve/protocol.hpp"
#include "memx/util/numeric_io.hpp"

namespace perfbench {

double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

Args parseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--record") {
      args.record = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace takes 0 or 1");
      }
      args.trace = value == "1";
    } else if (flag == "--ops") {
      args.ops = static_cast<unsigned>(std::stoul(value));
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (args.workload.empty()) throw std::invalid_argument("--workload is required");
  if (!(args.seconds > 0)) throw std::invalid_argument("--seconds must be > 0");
  return args;
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

Timing summarize(std::vector<double> samples) {
  Timing t;
  t.samples = samples.size();
  if (samples.empty()) return t;
  std::sort(samples.begin(), samples.end());
  t.median = median(samples);
  t.tail = t.median;
  const double n = static_cast<double>(samples.size());
  for (const double p : {90.0, 99.0, 99.9}) {
    if (n * (1.0 - p / 100.0) < 10.0) break;
    // Nearest-rank percentile.
    const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
    t.tail = samples[std::min(samples.size(), std::max<std::size_t>(rank, 1)) - 1];
    t.tailPercentile = p;
  }
  return t;
}

double peakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string digest(std::string_view text) {
  return memx::serve::cacheKeyDigest(text);
}

Ledger::Ledger(fs::path file, bool record)
    : file_(std::move(file)), record_(record) {
  if (record_) return;
  std::ifstream in(file_);
  if (!in) throw std::runtime_error("cannot read " + file_.string());
  std::string line;
  while (std::getline(in, line)) {
    const auto tab = line.find('\t');
    if (tab == std::string::npos) continue;
    values_[line.substr(0, tab)] = line.substr(tab + 1);
  }
}

bool Ledger::check(const std::string& key, const std::string& actual) {
  if (record_) {
    values_[key] = actual;
    return true;
  }
  const auto it = values_.find(key);
  return it != values_.end() && it->second == actual;
}

std::optional<std::string> Ledger::get(const std::string& key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

void Ledger::save() const {
  if (!record_) return;
  fs::create_directories(file_.parent_path());
  std::ofstream out(file_);
  for (const auto& [key, value] : values_) out << key << '\t' << value << '\n';
  if (!out) throw std::runtime_error("cannot write " + file_.string());
}

void Result::fail(const std::string& why) {
  ++failed_;
  std::cerr << "FAILED: " << why << '\n';
}

void Result::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back(Metric{name, value, unit});
}

void Result::note(const std::string& line) const {
  std::cout << line << '\n';
}

void Result::print() const {
  std::ostringstream os;
  os << "{\"correct\": " << (failed_ == 0 ? "true" : "false")
     << ", \"attempted\": " << std::max<std::uint64_t>(attempted_, 1)
     << ", \"failed\": " << failed_ << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const double v = std::isfinite(metrics_[i].value) ? metrics_[i].value : 0.0;
    os << (i == 0 ? "" : ", ") << '"' << metrics_[i].name
       << "\": {\"value\": " << memx::formatDouble17(v) << ", \"unit\": \""
       << metrics_[i].unit << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

namespace {

volatile std::uint32_t probeSink = 0;

/// One probe walk; its end point goes to `end`, so the walk is observable
/// and cannot be optimised away.
double probeWalk(std::uint32_t& end) {
  constexpr std::uint32_t kEntries = 1u << 16;  // 256 KiB of uint32
  static const std::vector<std::uint32_t> table = [] {
    std::vector<std::uint32_t> t(kEntries);
    for (std::uint32_t i = 0; i < kEntries; ++i) t[i] = (i * 40503u) & (kEntries - 1);
    return t;
  }();
  const auto t0 = Clock::now();
  std::uint32_t p = 0;
  for (std::uint32_t k = 0; k < 20'000'000; ++k) {
    p = table[(p + k) & (kEntries - 1)];
  }
  const double sec = secondsSince(t0);
  end = p;
  return sec;
}

}  // namespace

double probeSeconds() {
  std::uint32_t end = 0;
  const double sec = probeWalk(end);
  probeSink = end;
  return sec;
}

double parallelProbeSeconds(unsigned threads) {
  std::vector<double> secs(threads);
  std::vector<std::uint32_t> ends(threads);
  {
    std::vector<std::jthread> walkers;
    for (unsigned t = 0; t < threads; ++t) {
      walkers.emplace_back([&secs, &ends, t] { secs[t] = probeWalk(ends[t]); });
    }
  }
  std::uint32_t all = 0;
  for (const std::uint32_t e : ends) all ^= e;
  probeSink = all;
  double total = 0.0;
  for (const double sec : secs) total += sec;
  return total / static_cast<double>(threads);
}

double calibration(double before, double after) {
  return 2.0 * kReferenceProbeSec / (before + after);
}

bool moreOps(const Args& args, unsigned done, Clock::time_point start,
             double lastSec) {
  if (args.ops > 0) return done < args.ops;
  return done == 0 || secondsSince(start) + lastSec <= args.seconds;
}

double timedSetup(const std::function<void()>& setup) {
  std::vector<double> times;
  const double before = probeSeconds();
  const auto start = Clock::now();
  while (times.size() < 5 || secondsSince(start) < 0.25) {
    const auto t0 = Clock::now();
    setup();
    times.push_back(secondsSince(t0));
  }
  return median(times) * calibration(before, probeSeconds());
}

void closedLoop(const Args& args, unsigned warmUp, EndToEnd& e2e,
                const std::function<std::optional<EndToEnd::Op>()>& op,
                const std::function<double()>& probeSec) {
  const auto start = Clock::now();
  for (unsigned i = 0; i < warmUp; ++i) static_cast<void>(op());
  double probe = probeSec();
  double last = 0.0;
  for (unsigned i = 0; moreOps(args, i, start, last); ++i) {
    const auto t0 = Clock::now();
    std::optional<EndToEnd::Op> done = op();
    last = secondsSince(t0);
    const double next = probeSec();
    const double scale = calibration(probe, next);
    probe = next;
    if (!done) continue;
    done->scale = scale;
    e2e.ops.push_back(*done);
    e2e.requestSec.push_back(done->sec * scale);
  }
}

void reportEndToEnd(const EndToEnd& e2e, Result& result) {
  const Timing t = summarize(e2e.requestSec);
  std::vector<double> points;
  std::vector<double> refs;
  std::vector<double> requests;
  std::ostringstream os;
  os << "requests: " << t.samples << " samples, p50 " << t.median * 1e3
     << " ms, tail p" << t.tailPercentile << ' ' << t.tail * 1e3
     << " ms (calibrated); ops (wall s x calibration):";
  for (const EndToEnd::Op& op : e2e.ops) {
    const double sec = std::max(op.sec * op.scale, 1e-9);
    points.push_back(op.points / sec);
    refs.push_back(op.refs / sec / 1e6);
    requests.push_back(op.requests / sec);
    os << ' ' << op.sec << 'x' << op.scale;
  }
  result.note(os.str());
  result.metric("setup_s", e2e.setupSec, "s");
  result.metric("points_per_s", median(points), "1/s");
  result.metric("mrefs_per_s", median(refs), "Mref/s");
  result.metric("req_p50_ms", t.median * 1e3, "ms");
  result.metric("req_tail_ms", t.tail * 1e3, "ms");
  result.metric("req_per_s", median(requests), "1/s");
  result.metric("search_hv", e2e.hypervolume, "ratio");
  result.metric("peak_rss_mib", peakRssMib(), "MiB");
}

namespace {

struct LayerMetric {
  const char* name;
  const char* unit;
};

// Every per-layer metric, in report order; units match BENCHMARK.json.
constexpr LayerMetric kLayerMetrics[] = {
    {"layout.plan_s", "s"},
    {"layout.s_per_key", "s/key"},
    {"layout.keys_certified", "count"},
    {"loopir.trace_build_s", "s"},
    {"loopir.trace_refs", "count"},
    {"loopir.pattern_hit_ratio", "ratio"},
    {"stackdist.lru_eval_s", "s"},
    {"stackdist.grid_eval_s", "s"},
    {"stackdist.profile_refs", "count"},
    {"stackdist.grid_cells", "count"},
    {"cachesim.eval_s", "s"},
    {"cachesim.sim_accesses", "count"},
    {"core.worker_utilization", "ratio"},
    {"core.straggler_share", "ratio"},
    {"mpeg.combine_s", "s"},
    {"search.run_s", "s"},
    {"search.evals", "count"},
    {"search.generations", "count"},
    {"search.eval_share", "ratio"},
    {"serve.queue_wait_ms", "ms"},
    {"serve.overhead_ms", "ms"},
    {"serve.store_hit_ratio", "ratio"},
    {"serve.errors", "count"},
    {"trace.decode_s", "s"},
    {"trace.decode_mrefs_per_s", "Mref/s"},
    {"trace.replay_s", "s"},
    {"trace.bytes_read", "B"},
    {"report.csv_s", "s"},
    {"obs.overhead_ratio", "ratio"},
    {"obs.layer_coverage", "ratio"},
};

}  // namespace

Layers::Layers() {
  for (const LayerMetric& m : kLayerMetrics) values_[m.name] = 0.0;
}

void Layers::set(const std::string& name, double value) {
  const auto it = values_.find(name);
  if (it == values_.end()) throw std::logic_error("unknown layer metric " + name);
  it->second = value;
}

void Layers::add(const std::string& name, double value) {
  set(name, get(name) + value);
}

double Layers::get(const std::string& name) const {
  const auto it = values_.find(name);
  if (it == values_.end()) throw std::logic_error("unknown layer metric " + name);
  return it->second;
}

void Layers::report(Result& result) const {
  for (const LayerMetric& m : kLayerMetrics) {
    result.metric(m.name, values_.at(m.name), m.unit);
  }
}

LayerSpan::LayerSpan(Layers& layers, std::string metric,
                     memx::obs::Recorder* recorder)
    : layers_(layers), metric_(std::move(metric)), recorder_(recorder),
      startNs_(recorder != nullptr ? recorder->nowNs() : 0),
      start_(Clock::now()) {}

LayerSpan::~LayerSpan() {
  try {
    layers_.add(metric_, secondsSince(start_));
    if (recorder_ != nullptr) {
      recorder_->recordSpan(metric_, recorder_->threadIndex(), startNs_,
                            recorder_->nowNs());
    }
  } catch (const std::exception& e) {
    std::cerr << "layer timer " << metric_ << ": " << e.what() << '\n';
  }
}

memx::ExplorationResult tracedSweep(const memx::Explorer& explorer,
                                    const memx::Kernel& kernel, Layers& layers) {
  memx::obs::Recorder* const recorder = explorer.recorder();
  const bool lru = explorer.options().replacement == memx::ReplacementPolicy::LRU;
  std::optional<memx::SweepPlan> plan;
  {
    const LayerSpan span(layers, "layout.plan_s", recorder);
    plan = explorer.planSweep(kernel, explorer.sweepKeys());
  }
  memx::ExplorationResult result;
  result.workload = kernel.name;
  result.points.resize(plan->keys.size());
  memx::Explorer::PatternCache patterns;
  for (const memx::SweepPlan::Group& group : plan->groups) {
    std::optional<memx::Trace> trace;
    double activity = 0.0;
    {
      const LayerSpan span(layers, "loopir.trace_build_s", recorder);
      trace = explorer.buildGroupTrace(kernel, group, patterns);
      activity = explorer.addrActivityFor(*trace);
    }
    const char* bucket = group.backend == memx::SweepBackend::MultiSim
                             ? "cachesim.eval_s"
                         : lru ? "stackdist.lru_eval_s"
                               : "stackdist.grid_eval_s";
    const LayerSpan span(layers, bucket, recorder);
    explorer.evaluateGroup(group, *trace, activity, plan->keys, result.points);
  }
  return result;
}

void addSweepCounters(const memx::obs::Recorder& recorder, double ops,
                      Layers& layers) {
  const auto per = [&](const char* counter) {
    return static_cast<double>(recorder.counterValue(counter)) / ops;
  };
  layers.add("layout.keys_certified", per("layout.cache_miss"));
  layers.add("loopir.trace_refs", per("trace.accesses"));
  layers.add("stackdist.profile_refs", per("stackdist.accesses"));
  layers.add("stackdist.grid_cells", per("stackdist.grid_cells"));
  layers.add("cachesim.sim_accesses", per("sim.accesses"));
  const double hits = per("pattern.cache_hit");
  const double lookups = hits + per("pattern.cache_miss");
  if (lookups > 0) layers.set("loopir.pattern_hit_ratio", hits / lookups);
}

void finishLayers(Layers& layers, const memx::obs::Recorder& recorder,
                  double ops, double wallPerOp) {
  double covered = 0.0;
  for (const char* name : {"layout.plan_s", "loopir.trace_build_s",
                           "stackdist.lru_eval_s", "stackdist.grid_eval_s",
                           "cachesim.eval_s", "mpeg.combine_s", "search.run_s",
                           "report.csv_s"}) {
    layers.set(name, layers.get(name) / ops);
    covered += layers.get(name);
  }
  addSweepCounters(recorder, ops, layers);
  const double keys = static_cast<double>(recorder.counterValue("plan.keys")) / ops;
  if (keys > 0) layers.set("layout.s_per_key", layers.get("layout.plan_s") / keys);
  if (wallPerOp > 0) layers.set("obs.layer_coverage", covered / wallPerOp);
}

void writeChromeTrace(const Args& args, const memx::obs::Recorder& recorder,
                      const std::string& part) {
  fs::create_directories(kOutDir);
  const fs::path path =
      kOutDir / (args.workload + (part.empty() ? "" : "." + part) + ".trace.json");
  std::ofstream out(path);
  recorder.report().writeChromeTrace(out);
  std::cout << "chrome trace: " << path.string() << '\n';
}

double referencesOf(const memx::ExplorationResult& result) {
  double refs = 0.0;
  for (const memx::DesignPoint& p : result.points) {
    refs += static_cast<double>(p.accesses);
  }
  return refs;
}

std::string resultDigest(const memx::ExplorationResult& result) {
  return digest(memx::toCsvString(result));
}

namespace {

/// Area dominated by the (energy, cycles) Pareto front of `points`
/// below the reference point (refEnergy, refCycles).
double frontHypervolume(const std::vector<memx::DesignPoint>& points,
                        double refEnergy, double refCycles) {
  // paretoFront sorts by ascending cycles, so energy descends along it.
  double area = 0.0;
  double prevEnergy = refEnergy;
  for (const memx::DesignPoint& p : memx::paretoFront(points)) {
    if (p.cycles >= refCycles || p.energyNj >= prevEnergy) continue;
    area += (refCycles - p.cycles) * (prevEnergy - p.energyNj);
    prevEnergy = p.energyNj;
  }
  return area;
}

}  // namespace

double sweepHypervolumeRatio(Ledger& ledger, const std::string& key,
                             const std::vector<memx::DesignPoint>& points) {
  double refEnergy = 0.0;
  double refCycles = 0.0;
  double recorded = 0.0;
  if (ledger.recording()) {
    for (const memx::DesignPoint& p : points) {
      refEnergy = std::max(refEnergy, p.energyNj);
      refCycles = std::max(refCycles, p.cycles);
    }
    refEnergy *= 1.1;
    refCycles *= 1.1;
    recorded = frontHypervolume(points, refEnergy, refCycles);
    ledger.check(key, memx::formatDouble17(refEnergy) + ' ' +
                          memx::formatDouble17(refCycles) + ' ' +
                          memx::formatDouble17(recorded));
  } else {
    const std::optional<std::string> entry = ledger.get(key);
    if (!entry) return 0.0;
    std::istringstream in(*entry);
    in >> refEnergy >> refCycles >> recorded;
  }
  return recorded > 0 ? frontHypervolume(points, refEnergy, refCycles) / recorded
                      : 0.0;
}

}  // namespace perfbench
