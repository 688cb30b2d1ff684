// trace_stream: one long recorded trace instead of many short generated
// ones. Set-up writes a seeded 2M-reference .din.gz; each operation
// streams it through FileTraceSource into exploreTrace's LRU (T, L, S)
// sweep with a warmup window. The only workload where gzip/din decoding
// counts. One client, closed loop, calibrated by a probe shaped like a
// pass (traceProbeSeconds).
#include <zlib.h>

#include <cstdlib>
#include <fstream>
#include <iterator>
#include <random>
#include <sstream>

#include "common.hpp"
#include "memx/core/trace_explorer.hpp"
#include "memx/obs/recorder.hpp"
#include "memx/trace/din_io.hpp"
#include "memx/trace/file_source.hpp"
#include "memx/trace/gzip_stream.hpp"

namespace perfbench {
namespace {

// Short enough for ~40 passes in a 30-second run: neighbours slow single
// passes by up to 2x in bursts of seconds, which a median over ten
// passes does not step over.
constexpr std::uint64_t kRefs = 2'000'000;
constexpr std::uint64_t kWarmupRefs = 200'000;
/// References the probe reads: 0.15-0.2 s on a loaded 4-vCPU machine.
constexpr std::uint32_t kProbeRefs = 1'000'000;
/// Seeds map onto this many distinct traces, each with a ledger entry.
constexpr std::uint64_t kVariants = 64;

/// A looping working set with seeded far excursions, ~25% writes and
/// some instruction fetches: enough locality for non-trivial sweep
/// results, enough entropy that gzip has work to do. Every variant has
/// the same shape, so the cost of a pass does not depend on the seed.
class SynthSource final : public memx::TraceSource {
public:
  SynthSource(std::uint64_t count, std::uint64_t variant)
      : remaining_(count), rng_(0x9e3779b97f4a7c15ULL * (variant + 1)) {}

  std::optional<memx::MemRef> next() override {
    if (remaining_ == 0) return std::nullopt;
    --remaining_;
    const std::uint64_t roll = rng_();
    std::uint64_t addr = 0;
    if (roll % 16 == 0) {
      addr = 0x100000 + rng_() % (1u << 20);
    } else {
      addr = 0x1000 + (cursor_++ % 4096) * 4;
    }
    memx::AccessType type = memx::AccessType::Read;
    if (roll % 4 == 1) type = memx::AccessType::Write;
    if (roll % 8 == 2) type = memx::AccessType::Instr;
    return memx::MemRef{addr, 4, type};
  }

private:
  std::uint64_t remaining_;
  std::uint64_t cursor_ = 0;
  std::mt19937_64 rng_;
};

void writeTrace(const fs::path& file, std::uint64_t variant) {
  std::ofstream raw(file, std::ios::binary);
  memx::GzipOutputStream deflate(raw, 1);
  SynthSource synth(kRefs, variant);
  std::vector<memx::MemRef> chunk;
  while (memx::fillChunk(synth, chunk, memx::kDefaultTraceChunkRefs) > 0) {
    memx::writeDin(deflate, memx::Trace(std::move(chunk)));
    chunk = std::vector<memx::MemRef>();
  }
  deflate.close();
  raw.flush();
  if (!raw) throw std::runtime_error("cannot write " + file.string());
}

/// The probe's input, written with zlib alone so that it stays the same
/// when memx's din or gzip writers change. Variant kVariants is one no
/// seed maps onto.
void writeProbeInput(const fs::path& file) {
  gzFile out = gzopen(file.c_str(), "wb1");
  if (out == nullptr) throw std::runtime_error("cannot write " + file.string());
  SynthSource synth(kProbeRefs, kVariants);
  bool ok = true;
  while (const std::optional<memx::MemRef> ref = synth.next()) {
    ok = ok && gzprintf(out, "%d %llx\n", static_cast<int>(ref->type),
                        static_cast<unsigned long long>(ref->addr)) > 0;
  }
  if (gzclose(out) != Z_OK || !ok) {
    throw std::runtime_error("cannot write " + file.string());
  }
}

volatile std::uint64_t traceProbeSink = 0;

/// Machine-speed probe shaped like a pass, in benchmark code only: inflate
/// and parse the probe's din file with zlib, and run every reference
/// through naive 8-way LRU sets for line sizes 8-32 B and 1-128 sets, the
/// geometries a pass sweeps. Passes slow down under neighbours' load more
/// than probeSeconds()'s L2 walk does; this probe follows them closely
/// (README "Calibration").
double traceProbeSeconds(const fs::path& file) {
  constexpr std::size_t kWays = 8;
  constexpr std::size_t kMaxSets = 128;
  constexpr unsigned kLineShifts[] = {3, 4, 5};
  constexpr unsigned kSetShifts = 8;  // 1, 2, ..., kMaxSets sets
  const auto t0 = Clock::now();
  gzFile in = gzopen(file.c_str(), "rb");
  if (in == nullptr) throw std::runtime_error("cannot read " + file.string());
  gzbuffer(in, 1u << 16);
  std::vector<std::uint64_t> ways(std::size(kLineShifts) * kSetShifts * kMaxSets * kWays,
                                  ~std::uint64_t{0});
  std::uint64_t misses = 0;
  char line[64];
  std::uint32_t refs = 0;
  while (refs < kProbeRefs && gzgets(in, line, sizeof line) != nullptr) {
    char* rest = nullptr;
    static_cast<void>(std::strtoul(line, &rest, 10));
    const std::uint64_t addr = std::strtoull(rest, nullptr, 16);
    ++refs;
    std::uint64_t* cache = ways.data();
    for (const unsigned lineShift : kLineShifts) {
      const std::uint64_t block = addr >> lineShift;
      for (unsigned setShift = 0; setShift < kSetShifts; ++setShift) {
        std::uint64_t* set = cache + (block & ((1u << setShift) - 1)) * kWays;
        cache += kMaxSets * kWays;
        std::size_t hit = kWays - 1;
        for (std::size_t w = 0; w < kWays; ++w) {
          if (set[w] == block) {
            hit = w;
            break;
          }
        }
        if (set[hit] != block) ++misses;
        for (std::size_t w = hit; w > 0; --w) set[w] = set[w - 1];
        set[0] = block;
      }
    }
  }
  gzclose(in);
  if (refs != kProbeRefs) throw std::runtime_error("short probe input " + file.string());
  traceProbeSink = misses;
  return secondsSince(t0);
}

memx::ExploreOptions sweepOptions() {
  memx::ExploreOptions o;
  o.ranges.minCacheBytes = 64;
  o.ranges.maxCacheBytes = 1024;
  o.ranges.minLineBytes = 8;
  o.ranges.maxLineBytes = 32;
  o.ranges.maxAssociativity = 8;
  o.replacement = memx::ReplacementPolicy::LRU;
  return o;
}

memx::ExplorationResult streamSweep(const fs::path& file,
                                    memx::obs::Recorder* recorder) {
  memx::FileTraceSource source(file.string());
  return memx::exploreTrace("trace_stream", source, sweepOptions(),
                            memx::TraceWindow{0, kWarmupRefs, 0},
                            memx::kDefaultTraceChunkRefs, recorder);
}

}  // namespace

int runTraceStream(const Args& args, Result& result) {
  const fs::path dir = kWorkDir / "trace_stream";
  fs::create_directories(dir);
  const fs::path traceFile = dir / "trace.din.gz";
  const fs::path probeFile = dir / "probe.din.gz";
  Ledger ledger(kExpectedDir / "trace_stream.tsv", args.record);

  if (args.record) {
    // The ledger covers every variant a seed can map onto.
    for (std::uint64_t v = 0; v < kVariants; ++v) {
      writeTrace(traceFile, v);
      const memx::ExplorationResult r = streamSweep(traceFile, nullptr);
      ledger.check("v" + std::to_string(v), resultDigest(r));
      static_cast<void>(sweepHypervolumeRatio(ledger, "hv/v" + std::to_string(v),
                                              r.points));
    }
    ledger.save();
  }

  const std::uint64_t variant = args.seed % kVariants;
  const std::string key = "v" + std::to_string(variant);
  EndToEnd e2e;
  e2e.setupSec = timedSetup([&] { writeTrace(traceFile, variant); });

  const auto runOp = [&](memx::obs::Recorder* recorder) -> std::optional<EndToEnd::Op> {
    result.attempt();
    try {
      const auto t0 = Clock::now();
      const memx::ExplorationResult r = streamSweep(traceFile, recorder);
      EndToEnd::Op op;
      op.sec = secondsSince(t0);
      if (!ledger.check(key, resultDigest(r))) {
        result.fail("trace_stream " + key + ": result CSV digest differs");
        return std::nullopt;
      }
      op.points = static_cast<double>(r.points.size());
      op.refs = static_cast<double>(kRefs);
      op.requests = 1.0;
      e2e.hypervolume = sweepHypervolumeRatio(ledger, "hv/" + key, r.points);
      return op;
    } catch (const std::exception& e) {
      result.fail("trace_stream " + key + ": " + e.what());
      return std::nullopt;
    }
  };

  if (!args.trace) {
    writeProbeInput(probeFile);
    closedLoop(args, 1, e2e, [&] { return runOp(nullptr); },
               [&] { return traceProbeSeconds(probeFile); });
    reportEndToEnd(e2e, result);
    return 0;
  }

  // Rounds of: untraced pass, decode-only drain, traced pass.
  Layers layers;
  memx::obs::Recorder recorder;
  std::vector<double> untraced;
  std::vector<double> traced;
  std::vector<double> decode;
  const auto start = Clock::now();
  double last = 0.0;
  const auto secOf = [](const std::optional<EndToEnd::Op>& op) {
    return op ? op->sec : 0.0;
  };
  for (unsigned i = 0; moreOps(args, i, start, last); ++i) {
    const auto round = Clock::now();
    untraced.push_back(secOf(runOp(nullptr)));
    const auto t0 = Clock::now();
    std::uint64_t refs = 0;
    {
      memx::FileTraceSource source(traceFile.string());
      while (source.next()) ++refs;
    }
    decode.push_back(secondsSince(t0));
    if (refs != kRefs) result.fail("decode-only drain read " + std::to_string(refs) + " refs");
    traced.push_back(secOf(runOp(&recorder)));
    last = secondsSince(round);
  }
  const double rounds = static_cast<double>(traced.size());
  const double wall = median(traced);
  const double decodeSec = median(decode);
  layers.set("trace.decode_s", decodeSec);
  layers.set("trace.decode_mrefs_per_s", static_cast<double>(kRefs) / decodeSec / 1e6);
  layers.set("trace.replay_s", wall - decodeSec);
  layers.set("trace.bytes_read",
             static_cast<double>(recorder.counterValue("trace.bytes_read")) / rounds);
  addSweepCounters(recorder, rounds, layers);
  layers.set("obs.overhead_ratio", wall / median(untraced));
  // Decode and replay split the traced pass by construction.
  layers.set("obs.layer_coverage", 1.0);
  layers.report(result);
  std::ostringstream os;
  os << "traced pass " << wall << " s, decode-only " << decodeSec << " s";
  result.note(os.str());
  writeChromeTrace(args, recorder);
  return 0;
}

}  // namespace perfbench
