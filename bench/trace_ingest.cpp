// Out-of-core trace ingestion gate: generates a large synthetic .din.gz
// on disk, then
//   1. streams a materializable prefix through the trace sweep under
//      LRU (the Hill-Smith profile) and Random (the policy grid) and
//      asserts the results are bit-identical to the in-memory Trace
//      path and to per-config simulateTrace over the prefix (windowing
//      included),
//   2. times decode-only draining, a full streamed LRU sweep (analytic,
//      with the obs sink attached) and a streamed single-config
//      simulation over the whole compressed file,
//   3. asserts peak RSS stays under a fixed budget independent of the
//      trace length — the point of the chunked pipeline.
// Writes BENCH_trace_ingest.json (+ BENCH_trace_ingest_trace.json
// timeline) and exits nonzero on any mismatch, refs/sec floor, or blown
// memory budget.
//
// Plain main (no google-benchmark): the bit-identity check is the
// point, and each phase runs once — at the default trace size the
// stream is long enough to swamp scheduler noise.
//
// MEMX_TRACE_INGEST_REFS overrides the reference count (default 100M,
// the acceptance-scale run CI uses; set it to ~1M for a quick local
// check).
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <random>
#include <string>
#include <vector>

#include "memx/cachesim/cache_sim.hpp"
#include "memx/core/trace_explorer.hpp"
#include "memx/obs/recorder.hpp"
#include "memx/trace/din_io.hpp"
#include "memx/trace/file_source.hpp"
#include "memx/trace/gzip_stream.hpp"
#include "memx/trace/trace_source.hpp"

namespace {

using namespace memx;

double seconds(std::chrono::steady_clock::time_point t0,
               std::chrono::steady_clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

/// Peak resident set size in bytes (Linux ru_maxrss is in KiB).
std::uint64_t peakRssBytes() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024;
}

/// Deterministic synthetic workload source: a looping working set with
/// random far excursions, ~25% writes, occasional ifetches — enough
/// locality that the sweep results are non-trivial, enough entropy that
/// gzip still has work to do.
class SynthSource final : public TraceSource {
public:
  explicit SynthSource(std::uint64_t count) : remaining_(count) {}

  std::optional<MemRef> next() override {
    if (remaining_ == 0) return std::nullopt;
    --remaining_;
    const std::uint64_t roll = rng_();
    std::uint64_t addr;
    if (roll % 16 == 0) {
      addr = 0x100000 + rng_() % (1u << 20);  // far excursion
    } else {
      addr = 0x1000 + (cursor_++ % 4096) * 4;  // working-set loop
    }
    AccessType type = AccessType::Read;
    if (roll % 4 == 1) type = AccessType::Write;
    if (roll % 8 == 2) type = AccessType::Instr;
    return MemRef{addr, 4, type};
  }

private:
  std::uint64_t remaining_;
  std::uint64_t cursor_ = 0;
  std::mt19937_64 rng_{0x1234abcd};
};

ExploreOptions sweepOptions(
    ReplacementPolicy replacement = ReplacementPolicy::LRU) {
  ExploreOptions options;
  options.ranges.minCacheBytes = 64;
  options.ranges.maxCacheBytes = 1024;
  options.ranges.minLineBytes = 8;
  options.ranges.maxLineBytes = 32;
  options.ranges.maxAssociativity = 2;
  options.replacement = replacement;
  return options;
}

/// The independent side of the engine comparison: every sweep config
/// simulated on its own (simulateTrace) over the in-memory trace,
/// folded through the same point model.
ExplorationResult simulatedSweep(const Trace& trace,
                                 const ExploreOptions& options) {
  ExploreOptions o = options;
  o.ranges.sweepTiling = false;
  const Explorer grid(o);
  const double addBs = grid.addrActivityFor(trace);
  ExplorationResult result;
  result.workload = "w";
  for (const ConfigKey& key : grid.sweepKeys()) {
    const CacheConfig config = grid.configFor(key);
    result.points.push_back(
        grid.makePoint(config, 1, simulateTrace(config, trace), addBs));
  }
  return result;
}

bool identicalPoints(const ExplorationResult& a, const ExplorationResult& b,
                     const char* label) {
  if (a.points.size() != b.points.size()) {
    std::cerr << "MISMATCH (" << label << "): " << a.points.size()
              << " vs " << b.points.size() << " points\n";
    return false;
  }
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    const DesignPoint& x = a.points[i];
    const DesignPoint& y = b.points[i];
    if (!(x.key == y.key && x.accesses == y.accesses &&
          x.missRate == y.missRate && x.cycles == y.cycles &&
          x.energyNj == y.energyNj)) {
      std::cerr << "MISMATCH (" << label << ") at point " << i << " "
                << x.key.label() << '\n';
      return false;
    }
  }
  return true;
}

}  // namespace

int main() {
  using clock = std::chrono::steady_clock;

  std::uint64_t totalRefs = 100'000'000;
  if (const char* env = std::getenv("MEMX_TRACE_INGEST_REFS")) {
    totalRefs = std::strtoull(env, nullptr, 10);
    if (totalRefs == 0) {
      std::cerr << "bad MEMX_TRACE_INGEST_REFS\n";
      return 1;
    }
  }
  const bool gz = gzipSupported();
  const std::string path =
      std::string("trace_ingest_workload.din") + (gz ? ".gz" : "");
  std::cout << "trace ingest bench: " << totalRefs << " references -> "
            << path << (gz ? "" : " (no zlib in this build: plain text)")
            << "\n";

  // --- Phase A: write the workload to disk, compressed when possible.
  const auto tGen0 = clock::now();
  std::uint64_t fileBytes = 0;
  {
    std::ofstream raw(path, std::ios::binary);
    SynthSource synth(totalRefs);
    std::vector<MemRef> chunk;
    Trace buf;
    if (gz) {
      GzipOutputStream deflate(raw, 1);
      while (fillChunk(synth, chunk, kDefaultTraceChunkRefs) > 0) {
        buf = Trace(std::move(chunk));
        writeDin(deflate, buf);
        chunk = std::vector<MemRef>();
      }
      deflate.close();
    } else {
      while (fillChunk(synth, chunk, kDefaultTraceChunkRefs) > 0) {
        buf = Trace(std::move(chunk));
        writeDin(raw, buf);
        chunk = std::vector<MemRef>();
      }
    }
    raw.flush();
  }
  {
    std::ifstream probe(path, std::ios::binary | std::ios::ate);
    fileBytes = static_cast<std::uint64_t>(probe.tellg());
  }
  const double genSec = seconds(tGen0, clock::now());
  std::cout << "generated " << fileBytes << " file bytes in " << genSec
            << " s\n";

  bool ok = true;

  // --- Phase B: streamed == materialized == directly simulated on a
  // prefix small enough to hold in memory, under LRU and Random,
  // trivial and shifted windows.
  const std::uint64_t prefixRefs = std::min<std::uint64_t>(totalRefs, 500'000);
  Trace prefix;
  {
    FileTraceSource source(path);
    WindowedSource head(source, TraceWindow{0, 0, prefixRefs});
    prefix = drain(head);
  }
  for (const ReplacementPolicy rp :
       {ReplacementPolicy::LRU, ReplacementPolicy::Random}) {
    const ExploreOptions options = sweepOptions(rp);
    const ExplorationResult inMemory = exploreTrace("w", prefix, options);
    FileTraceSource source(path);
    const ExplorationResult streamed = exploreTrace(
        "w", source, options, TraceWindow{0, 0, prefixRefs});
    const bool lru = rp == ReplacementPolicy::LRU;
    ok = identicalPoints(streamed, inMemory,
                         lru ? "prefix lru" : "prefix random") &&
         ok;
    ok = identicalPoints(streamed, simulatedSweep(prefix, options),
                         lru ? "prefix lru vs per-config simulation"
                             : "prefix random vs per-config simulation") &&
         ok;
  }
  {
    // Windowed: skip + limit must equal the in-memory subrange.
    const std::uint64_t skip = prefixRefs / 4;
    const std::uint64_t limit = prefixRefs / 2;
    Trace sub;
    for (std::uint64_t i = skip; i < skip + limit; ++i) sub.push(prefix[i]);
    const ExploreOptions options = sweepOptions();
    const ExplorationResult inMemory = simulatedSweep(sub, options);
    FileTraceSource source(path);
    const ExplorationResult streamed = exploreTrace(
        "w", source, options, TraceWindow{skip, 0, limit});
    ok = identicalPoints(streamed, inMemory, "windowed prefix") && ok;
  }
  std::cout << "prefix bit-identity (" << prefixRefs << " refs): "
            << (ok ? "ok" : "FAILED") << "\n";
  prefix = Trace();

  // --- Phase C: decode-only drain of the full file (refs/sec floor).
  const auto tDec0 = clock::now();
  std::uint64_t decoded = 0;
  {
    FileTraceSource source(path);
    while (source.next()) ++decoded;
  }
  const double decodeSec = seconds(tDec0, clock::now());
  const double decodeRefsPerSec = static_cast<double>(decoded) / decodeSec;
  std::cout << "decode-only: " << decoded << " refs in " << decodeSec
            << " s (" << decodeRefsPerSec / 1e6 << " Mref/s)\n";
  if (decoded != totalRefs) {
    std::cerr << "MISMATCH: decoded " << decoded << " of " << totalRefs
              << " refs\n";
    ok = false;
  }

  // --- Phase D: a full streamed LRU sweep (analytic) carrying the obs
  // sink (counters + ingest spans), and a streamed single-config
  // simulation.
  obs::Recorder recorder;
  const auto tStack0 = clock::now();
  std::uint64_t stackAccesses = 0;
  {
    FileTraceSource source(path);
    const ExplorationResult result =
        exploreTrace("ingest", source, sweepOptions(), TraceWindow{},
                     kDefaultTraceChunkRefs, &recorder);
    stackAccesses = result.points.empty() ? 0 : result.points[0].accesses;
  }
  const double stackSec = seconds(tStack0, clock::now());
  const double stackRefsPerSec =
      static_cast<double>(stackAccesses) / stackSec;
  std::cout << "stackdist streamed sweep: " << stackAccesses << " refs in "
            << stackSec << " s (" << stackRefsPerSec / 1e6 << " Mref/s)\n";

  const auto tSim0 = clock::now();
  std::uint64_t simAccesses = 0;
  {
    CacheConfig cache;
    cache.sizeBytes = 512;
    cache.lineBytes = 16;
    cache.associativity = 2;
    FileTraceSource source(path);
    const DesignPoint p = evaluateTracePoint(source, cache, sweepOptions());
    simAccesses = p.accesses;
  }
  const double simSec = seconds(tSim0, clock::now());
  const double simRefsPerSec = static_cast<double>(simAccesses) / simSec;
  std::cout << "simulated streamed point: " << simAccesses << " refs in "
            << simSec << " s (" << simRefsPerSec / 1e6 << " Mref/s)\n";
  if (stackAccesses != totalRefs || simAccesses != totalRefs) {
    std::cerr << "MISMATCH: streamed sweeps counted " << stackAccesses
              << " / " << simAccesses << " of " << totalRefs << " refs\n";
    ok = false;
  }
  if (recorder.counterValue("trace.refs_decoded") != totalRefs) {
    std::cerr << "MISMATCH: recorder saw "
              << recorder.counterValue("trace.refs_decoded")
              << " decoded refs\n";
    ok = false;
  }

  // --- Gates. Floors sit far (>5x) below the numbers a debug-ish CI
  // box produces, so only a real regression trips them; the memory
  // budget is absolute and length-independent — the whole point of the
  // chunked pipeline (100M refs materialized would be ~1.6 GB alone).
  const double kDecodeFloor = 1e6;  // refs/sec
  const double kSweepFloor = 2e5;   // refs/sec
  const std::uint64_t kRssBudget = std::uint64_t{512} << 20;
  const std::uint64_t rss = peakRssBytes();
  std::cout << "peak RSS: " << (rss >> 20) << " MiB (budget "
            << (kRssBudget >> 20) << " MiB)\n";
  if (decodeRefsPerSec < kDecodeFloor) {
    std::cerr << "BUDGET: decode " << decodeRefsPerSec
              << " refs/s below the " << kDecodeFloor << " floor\n";
    ok = false;
  }
  if (stackRefsPerSec < kSweepFloor || simRefsPerSec < kSweepFloor) {
    std::cerr << "BUDGET: streamed sweep below the " << kSweepFloor
              << " refs/s floor\n";
    ok = false;
  }
  if (rss > kRssBudget) {
    std::cerr << "BUDGET: peak RSS " << (rss >> 20)
              << " MiB exceeds the " << (kRssBudget >> 20)
              << " MiB budget\n";
    ok = false;
  }

  std::ofstream json("BENCH_trace_ingest.json");
  json << "{\"refs\": " << totalRefs << ", \"file_bytes\": " << fileBytes
       << ", \"gzip\": " << (gz ? "true" : "false")
       << ", \"generate_seconds\": " << genSec
       << ", \"decode_seconds\": " << decodeSec
       << ", \"decode_refs_per_sec\": " << decodeRefsPerSec
       << ", \"stackdist_seconds\": " << stackSec
       << ", \"stackdist_refs_per_sec\": " << stackRefsPerSec
       << ", \"simulated_seconds\": " << simSec
       << ", \"simulated_refs_per_sec\": " << simRefsPerSec
       << ", \"peak_rss_bytes\": " << rss
       << ", \"identical\": " << (ok ? "true" : "false")
       << ", \"report\": ";
  recorder.report().writeJson(json);
  json << "}\n";
  {
    std::ofstream trace("BENCH_trace_ingest_trace.json");
    recorder.report().writeChromeTrace(trace);
  }
  std::remove(path.c_str());
  std::cout << (ok ? "PASS" : "FAIL")
            << "; BENCH_trace_ingest.json written\n";
  return ok ? 0 : 1;
}
