// Streaming trace ingestion: din decoding, gzip streams, file sources,
// windowing, chunked replay, and the streamed-vs-materialized
// differential that pins the out-of-core path to the in-memory one.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <random>
#include <sstream>
#include <string>

#include "memx/cachesim/bus_monitor.hpp"
#include "memx/cachesim/cache_sim.hpp"
#include "memx/core/trace_explorer.hpp"
#include "memx/obs/recorder.hpp"
#include "memx/stackdist/stackdist_sim.hpp"
#include "memx/timing/cycle_model.hpp"
#include "memx/trace/din_io.hpp"
#include "memx/trace/file_source.hpp"
#include "memx/trace/generators.hpp"
#include "memx/trace/gzip_stream.hpp"
#include "memx/trace/trace_source.hpp"
#include "memx/util/assert.hpp"

namespace memx {
namespace {

Trace mixedTrace(std::size_t n, unsigned seed) {
  // Reads, writes and ifetches with occasional line straddles — the
  // shapes din files carry (sizes are stamped to 4 on parse, so keep
  // size 4 and let unaligned addresses produce the straddles).
  std::mt19937_64 rng(seed);
  Trace t;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t addr = rng() % 4096 + (rng() % 8 == 0 ? 3 : 0);
    const std::uint32_t pick = rng() % 4;
    const AccessType type = pick == 0   ? AccessType::Write
                            : pick == 1 ? AccessType::Instr
                                        : AccessType::Read;
    t.push(MemRef{addr, 4, type});
  }
  return t;
}

void expectSameRefs(const Trace& a, const Trace& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].addr, b[i].addr) << "ref " << i;
    ASSERT_EQ(a[i].size, b[i].size) << "ref " << i;
    ASSERT_EQ(a[i].type, b[i].type) << "ref " << i;
  }
}

void expectSameStats(const CacheStats& a, const CacheStats& b,
                     const std::string& what) {
  EXPECT_EQ(a.reads, b.reads) << what;
  EXPECT_EQ(a.writes, b.writes) << what;
  EXPECT_EQ(a.readHits, b.readHits) << what;
  EXPECT_EQ(a.readMisses, b.readMisses) << what;
  EXPECT_EQ(a.writeHits, b.writeHits) << what;
  EXPECT_EQ(a.writeMisses, b.writeMisses) << what;
  EXPECT_EQ(a.lineFills, b.lineFills) << what;
  EXPECT_EQ(a.writebacks, b.writebacks) << what;
  EXPECT_EQ(a.memWrites, b.memWrites) << what;
}

std::string tempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

// --- DinStreamSource ----------------------------------------------------

TEST(DinStreamSource, DeliversRefsIncrementally) {
  std::istringstream is("# hdr\n0 10\n\n1 20\n2 30\n");
  DinStreamSource source(is);
  EXPECT_EQ(source.ingest().refsDecoded, 0u);
  auto r0 = source.next();
  ASSERT_TRUE(r0);
  EXPECT_EQ(r0->addr, 0x10u);
  EXPECT_EQ(r0->type, AccessType::Read);
  EXPECT_EQ(source.ingest().refsDecoded, 1u);
  auto r1 = source.next();
  ASSERT_TRUE(r1);
  EXPECT_EQ(r1->addr, 0x20u);
  EXPECT_EQ(r1->type, AccessType::Write);
  auto r2 = source.next();
  ASSERT_TRUE(r2);
  EXPECT_EQ(r2->type, AccessType::Instr);
  EXPECT_FALSE(source.next());
  EXPECT_FALSE(source.next());  // exhausted stays exhausted
  EXPECT_EQ(source.ingest().refsDecoded, 3u);
  EXPECT_EQ(source.lineNo(), 5u);
}

TEST(DinStreamSource, MatchesReadDin) {
  const Trace original = mixedTrace(500, 7);
  const std::string text = toDinString(original);
  std::istringstream a(text);
  std::istringstream b(text);
  DinStreamSource source(a);
  const Trace streamed = drain(source);
  expectSameRefs(streamed, readDin(b));
}

TEST(FillChunk, ShortCountSignalsExhaustion) {
  const Trace trace = stridedTrace(0, 10, 4);
  VectorTraceSource source(trace);
  std::vector<MemRef> buf;
  EXPECT_EQ(fillChunk(source, buf, 4), 4u);
  EXPECT_EQ(buf[0].addr, 0u);
  EXPECT_EQ(fillChunk(source, buf, 4), 4u);
  EXPECT_EQ(buf[0].addr, 16u);  // buffer is reused, not appended
  EXPECT_EQ(fillChunk(source, buf, 4), 2u);
  EXPECT_EQ(fillChunk(source, buf, 4), 0u);
}

// --- WindowedSource -----------------------------------------------------

TEST(WindowedSource, AppliesSkipWarmupAndLimit) {
  const Trace trace = stridedTrace(0, 20, 4);
  VectorTraceSource inner(trace);
  WindowedSource window(inner, TraceWindow{5, 2, 3});
  // Delivers warmup + limit = 5 refs, starting after the 5 skipped.
  for (std::uint64_t want = 5; want < 10; ++want) {
    auto ref = window.next();
    ASSERT_TRUE(ref);
    EXPECT_EQ(ref->addr, want * 4);
  }
  EXPECT_FALSE(window.next());
  EXPECT_EQ(window.delivered(), 5u);
}

TEST(WindowedSource, LimitZeroIsUnbounded) {
  const Trace trace = stridedTrace(0, 10, 4);
  VectorTraceSource inner(trace);
  WindowedSource window(inner, TraceWindow{2, 0, 0});
  EXPECT_EQ(drain(window).size(), 8u);
}

TEST(WindowedSource, SkipPastEndIsEmpty) {
  const Trace trace = stridedTrace(0, 5, 4);
  VectorTraceSource inner(trace);
  WindowedSource window(inner, TraceWindow{100, 0, 0});
  EXPECT_FALSE(window.next());
  EXPECT_EQ(window.delivered(), 0u);
}

TEST(WindowedSource, ForwardsIngestStats) {
  std::istringstream is("0 10\n0 20\n0 30\n");
  DinStreamSource din(is);
  WindowedSource window(din, TraceWindow{1, 0, 1});
  (void)drain(window);
  // Skip consumed one ref, limit delivered one: both decoded.
  EXPECT_EQ(window.ingest().refsDecoded, 2u);
}

TEST(WindowedSource, WindowsCompose) {
  const Trace trace = stridedTrace(0, 100, 4);
  VectorTraceSource inner(trace);
  WindowedSource outer(inner, TraceWindow{10, 0, 50});
  WindowedSource nested(outer, TraceWindow{5, 0, 10});
  const Trace got = drain(nested);
  ASSERT_EQ(got.size(), 10u);
  EXPECT_EQ(got[0].addr, 15u * 4);
}

// --- Gzip streams -------------------------------------------------------

TEST(GzipStream, RoundTripsThroughMemory) {
  if (!gzipSupported()) GTEST_SKIP() << "built without zlib";
  const Trace original = mixedTrace(2000, 11);
  std::stringstream compressed;
  {
    GzipOutputStream gz(compressed, 6);
    writeDin(gz, original);
    gz.close();
  }
  // The gzip layer actually compressed (din text is highly redundant).
  EXPECT_LT(compressed.str().size(), toDinString(original).size() / 2);
  GzipInputStream inflate(compressed);
  expectSameRefs(readDin(inflate), original);
}

TEST(GzipStream, SmallBuffersStillRoundTrip) {
  if (!gzipSupported()) GTEST_SKIP() << "built without zlib";
  const Trace original = mixedTrace(300, 13);
  std::stringstream compressed;
  {
    GzipOutputStream gz(compressed, -1, 16);  // tiny deflate buffers
    writeDin(gz, original);
    gz.close();
  }
  GzipInputStream inflate(compressed, 16);  // tiny inflate buffers
  expectSameRefs(readDin(inflate), original);
}

TEST(GzipStream, ConcatenatedMembersInflateBackToBack) {
  if (!gzipSupported()) GTEST_SKIP() << "built without zlib";
  // `cat a.gz b.gz` is a valid gzip file; gzip -d inflates both.
  std::stringstream compressed;
  {
    GzipOutputStream gz(compressed);
    gz << "0 10\n";
    gz.close();
  }
  {
    GzipOutputStream gz(compressed);
    gz << "1 20\n";
    gz.close();
  }
  GzipInputStream inflate(compressed);
  const Trace t = readDin(inflate);
  ASSERT_EQ(t.size(), 2u);
  EXPECT_EQ(t[0].addr, 0x10u);
  EXPECT_EQ(t[1].addr, 0x20u);
}

TEST(GzipStream, TruncatedInputThrows) {
  if (!gzipSupported()) GTEST_SKIP() << "built without zlib";
  // Through readDin's getline path: istream machinery must rethrow the
  // streambuf's ContractViolation, not swallow it into a short read.
  std::stringstream compressed;
  {
    GzipOutputStream gz(compressed);
    gz << "0 10\n0 20\n0 30\n";
    gz.close();
  }
  const std::string whole = compressed.str();
  std::istringstream cut(whole.substr(0, whole.size() / 2));
  GzipInputStream inflate(cut);
  EXPECT_THROW((void)readDin(inflate), ContractViolation);
}

TEST(GzipStream, GarbageInputThrows) {
  if (!gzipSupported()) GTEST_SKIP() << "built without zlib";
  std::istringstream garbage("this is not a gzip stream at all");
  GzipInputStream inflate(garbage);
  EXPECT_THROW((void)readDin(inflate), ContractViolation);
}

// --- FileTraceSource ----------------------------------------------------

TEST(FileTraceSource, StreamsPlainDinFiles) {
  const Trace original = mixedTrace(800, 17);
  const std::string path = tempPath("plain_trace.din");
  {
    std::ofstream out(path);
    writeDin(out, original);
  }
  FileTraceSource source(path);
  expectSameRefs(drain(source), original);
  const IngestStats ingest = source.ingest();
  EXPECT_EQ(ingest.refsDecoded, original.size());
  EXPECT_EQ(ingest.bytesRead, toDinString(original).size());
  std::remove(path.c_str());
}

TEST(FileTraceSource, StreamsGzipCompressedFiles) {
  if (!gzipSupported()) GTEST_SKIP() << "built without zlib";
  const Trace original = mixedTrace(800, 19);
  const std::string path = tempPath("gz_trace.din.gz");
  {
    std::ofstream raw(path, std::ios::binary);
    GzipOutputStream gz(raw);
    writeDin(gz, original);
    gz.close();
  }
  FileTraceSource source(path);
  expectSameRefs(drain(source), original);
  const IngestStats ingest = source.ingest();
  EXPECT_EQ(ingest.refsDecoded, original.size());
  // bytesRead counts the compressed file, which is far smaller than
  // the decompressed text.
  EXPECT_GT(ingest.bytesRead, 0u);
  EXPECT_LT(ingest.bytesRead, toDinString(original).size() / 2);
  std::remove(path.c_str());
}

TEST(FileTraceSource, MissingFileThrows) {
  EXPECT_THROW(FileTraceSource("/nonexistent/trace.din"),
               ContractViolation);
}

TEST(FileTraceSource, TruncatedGzipFileThrows) {
  if (!gzipSupported()) GTEST_SKIP() << "built without zlib";
  const Trace original = mixedTrace(500, 21);
  const std::string path = tempPath("cut_trace.din.gz");
  std::string whole;
  {
    std::ostringstream buf;
    GzipOutputStream gz(buf);
    writeDin(gz, original);
    gz.close();
    whole = buf.str();
  }
  {
    std::ofstream out(path, std::ios::binary);
    out.write(whole.data(),
              static_cast<std::streamsize>(whole.size() / 2));
  }
  FileTraceSource source(path);
  EXPECT_THROW((void)drain(source), ContractViolation);
  std::remove(path.c_str());
}

TEST(FileTraceSource, DetectsGzipByExtension) {
  EXPECT_TRUE(isGzipPath("trace.din.gz"));
  EXPECT_TRUE(isGzipPath("/a/b/c.gz"));
  EXPECT_FALSE(isGzipPath("trace.din"));
  EXPECT_FALSE(isGzipPath(".gz"));  // no stem
}

// --- Chunked replay -----------------------------------------------------

/// (T, L, S) corners under LRU (the Hill-Smith profile) and Random
/// (the policy grid, with per-cell generators).
std::vector<CacheConfig> sweepBank() {
  std::vector<CacheConfig> configs;
  for (const ReplacementPolicy rp :
       {ReplacementPolicy::LRU, ReplacementPolicy::Random}) {
    for (const std::uint32_t size : {64u, 256u}) {
      for (const std::uint32_t line : {8u, 16u}) {
        for (const std::uint32_t assoc : {1u, 2u}) {
          CacheConfig c;
          c.sizeBytes = size;
          c.lineBytes = line;
          c.associativity = assoc;
          c.replacement = rp;
          configs.push_back(c);
        }
      }
    }
  }
  return configs;
}

TEST(ChunkedReplay, CacheSimStreamMatchesWholeTraceRun) {
  // CacheSim::run(TraceSource&) is the streamed per-point oracle; its
  // state persists across calls, so a stream split in two replays
  // exactly like one whole-trace run (Random draws included).
  const Trace trace = mixedTrace(3000, 23);
  Trace firstHalf;
  Trace secondHalf;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    (i < trace.size() / 2 ? firstHalf : secondHalf).push(trace[i]);
  }
  for (const CacheConfig& config : sweepBank()) {
    CacheSim streamed(config);
    VectorTraceSource a(firstHalf);
    VectorTraceSource b(secondHalf);
    streamed.run(a);
    streamed.run(b);
    expectSameStats(streamed.stats(), simulateTrace(config, trace),
                    config.label() + " " + toString(config.replacement));
  }
}

TEST(ChunkedReplay, StackDistSimMatchesWholeTraceRun) {
  const Trace trace = mixedTrace(3000, 27);
  const std::vector<CacheConfig> configs = sweepBank();
  StackDistSim whole(configs);
  whole.run(trace);
  for (const std::size_t chunkRefs : {std::size_t{1}, std::size_t{13},
                                      std::size_t{512}}) {
    StackDistSim chunked(configs);
    VectorTraceSource source(trace);
    chunked.run(source, chunkRefs);
    for (std::size_t i = 0; i < configs.size(); ++i) {
      expectSameStats(chunked.stats(i), whole.stats(i),
                      "chunk=" + std::to_string(chunkRefs) + " member " +
                          std::to_string(i));
    }
  }
}

TEST(ChunkedReplay, StackDistSimAccumulatesAcrossRunCalls) {
  // Streaming runs accumulate: two half-trace calls equal one whole
  // pass (the warmup-snapshot mechanism depends on this).
  const Trace trace = mixedTrace(2000, 29);
  Trace firstHalf;
  Trace secondHalf;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    (i < trace.size() / 2 ? firstHalf : secondHalf).push(trace[i]);
  }
  const std::vector<CacheConfig> configs = sweepBank();
  StackDistSim whole(configs);
  whole.run(trace);
  StackDistSim split(configs);
  VectorTraceSource a(firstHalf);
  VectorTraceSource b(secondHalf);
  split.run(a);
  split.run(b);
  for (std::size_t i = 0; i < configs.size(); ++i) {
    expectSameStats(split.stats(i), whole.stats(i),
                    "member " + std::to_string(i));
  }
}

TEST(ChunkedReplay, StackDistSimRejectsMixingModes) {
  const Trace trace = mixedTrace(100, 31);
  StackDistSim bank(sweepBank());
  bank.run(trace);
  VectorTraceSource source(trace);
  EXPECT_THROW(bank.run(source), ContractViolation);
}

TEST(AllAssocProfile, FeedSplitsAreInvariant) {
  const Trace trace = mixedTrace(4000, 37);
  const AllAssocProfile whole(trace, 16, 64, 4);
  AllAssocProfile fed(16, 64, 4);
  // Feed in ragged chunks.
  std::size_t pos = 0;
  std::size_t step = 1;
  while (pos < trace.size()) {
    const std::size_t n = std::min(step, trace.size() - pos);
    fed.feed(trace.refs().data() + pos, n);
    pos += n;
    step = step * 2 + 1;
  }
  for (const std::uint32_t sets : {1u, 8u, 64u}) {
    for (const std::uint32_t assoc : {1u, 2u, 4u}) {
      expectSameStats(fed.stats(sets, assoc, WritePolicy::WriteBack),
                      whole.stats(sets, assoc, WritePolicy::WriteBack),
                      "S" + std::to_string(sets) + "A" +
                          std::to_string(assoc));
    }
  }
}

TEST(AllAssocProfile, PackedToSplitMigrationIsExact) {
  // A line index beyond 2^56 - 2 forces the packed pass to hand over
  // mid-stream. The migrated profile must stay exact — pin it against
  // the cache simulator on a trace that goes small -> huge -> small.
  Trace trace;
  Trace prefix = mixedTrace(600, 41);
  for (const MemRef& r : prefix) trace.push(r);
  const std::uint64_t huge = (std::uint64_t{1} << 60);
  for (std::size_t i = 0; i < 50; ++i) {
    trace.push(MemRef{huge + i * 8, 4,
                      i % 3 == 0 ? AccessType::Write : AccessType::Read});
  }
  Trace suffix = mixedTrace(600, 43);
  for (const MemRef& r : suffix) trace.push(r);

  const AllAssocProfile profile(trace, 8, 16, 4);
  for (const std::uint32_t sets : {1u, 4u, 16u}) {
    for (const std::uint32_t assoc : {1u, 2u, 4u}) {
      CacheConfig c;
      c.lineBytes = 8;
      c.sizeBytes = sets * assoc * 8;
      c.associativity = assoc;
      const CacheStats sim = simulateTrace(c, trace);
      expectSameStats(profile.stats(sets, assoc, WritePolicy::WriteBack),
                      sim,
                      "S" + std::to_string(sets) + "A" +
                          std::to_string(assoc));
    }
  }
}

// --- Streamed vs materialized explorer ----------------------------------

ExploreOptions smallSweep(
    ReplacementPolicy replacement = ReplacementPolicy::LRU) {
  ExploreOptions options;
  options.ranges.minCacheBytes = 32;
  options.ranges.maxCacheBytes = 256;
  options.ranges.maxAssociativity = 2;
  options.replacement = replacement;
  return options;
}

/// One policy per StackDistSim profile kind: LRU reads the Hill-Smith
/// stack distances, Random the policy grid's per-cell generators.
constexpr ReplacementPolicy kEnginePolicies[] = {ReplacementPolicy::LRU,
                                                 ReplacementPolicy::Random};

void expectSamePoint(const DesignPoint& pa, const DesignPoint& pb) {
  EXPECT_EQ(pa.key, pb.key);
  EXPECT_EQ(pa.accesses, pb.accesses);
  // Bit-identical, not approximately equal: every path must fold the
  // exact same integers through the exact same doubles.
  EXPECT_EQ(pa.missRate, pb.missRate) << pa.key.label();
  EXPECT_EQ(pa.cycles, pb.cycles) << pa.key.label();
  EXPECT_EQ(pa.energyNj, pb.energyNj) << pa.key.label();
}

void expectSamePoints(const ExplorationResult& a,
                      const ExplorationResult& b) {
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    expectSamePoint(a.points[i], b.points[i]);
  }
}

/// The cache a trace-sweep point describes (B = 1; the policies come
/// from the run's options).
CacheConfig cacheAt(const ConfigKey& key) {
  CacheConfig cache;
  cache.sizeBytes = key.cacheBytes;
  cache.lineBytes = key.lineBytes;
  cache.associativity = key.associativity;
  return cache;
}

/// The per-point oracle of a trace sweep: one evaluateTracePoint
/// (CacheSim::run) per key the sweep visited.
void expectMatchesPerPoint(const ExplorationResult& sweep, const Trace& trace,
                           const ExploreOptions& options) {
  ASSERT_FALSE(sweep.points.empty());
  for (const DesignPoint& p : sweep.points) {
    expectSamePoint(p, evaluateTracePoint(trace, cacheAt(p.key), options));
  }
}

TEST(StreamedExplore, TrivialWindowMatchesMaterializedBothBackends) {
  const Trace trace = mixedTrace(4000, 47);
  for (const ReplacementPolicy rp : kEnginePolicies) {
    SCOPED_TRACE(toString(rp));
    const ExploreOptions options = smallSweep(rp);
    VectorTraceSource source(trace);
    const ExplorationResult streamed =
        exploreTrace("w", source, options, TraceWindow{}, 64);
    expectMatchesPerPoint(streamed, trace, options);
    // The Trace overload is the same driver at the default chunk size.
    expectSamePoints(streamed, exploreTrace("w", trace, options));
  }
}

TEST(StreamedExplore, SkipAndLimitMatchMaterializedSubrange) {
  const Trace trace = mixedTrace(3000, 53);
  const TraceWindow window{500, 0, 1000};
  Trace sub;
  for (std::size_t i = 500; i < 1500; ++i) sub.push(trace[i]);
  for (const ReplacementPolicy rp : kEnginePolicies) {
    SCOPED_TRACE(toString(rp));
    const ExploreOptions options = smallSweep(rp);
    VectorTraceSource source(trace);
    const ExplorationResult streamed =
        exploreTrace("w", source, options, window, 128);
    expectMatchesPerPoint(streamed, sub, options);
  }
}

TEST(StreamedExplore, WarmupAgreesAcrossBackends) {
  // Warmup exclusion uses snapshot subtraction on both sides: the sweep
  // (Hill-Smith profile for LRU, policy grid for Random) and the
  // per-point CacheSim oracle must agree exactly on the counted region.
  const Trace trace = mixedTrace(3000, 59);
  const TraceWindow window{200, 500, 1500};
  for (const ReplacementPolicy rp : kEnginePolicies) {
    SCOPED_TRACE(toString(rp));
    const ExploreOptions options = smallSweep(rp);
    VectorTraceSource source(trace);
    const ExplorationResult sweep =
        exploreTrace("w", source, options, window, 64);
    ASSERT_FALSE(sweep.points.empty());
    for (const DesignPoint& p : sweep.points) {
      VectorTraceSource one(trace);
      expectSamePoint(p, evaluateTracePoint(one, cacheAt(p.key), options,
                                            window, 64));
    }
  }
}

// Trace sweeps fold through the same point model as kernel sweeps:
// with write-back and includeWriteEnergy the writebacks reach the
// energy, and leakage is charged per cycle on top.
TEST(StreamedExplore, TraceSweepChargesWriteEnergyAndLeakage) {
  const Trace trace = mixedTrace(3000, 73);
  for (const ReplacementPolicy rp : kEnginePolicies) {
    SCOPED_TRACE(toString(rp));
    ExploreOptions options = smallSweep(rp);
    options.writePolicy = WritePolicy::WriteBack;
    options.includeWriteEnergy = true;
    options.energy.leakagePjPerBytePerCycle = 0.5;
    const ExplorationResult sweep = exploreTrace("w", trace, options);
    ASSERT_FALSE(sweep.points.empty());
    const double addBs = measureAddrActivity(trace);
    const CycleModel cycleModel(options.timing);
    for (const DesignPoint& p : sweep.points) {
      CacheConfig cache = cacheAt(p.key);
      cache.writePolicy = options.writePolicy;
      cache.replacement = rp;
      const CacheStats stats = simulateTrace(cache, trace);
      const CacheEnergyModel energy(cache, options.energy, addBs);
      const double cycles = cycleModel.cycles(stats, cache, 1);
      EXPECT_EQ(p.cycles, cycles) << p.label();
      EXPECT_EQ(p.energyNj, energy.totalIncludingWritesNj(stats) +
                                energy.leakageNj(cycles))
          << p.label();
    }
  }
}

TEST(StreamedExplore, EvaluatePointMatchesMaterialized) {
  const Trace trace = mixedTrace(2000, 61);
  CacheConfig cache;
  cache.sizeBytes = 128;
  cache.lineBytes = 8;
  cache.associativity = 2;
  ExploreOptions options;
  const DesignPoint materialized =
      evaluateTracePoint(trace, cache, options);
  VectorTraceSource source(trace);
  const DesignPoint streamed =
      evaluateTracePoint(source, cache, options, TraceWindow{}, 32);
  EXPECT_EQ(streamed.key, materialized.key);
  EXPECT_EQ(streamed.accesses, materialized.accesses);
  EXPECT_EQ(streamed.missRate, materialized.missRate);
  EXPECT_EQ(streamed.cycles, materialized.cycles);
  EXPECT_EQ(streamed.energyNj, materialized.energyNj);
}

TEST(StreamedExplore, FileSourceMatchesInMemoryEndToEnd) {
  // The full production chain: write a din file, stream it through the
  // explorer, compare against the in-memory result.
  const Trace trace = mixedTrace(1500, 67);
  const std::string path = tempPath("explore_trace.din");
  {
    std::ofstream out(path);
    writeDin(out, trace);
  }
  // din drops sizes; compare against the re-parsed trace.
  const Trace parsed = fromDinString(toDinString(trace));
  const ExploreOptions options = smallSweep();
  const ExplorationResult materialized =
      exploreTrace("w", parsed, options);
  FileTraceSource source(path);
  const ExplorationResult streamed =
      exploreTrace("w", source, options, TraceWindow{}, 256);
  expectSamePoints(streamed, materialized);
  std::remove(path.c_str());
}

TEST(StreamedExplore, RecordsIngestCountersAndSpans) {
  const Trace trace = mixedTrace(1000, 71);
  const std::string path = tempPath("obs_trace.din");
  {
    std::ofstream out(path);
    writeDin(out, trace);
  }
  obs::Recorder recorder;
  FileTraceSource source(path);
  (void)evaluateTracePoint(source, CacheConfig{}, ExploreOptions{},
                           TraceWindow{0, 100, 0}, 128, &recorder);
  EXPECT_EQ(recorder.counterValue("trace.refs_decoded"), trace.size());
  EXPECT_EQ(recorder.counterValue("trace.bytes_read"),
            toDinString(trace).size());
  EXPECT_GE(recorder.spanCount(), 3u);  // ingest + warmup + replay
  std::remove(path.c_str());
}

}  // namespace
}  // namespace memx
