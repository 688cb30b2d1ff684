#include "memx/check/differential.hpp"

#include <algorithm>
#include <sstream>

#include "memx/cachesim/cache_sim.hpp"
#include "memx/cachesim/hierarchy.hpp"
#include "memx/cachesim/set_sampling.hpp"
#include "memx/check/random_gen.hpp"
#include "memx/check/ref_cache_sim.hpp"
#include "memx/stackdist/stackdist_sim.hpp"

namespace memx {

namespace {

/// First `len` references of `trace` as an independent trace.
Trace prefixOf(const Trace& trace, std::size_t len) {
  len = std::min(len, trace.size());
  std::vector<MemRef> refs(trace.refs().begin(),
                           trace.refs().begin() +
                               static_cast<std::ptrdiff_t>(len));
  return Trace(std::move(refs));
}

}  // namespace

std::string diffCaseRepro(const DiffCase& c, std::size_t len) {
  std::ostringstream os;
  os << "MEMX_DIFF repro: seed=" << c.seed << " len=" << len
     << " cfg=" << c.config.label()
     << " repl=" << toString(c.config.replacement)
     << " write=" << toString(c.config.writePolicy)
     << " alloc=" << toString(c.config.allocatePolicy)
     << " l2=" << c.l2.label()
     << " lru=" << c.lru.label()
     << " grid=" << c.grid.label()
     << "/" << toString(c.grid.replacement)
     << " | rerun: memx::replayDiffCase(" << c.seed << ", " << len << ")";
  return os.str();
}

namespace {

/// Describe the first differing CacheStats field, or "" when equal.
std::string diffStats(const std::string& path, const CacheStats& oracle,
                      const CacheStats& actual) {
  const struct {
    const char* name;
    std::uint64_t CacheStats::*field;
  } fields[] = {
      {"reads", &CacheStats::reads},
      {"writes", &CacheStats::writes},
      {"readHits", &CacheStats::readHits},
      {"readMisses", &CacheStats::readMisses},
      {"writeHits", &CacheStats::writeHits},
      {"writeMisses", &CacheStats::writeMisses},
      {"lineFills", &CacheStats::lineFills},
      {"writebacks", &CacheStats::writebacks},
      {"memWrites", &CacheStats::memWrites},
  };
  for (const auto& f : fields) {
    if (oracle.*(f.field) != actual.*(f.field)) {
      std::ostringstream os;
      os << path << "." << f.name << ": oracle=" << oracle.*(f.field)
         << " actual=" << actual.*(f.field);
      return os.str();
    }
  }
  return {};
}

/// Core diff of every engine path on `trace`; returns the first
/// mismatch description, or "" when all paths agree with the oracle.
std::string diffAllPaths(const DiffCase& c, const Trace& trace) {
  // Oracle statistics for the primary config.
  const CacheStats oracle = refSimulateTrace(c.config, trace);

  // Path 1: CacheSim bulk fast path (run -> accessLinesFast).
  {
    CacheSim sim(c.config);
    sim.run(trace);
    const std::string d = diffStats("CacheSim.run", oracle, sim.stats());
    if (!d.empty()) return d;
  }

  // Path 2: CacheSim per-access outcome path, diffed per reference
  // (hit flag, fills, writebacks and the evicted dirty-line list).
  {
    CacheSim sim(c.config);
    RefCacheSim ref(c.config);
    for (std::size_t i = 0; i < trace.size(); ++i) {
      const AccessOutcome got = sim.access(trace[i]);
      const RefAccessOutcome want = ref.access(trace[i]);
      if (got.hit != want.hit || got.fills != want.fills ||
          got.writebacks != want.writebacks ||
          got.evictedDirtyLines != want.evictedDirtyLines) {
        std::ostringstream os;
        os << "CacheSim.access outcome at ref " << i
           << ": oracle(hit=" << want.hit << " fills=" << want.fills
           << " wb=" << want.writebacks << ") actual(hit=" << got.hit
           << " fills=" << got.fills << " wb=" << got.writebacks << ")";
        return os.str();
      }
    }
    const std::string d =
        diffStats("CacheSim.access", ref.stats(), sim.stats());
    if (!d.empty()) return d;
  }

  // Path 4: two-level hierarchy against the oracle's re-statement of
  // the inclusive protocol. (Path 3, a simulator bank, was retired with
  // the bank; the numbers stay so docs and repro notes keep theirs.)
  {
    CacheHierarchy hier(c.config, c.l2);
    hier.run(trace);
    const RefHierarchyStats want =
        refSimulateHierarchy(c.config, c.l2, trace);
    std::string d = diffStats("Hierarchy.l1", want.l1, hier.stats().l1);
    if (d.empty()) d = diffStats("Hierarchy.l2", want.l2, hier.stats().l2);
    if (!d.empty()) return d;
    if (want.mainReads != hier.stats().mainReads ||
        want.mainWrites != hier.stats().mainWrites) {
      std::ostringstream os;
      os << "Hierarchy.main: oracle(reads=" << want.mainReads
         << " writes=" << want.mainWrites
         << ") actual(reads=" << hier.stats().mainReads
         << " writes=" << hier.stats().mainWrites << ")";
      return os.str();
    }
  }

  // Path 5: set-sampling estimator. The estimator is exact relative to
  // its own definition (filter + set compression + shrunk simulation),
  // so the oracle's re-statement must agree to the last bit; only its
  // relation to the full-trace miss rate is approximate (see
  // docs/TESTING.md).
  for (const std::uint32_t factor : {2u, 4u}) {
    if (c.config.numSets() % factor != 0) continue;
    const double got =
        estimateMissRateBySetSampling(c.config, trace, factor);
    const double want =
        refEstimateMissRateBySetSampling(c.config, trace, factor);
    if (got != want) {
      std::ostringstream os;
      os.precision(17);
      os << "SetSampling factor=" << factor << ": oracle=" << want
         << " actual=" << got;
      return os.str();
    }
  }

  // Path 6: stack-distance bank. c.lru is always in StackDistSim's
  // domain; its fully-associative and direct-mapped siblings ride in
  // the same bank so one profile is read at three (sets, ways) corners,
  // and a write-back sibling guarantees every case exercises the
  // dirty-stack accounting even when c.lru drew write-through. Every
  // field must match BOTH the oracle and the production simulator
  // exactly — including write-back `writebacks` (dirty-stack
  // accounting) and write-through memWrites; nothing is masked.
  {
    CacheConfig fa = c.lru;
    fa.associativity = fa.numLines();
    CacheConfig dm = c.lru;
    dm.associativity = 1;
    CacheConfig wb = c.lru;
    wb.writePolicy = WritePolicy::WriteBack;
    const std::vector<CacheConfig> bank = {c.lru, fa, dm, wb};
    StackDistSim stackBank(bank);
    stackBank.run(trace);
    for (std::size_t i = 0; i < bank.size(); ++i) {
      const CacheStats oracleStats = refSimulateTrace(bank[i], trace);
      const CacheStats simStats = simulateTrace(bank[i], trace);
      const std::string path = "StackDist[" + std::to_string(i) + "]";
      std::string d =
          diffStats(path + " vs RefCacheSim", oracleStats,
                    stackBank.stats(i));
      if (d.empty()) {
        d = diffStats(path + " vs CacheSim.run", simStats,
                      stackBank.stats(i));
      }
      if (!d.empty()) return d;
    }
  }

  // Path 7: policy-grid bank. c.grid draws FIFO or tree-PLRU (both
  // write policies across seeds), so this bank lands on StackDistSim's
  // PolicyGridProfile engine instead of the Hill–Smith profile. The
  // same sibling scheme as path 6 reads the single pass at several
  // (sets, ways) corners — fully-associative (capped at the grid's
  // 64-way limit), direct-mapped and a forced write-back sibling that
  // exercises the per-cell dirty masks even when c.grid drew
  // write-through. Random siblings of c.grid and of its fully
  // associative and direct-mapped corners ride a second grid pass of
  // the same bank (per-cell generators: every draw point, and the
  // 1-way cell that never draws). Every member must match BOTH the
  // oracle and the production simulator field for field.
  {
    CacheConfig fa = c.grid;
    fa.associativity = std::min(fa.numLines(), 64u);
    CacheConfig dm = c.grid;
    dm.associativity = 1;
    CacheConfig wb = c.grid;
    wb.writePolicy = WritePolicy::WriteBack;
    std::vector<CacheConfig> bank = {c.grid, fa, dm, wb};
    for (const CacheConfig& corner : {c.grid, fa, dm}) {
      CacheConfig rnd = corner;
      rnd.replacement = ReplacementPolicy::Random;
      bank.push_back(rnd);
    }
    StackDistSim gridBank(bank);
    gridBank.run(trace);
    for (std::size_t i = 0; i < bank.size(); ++i) {
      const CacheStats oracleStats = refSimulateTrace(bank[i], trace);
      const CacheStats simStats = simulateTrace(bank[i], trace);
      const std::string path = "PolicyGrid[" + std::to_string(i) + "]";
      std::string d = diffStats(path + " vs RefCacheSim", oracleStats,
                                gridBank.stats(i));
      if (d.empty()) {
        d = diffStats(path + " vs CacheSim.run", simStats,
                      gridBank.stats(i));
      }
      if (!d.empty()) return d;
    }
  }

  return {};
}

}  // namespace

DiffCase makeDiffCase(std::uint64_t seed) {
  DiffCase c;
  c.seed = seed;
  c.config = randomCacheConfig(seed);
  c.l2 = randomL2Config(c.config, seed);
  c.lru = randomLruCacheConfig(seed);
  c.grid = randomGridCacheConfig(seed);
  c.trace = randomCheckTrace(seed);
  return c;
}

DiffResult checkDiffCase(const DiffCase& c, std::size_t len) {
  const Trace prefix = prefixOf(c.trace, len);
  const std::string mismatch = diffAllPaths(c, prefix);
  if (mismatch.empty()) return DiffResult{};
  return DiffResult{false,
                    diffCaseRepro(c, prefix.size()) + "\n  " + mismatch};
}

DiffResult replayDiffCase(std::uint64_t seed, std::size_t len) {
  return checkDiffCase(makeDiffCase(seed), len);
}

DiffResult runDifferentialCase(std::uint64_t seed) {
  const DiffCase c = makeDiffCase(seed);
  DiffResult full = checkDiffCase(c, c.trace.size());
  if (full.ok) return full;

  // Shrink to the shortest failing prefix. Stats divergence is
  // monotone in practice; if it is not for some case, `hi` still always
  // indexes a failing prefix, so the repro stays valid.
  std::size_t lo = 0;                  // passing
  std::size_t hi = c.trace.size();     // failing
  while (hi - lo > 1) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (checkDiffCase(c, mid).ok) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return checkDiffCase(c, hi);
}

DiffSummary runDifferential(std::uint64_t firstSeed, std::size_t count) {
  DiffSummary summary;
  for (std::size_t i = 0; i < count; ++i) {
    ++summary.casesRun;
    const DiffResult r = runDifferentialCase(firstSeed + i);
    if (!r.ok) summary.failures.push_back(r.message);
  }
  return summary;
}

}  // namespace memx
