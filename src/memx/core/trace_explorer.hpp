// MemExplore over a fixed reference trace.
//
// The kernel-based Explorer regenerates traces per tiling/layout; this
// entry point sweeps (T, L, S) over a trace that already exists — an
// instruction-fetch stream, a Dinero file, or any recorded workload.
// Every path folds its statistics through Explorer::makePoint, so trace
// points see the same cycle and energy models as kernel sweeps,
// write energy and leakage included.
#pragma once

#include <string>

#include "memx/core/explorer.hpp"
#include "memx/obs/recorder.hpp"
#include "memx/trace/trace.hpp"
#include "memx/trace/trace_source.hpp"

namespace memx {

/// Evaluate one cache configuration against a fixed trace using the
/// paper's cycle and energy models (tiling term B = 1). The per-point
/// oracle of the sweeps below: one CacheSim::run, no bank.
[[nodiscard]] DesignPoint evaluateTracePoint(const Trace& trace,
                                             const CacheConfig& cache,
                                             const ExploreOptions& options);

/// Sweep every (T, L, S) of `options.ranges` over `trace`. Tiling is not
/// applicable to a fixed trace; all points carry B = 1. Runs the
/// streamed overload over a VectorTraceSource.
[[nodiscard]] ExplorationResult exploreTrace(const std::string& name,
                                             const Trace& trace,
                                             const ExploreOptions& options);

// Streamed variants: identical models and statistics, but the trace is
// pulled from a TraceSource in chunks of `chunkRefs` references, so
// out-of-core traces (e.g. a FileTraceSource over a .din.gz) evaluate
// in memory bounded by the chunk size, independent of trace length.
// With a trivial window the results are bit-identical to materializing
// the stream and calling the Trace overloads — same replay order, same
// integer statistics, same Add_bs double.
//
// `window` drops `skip` references, replays `warmup` references to
// prime cache (and bus) state without counting them, then counts up to
// `limit` references (0 = to exhaustion). Warmup exclusion is exact:
// every statistic is an additive accumulator, so the counted-region
// stats are end-of-run minus the warmup-boundary snapshot.
//
// `recorder`, when non-null, receives `trace.bytes_read` /
// `trace.refs_decoded` counter deltas (from the source's IngestStats)
// and `trace.ingest` / `trace.warmup` / `trace.replay` spans. The sweep
// also records Explorer's work counters: `sweep.points`, and either
// `stackdist.passes` + `stackdist.accesses` (replayed references, warmup
// included, times passes) or `sim.accesses` (replayed references times
// configurations).

/// Streamed single-configuration evaluation (a one-member
/// MultiCacheSim bank).
[[nodiscard]] DesignPoint evaluateTracePoint(
    TraceSource& source, const CacheConfig& cache,
    const ExploreOptions& options, const TraceWindow& window = {},
    std::size_t chunkRefs = kDefaultTraceChunkRefs,
    obs::Recorder* recorder = nullptr);

/// Streamed (T, L, S) sweep: one pass over the stream through one bank,
/// picked like planSweep picks a group's engine — a MultiCacheSim bank
/// for Random replacement, analytic profiles for every other policy.
[[nodiscard]] ExplorationResult exploreTrace(
    const std::string& name, TraceSource& source,
    const ExploreOptions& options, const TraceWindow& window = {},
    std::size_t chunkRefs = kDefaultTraceChunkRefs,
    obs::Recorder* recorder = nullptr);

}  // namespace memx
