// Row-buffer (page-mode) main-memory model.
//
// The paper's Em is one constant per access — a good fit for the
// asynchronous SRAMs it cites. DRAM-style parts (and later SDRAMs) have
// a row buffer: an access to the open row is cheap, a row change pays
// activation + precharge. This model replays a miss-address stream
// through one bank's row buffer, so the `ablation_dram` reproduce_paper
// entry can show when the flat-Em assumption distorts the energy ranking.
#pragma once

#include <cstdint>

#include "memx/cachesim/cache_config.hpp"
#include "memx/trace/trace.hpp"

namespace memx {

/// One-bank page-mode memory.
struct DramConfig {
  std::uint32_t rowBytes = 512;     ///< row-buffer size
  double rowHitNj = 1.2;            ///< access to the open row
  double rowMissNj = 12.0;          ///< activate + access + precharge
  std::uint32_t accessBytes = 2;    ///< data per access (16-bit part)

  void validate() const;
};

/// Accumulated memory-side statistics.
struct DramStats {
  std::uint64_t accesses = 0;  ///< word accesses the memory served
  std::uint64_t rowHits = 0;
  std::uint64_t rowMisses = 0;
  double energyNj = 0.0;

  [[nodiscard]] double rowHitRate() const noexcept {
    return accesses == 0 ? 0.0
                         : static_cast<double>(rowHits) /
                               static_cast<double>(accesses);
  }
  /// Energy of the flat-Em model for the same access count.
  [[nodiscard]] double flatEnergyNj(double emNj) const noexcept {
    return emNj * static_cast<double>(accesses);
  }
};

/// Replays line-fill addresses (the cache's miss stream) through the
/// row buffer; each fill of `lineBytes` becomes lineBytes/accessBytes
/// word accesses.
class DramModel {
public:
  explicit DramModel(const DramConfig& config);

  /// One line fill starting at `addr`.
  void fill(std::uint64_t addr, std::uint32_t lineBytes);

  [[nodiscard]] const DramStats& stats() const noexcept { return stats_; }

  /// The flat per-access Em that would dissipate the same total energy
  /// on this exact stream (what the paper's constant should have been).
  [[nodiscard]] double equivalentEmNj() const noexcept {
    return stats_.accesses == 0
               ? 0.0
               : stats_.energyNj / static_cast<double>(stats_.accesses);
  }

private:
  DramConfig config_;
  std::uint64_t openRow_ = ~0ull;
  DramStats stats_;
};

/// Convenience: simulate `trace` on a cache and replay its line-fill
/// stream through the row buffer; returns the memory-side statistics.
[[nodiscard]] DramStats replayMissStream(const CacheConfig& cache,
                                          const Trace& trace,
                                          const DramConfig& dram = {});

}  // namespace memx
