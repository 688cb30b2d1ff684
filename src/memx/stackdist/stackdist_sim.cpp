#include "memx/stackdist/stackdist_sim.hpp"

#include <algorithm>

#include "memx/util/assert.hpp"
#include "memx/util/bits.hpp"

namespace memx {

StackDistSim::StackDistSim(const std::vector<CacheConfig>& configs)
    : configs_(configs) {
  MEMX_EXPECTS(!configs_.empty(), "StackDistSim needs at least one config");
  for (std::size_t i = 0; i < configs_.size(); ++i) {
    const CacheConfig& config = configs_[i];
    config.validate();
    MEMX_EXPECTS(supports(config),
                 "StackDistSim handles write-allocate configs only");
    auto it = std::find_if(groups_.begin(), groups_.end(),
                           [&](const LineGroup& g) {
                             return g.lineBytes == config.lineBytes &&
                                    g.policy == config.replacement;
                           });
    if (it == groups_.end()) {
      groups_.push_back(
          LineGroup{config.lineBytes, config.replacement, 1, 1, {}, {}});
      it = std::prev(groups_.end());
    }
    it->maxSets = std::max(it->maxSets, config.numSets());
    it->maxAssoc = std::max(it->maxAssoc, config.associativity);
    const auto geom = std::pair<std::uint32_t, std::uint32_t>{
        config.numSets(), config.associativity};
    if (std::find(it->cells.begin(), it->cells.end(), geom) ==
        it->cells.end()) {
      it->cells.push_back(geom);
    }
    it->members.push_back(i);
  }
  for (const LineGroup& group : groups_) {
    if (group.policy == ReplacementPolicy::LRU) continue;
    ++gridPasses_;
    gridCells_ += group.cells.size();
  }
  stats_.resize(configs_.size());
}

void StackDistSim::buildProfiles() {
  if (!profileIndex_.empty()) return;
  profileIndex_.reserve(groups_.size());
  for (const LineGroup& group : groups_) {
    if (group.policy == ReplacementPolicy::LRU) {
      profileIndex_.push_back(lruProfiles_.size());
      lruProfiles_.emplace_back(group.lineBytes, group.maxSets,
                                group.maxAssoc);
    } else {
      profileIndex_.push_back(gridProfiles_.size());
      gridProfiles_.emplace_back(group.policy, group.lineBytes,
                                 group.maxSets, group.maxAssoc);
      // Grid cells are independent, so the pass only needs the
      // geometries this bank actually queries — on a typical sweep
      // that is a thin diagonal of the full lattice, and skipping the
      // rest is what keeps the grid backend ahead of per-config
      // simulation.
      gridProfiles_.back().restrictCells(group.cells);
    }
  }
}

void StackDistSim::run(const Trace& trace) {
  MEMX_EXPECTS(!ran_, "StackDistSim profiles are per-trace; "
                      "construct a new bank to run another trace");
  ran_ = true;
  buildProfiles();
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    if (groups_[g].policy == ReplacementPolicy::LRU) {
      lruProfiles_[profileIndex_[g]].feed(trace);
    } else {
      gridProfiles_[profileIndex_[g]].feed(trace);
    }
  }
  refreshStats();
}

void StackDistSim::run(TraceSource& source, std::size_t chunkRefs) {
  MEMX_EXPECTS(chunkRefs > 0, "chunkRefs must be positive");
  MEMX_EXPECTS(!ran_ || streaming_,
               "cannot stream into a bank after a whole-trace run(); "
               "construct a new bank");
  buildProfiles();
  ran_ = true;
  streaming_ = true;

  // One pass over the stream feeds every group — unlike run(Trace)'s
  // per-group passes, the stream cannot be rewound.
  std::vector<MemRef> chunk;
  chunk.reserve(chunkRefs);
  while (fillChunk(source, chunk, chunkRefs) > 0) {
    for (AllAssocProfile& profile : lruProfiles_) {
      profile.feed(chunk.data(), chunk.size());
    }
    for (PolicyGridProfile& profile : gridProfiles_) {
      profile.feed(chunk.data(), chunk.size());
    }
  }
  refreshStats();
}

void StackDistSim::refreshStats() {
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    const LineGroup& group = groups_[g];
    for (const std::size_t i : group.members) {
      const CacheConfig& config = configs_[i];
      stats_[i] =
          group.policy == ReplacementPolicy::LRU
              ? lruProfiles_[profileIndex_[g]].stats(
                    config.numSets(), config.associativity,
                    config.writePolicy)
              : gridProfiles_[profileIndex_[g]].stats(
                    config.numSets(), config.associativity,
                    config.writePolicy);
    }
  }
}

const CacheStats& StackDistSim::stats(std::size_t i) const {
  MEMX_EXPECTS(ran_, "stats() requires a completed run()");
  return stats_[i];
}

std::vector<CacheStats> stackDistStats(
    const std::vector<CacheConfig>& configs, const Trace& trace) {
  StackDistSim bank(configs);
  bank.run(trace);
  std::vector<CacheStats> out;
  out.reserve(bank.size());
  for (std::size_t i = 0; i < bank.size(); ++i) out.push_back(bank.stats(i));
  return out;
}

}  // namespace memx
