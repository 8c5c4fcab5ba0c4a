#include "rrsim/grid/platform.h"

#include <stdexcept>

namespace rrsim::grid {

Platform::Platform(des::Simulation& sim, std::vector<ClusterConfig> configs,
                   sched::Algorithm algorithm)
    : configs_(std::move(configs)), algorithm_(algorithm) {
  if (configs_.empty()) {
    throw std::invalid_argument("platform needs >= 1 cluster");
  }
  schedulers_.reserve(configs_.size());
  sizes_.reserve(configs_.size());
  for (const ClusterConfig& c : configs_) {
    schedulers_.push_back(sched::make_scheduler(algorithm, sim, c.nodes));
    sizes_.push_back(c.nodes);
  }
}

sched::OpCounters Platform::total_counters() const {
  sched::OpCounters total;
  for (const auto& s : schedulers_) {
    const sched::OpCounters& c = s->counters();
    total.submits += c.submits;
    total.cancels += c.cancels;
    total.starts += c.starts;
    total.finishes += c.finishes;
    total.declines += c.declines;
    total.sched_passes += c.sched_passes;
    total.backfill_slots += c.backfill_slots;
    total.backfill_blocks_skipped += c.backfill_blocks_skipped;
  }
  return total;
}

std::vector<ClusterConfig> homogeneous_configs(
    std::size_t n, int nodes, const workload::LublinParams& params) {
  if (n == 0) throw std::invalid_argument("need >= 1 cluster");
  std::vector<ClusterConfig> out(n);
  for (ClusterConfig& c : out) {
    c.nodes = nodes;
    c.workload = params;
  }
  return out;
}

}  // namespace rrsim::grid
