// Layer replay: re-composes one representative unit from rrsim's public
// layer headers — workload generator, des::Simulation, grid::Platform,
// grid::Gateway, a grid::make_placement policy and the metrics fold — so
// the traced run can time each layer from outside without instrumenting
// src/. The replay draws its own job streams (the substream layout of
// core::run_experiment is private), so its outputs are checked against
// themselves and the stored reference, not against the unit's checksum.
#pragma once

#include <cstdint>

#include "rrsim/core/experiment.h"
#include "spans.h"

namespace perfbench {

struct ReplayOut {
  std::uint64_t checksum = 0;
  std::uint64_t events = 0;  ///< des::Simulation::dispatched()
  double wall_s = 0.0;
};

/// Replays `config` on the zero-latency gateway (PDES settings are
/// ignored: the replay composes the single-gateway layers). Records the
/// spans workload.generate, grid.submit, des.step and metrics.fold on
/// `tracer` (thread 0). Throws std::logic_error when a job does not finish
/// exactly once.
ReplayOut replay_unit(const rrsim::core::ExperimentConfig& config,
                      Tracer& tracer);

}  // namespace perfbench
