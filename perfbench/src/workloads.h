// The benchmark's workloads: each is a fixed list of simulation units, one
// core::run_experiment call per unit, derived from the workload seed alone.
#pragma once

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "rrsim/core/experiment.h"

namespace perfbench {

struct Unit {
  std::string label;  ///< e.g. "N=5 R3 seed=7"
  rrsim::core::ExperimentConfig config;
  std::uint64_t affinity = 0;  ///< core::trace_affinity(config)
  bool leader = false;  ///< first-queued unit of its affinity group
};

/// Outcome of one unit, measured on the worker thread that ran it.
struct UnitOut {
  bool ok = false;
  bool leader = false;  ///< ran in the sweep's leader phase
  std::string error;  ///< exception text when !ok
  std::uint64_t checksum = 0;
  double start_s = 0.0;  ///< seconds since the round began
  double end_s = 0.0;
  rrsim::sched::OpCounters ops;
  std::uint64_t gateway_cancels = 0;
  std::uint64_t jobs = 0;
  std::uint64_t duplicate_starts = 0;
  std::uint64_t pdes_windows = 0;
  double avg_max_queue = 0.0;
  std::size_t live_state_bytes = 0;
  std::size_t resident_trace_bytes = 0;

  double host_s() const { return end_s - start_s; }
};

struct Workload {
  std::vector<Unit> units;
  std::size_t replay_unit = 0;  ///< the unit the layer replay re-composes
};

/// Names accepted by make_workload, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// Builds the unit list of `name` for workload seed `seed`. Throws
/// std::invalid_argument on an unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed);

/// 64-bit FNV-1a, byte at a time; doubles are mixed on their exact bits.
struct Fnv {
  std::uint64_t h = 1469598103934665603ull;
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
};

/// FNV-1a over every deterministic output of a run: retained records (or
/// the streaming accumulator's folded metrics), the summed scheduler
/// counters, gateway counters and PDES counters. Capacity-based byte
/// counts are excluded: they depend on which units a worker ran before.
std::uint64_t result_checksum(const rrsim::core::SimResult& r);

}  // namespace perfbench
