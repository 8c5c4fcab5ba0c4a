// Tie-heavy SWF fixture shared by the core suites that pin replay order at
// integer-time ties (swf_spool_test, windowed_test).
#pragma once

#include <cstddef>
#include <string>

#include "rrsim/core/experiment.h"
#include "rrsim/workload/swf.h"

namespace rrsim::core {

/// A synthetic trace built for tie-breaking trouble: three jobs per
/// integer timestamp (within-file ties), replayed onto several clusters
/// (cross-cluster ties at every arrival), some jobs wider than the
/// clusters (exercises the width filter), and a tail past the horizon
/// (exercises the horizon cut). Written to `path`, a file the caller owns.
inline void write_ties_trace(const std::string& path) {
  workload::JobStream s;
  for (std::size_t i = 0; i < 150; ++i) {
    workload::JobSpec j;
    j.submit_time = 60.0 * static_cast<double>(i / 3);
    j.nodes = 1 + static_cast<int>((i * 7) % 24);  // up to 24 > 16 nodes
    j.runtime = 30.0 + static_cast<double>(i % 17) * 12.5;
    j.requested_time = j.runtime + static_cast<double>(i % 5) * 10.0;
    s.push_back(j);
  }
  workload::write_swf_file(path, s);
}

/// Retained replay of the ties trace at `path`.
inline ExperimentConfig ties_replay_config(const std::string& path) {
  ExperimentConfig c;
  c.n_clusters = 3;  // same file on every cluster: ties at every arrival
  c.nodes_per_cluster = 16;
  c.submit_horizon = 2400.0;  // cuts the trace's tail
  c.trace_files = {path};
  c.scheme = RedundancyScheme::fixed(2);
  c.redundant_fraction = 0.5;
  c.seed = 13;
  return c;
}

}  // namespace rrsim::core
