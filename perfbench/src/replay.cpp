#include "replay.h"

#include <memory>
#include <stdexcept>
#include <vector>

#include "rrsim/des/simulation.h"
#include "rrsim/grid/gateway.h"
#include "rrsim/grid/placement.h"
#include "rrsim/grid/platform.h"
#include "rrsim/metrics/online.h"
#include "rrsim/metrics/summary.h"
#include "rrsim/workload/calibrate.h"
#include "rrsim/workload/estimators.h"
#include "rrsim/workload/lublin.h"
#include "workloads.h"

namespace perfbench {

namespace {

using rrsim::core::ExperimentConfig;
using rrsim::core::LoadMode;

// Substream ids of the replay's own generators.
constexpr std::uint64_t kCalibrationStream = 1;
constexpr std::uint64_t kPlacementStream = 2;
constexpr std::uint64_t kRedundancyStream = 3;
constexpr std::uint64_t kClusterStreamBase = 1000;

// Per-cluster arrival parameters for the three load modes, following the
// documented semantics of core::LoadMode.
std::vector<rrsim::grid::ClusterConfig> cluster_configs(
    const ExperimentConfig& config) {
  std::vector<rrsim::grid::ClusterConfig> out(config.n_clusters);
  rrsim::util::Rng calib(config.seed, kCalibrationStream);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i].nodes = config.nodes_of(i);
    out[i].workload = config.base_workload;
    if (config.load_mode == LoadMode::kSharedPeak) {
      out[i].workload = out[i].workload.with_mean_interarrival(
          out[i].workload.mean_interarrival() *
          static_cast<double>(config.n_clusters));
    } else if (config.load_mode == LoadMode::kCalibrated) {
      out[i].workload = rrsim::workload::calibrate_params(
          out[i].workload, out[i].nodes, config.target_utilization, calib);
    }
  }
  return out;
}

struct Replay {
  const ExperimentConfig& config;
  Tracer& tracer;
  rrsim::des::Simulation sim;
  std::unique_ptr<rrsim::grid::Platform> platform;
  std::unique_ptr<rrsim::grid::Gateway> gateway;
  std::unique_ptr<rrsim::grid::PlacementPolicy> placement;
  std::vector<rrsim::workload::JobStream> streams;
  std::vector<std::size_t> next;  // per-cluster pump position
  rrsim::util::Rng placement_rng;
  rrsim::util::Rng redundancy_rng;
  rrsim::grid::GridJob scratch;
  std::size_t degree = 1;
  std::uint64_t next_id = 1;
  std::uint32_t step_span = 0;  // the des.step span being dispatched
  std::uint32_t submit_name = 0;

  Replay(const ExperimentConfig& c, Tracer& t)
      : config(c),
        tracer(t),
        placement_rng(c.seed, kPlacementStream),
        redundancy_rng(c.seed, kRedundancyStream) {}

  void schedule_next(std::size_t cluster) {
    const rrsim::workload::JobStream& s = streams[cluster];
    if (next[cluster] >= s.size()) return;
    sim.schedule_at(
        s[next[cluster]].submit_time, [this, cluster] { arrive(cluster); },
        rrsim::des::Priority::kArrival, static_cast<std::uint32_t>(cluster));
  }

  void arrive(std::size_t cluster) {
    rrsim::grid::GridJob& job = scratch;
    job.id = next_id++;
    job.origin = cluster;
    job.user = 0;
    job.spec = streams[cluster][next[cluster]++];
    job.targets.assign(1, cluster);
    job.replica_specs.clear();
    job.redundant =
        degree > 1 && redundancy_rng.chance(config.redundant_fraction);
    {
      const Scoped span(&tracer, submit_name, step_span, job.id);
      if (job.redundant) {
        std::vector<std::size_t> lengths;
        lengths.reserve(platform->size());
        for (std::size_t c = 0; c < platform->size(); ++c) {
          lengths.push_back(platform->scheduler(c).queue_length());
        }
        const rrsim::grid::PlatformView view{platform->cluster_sizes(),
                                             lengths};
        const std::vector<std::size_t> remotes = placement->choose_remotes(
            cluster, job.spec.nodes, view, degree - 1, placement_rng);
        job.targets.insert(job.targets.end(), remotes.begin(), remotes.end());
        job.redundant = job.targets.size() > 1;
      }
      gateway->submit(job, config.remote_inflation);
    }
    schedule_next(cluster);
  }
};

}  // namespace

ReplayOut replay_unit(const ExperimentConfig& config, Tracer& tracer) {
  const std::uint32_t generate_name = tracer.intern("workload.generate");
  const std::uint32_t step_name = tracer.intern("des.step");
  const std::uint32_t fold_name = tracer.intern("metrics.fold");
  const std::int64_t t0 = tracer.now();

  Replay r(config, tracer);
  r.submit_name = tracer.intern("grid.submit");
  std::vector<rrsim::grid::ClusterConfig> configs;
  {
    const Scoped span(&tracer, generate_name, 0, 0);
    configs = cluster_configs(config);
    const auto estimator = rrsim::workload::make_estimator(config.estimator);
    r.streams.resize(configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i) {
      rrsim::util::Rng rng(config.seed, kClusterStreamBase + i);
      const rrsim::workload::LublinModel model(configs[i].workload,
                                               configs[i].nodes);
      r.streams[i] = model.generate_stream(rng, config.submit_horizon);
      rrsim::workload::apply_estimator(r.streams[i], *estimator, rng);
    }
  }
  r.platform = std::make_unique<rrsim::grid::Platform>(r.sim, configs,
                                                       config.algorithm);
  r.gateway = std::make_unique<rrsim::grid::Gateway>(
      r.sim, *r.platform, config.record_predictions);
  r.placement = rrsim::grid::make_placement(config.placement);
  r.degree = config.scheme.degree(config.n_clusters);
  rrsim::metrics::OnlineAccumulator sink;
  if (!config.retain_records) {
    r.gateway->set_record_sink(&sink);
    for (std::size_t i = 0; i < r.platform->size(); ++i) {
      r.platform->scheduler(i).set_forget_terminal_ids(true);
    }
  }
  std::uint64_t jobs = 0;
  r.next.assign(r.streams.size(), 0);
  for (std::size_t i = 0; i < r.streams.size(); ++i) {
    jobs += r.streams[i].size();
    r.schedule_next(i);
  }

  for (;;) {
    const Scoped span(&tracer, step_name, 0, 0);
    r.step_span = span.id();
    if (!r.sim.step()) break;
  }

  if (r.gateway->finished() != jobs) {
    throw std::logic_error("replay: not every grid job finished exactly once");
  }

  Fnv f;
  {
    const Scoped span(&tracer, fold_name, 0, 0);
    rrsim::metrics::ScheduleMetrics m;
    if (config.retain_records) {
      m = rrsim::metrics::compute_metrics(r.gateway->records());
      const rrsim::metrics::PredictionAccuracy pa =
          rrsim::metrics::compute_prediction_accuracy(r.gateway->records());
      f.u64(pa.jobs);
      f.f64(pa.avg_ratio);
      f.f64(pa.cv_ratio_percent);
    } else {
      m = sink.metrics();
    }
    f.u64(m.jobs);
    f.f64(m.avg_stretch);
    f.f64(m.cv_stretch_percent);
    f.f64(m.max_stretch);
    f.f64(m.avg_turnaround);
  }
  const rrsim::sched::OpCounters ops = r.platform->total_counters();
  for (const std::uint64_t v : {ops.submits, ops.cancels, ops.starts,
                                ops.declines, ops.sched_passes}) {
    f.u64(v);
  }
  f.f64(r.sim.now());

  ReplayOut out;
  out.checksum = f.h;
  out.events = r.sim.dispatched();
  out.wall_s = static_cast<double>(tracer.now() - t0) * 1e-9;
  r.gateway->set_record_sink(nullptr);
  return out;
}

}  // namespace perfbench
