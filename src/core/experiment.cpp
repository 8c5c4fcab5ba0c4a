#include "rrsim/core/experiment.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <stdexcept>
#include <utility>

#include "experiment_detail.h"
#include "rrsim/des/simulation.h"
#include "rrsim/grid/gateway.h"
#include "rrsim/grid/placement.h"
#include "rrsim/grid/platform.h"
#include "rrsim/metrics/queue_tracker.h"
#include "rrsim/workload/estimators.h"

namespace rrsim::core {

int ExperimentConfig::nodes_of(std::size_t i) const {
  if (!cluster_nodes.empty()) return cluster_nodes.at(i);
  return nodes_per_cluster;
}

ExperimentWorkspace::ExperimentWorkspace() = default;
ExperimentWorkspace::~ExperimentWorkspace() = default;

ExperimentWorkspace& thread_workspace() {
  thread_local ExperimentWorkspace workspace;
  return workspace;
}

SimResult run_experiment(const ExperimentConfig& config) {
  ExperimentWorkspace workspace;
  return run_experiment(config, workspace);
}

SimResult run_experiment(const ExperimentConfig& config,
                         ExperimentWorkspace& workspace) {
  if (config.cross_cluster_latency < 0.0) {
    throw std::invalid_argument("cross_cluster_latency must be >= 0");
  }
  if (config.cross_cluster_latency > 0.0 && !config.pdes) {
    throw std::invalid_argument(
        "cross_cluster_latency > 0 requires PDES mode (--pdes)");
  }
  // The parallel kernel only exists where cross-cluster edges do: with
  // one cluster (or zero latency) the classic zero-delay kernel *is* the
  // degenerate single-partition path, bit-identically.
  if (config.pdes && config.cross_cluster_latency > 0.0 &&
      config.n_clusters > 1) {
    return detail::run_pdes_experiment(config);
  }

  detail::ResolvedClusters rc = detail::resolve_clusters(config);
  std::vector<grid::ClusterConfig>& cluster_configs = rc.cluster_configs;
  des::Simulation& sim = workspace.sim_;
  sim.reset();

  // --- Acquire platform + gateway (reuse when the shape matches) --------
  // Schedulers depend only on (algorithm, node count), so a workspace
  // whose platform has the same cluster layout is reset in place; any
  // mismatch reconstructs. The workload parameters stored inside the
  // platform's configs are never read here — stream generation uses the
  // freshly resolved cluster_configs above.
  {
    bool reuse = workspace.platform_ != nullptr &&
                 workspace.platform_->algorithm() == config.algorithm &&
                 workspace.platform_->size() == config.n_clusters;
    if (reuse) {
      for (std::size_t i = 0; i < config.n_clusters; ++i) {
        if (workspace.platform_->cluster_sizes()[i] !=
            cluster_configs[i].nodes) {
          reuse = false;
          break;
        }
      }
    }
    if (reuse) {
      workspace.platform_->reset();
      workspace.gateway_->reset(config.record_predictions);
      ++workspace.reuses_;
    } else {
      // The gateway references the platform; destroy it first.
      workspace.gateway_.reset();
      workspace.platform_.reset();
      workspace.platform_ = std::make_unique<grid::Platform>(
          sim, cluster_configs, config.algorithm);
      workspace.gateway_ = std::make_unique<grid::Gateway>(
          sim, *workspace.platform_, config.record_predictions);
    }
  }
  grid::Platform& platform = *workspace.platform_;
  grid::Gateway& gateway = *workspace.gateway_;

  // Tie-break schedule hook (rrsim_check): installed before any event is
  // scheduled; the gateway probe lets the explorer prove same-timestamp
  // events on disjoint clusters independent. sim.reset() at the end of
  // the run uninstalls the policy, so pooled workspaces never retain a
  // pointer into a departed driver.
  if (config.tie_break_policy != nullptr) {
    sim.set_tie_break_policy(config.tie_break_policy, 0);
    config.tie_break_policy->attach_coupling_probe(
        0, [&gateway] { return gateway.cross_cluster_links(); });
  }

  if (config.per_user_pending_limit > 0) {
    for (std::size_t i = 0; i < platform.size(); ++i) {
      platform.scheduler(i).set_per_user_pending_limit(
          config.per_user_pending_limit);
    }
  }
  // Streaming runs keep the schedulers' per-job tables O(live jobs): the
  // gateway never reuses replica ids, so terminal lifecycle entries (and
  // their submit-time predictions) can be dropped as they occur. Retained
  // runs keep the historical full-lifecycle tables (set explicitly, not
  // left to reset(), so a reused workspace is deterministic either way).
  for (std::size_t i = 0; i < platform.size(); ++i) {
    platform.scheduler(i).set_forget_terminal_ids(!config.retain_records);
  }
  std::vector<std::unique_ptr<grid::MiddlewareStation>> stations;
  if (config.middleware_ops_per_sec > 0.0) {
    std::vector<grid::MiddlewareStation*> raw;
    for (std::size_t i = 0; i < platform.size(); ++i) {
      stations.push_back(std::make_unique<grid::MiddlewareStation>(
          sim, config.middleware_ops_per_sec));
      raw.push_back(stations.back().get());
    }
    gateway.set_middleware(std::move(raw));
  }
  const auto placement = grid::make_placement(config.placement);
  const auto estimator = workload::make_estimator(config.estimator);

  // --- Job sources (shared with the PDES kernel) -----------------------
  // One source per cluster, whatever backs it: a whole memoized stream
  // read in place, or windows pulled from a checkpointed generator or an
  // SWF spool. Ids, specs and draws are identical across backings.
  const detail::ResolvedInputs inputs = detail::resolve_inputs(
      config, cluster_configs, rc.master, *estimator);
  std::vector<detail::JobSource> sources =
      detail::make_job_sources(config, cluster_configs, inputs, *estimator);
  util::Rng placement_rng = inputs.placement_rng;

  // Declared before scheduling: the streaming mode's record sink points at
  // result.stream and must outlive the run.
  SimResult result;
  result.streamed = !config.retain_records;
  // Retained vs streamed is only the record sink.
  if (config.retain_records) {
    // Every generated job finishes exactly once under drain, so this is
    // the exact final size (an upper bound under truncation) and the
    // per-finish push_back never reallocates.
    gateway.reserve_records(inputs.jobs_generated);
  } else {
    gateway.set_record_sink(&result.stream);
  }

  const std::size_t degree = config.scheme.degree(config.n_clusters);
  const double inflation = config.remote_inflation;
  // Chooses the remote targets of one redundant job at its submission
  // instant, so informed placement policies (least-loaded) observe the
  // live queue lengths.
  const auto place_job = [&platform, &placement = *placement, &placement_rng,
                          degree](grid::GridJob& job) {
    if (job.redundant && degree > 1) {
      std::vector<std::size_t> lengths;
      lengths.reserve(platform.size());
      for (std::size_t c = 0; c < platform.size(); ++c) {
        lengths.push_back(platform.scheduler(c).queue_length());
      }
      const grid::PlatformView view{platform.cluster_sizes(), lengths};
      auto remotes = placement.choose_remotes(job.origin, job.spec.nodes,
                                              view, degree - 1,
                                              placement_rng);
      job.targets.insert(job.targets.end(), remotes.begin(), remotes.end());
      job.redundant = job.targets.size() > 1;
    } else {
      job.redundant = false;
    }
  };
  // Under a redundant scheme every arrival callback couples globally:
  // place_job draws from the single shared placement substream and
  // snapshots every cluster's queue length, so permuting same-timestamp
  // arrivals — even ones submitting to different clusters — reorders the
  // RNG draws and changes replica targets. Arrival events therefore carry
  // their origin-cluster tag only when no placement draw can happen
  // (degree <= 1); otherwise they are scheduled untagged so schedule
  // explorers (tools/check) treat them as dependent on everything.
  const auto arrival_tag = [degree](std::size_t cluster) {
    return degree > 1 ? des::kNoEventTag : static_cast<std::uint32_t>(cluster);
  };

  // --- The arrival pump ----------------------------------------------------
  // A k-way merge over the sources keyed (submit time, cluster). Each step
  // stages the whole cohort of arrivals at the next timestamp, draws
  // included, in (time, cluster, within-cluster index) order and schedules
  // each member as its own kArrival event, so tied arrivals dispatch in
  // that order and a TieBreakPolicy sees them as one group. The next
  // cohort is staged only after the last member of this one has fired.
  // Only arrivals schedule at kArrival priority, so their order against
  // every other event class is decided by priority alone.
  std::vector<std::pair<double, std::size_t>> heap;  // min-heap
  for (std::size_t i = 0; i < sources.size(); ++i) {
    if (!sources[i].empty()) heap.emplace_back(sources[i].next_time(), i);
  }
  std::make_heap(heap.begin(), heap.end(), std::greater<>{});
  std::vector<grid::GridJob> cohort;
  std::size_t pending = 0;  // staged cohort members yet to fire
  std::function<void(std::size_t)> fire;
  const auto stage_cohort = [&sim, &sources, &heap, &cohort, &pending, &fire,
                             &arrival_tag] {
    if (heap.empty()) return;
    const double t = heap.front().first;
    std::size_t staged = 0;
    while (!heap.empty() && heap.front().first == t) {
      std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
      const std::size_t ci = heap.back().second;
      heap.pop_back();
      if (staged == cohort.size()) cohort.emplace_back();
      sources[ci].pop(cohort[staged++]);
      if (!sources[ci].empty()) {
        heap.emplace_back(sources[ci].next_time(), ci);
        std::push_heap(heap.begin(), heap.end(), std::greater<>{});
      }
    }
    pending = staged;
    for (std::size_t k = 0; k < staged; ++k) {
      sim.schedule_at(t, [&fire, k] { fire(k); }, des::Priority::kArrival,
                      arrival_tag(cohort[k].origin));
    }
  };
  fire = [&gateway, &place_job, &cohort, &pending, &stage_cohort,
          inflation](std::size_t k) {
    place_job(cohort[k]);
    gateway.submit(cohort[k], inflation);
    if (--pending == 0) stage_cohort();
  };
  stage_cohort();

  // --- Queue observation ---------------------------------------------------
  std::vector<metrics::QueueTracker::Probe> probes;
  probes.reserve(config.n_clusters);
  for (std::size_t i = 0; i < config.n_clusters; ++i) {
    probes.emplace_back([&platform, i] {
      return platform.scheduler(i).queue_length();
    });
  }
  metrics::QueueTracker tracker(sim, std::move(probes),
                                config.queue_sample_interval,
                                config.submit_horizon);

  if (config.drain) {
    sim.run();  // every job eventually starts and finishes
  } else {
    if (config.truncate_factor <= 0.0) {
      throw std::invalid_argument("truncate_factor must be > 0");
    }
    sim.run_until(config.submit_horizon * config.truncate_factor);
  }

  result.ops = platform.total_counters();
  result.gateway_cancels = gateway.cancellations_issued();
  result.replicas_rejected = gateway.replicas_rejected();
  result.replicas_dropped = gateway.replicas_dropped();
  for (const auto& station : stations) {
    result.middleware_max_backlog =
        std::max(result.middleware_max_backlog,
                 static_cast<double>(station->max_backlog()));
    result.middleware_mean_sojourn +=
        station->mean_sojourn() / static_cast<double>(stations.size());
  }
  result.jobs_generated = inputs.jobs_generated;
  result.avg_max_queue = tracker.avg_max_length();
  result.queue_growth_per_hour.reserve(config.n_clusters);
  for (std::size_t i = 0; i < config.n_clusters; ++i) {
    result.queue_growth_per_hour.push_back(tracker.growth_per_hour(i));
  }
  result.end_time = sim.now();
  // Job-proportional live state, capacity-based (high-water): gateway
  // tracking + scheduler tables, plus the arrival pump.
  result.live_state_bytes = gateway.live_state_bytes();
  for (std::size_t i = 0; i < platform.size(); ++i) {
    result.live_state_bytes += platform.scheduler(i).live_state_bytes();
  }
  result.live_state_bytes +=
      sources.capacity() * sizeof(detail::JobSource) +
      heap.capacity() * sizeof(std::pair<double, std::size_t>) +
      cohort.capacity() * sizeof(grid::GridJob);
  for (const grid::GridJob& job : cohort) {
    result.live_state_bytes += job.targets.capacity() * sizeof(std::size_t);
  }
  result.resident_trace_bytes = detail::resident_trace_bytes(inputs, sources);
  result.records = gateway.take_records();
  gateway.set_record_sink(nullptr);
  if (config.drain) {
    const std::uint64_t finished = config.retain_records
                                       ? result.records.size()
                                       : gateway.finished();
    if (finished != inputs.jobs_generated) {
      throw std::logic_error(
          "conservation violation: not every grid job finished exactly once");
    }
  }
  // Leave the workspace inert: arrival lambdas captured references to
  // locals of this call (placement, estimator, stations); reset() both
  // frees the slab's callbacks and guarantees none can ever fire.
  sim.reset();
  return result;
}

}  // namespace rrsim::core
