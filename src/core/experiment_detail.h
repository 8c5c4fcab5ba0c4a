// Internal to the core experiment engine: resolution of everything a run
// consumes *before* any event fires — per-cluster workload parameters, the
// per-cluster job inputs and the positions of the user/redundancy
// substreams — and the one per-cluster job source both the classic
// sequential kernel (experiment.cpp) and the conservative parallel kernel
// (pdes_experiment.cpp) pull their arrivals from.
//
// The fork order across resolve_clusters() + resolve_inputs() is
// load-bearing twice over: the TraceCache keys on the workload/estimator
// generator states, and paired runs (scheme vs. NONE, sequential vs. PDES
// at the same latency, whole-stream vs. windowed input) rely on
// byte-identical streams and draws. Do not reorder the master forks.
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "rrsim/core/experiment.h"
#include "rrsim/grid/gateway.h"
#include "rrsim/grid/platform.h"
#include "rrsim/util/rng.h"
#include "rrsim/workload/calibrate.h"
#include "rrsim/workload/estimators.h"
#include "rrsim/workload/stream_window.h"
#include "rrsim/workload/swf.h"
#include "rrsim/workload/trace_cache.h"
#include "rrsim/workload/window_spool.h"

namespace rrsim::core::detail {

// Distinct substream tags so each model component draws independent
// randomness from the master seed.
enum Substream : std::uint64_t {
  kStreamWorkloadBase = 1000,
  kStreamEstimatorBase = 2000,
  kStreamRedundancy = 3000,
  kStreamPlacement = 3001,
  kStreamCalibration = 3002,
  kStreamUsers = 3003,
};

/// Output of resolve_clusters(): validated platform shape plus the master
/// generator, positioned exactly where the historical inline code left it
/// (calibration substream consumed).
struct ResolvedClusters {
  std::vector<grid::ClusterConfig> cluster_configs;
  util::Rng master{0};
};

/// Validates the platform/workload half of `config` and resolves the
/// per-cluster workload parameters. Deterministic in config.seed.
inline ResolvedClusters resolve_clusters(const ExperimentConfig& config) {
  if (config.n_clusters == 0) {
    throw std::invalid_argument("need >= 1 cluster");
  }
  if (!config.cluster_nodes.empty() &&
      config.cluster_nodes.size() != config.n_clusters) {
    throw std::invalid_argument("cluster_nodes size mismatch");
  }
  if (!config.cluster_mean_iat.empty() &&
      config.cluster_mean_iat.size() != config.n_clusters) {
    throw std::invalid_argument("cluster_mean_iat size mismatch");
  }
  if (config.redundant_fraction < 0.0 || config.redundant_fraction > 1.0) {
    throw std::invalid_argument("redundant_fraction must be in [0, 1]");
  }
  if (config.submit_horizon < 0.0) {
    throw std::invalid_argument("submit_horizon must be >= 0");
  }

  ResolvedClusters out{{}, util::Rng(config.seed)};

  // Calibration and stream generation use substreams that depend only on
  // the seed and the cluster index, never on the redundancy scheme, so
  // paired runs (scheme vs. NONE) see identical job streams. Calibrations
  // are memoized: every point of a calibrated sweep shares them, and a
  // hit restores calib_rng to where the Monte-Carlo estimate would have
  // left it, so cluster i + 1 calibrates from the same state either way.
  out.cluster_configs.resize(config.n_clusters);
  {
    util::Rng calib_rng = out.master.fork(kStreamCalibration);
    for (std::size_t i = 0; i < config.n_clusters; ++i) {
      grid::ClusterConfig& cc = out.cluster_configs[i];
      cc.nodes = config.nodes_of(i);
      cc.workload = config.base_workload;
      if (!config.cluster_mean_iat.empty()) {
        cc.workload =
            cc.workload.with_mean_interarrival(config.cluster_mean_iat[i]);
      } else if (config.load_mode == LoadMode::kSharedPeak) {
        cc.workload = cc.workload.with_mean_interarrival(
            cc.workload.mean_interarrival() *
            static_cast<double>(config.n_clusters));
      } else if (config.load_mode == LoadMode::kCalibrated) {
        const workload::CalibrationKey key = workload::CalibrationKey::of(
            cc.workload, cc.nodes, config.target_utilization, calib_rng,
            workload::kCalibrationSamples);
        const workload::Calibration cal =
            workload::TraceCache::global().get_or_calibrate(key, [&]() {
              const workload::LublinModel probe(key.params, key.max_nodes);
              util::Rng rng = util::Rng::from_fingerprint(key.rng_start);
              workload::Calibration c;
              c.mean_interarrival = workload::interarrival_for_utilization(
                  probe, key.target_util, rng, key.samples);
              c.rng_end = rng.fingerprint();
              return c;
            });
        calib_rng = util::Rng::from_fingerprint(cal.rng_end);
        cc.workload = cc.workload.with_mean_interarrival(cal.mean_interarrival);
      }
      // kPerClusterPeak keeps the literal model rate.
    }
  }

  if (config.per_user_pending_limit < 0 || config.users_per_cluster < 1) {
    throw std::invalid_argument("invalid per-user limit configuration");
  }
  return out;
}

/// Loads one SWF trace file filtered for one cluster: submit times shifted
/// to t=0 (clamped to 1e-6 so nothing arrives "before" the simulation),
/// cut at the horizon, jobs wider than the cluster dropped. This is THE
/// entry point for file-backed traces — whole-stream runs keep its result
/// and windowed runs spool it (window_spool.h), so both replay
/// byte-identical job sequences, including the post-read_swf order of
/// integer-time ties within a file.
inline workload::JobStream load_swf_stream(const std::string& path,
                                           double horizon, int max_nodes) {
  // rrsim-lint-allow(stream-materialization): the one sanctioned read_swf
  // call in core — SWF parsing must see the whole file for the stable
  // submit-time sort (ties keep file order; the tie-break explorer in
  // tools/check relies on that baseline). Whole-stream runs keep the
  // result, windowed runs spool it to disk and drop it; every other
  // core/exec call site must go through this loader or a WindowSpool reader.
  const workload::JobStream whole = workload::read_swf_file(path);
  const double t0 = whole.empty() ? 0.0 : whole.front().submit_time;
  workload::JobStream filtered;
  for (workload::JobSpec spec : whole) {
    spec.submit_time -= t0;
    if (spec.submit_time > horizon) break;
    if (spec.submit_time <= 0.0) spec.submit_time = 1e-6;
    if (spec.nodes > max_nodes) continue;
    filtered.push_back(spec);
  }
  return filtered;
}

/// One cluster's resolved job input. Exactly one backing is set for a
/// non-empty cluster: `stream` when stream_window == 0 (the memoized
/// Lublin snapshot or a loaded SWF trace), else `checkpoints` (Lublin
/// generator checkpoint table) or `spool` (on-disk SWF window spool).
/// `users_start` / `redundancy_start` are the exact substream positions
/// where this cluster's per-job draws begin.
struct ClusterInput {
  workload::TraceCache::StreamPtr stream;
  workload::TraceCache::CheckpointPtr checkpoints;
  workload::TraceCache::SpoolPtr spool;
  std::pair<std::uint64_t, std::uint64_t> users_start{0, 0};
  std::pair<std::uint64_t, std::uint64_t> redundancy_start{0, 0};

  std::uint64_t total_jobs() const noexcept {
    if (stream) return stream->size();
    if (checkpoints) return checkpoints->total_jobs;
    return spool ? spool->total_jobs() : 0;
  }
  /// Resident bytes of the backing: every spec of a whole stream, or just
  /// the checkpoint table / spool index of a windowed one.
  std::size_t payload_bytes() const noexcept {
    if (stream) return stream->size() * sizeof(workload::JobSpec);
    if (checkpoints) return checkpoints->payload_bytes();
    return spool ? spool->payload_bytes() : 0;
  }
};

/// Output of resolve_inputs().
struct ResolvedInputs {
  std::vector<ClusterInput> clusters;
  util::Rng placement_rng{0};
  std::size_t jobs_generated = 0;
};

/// Resolves every cluster's job input and positions the user/redundancy
/// substreams. `master` must be the generator resolve_clusters() returned,
/// untouched in between.
///
/// Backings, all memoized through the TraceCache except a whole SWF
/// trace: with stream_window == 0 the Lublin stream is generated once per
/// trace key and shared; with stream_window > 0 only its checkpoint table
/// is kept (O(window) resident), and SWF files are spooled to disk once
/// per (path, shape, horizon, window) and pulled back window by window.
inline ResolvedInputs resolve_inputs(
    const ExperimentConfig& config,
    const std::vector<grid::ClusterConfig>& cluster_configs,
    util::Rng& master, const workload::RuntimeEstimator& estimator) {
  ResolvedInputs out;
  util::Rng redundancy_rng = master.fork(kStreamRedundancy);
  util::Rng users_rng = master.fork(kStreamUsers);
  out.placement_rng = master.fork(kStreamPlacement);
  const std::size_t window = config.stream_window;
  out.clusters.resize(config.n_clusters);
  for (std::size_t i = 0; i < config.n_clusters; ++i) {
    // Forked unconditionally, whichever backing the cluster gets, so every
    // later substream lands in the same place. A cache hit leaves them
    // exactly where a miss would.
    util::Rng stream_rng = master.fork(kStreamWorkloadBase + i);
    util::Rng est_rng = master.fork(kStreamEstimatorBase + i);
    ClusterInput& in = out.clusters[i];
    const grid::ClusterConfig& cc = cluster_configs[i];
    if (!config.trace_files.empty()) {
      const std::string& path =
          config.trace_files[i % config.trace_files.size()];
      if (window == 0) {
        in.stream = std::make_shared<const workload::JobStream>(
            load_swf_stream(path, config.submit_horizon, cc.nodes));
      } else {
        workload::SpoolKey skey;
        skey.path = path;
        skey.max_nodes = cc.nodes;
        skey.horizon = config.submit_horizon;
        skey.window = window;
        in.spool =
            workload::TraceCache::global().get_or_build_spool(skey, [&]() {
              workload::WindowSpool spool(window);
              for (const workload::JobSpec& spec :
                   load_swf_stream(path, config.submit_horizon, cc.nodes)) {
                spool.append(spec);
              }
              spool.finish();
              return spool;
            });
      }
    } else {
      // Sweep points sharing (seed, params, shape) — the common-random-
      // number pairing every figure uses — resolve this trace once per
      // process.
      const workload::TraceKey key =
          workload::TraceKey::of(cc.workload, cc.nodes, config.submit_horizon,
                                 stream_rng, est_rng, estimator);
      if (window == 0) {
        in.stream = workload::TraceCache::global().get_or_generate(
            key, [&]() {
              const workload::LublinModel model(cc.workload, cc.nodes);
              // rrsim-lint-allow(stream-materialization): this IS the
              // whole-stream backing (stream_window == 0); windowed runs
              // take the checkpoint table below instead.
              workload::JobStream s = model.generate_stream(
                  stream_rng, config.submit_horizon);
              workload::apply_estimator(s, estimator, est_rng);
              return s;
            });
      } else {
        in.checkpoints =
            workload::TraceCache::global().get_or_build_checkpoints(
                key, window, [&]() {
                  return workload::scan_checkpoints(
                      cc.workload, cc.nodes, config.submit_horizon,
                      stream_rng, est_rng, estimator, window);
                });
      }
    }
    out.jobs_generated += in.total_jobs();
  }

  // Substream positioning, cluster-major: cluster i's draws start where
  // cluster i-1's end. Capturing before advancing gives each cluster the
  // exact generator its draws start from. The advance itself is one draw
  // per job — O(total jobs) — so it is memoized per cluster segment: a
  // repeated sweep point (or a fraction sweep — chance() advances the
  // generator independently of p, see DrawSegmentKey) seeks straight to
  // the end fingerprints. A miss replays the *same* calls JobSource::pop
  // makes (chance only when a scheme is active — pop short-circuits past
  // the redundancy draw for NONE).
  for (ClusterInput& in : out.clusters) {
    in.users_start = users_rng.fingerprint();
    in.redundancy_start = redundancy_rng.fingerprint();
    workload::DrawSegmentKey seg;
    seg.users_start = in.users_start;
    seg.redundancy_start = in.redundancy_start;
    seg.count = in.total_jobs();
    seg.users_per_cluster =
        static_cast<std::uint64_t>(config.users_per_cluster);
    seg.scheme_active = !config.scheme.is_none();
    const workload::DrawSegment end =
        workload::TraceCache::global().get_or_advance_draws(seg, [&]() {
          util::Rng users = util::Rng::from_fingerprint(seg.users_start);
          util::Rng redundancy =
              util::Rng::from_fingerprint(seg.redundancy_start);
          for (std::uint64_t j = 0; j < seg.count; ++j) {
            (void)users.below(seg.users_per_cluster);
            if (seg.scheme_active) {
              (void)redundancy.chance(config.redundant_fraction);
            }
          }
          workload::DrawSegment e;
          e.users_end = users.fingerprint();
          e.redundancy_end = redundancy.fingerprint();
          return e;
        });
    users_rng = util::Rng::from_fingerprint(end.users_end);
    redundancy_rng = util::Rng::from_fingerprint(end.redundancy_end);
  }
  return out;
}

/// One cluster's arrivals in submit order, each with its user and
/// redundancy draws: the single job source of both kernels. Specs are read
/// in place from a whole stream (never copied) or pulled one window at a
/// time from a StreamWindow / WindowSpool::Reader; the draws come from
/// generators restored at the cluster's substream positions. Every backing
/// therefore yields the same jobs, ids and draws. Grid job ids are
/// cluster-major from 1: this cluster's are id_base + 1, id_base + 2, ...
class JobSource {
 public:
  JobSource(const ClusterInput& input, std::size_t cluster,
            grid::GridJobId id_base, const ExperimentConfig& config,
            const grid::ClusterConfig& cc,
            const workload::RuntimeEstimator& estimator)
      : window_size_(config.stream_window),
        cluster_(cluster),
        next_id_(id_base + 1),
        users_(util::Rng::from_fingerprint(input.users_start)),
        redundancy_(util::Rng::from_fingerprint(input.redundancy_start)),
        users_per_cluster_(
            static_cast<std::uint64_t>(config.users_per_cluster)),
        scheme_active_(!config.scheme.is_none()),
        redundant_fraction_(config.redundant_fraction) {
    if (input.stream) {
      specs_ = input.stream->data();
      size_ = input.stream->size();
      return;
    }
    if (input.total_jobs() == 0) return;
    if (input.spool) {
      window_ = std::make_unique<workload::WindowSpool::Reader>(input.spool);
    } else {
      window_ = std::make_unique<workload::StreamWindow>(
          cc.workload, cc.nodes, config.submit_horizon,
          input.checkpoints->checkpoints.front(), estimator);
    }
    buf_.reserve(window_size_);
    refill();
  }

  bool empty() const noexcept { return next_ == size_; }
  /// Submit time of the next arrival; requires !empty().
  double next_time() const noexcept { return specs_[next_].submit_time; }

  /// Writes the next arrival into `job` (targets = its origin only, ready
  /// for placement) and advances. Requires !empty().
  void pop(grid::GridJob& job) {
    job.id = next_id_++;
    job.origin = cluster_;
    job.user = static_cast<sched::UserId>(static_cast<std::uint32_t>(
        cluster_ * 4096 + users_.below(users_per_cluster_)));
    job.spec = specs_[next_];
    job.redundant = scheme_active_ && redundancy_.chance(redundant_fraction_);
    job.targets.clear();
    job.targets.push_back(cluster_);
    if (++next_ == size_ && window_ != nullptr && !window_->exhausted()) {
      refill();
    }
  }

  /// Bytes of the window buffer (0 for an in-place whole stream).
  std::size_t buffer_bytes() const noexcept {
    return buf_.capacity() * sizeof(workload::JobSpec);
  }

 private:
  void refill() {
    window_->next(window_size_, buf_);
    // Moving a JobSource moves buf_'s heap block with it, so this pointer
    // stays valid when the owning vector relocates the source.
    specs_ = buf_.data();
    size_ = buf_.size();
    next_ = 0;
  }

  std::unique_ptr<workload::WindowSource> window_;  // null: whole stream
  workload::JobStream buf_;
  const workload::JobSpec* specs_ = nullptr;  // current stream or window
  std::size_t size_ = 0;
  std::size_t next_ = 0;
  std::size_t window_size_;
  std::size_t cluster_;
  grid::GridJobId next_id_;
  util::Rng users_;
  util::Rng redundancy_;
  std::uint64_t users_per_cluster_;
  bool scheme_active_;
  double redundant_fraction_;
};

/// One JobSource per cluster over `inputs`, with cluster-major id bases.
/// `estimator` is borrowed by the windowed Lublin sources and must outlive
/// them.
inline std::vector<JobSource> make_job_sources(
    const ExperimentConfig& config,
    const std::vector<grid::ClusterConfig>& cluster_configs,
    const ResolvedInputs& inputs,
    const workload::RuntimeEstimator& estimator) {
  std::vector<JobSource> sources;
  sources.reserve(config.n_clusters);
  grid::GridJobId id_base = 0;
  for (std::size_t i = 0; i < config.n_clusters; ++i) {
    sources.emplace_back(inputs.clusters[i], i, id_base, config,
                         cluster_configs[i], estimator);
    id_base += inputs.clusters[i].total_jobs();
  }
  return sources;
}

/// Resident trace bytes of a run (SimResult::resident_trace_bytes): every
/// input's backing plus every source's window buffer.
inline std::size_t resident_trace_bytes(const ResolvedInputs& inputs,
                                        const std::vector<JobSource>& sources) {
  std::size_t bytes = 0;
  for (const ClusterInput& in : inputs.clusters) bytes += in.payload_bytes();
  for (const JobSource& s : sources) bytes += s.buffer_bytes();
  return bytes;
}

/// The conservative-PDES run path (pdes_experiment.cpp). run_experiment()
/// dispatches here when config.pdes && cross_cluster_latency > 0 &&
/// n_clusters > 1.
SimResult run_pdes_experiment(const ExperimentConfig& config);

}  // namespace rrsim::core::detail
