#include "workloads.h"

#include <array>
#include <cmath>
#include <stdexcept>

#include "rrsim/core/paper.h"
#include "rrsim/core/scheme.h"
#include "rrsim/core/sweep.h"
#include "rrsim/metrics/summary.h"

namespace perfbench {

namespace {

using rrsim::core::ExperimentConfig;
using rrsim::core::LoadMode;
using rrsim::core::RedundancyScheme;

// Scale knobs. Each workload's round (one SweepRunner::run over all its
// units) takes roughly 0.5-2 s at four workers, so a 10 s run measures
// several rounds and reports medians.
constexpr int kFig1Reps = 10;
constexpr double kFig1Hours = 2.0;
constexpr int kCbfReps = 24;
constexpr std::size_t kGridClusters = 250;
constexpr double kGridHours = 2.5;
constexpr int kPdesReps = 48;
constexpr double kPdesHours = 6.0;

void add_unit(Workload& w, std::string label, const ExperimentConfig& c) {
  w.units.push_back(
      Unit{std::move(label), c, rrsim::core::trace_affinity(c), false});
}

Workload fig1_easy(std::uint64_t seed) {
  Workload w;
  const std::array<std::size_t, 6> ns{2, 3, 4, 5, 10, 20};
  const std::array<const char*, 6> schemes{"NONE", "R2",   "R3",
                                           "R4",   "HALF", "ALL"};
  for (int r = 0; r < kFig1Reps; ++r) {
    for (const std::size_t n : ns) {
      for (const char* s : schemes) {
        ExperimentConfig c = rrsim::core::figure_config();
        c.submit_horizon = kFig1Hours * 3600.0;
        c.n_clusters = n;
        c.scheme = RedundancyScheme::parse(s);
        c.seed = seed + static_cast<std::uint64_t>(r);
        if (r == 0 && n == 3 && std::string(s) == "R3") {
          w.replay_unit = w.units.size();
        }
        add_unit(w,
                 "N=" + std::to_string(n) + " " + s +
                     " seed=" + std::to_string(c.seed),
                 c);
      }
    }
  }
  return w;
}

Workload cbf_predict(std::uint64_t seed) {
  Workload w;
  for (int r = 0; r < kCbfReps; ++r) {
    ExperimentConfig base;
    base.n_clusters = 10;
    base.load_mode = LoadMode::kPerClusterPeak;
    base.submit_horizon = 1200.0;
    base.algorithm = rrsim::sched::Algorithm::kCbf;
    base.estimator = "uniform216";
    base.record_predictions = true;
    base.seed = seed + static_cast<std::uint64_t>(r);
    ExperimentConfig mixed = base;
    mixed.scheme = RedundancyScheme::all();
    mixed.redundant_fraction = 0.4;
    const std::string tag = " seed=" + std::to_string(base.seed);
    add_unit(w, "NONE" + tag, base);
    if (r == 0) w.replay_unit = w.units.size();
    add_unit(w, "40% ALL" + tag, mixed);
  }
  return w;
}

Workload grid_stream(std::uint64_t seed) {
  Workload w;
  const std::array<int, 2> degrees{2, 4};
  const std::array<double, 4> fractions{0.25, 0.5, 0.75, 1.0};
  for (const int d : degrees) {
    for (const double p : fractions) {
      ExperimentConfig c;
      c.n_clusters = kGridClusters;
      c.nodes_per_cluster = 128;
      c.load_mode = LoadMode::kCalibrated;
      c.target_utilization = 0.7;
      c.submit_horizon = kGridHours * 3600.0;
      c.scheme = RedundancyScheme::fixed(d);
      c.redundant_fraction = p;
      c.retain_records = false;
      c.stream_window = 256;
      c.seed = seed;
      if (d == 4 && p == 1.0) w.replay_unit = w.units.size();
      add_unit(w,
               "R" + std::to_string(d) + " p=" + std::to_string(p).substr(0, 4),
               c);
    }
  }
  return w;
}

Workload latency_pdes(std::uint64_t seed) {
  Workload w;
  for (int r = 0; r < kPdesReps; ++r) {
    ExperimentConfig c = rrsim::core::figure_config();
    c.n_clusters = 16;
    c.submit_horizon = kPdesHours * 3600.0;
    c.pdes = true;
    c.cross_cluster_latency = 60.0;
    c.pdes_jobs = 1;
    c.seed = seed + static_cast<std::uint64_t>(r);
    const std::string tag = " seed=" + std::to_string(c.seed);
    add_unit(w, "NONE" + tag, c);
    c.scheme = RedundancyScheme::fixed(4);
    if (r == 0) w.replay_unit = w.units.size();
    add_unit(w, "R4" + tag, c);
  }
  return w;
}

void mix_metrics(Fnv& f, const rrsim::metrics::ScheduleMetrics& m) {
  f.u64(m.jobs);
  f.f64(m.avg_stretch);
  f.f64(m.cv_stretch_percent);
  f.f64(m.max_stretch);
  f.f64(m.avg_turnaround);
  f.f64(m.avg_wait);
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"fig1_easy", "cbf_predict",
                                              "grid_stream", "latency_pdes"};
  return names;
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  if (name == "fig1_easy") {
    w = fig1_easy(seed);
  } else if (name == "cbf_predict") {
    w = cbf_predict(seed);
  } else if (name == "grid_stream") {
    w = grid_stream(seed);
  } else if (name == "latency_pdes") {
    w = latency_pdes(seed);
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  // Mirror SweepRunner's grouping: every unit is a one-unit task, so the
  // first-queued unit of each affinity runs in the leader phase.
  std::vector<std::uint64_t> seen;
  for (Unit& u : w.units) {
    bool first = true;
    for (const std::uint64_t a : seen) first = first && a != u.affinity;
    u.leader = first;
    if (first) seen.push_back(u.affinity);
  }
  return w;
}

std::uint64_t result_checksum(const rrsim::core::SimResult& r) {
  Fnv f;
  if (r.streamed) {
    const rrsim::metrics::ClassifiedMetrics cm = r.stream.classified();
    mix_metrics(f, cm.all);
    mix_metrics(f, cm.redundant);
    mix_metrics(f, cm.non_redundant);
    f.f64(r.stream.stretch_p50());
    f.f64(r.stream.stretch_p90());
    f.f64(r.stream.stretch_p99());
  } else {
    for (const rrsim::metrics::JobRecord& j : r.records) {
      f.u64(j.grid_id);
      f.u64(j.origin_cluster);
      f.u64(j.winner_cluster);
      f.u64(static_cast<std::uint64_t>(j.redundant));
      f.u64(static_cast<std::uint64_t>(j.replicas));
      f.u64(static_cast<std::uint64_t>(j.replicas_delivered));
      f.u64(static_cast<std::uint64_t>(j.nodes));
      f.f64(j.submit_time);
      f.f64(j.start_time);
      f.f64(j.finish_time);
      f.f64(j.actual_time);
      f.f64(j.requested_time);
      f.f64(j.predicted_start.value_or(std::nan("")));
    }
    // The fold every harness applies to retained records.
    const rrsim::metrics::ClassifiedMetrics cm =
        rrsim::metrics::compute_classified_metrics(r.records);
    mix_metrics(f, cm.all);
    mix_metrics(f, cm.redundant);
    mix_metrics(f, cm.non_redundant);
    const rrsim::metrics::PredictionAccuracy pa =
        rrsim::metrics::compute_prediction_accuracy(r.records);
    f.u64(pa.jobs);
    f.f64(pa.avg_ratio);
    f.f64(pa.cv_ratio_percent);
  }
  const rrsim::sched::OpCounters& o = r.ops;
  for (const std::uint64_t v : {o.submits, o.rejects, o.cancels, o.starts,
                                o.finishes, o.declines, o.sched_passes}) {
    f.u64(v);
  }
  for (const std::uint64_t v :
       {r.gateway_cancels, r.replicas_rejected, r.replicas_dropped,
        r.jobs_generated, r.duplicate_starts, r.duplicate_finishes,
        r.pdes_windows}) {
    f.u64(v);
  }
  f.f64(r.avg_max_queue);
  f.f64(r.end_time);
  return f.h;
}

}  // namespace perfbench
