// Memoized load calibration (LoadMode::kCalibrated): a calibrated run is
// bit-identical whether resolve_clusters calibrates afresh (cache
// disabled, or cold) or reads calibrations from the TraceCache (warm), on
// both the classic and the PDES kernel. The clusters have different sizes,
// so each calibration consumes a different, data-dependent number of
// draws: a hit that left the calibration generator anywhere but at the
// exact end of the estimate it replaces would shift every later cluster's
// workload, and with it the schedule.
#include "rrsim/core/experiment.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "rrsim/metrics/summary.h"
#include "rrsim/workload/trace_cache.h"

namespace rrsim::core {
namespace {

ExperimentConfig calibrated_config() {
  ExperimentConfig config;
  config.n_clusters = 4;
  config.cluster_nodes = {16, 64, 32, 128};
  config.load_mode = LoadMode::kCalibrated;
  config.target_utilization = 0.7;
  config.submit_horizon = 1800.0;
  config.scheme = RedundancyScheme::fixed(2);
  config.redundant_fraction = 0.5;
  config.seed = 23;
  return config;
}

ExperimentConfig pdes_config() {
  ExperimentConfig config = calibrated_config();
  config.pdes = true;
  config.cross_cluster_latency = 30.0;
  config.pdes_jobs = 2;
  return config;
}

void expect_same_run(const SimResult& got, const SimResult& want) {
  EXPECT_EQ(got.jobs_generated, want.jobs_generated);
  EXPECT_EQ(got.end_time, want.end_time);
  EXPECT_EQ(got.ops.submits, want.ops.submits);
  EXPECT_EQ(got.ops.starts, want.ops.starts);
  EXPECT_EQ(got.ops.cancels, want.ops.cancels);
  EXPECT_EQ(got.ops.sched_passes, want.ops.sched_passes);
  EXPECT_EQ(got.duplicate_starts, want.duplicate_starts);
  ASSERT_EQ(got.records.size(), want.records.size());
  for (std::size_t i = 0; i < want.records.size(); ++i) {
    EXPECT_EQ(got.records[i].grid_id, want.records[i].grid_id) << i;
    EXPECT_EQ(got.records[i].winner_cluster, want.records[i].winner_cluster)
        << i;
    EXPECT_EQ(got.records[i].nodes, want.records[i].nodes) << i;
    EXPECT_EQ(got.records[i].submit_time, want.records[i].submit_time) << i;
    EXPECT_EQ(got.records[i].start_time, want.records[i].start_time) << i;
    EXPECT_EQ(got.records[i].finish_time, want.records[i].finish_time) << i;
  }
}

/// Runs `config` with the cache disabled (every cluster calibrates
/// afresh), then cold and warm with it enabled, and checks all three
/// agree bit for bit and that the warm run calibrated nothing.
void expect_cache_transparent(const ExperimentConfig& config) {
  workload::TraceCache& cache = workload::TraceCache::global();
  cache.clear();
  cache.set_enabled(false);
  const SimResult fresh = run_experiment(config);
  EXPECT_EQ(cache.calibration_misses(), config.n_clusters);
  EXPECT_EQ(cache.entries(), 0u);
  cache.set_enabled(true);
  ASSERT_GT(fresh.jobs_generated, 150u);

  cache.clear();
  const SimResult cold = run_experiment(config);
  EXPECT_EQ(cache.calibration_misses(), config.n_clusters);
  EXPECT_EQ(cache.calibration_hits(), 0u);
  const SimResult warm = run_experiment(config);
  EXPECT_EQ(cache.calibration_misses(), config.n_clusters);
  EXPECT_EQ(cache.calibration_hits(), config.n_clusters);

  {
    SCOPED_TRACE("cold vs fresh");
    expect_same_run(cold, fresh);
  }
  {
    SCOPED_TRACE("warm vs fresh");
    expect_same_run(warm, fresh);
  }
}

TEST(CalibrationCache, ClassicKernelIsBitIdenticalColdWarmAndDisabled) {
  expect_cache_transparent(calibrated_config());
}

TEST(CalibrationCache, PdesKernelIsBitIdenticalColdWarmAndDisabled) {
  expect_cache_transparent(pdes_config());
}

TEST(CalibrationCache, CachedRunsMatchTheUncachedGolden) {
  // Hex-exact values of both configs as run before calibrations were
  // memoized. The cold/warm/disabled comparisons above cannot see a fault
  // that shifts every mode alike; this pins the shared answer, cold and
  // warm.
  struct Golden {
    ExperimentConfig config;
    double end_time;
    double avg_stretch;
    double avg_turnaround;
    std::uint64_t starts;
  };
  const std::vector<Golden> goldens{
      {calibrated_config(), 0x1.6170f07a71c76p+11, 0x1.002d0a6a587adp+0,
       0x1.3a6be98d570a4p+7, 187},
      {pdes_config(), 0x1.6530f07a71c76p+11, 0x1.f6f70ceb3ab2dp+0,
       0x1.4dc8a18009692p+7, 269}};
  workload::TraceCache::global().clear();
  for (const Golden& g : goldens) {
    for (const char* pass : {"cold", "warm"}) {
      SCOPED_TRACE(std::string(g.config.pdes ? "pdes " : "classic ") + pass);
      const SimResult r = run_experiment(g.config);
      const metrics::ScheduleMetrics m = metrics::compute_metrics(r.records);
      EXPECT_EQ(r.jobs_generated, 187u);
      EXPECT_EQ(r.ops.starts, g.starts);
      EXPECT_EQ(r.end_time, g.end_time);
      EXPECT_EQ(m.avg_stretch, g.avg_stretch);
      EXPECT_EQ(m.avg_turnaround, g.avg_turnaround);
    }
  }
}

TEST(CalibrationCache, HitThenMissChainsFromTheRestoredGenerator) {
  // Warm only cluster 0's calibration: the next config shares cluster 0's
  // size (a hit) but not the rest (misses), so every miss must start from
  // the generator state the hit restored.
  ExperimentConfig config = calibrated_config();
  ExperimentConfig prefix = config;
  prefix.n_clusters = 1;
  prefix.cluster_nodes = {config.cluster_nodes.front()};

  workload::TraceCache& cache = workload::TraceCache::global();
  cache.clear();
  cache.set_enabled(false);
  const SimResult fresh = run_experiment(config);
  cache.set_enabled(true);

  cache.clear();
  (void)run_experiment(prefix);
  const SimResult chained = run_experiment(config);
  EXPECT_EQ(cache.calibration_hits(), 1u);
  EXPECT_EQ(cache.calibration_misses(), 1u + (config.n_clusters - 1));
  expect_same_run(chained, fresh);
}

TEST(CalibrationCache, UncalibratedModesNeverTouchTheCalibrationEntries) {
  workload::TraceCache& cache = workload::TraceCache::global();
  cache.clear();
  for (const LoadMode mode :
       {LoadMode::kSharedPeak, LoadMode::kPerClusterPeak}) {
    ExperimentConfig config = calibrated_config();
    config.load_mode = mode;
    config.submit_horizon = 600.0;
    (void)run_experiment(config);
  }
  EXPECT_EQ(cache.calibration_hits(), 0u);
  EXPECT_EQ(cache.calibration_misses(), 0u);
}

}  // namespace
}  // namespace rrsim::core
