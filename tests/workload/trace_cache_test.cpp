// TraceCache contract: one generation per distinct key, shared snapshots
// on hits, generate-every-time when disabled, bitwise key sensitivity,
// checkpoint-table, draw-segment, calibration and spool entries alongside
// streams, and least-recently-used eviction under a byte budget (hits
// refresh recency).
#include "rrsim/workload/trace_cache.h"

#include <gtest/gtest.h>

#include <array>
#include <stdexcept>
#include <string>
#include <vector>

namespace rrsim::workload {
namespace {

TraceKey key_with(std::uint64_t stream_state, double mean_factor = 1.0) {
  TraceKey k;
  k.max_nodes = 128;
  k.horizon = 3600.0;
  k.stream_rng = {stream_state, 1442695040888963407ULL};
  k.est_rng = {7, 11};
  k.estimator_name = "exact";
  k.estimator_mean_factor = mean_factor;
  return k;
}

JobStream make_stream(int jobs) {
  JobStream s;
  for (int i = 0; i < jobs; ++i) {
    JobSpec spec;
    spec.submit_time = static_cast<double>(i);
    s.push_back(spec);
  }
  return s;
}

TEST(TraceCache, GeneratesOncePerKeyAndSharesTheSnapshot) {
  TraceCache cache;
  int generations = 0;
  const auto gen = [&generations] {
    ++generations;
    return make_stream(3);
  };
  const auto a = cache.get_or_generate(key_with(1), gen);
  const auto b = cache.get_or_generate(key_with(1), gen);
  EXPECT_EQ(generations, 1);
  EXPECT_EQ(a.get(), b.get());  // same buffer, not an equal copy
  EXPECT_EQ(a->size(), 3u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_EQ(cache.resident_bytes(), 3 * sizeof(JobSpec));
}

TEST(TraceCache, DisabledModeGeneratesEveryTimeAndPublishesNothing) {
  TraceCache cache;
  cache.set_enabled(false);
  EXPECT_FALSE(cache.enabled());
  int generations = 0;
  const auto gen = [&generations] {
    ++generations;
    return make_stream(1);
  };
  const auto a = cache.get_or_generate(key_with(1), gen);
  const auto b = cache.get_or_generate(key_with(1), gen);
  EXPECT_EQ(generations, 2);
  EXPECT_NE(a.get(), b.get());
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 2u);  // counts what memoization would absorb

  cache.set_enabled(true);
  cache.get_or_generate(key_with(1), gen);
  EXPECT_EQ(generations, 3);  // nothing was published while disabled
  EXPECT_EQ(cache.entries(), 1u);
}

TEST(TraceCache, KeysAreBitwiseSensitive) {
  TraceCache cache;
  int generations = 0;
  const auto gen = [&generations] {
    ++generations;
    return make_stream(1);
  };
  cache.get_or_generate(key_with(1), gen);
  // A different Rng fingerprint is a different trace.
  cache.get_or_generate(key_with(2), gen);
  // Same estimator name, different mean factor (UniformFactorEstimator's
  // name does not encode its parameter) — must not collide.
  cache.get_or_generate(key_with(1, 2.16), gen);
  EXPECT_EQ(generations, 3);
  EXPECT_EQ(cache.entries(), 3u);
  // And the originals still hit.
  cache.get_or_generate(key_with(1), gen);
  cache.get_or_generate(key_with(1, 2.16), gen);
  EXPECT_EQ(generations, 3);
  EXPECT_EQ(cache.hits(), 2u);
}

TEST(TraceCache, ClearDropsEntriesAndZeroesCounters) {
  TraceCache cache;
  cache.get_or_generate(key_with(1), [] { return make_stream(2); });
  cache.get_or_generate(key_with(1), [] { return make_stream(2); });
  cache.clear();
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 0u);
  EXPECT_EQ(cache.resident_bytes(), 0u);
  int generations = 0;
  cache.get_or_generate(key_with(1), [&generations] {
    ++generations;
    return make_stream(2);
  });
  EXPECT_EQ(generations, 1);  // the cleared entry is really gone
}

TEST(TraceCache, ByteBudgetEvictsOldestFirst) {
  TraceCache cache;
  cache.set_byte_budget(2 * sizeof(JobSpec));
  int generations = 0;
  const auto gen = [&generations] {
    ++generations;
    return make_stream(1);
  };
  cache.get_or_generate(key_with(1), gen);
  cache.get_or_generate(key_with(2), gen);
  EXPECT_EQ(cache.entries(), 2u);
  cache.get_or_generate(key_with(3), gen);  // evicts key 1 (oldest)
  EXPECT_EQ(cache.entries(), 2u);
  EXPECT_EQ(cache.resident_bytes(), 2 * sizeof(JobSpec));
  cache.get_or_generate(key_with(3), gen);  // newest still resident
  cache.get_or_generate(key_with(2), gen);
  EXPECT_EQ(generations, 3);
  cache.get_or_generate(key_with(1), gen);  // evicted: regenerates
  EXPECT_EQ(generations, 4);
}

TEST(TraceCache, HitsRefreshRecencySoEvictionIsGenuinelyLru) {
  TraceCache cache;
  cache.set_byte_budget(2 * sizeof(JobSpec));
  int generations = 0;
  const auto gen = [&generations] {
    ++generations;
    return make_stream(1);
  };
  cache.get_or_generate(key_with(1), gen);
  cache.get_or_generate(key_with(2), gen);
  cache.get_or_generate(key_with(1), gen);  // hit: key 1 is now the newest
  cache.get_or_generate(key_with(3), gen);  // evicts key 2, not key 1
  EXPECT_EQ(generations, 3);
  cache.get_or_generate(key_with(1), gen);  // still resident
  EXPECT_EQ(generations, 3);
  cache.get_or_generate(key_with(2), gen);  // the real victim: regenerates
  EXPECT_EQ(generations, 4);
}

TEST(TraceCache, CheckpointTablesAreCachedPerKeyAndWindow) {
  TraceCache cache;
  int builds = 0;
  const auto build = [&builds] {
    ++builds;
    CheckpointedTrace t;
    t.window = 8;
    t.total_jobs = 20;
    t.checkpoints.resize(3);
    return t;
  };
  const auto a = cache.get_or_build_checkpoints(key_with(1), 8, build);
  const auto b = cache.get_or_build_checkpoints(key_with(1), 8, build);
  EXPECT_EQ(builds, 1);
  EXPECT_EQ(a.get(), b.get());  // shared snapshot, not an equal copy
  EXPECT_EQ(cache.checkpoint_hits(), 1u);
  EXPECT_EQ(cache.checkpoint_misses(), 1u);
  // Stream counters are untouched by checkpoint traffic and vice versa.
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 0u);
  // A different window of the same trace is a different table.
  cache.get_or_build_checkpoints(key_with(1), 16, build);
  EXPECT_EQ(builds, 2);
  // And a checkpoint entry never collides with the stream entry for the
  // same trace key.
  int generations = 0;
  cache.get_or_generate(key_with(1), [&generations] {
    ++generations;
    return make_stream(1);
  });
  EXPECT_EQ(generations, 1);
  EXPECT_EQ(cache.entries(), 3u);
  EXPECT_THROW(cache.get_or_build_checkpoints(key_with(1), 0, build),
               std::invalid_argument);
}

TEST(TraceCache, DisabledModeCountsCheckpointMissesWithoutPublishing) {
  TraceCache cache;
  cache.set_enabled(false);
  int builds = 0;
  const auto build = [&builds] {
    ++builds;
    return CheckpointedTrace{};
  };
  cache.get_or_build_checkpoints(key_with(1), 8, build);
  cache.get_or_build_checkpoints(key_with(1), 8, build);
  EXPECT_EQ(builds, 2);
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.checkpoint_misses(), 2u);
  EXPECT_EQ(cache.checkpoint_hits(), 0u);
}

TEST(TraceCache, ByteBudgetEvictsAcrossEntryKinds) {
  TraceCache cache;
  // Room for one 2-job stream plus a little; a checkpoint table then
  // pushes the older stream out.
  cache.set_byte_budget(2 * sizeof(JobSpec) +
                        2 * sizeof(StreamCheckpoint));
  int generations = 0;
  const auto gen = [&generations] {
    ++generations;
    return make_stream(2);
  };
  cache.get_or_generate(key_with(1), gen);
  const auto build = [] {
    CheckpointedTrace t;
    t.window = 4;
    t.checkpoints.resize(2);
    t.checkpoints.shrink_to_fit();
    return t;
  };
  cache.get_or_build_checkpoints(key_with(2), 4, build);
  cache.get_or_generate(key_with(3), gen);  // evicts until under budget
  EXPECT_LE(cache.resident_bytes(),
            2 * sizeof(JobSpec) + 2 * sizeof(StreamCheckpoint));
  // The oldest entry (stream 1) is gone; the newest (stream 3) survived.
  cache.get_or_generate(key_with(3), gen);
  EXPECT_EQ(generations, 2);
  cache.get_or_generate(key_with(1), gen);
  EXPECT_EQ(generations, 3);
}

TEST(TraceCache, ClearZeroesCheckpointCounters) {
  TraceCache cache;
  cache.get_or_build_checkpoints(key_with(1), 8,
                                 [] { return CheckpointedTrace{}; });
  cache.get_or_build_checkpoints(key_with(1), 8,
                                 [] { return CheckpointedTrace{}; });
  cache.clear();
  EXPECT_EQ(cache.checkpoint_hits(), 0u);
  EXPECT_EQ(cache.checkpoint_misses(), 0u);
  EXPECT_EQ(cache.entries(), 0u);
}

DrawSegmentKey draw_key_with(std::uint64_t users_state,
                             std::uint64_t count = 100) {
  DrawSegmentKey k;
  k.users_start = {users_state, 3};
  k.redundancy_start = {5, 7};
  k.count = count;
  k.users_per_cluster = 8;
  k.scheme_active = true;
  return k;
}

TEST(TraceCache, DrawSegmentsAreMemoizedPerKey) {
  TraceCache cache;
  int advances = 0;
  const auto advance = [&advances] {
    ++advances;
    DrawSegment s;
    s.users_end = {11, 3};
    s.redundancy_end = {13, 7};
    return s;
  };
  const DrawSegment a = cache.get_or_advance_draws(draw_key_with(1), advance);
  const DrawSegment b = cache.get_or_advance_draws(draw_key_with(1), advance);
  EXPECT_EQ(advances, 1);
  EXPECT_EQ(a.users_end, b.users_end);
  EXPECT_EQ(a.redundancy_end, b.redundancy_end);
  EXPECT_EQ(b.users_end, (std::pair<std::uint64_t, std::uint64_t>{11, 3}));
  EXPECT_EQ(cache.draw_hits(), 1u);
  EXPECT_EQ(cache.draw_misses(), 1u);
  // Draw traffic touches neither the stream nor the checkpoint counters.
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.checkpoint_hits(), 0u);
  // Every key field is significant: a different start state, count,
  // user-count, or scheme activeness is a different segment.
  cache.get_or_advance_draws(draw_key_with(2), advance);
  cache.get_or_advance_draws(draw_key_with(1, 101), advance);
  DrawSegmentKey inactive = draw_key_with(1);
  inactive.scheme_active = false;
  cache.get_or_advance_draws(inactive, advance);
  DrawSegmentKey more_users = draw_key_with(1);
  more_users.users_per_cluster = 9;
  cache.get_or_advance_draws(more_users, advance);
  EXPECT_EQ(advances, 5);
  EXPECT_EQ(cache.entries(), 5u);

  cache.clear();
  EXPECT_EQ(cache.draw_hits(), 0u);
  EXPECT_EQ(cache.draw_misses(), 0u);
}

TEST(TraceCache, DisabledModeAdvancesDrawsEveryTimeWithoutPublishing) {
  TraceCache cache;
  cache.set_enabled(false);
  int advances = 0;
  const auto advance = [&advances] {
    ++advances;
    return DrawSegment{};
  };
  cache.get_or_advance_draws(draw_key_with(1), advance);
  cache.get_or_advance_draws(draw_key_with(1), advance);
  EXPECT_EQ(advances, 2);
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.draw_misses(), 2u);
  EXPECT_EQ(cache.draw_hits(), 0u);
}

TEST(TraceCache, FreshEntryLargerThanBudgetIsEvictedYetStillReturned) {
  // Regression: with a budget smaller than a single payload, insertion
  // evicts the just-inserted entry itself. The returned snapshot must be
  // the caller-held payload, not a reference into the erased map node
  // (which was a use-after-free).
  TraceCache cache;
  cache.set_byte_budget(1);
  const auto held =
      cache.get_or_generate(key_with(1), [] { return make_stream(4); });
  ASSERT_NE(held, nullptr);
  EXPECT_EQ(held->size(), 4u);
  EXPECT_EQ(cache.entries(), 0u);  // the fresh entry itself was evicted
  EXPECT_EQ(cache.resident_bytes(), 0u);
  const auto table = cache.get_or_build_checkpoints(key_with(2), 8, [] {
    CheckpointedTrace t;
    t.window = 8;
    t.total_jobs = 20;
    t.checkpoints.resize(3);
    return t;
  });
  ASSERT_NE(table, nullptr);
  EXPECT_EQ(table->total_jobs, 20u);
  EXPECT_EQ(cache.entries(), 0u);
}

TEST(TraceCache, LiveConsumersSurviveEviction) {
  TraceCache cache;
  cache.set_byte_budget(sizeof(JobSpec));
  const auto held =
      cache.get_or_generate(key_with(1), [] { return make_stream(1); });
  cache.get_or_generate(key_with(2), [] { return make_stream(1); });
  EXPECT_EQ(cache.entries(), 1u);  // key 1 evicted...
  EXPECT_EQ(held->size(), 1u);     // ...but the held snapshot stays valid
}

CalibrationKey calibration_key_with(std::uint64_t rng_state) {
  CalibrationKey k;
  k.max_nodes = 128;
  k.target_util = 0.7;
  k.samples = 20000;
  k.rng_start = {rng_state, 1442695040888963407ULL};
  return k;
}

Calibration calibration_of(double iat) {
  Calibration c;
  c.mean_interarrival = iat;
  c.rng_end = {99, 1442695040888963407ULL};
  return c;
}

/// Every LublinParams field, for the per-field key-sensitivity checks.
constexpr std::array<double LublinParams::*, 16> kLublinFields{
    &LublinParams::arrival_alpha, &LublinParams::arrival_beta,
    &LublinParams::serial_prob,   &LublinParams::pow2_prob,
    &LublinParams::ulow,          &LublinParams::uprob,
    &LublinParams::umed_offset,   &LublinParams::rt_a1,
    &LublinParams::rt_b1,         &LublinParams::rt_a2,
    &LublinParams::rt_b2,         &LublinParams::rt_pa,
    &LublinParams::rt_pb,         &LublinParams::rt_log_base,
    &LublinParams::min_runtime,   &LublinParams::max_runtime};

TEST(TraceCache, CalibrationsAreMemoizedPerKey) {
  TraceCache cache;
  int calibrations = 0;
  const auto calibrate = [&calibrations] {
    ++calibrations;
    return calibration_of(42.5);
  };
  const Calibration a =
      cache.get_or_calibrate(calibration_key_with(1), calibrate);
  const Calibration b =
      cache.get_or_calibrate(calibration_key_with(1), calibrate);
  EXPECT_EQ(calibrations, 1);
  EXPECT_EQ(a.mean_interarrival, 42.5);
  EXPECT_EQ(b.mean_interarrival, 42.5);
  // A hit hands back the end fingerprint too: the caller restores its
  // calibration generator from it.
  EXPECT_EQ(b.rng_end, a.rng_end);
  EXPECT_EQ(cache.calibration_hits(), 1u);
  EXPECT_EQ(cache.calibration_misses(), 1u);
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_EQ(cache.resident_bytes(), sizeof(Calibration));
  // Calibration traffic touches no other kind's counters.
  EXPECT_EQ(cache.hits() + cache.misses(), 0u);
  EXPECT_EQ(cache.checkpoint_hits() + cache.checkpoint_misses(), 0u);
  EXPECT_EQ(cache.draw_hits() + cache.draw_misses(), 0u);
  EXPECT_EQ(cache.spool_hits() + cache.spool_misses(), 0u);
}

TEST(TraceCache, CalibrationKeyIsSensitiveToEveryField) {
  const CalibrationKey base = calibration_key_with(1);
  std::vector<CalibrationKey> variants;
  for (double LublinParams::*field : kLublinFields) {
    CalibrationKey k = base;
    k.params.*field += 0.125;
    variants.push_back(k);
  }
  CalibrationKey k = base;
  k.max_nodes = 64;
  variants.push_back(k);
  k = base;
  k.target_util = 0.5;
  variants.push_back(k);
  k = base;
  k.samples = 1000;
  variants.push_back(k);
  k = base;
  k.rng_start.first += 1;  // generator state
  variants.push_back(k);
  k = base;
  k.rng_start.second += 2;  // generator stream (increment)
  variants.push_back(k);

  TraceCache cache;
  int calibrations = 0;
  const auto calibrate = [&calibrations] {
    ++calibrations;
    return calibration_of(static_cast<double>(calibrations));
  };
  cache.get_or_calibrate(base, calibrate);
  for (const CalibrationKey& v : variants) cache.get_or_calibrate(v, calibrate);
  EXPECT_EQ(calibrations, static_cast<int>(1 + variants.size()));
  EXPECT_EQ(cache.entries(), 1 + variants.size());
  EXPECT_EQ(cache.calibration_hits(), 0u);
  // The base key still hits its own value.
  EXPECT_EQ(cache.get_or_calibrate(base, calibrate).mean_interarrival, 1.0);
  EXPECT_EQ(cache.calibration_hits(), 1u);

  // of() captures the live generator's fingerprint and the other fields.
  const util::Rng rng(7, 3);
  const CalibrationKey live =
      CalibrationKey::of(LublinParams{}, 32, 0.6, rng, 500);
  EXPECT_EQ(live.rng_start, rng.fingerprint());
  EXPECT_EQ(live.max_nodes, 32);
  EXPECT_EQ(live.target_util, 0.6);
  EXPECT_EQ(live.samples, 500);
}

TEST(TraceCache, LublinFieldWalkCoversEveryParamsField) {
  // The one walk behind TraceKey, CalibrationKey and trace_affinity:
  // field i of the declaration order is visited i-th, and no field is
  // left out.
  const auto visited = [](const LublinParams& p) {
    std::vector<double> out;
    for_each_lublin_field(p, [&out](double v) { out.push_back(v); });
    return out;
  };
  const LublinParams base;
  const std::vector<double> base_values = visited(base);
  ASSERT_EQ(base_values.size(), kLublinFields.size());
  for (std::size_t i = 0; i < kLublinFields.size(); ++i) {
    LublinParams changed = base;
    changed.*kLublinFields[i] += 0.125;
    std::vector<double> want = base_values;
    want[i] = changed.*kLublinFields[i];
    EXPECT_EQ(visited(changed), want) << "field " << i;
  }
  // Trace keys inherit the sensitivity.
  TraceKey a = key_with(1);
  TraceKey b = a;
  b.params.rt_log_base = 2.718281828459045;
  EXPECT_NE(a.bytes(), b.bytes());
}

TEST(TraceCache, DisabledModeCalibratesEveryTimeWithoutPublishing) {
  TraceCache cache;
  cache.set_enabled(false);
  int calibrations = 0;
  const auto calibrate = [&calibrations] {
    ++calibrations;
    return calibration_of(3.0);
  };
  const Calibration a =
      cache.get_or_calibrate(calibration_key_with(1), calibrate);
  cache.get_or_calibrate(calibration_key_with(1), calibrate);
  EXPECT_EQ(calibrations, 2);
  EXPECT_EQ(a.mean_interarrival, 3.0);
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.calibration_misses(), 2u);
  EXPECT_EQ(cache.calibration_hits(), 0u);

  cache.set_enabled(true);
  cache.get_or_calibrate(calibration_key_with(1), calibrate);
  EXPECT_EQ(calibrations, 3);  // nothing was published while disabled
  EXPECT_EQ(cache.entries(), 1u);
}

TEST(TraceCache, ClearZeroesCalibrationCounters) {
  TraceCache cache;
  int calibrations = 0;
  const auto calibrate = [&calibrations] {
    ++calibrations;
    return calibration_of(1.0);
  };
  cache.get_or_calibrate(calibration_key_with(1), calibrate);
  cache.get_or_calibrate(calibration_key_with(1), calibrate);
  cache.clear();
  EXPECT_EQ(cache.calibration_hits(), 0u);
  EXPECT_EQ(cache.calibration_misses(), 0u);
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.resident_bytes(), 0u);
  cache.get_or_calibrate(calibration_key_with(1), calibrate);
  EXPECT_EQ(calibrations, 2);  // the cleared entry is really gone
}

TEST(TraceCache, ByteBudgetEvictsAcrossAllFiveKinds) {
  TraceCache cache;
  // One entry of every kind, oldest first; record what each one charges.
  std::vector<std::size_t> charged;
  const auto charge = [&cache, &charged] {
    std::size_t before = 0;
    for (const std::size_t b : charged) before += b;
    charged.push_back(cache.resident_bytes() - before);
  };
  cache.get_or_generate(key_with(1), [] { return make_stream(2); });
  charge();
  cache.get_or_build_checkpoints(key_with(2), 4, [] {
    CheckpointedTrace t;
    t.window = 4;
    t.checkpoints.resize(2);
    t.checkpoints.shrink_to_fit();
    return t;
  });
  charge();
  cache.get_or_advance_draws(draw_key_with(1), [] { return DrawSegment{}; });
  charge();
  cache.get_or_calibrate(calibration_key_with(1),
                         [] { return calibration_of(1.0); });
  charge();
  SpoolKey skey;
  skey.path = "trace.swf";
  skey.window = 4;
  cache.get_or_build_spool(skey, [] {
    WindowSpool spool(4);
    for (const JobSpec& spec : make_stream(6)) spool.append(spec);
    spool.finish();
    return spool;
  });
  charge();
  ASSERT_EQ(cache.entries(), 5u);
  for (const std::size_t b : charged) EXPECT_GT(b, 0u);
  EXPECT_EQ(charged[2], sizeof(DrawSegment));
  EXPECT_EQ(charged[3], sizeof(Calibration));

  // Shrinking the budget one entry's worth at a time evicts exactly one
  // entry per step, least recently used first, whatever its kind.
  std::size_t remaining = cache.resident_bytes();
  for (std::size_t i = 0; i < charged.size(); ++i) {
    remaining -= charged[i];
    cache.set_byte_budget(remaining == 0 ? 1 : remaining);
    EXPECT_EQ(cache.entries(), charged.size() - i - 1) << "step " << i;
    EXPECT_EQ(cache.resident_bytes(), remaining) << "step " << i;
  }
  // The calibration really went: looking it up again recalibrates.
  cache.set_byte_budget(0);
  int calibrations = 0;
  cache.get_or_calibrate(calibration_key_with(1), [&calibrations] {
    ++calibrations;
    return calibration_of(1.0);
  });
  EXPECT_EQ(calibrations, 1);
}

}  // namespace
}  // namespace rrsim::workload
