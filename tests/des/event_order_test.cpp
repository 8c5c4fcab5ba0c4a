// Randomized churn test pinning the event queue's dispatch order to the
// kernel's documented contract: events fire in (time, priority,
// insertion-sequence) order, cancellations never fire, and this holds
// across heap compactions, mid-run insertions near and far from now(),
// and heap re-use after reset.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <tuple>
#include <vector>

#include "rrsim/des/simulation.h"

namespace {

using rrsim::des::Priority;
using rrsim::des::Simulation;
using rrsim::des::Time;

struct Record {
  Time time = 0.0;
  int priority = 0;
  int id = 0;  // global schedule order == kernel insertion sequence
  bool cancelled = false;
};

struct Churn {
  std::vector<Record> records;
  std::vector<std::pair<Time, int>> fired;  // (time, id) in dispatch order
};

// Schedules `kBatches` waves of events with clustered + quantized times
// (quantization forces exact timestamp ties so priority/seq ordering is
// exercised), cancels a random subset between waves, and advances the
// clock partway so later waves interleave with earlier ones.
Churn run_churn(Simulation& sim, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<Time> offset(0.0, 5000.0);
  Churn churn;
  std::vector<Simulation::EventHandle> handles;
  int next_id = 0;
  constexpr int kBatches = 12;
  constexpr int kPerBatch = 300;
  for (int batch = 0; batch < kBatches; ++batch) {
    const Time base = sim.now();
    for (int i = 0; i < kPerBatch; ++i) {
      Time t = base + offset(rng);
      if (rng() % 3u == 0) t = base + static_cast<Time>(rng() % 50u);  // ties
      const int prio = static_cast<int>(rng() % 4u);
      const int id = next_id++;
      churn.records.push_back(Record{t, prio, id, false});
      handles.push_back(sim.schedule_at(
          t,
          [&churn, t, id] { churn.fired.emplace_back(t, id); },
          static_cast<Priority>(prio)));
    }
    // Cancel ~20% of everything still pending (including earlier waves).
    for (int i = 0; i < kPerBatch / 5; ++i) {
      const std::size_t k = rng() % handles.size();
      if (handles[k].cancel()) {
        churn.records[k].cancelled = true;
      }
    }
    sim.run_until(sim.now() + 1500.0);
  }
  sim.run();
  return churn;
}

void expect_contract_order(const Churn& churn) {
  std::vector<Record> expected;
  for (const Record& r : churn.records) {
    if (!r.cancelled) expected.push_back(r);
  }
  std::sort(expected.begin(), expected.end(),
            [](const Record& a, const Record& b) {
              return std::tie(a.time, a.priority, a.id) <
                     std::tie(b.time, b.priority, b.id);
            });
  ASSERT_EQ(churn.fired.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(churn.fired[i].second, expected[i].id) << "at dispatch " << i;
    ASSERT_EQ(churn.fired[i].first, expected[i].time) << "at dispatch " << i;
  }
}

TEST(EventOrder, RandomChurnDispatchesInContractOrder) {
  Simulation sim;
  for (std::uint32_t seed : {1u, 77u, 4242u}) {
    expect_contract_order(run_churn(sim, seed));
    EXPECT_EQ(sim.pending_events(), 0u);
    sim.reset();  // next seed reuses the slab and heap storage
  }
}

TEST(EventOrder, IdenticalTimesFarApartKeepInsertionOrder) {
  Simulation sim;
  std::vector<int> fired;
  // 500 events at each of two far-apart timestamps, every event at a
  // timestamp tied on time and priority, so dispatch order must fall
  // back to insertion sequence.
  for (int rep = 0; rep < 2; ++rep) {
    const Time t = 1000.0 + 1e6 * rep;
    for (int i = 0; i < 500; ++i) {
      const int id = rep * 500 + i;
      sim.schedule_at(t, [&fired, id] { fired.push_back(id); });
    }
  }
  sim.run();
  ASSERT_EQ(fired.size(), 1000u);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(fired[static_cast<std::size_t>(i)], i);
}

TEST(EventOrder, CallbackInsertionsAtAndNearNowDispatchInPass) {
  Simulation sim;
  std::vector<int> fired;
  // Seed a far-future population, then have an event chain insert at the
  // current time and just after it — both run before the far population.
  for (int i = 0; i < 200; ++i) {
    sim.schedule_at(5e5 + i * 10.0, [&fired] { fired.push_back(-1); });
  }
  sim.schedule_at(100.0, [&sim, &fired] {
    fired.push_back(1);
    sim.schedule_at(sim.now(), [&sim, &fired] {
      fired.push_back(2);
      sim.schedule_in(0.5, [&fired] { fired.push_back(3); });
    });
  });
  sim.run_until(200.0);
  ASSERT_EQ(fired.size(), 3u);
  EXPECT_EQ(fired[0], 1);
  EXPECT_EQ(fired[1], 2);
  EXPECT_EQ(fired[2], 3);
  sim.run();
  EXPECT_EQ(fired.size(), 203u);
}

}  // namespace
