// PendingQueue's per-block lower bounds. Random push/take/compact churn
// over a dozen and more 32-slot blocks, with blocks emptied of every live
// job and a partial last block, checked after every operation against the
// queue's own slots: each bound is at most every live key of its block,
// is exact unless flagged stale, and is exact after a refresh.
#include "rrsim/sched/pending_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "rrsim/util/rng.h"

namespace rrsim::sched {
namespace {

using Key = PendingQueue::Key;
constexpr std::size_t kBlock = PendingQueue::kBlock;

std::size_t blocks(const PendingQueue& q) {
  return (q.end() + kBlock - 1) / kBlock;
}

/// The exact minimum over the live keys of block `b`.
Key live_min(const PendingQueue& q, std::size_t b) {
  Key min = PendingQueue::kEmptyBound;
  for (std::size_t i = b * kBlock; i < std::min((b + 1) * kBlock, q.end());
       ++i) {
    const Key& k = q.key(i);
    if (k.nodes == PendingQueue::kTombstone) continue;
    min.nodes = std::min(min.nodes, k.nodes);
    min.requested_time = std::min(min.requested_time, k.requested_time);
  }
  return min;
}

void expect_bounds_hold(const PendingQueue& q, const std::string& where) {
  for (std::size_t b = 0; b < blocks(q); ++b) {
    const Key min = live_min(q, b);
    const Key& bound = q.bound(b);
    ASSERT_LE(bound.nodes, min.nodes) << where << " block " << b;
    ASSERT_LE(bound.requested_time, min.requested_time)
        << where << " block " << b;
    if (!q.stale(b)) {
      ASSERT_EQ(bound.nodes, min.nodes) << where << " block " << b;
      ASSERT_EQ(bound.requested_time, min.requested_time)
          << where << " block " << b;
    }
  }
}

Job make_job(JobId id, util::Rng& rng) {
  Job j;
  j.id = id;
  j.nodes = static_cast<int>(rng.between(1, 128));
  // Few distinct times, so removals often tie a block's minimum.
  j.requested_time = 60.0 * static_cast<double>(rng.between(1, 12));
  j.actual_time = j.requested_time;
  return j;
}

TEST(PendingQueueBounds, HoldUnderRandomChurn) {
  for (const std::uint64_t seed : {1u, 7u, 2026u}) {
    const std::string where = "seed=" + std::to_string(seed);
    util::Rng rng(seed);
    PendingQueue q;
    std::vector<JobId> live;  // FCFS order of the queued ids
    JobId next = 1;
    std::size_t max_blocks = 0;
    int empty_blocks_seen = 0;
    int partial_tails_seen = 0;
    int compactions = 0;
    for (int op = 0; op < 6000; ++op) {
      const double r = rng.uniform(0.0, 1.0);
      if (live.size() < 400 || r < 0.45) {
        const Job job = make_job(next++, rng);
        q.push_back(job);
        live.push_back(job.id);
      } else if (r < 0.9) {
        const auto at = static_cast<std::size_t>(
            rng.below(static_cast<std::uint64_t>(live.size())));
        const JobId id = live[at];
        const Job job = q.take(q.slot_of(id));
        ASSERT_EQ(job.id, id) << where;
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(at));
      } else if (r < 0.93) {
        // Empty one whole block, head included or not.
        const std::size_t b = static_cast<std::size_t>(
            rng.below(static_cast<std::uint64_t>(blocks(q))));
        for (std::size_t i = b * kBlock;
             i < std::min((b + 1) * kBlock, q.end()); ++i) {
          if (q.key(i).nodes == PendingQueue::kTombstone) continue;
          const JobId id = q.take(i).id;
          live.erase(std::find(live.begin(), live.end(), id));
        }
      } else {
        const std::size_t before = q.end();
        q.compact_if_sparse();
        if (q.end() != before) ++compactions;
      }
      ASSERT_EQ(q.size(), live.size()) << where;
      expect_bounds_hold(q, where + " op " + std::to_string(op));
      max_blocks = std::max(max_blocks, blocks(q));
      for (std::size_t b = 0; b < blocks(q); ++b) {
        if (live_min(q, b).nodes == PendingQueue::kTombstone) {
          ++empty_blocks_seen;
        }
      }
      if (q.end() % kBlock != 0) ++partial_tails_seen;

      if (op % 50 == 0) {
        // A refresh makes every bound exact, empty blocks included.
        for (std::size_t b = 0; b < blocks(q); ++b) {
          const Key min = live_min(q, b);
          const Key& fresh = q.refresh(b);
          ASSERT_EQ(fresh.nodes, min.nodes) << where << " block " << b;
          ASSERT_EQ(fresh.requested_time, min.requested_time)
              << where << " block " << b;
          ASSERT_FALSE(q.stale(b)) << where << " block " << b;
        }
      }
    }
    // FCFS order survives every compaction.
    std::vector<JobId> order;
    q.for_each([&order](const Job& j) { order.push_back(j.id); });
    EXPECT_EQ(order, live) << where;
    EXPECT_GE(max_blocks, 10u) << where;
    EXPECT_GT(empty_blocks_seen, 0) << where;
    EXPECT_GT(partial_tails_seen, 0) << where;
    EXPECT_GT(compactions, 0) << where;
  }
}

TEST(PendingQueueBounds, TakeFlagsOnlyBoundsItMayHaveRaised) {
  PendingQueue q;
  const auto push = [&q](JobId id, int nodes, Time requested) {
    Job j;
    j.id = id;
    j.nodes = nodes;
    j.requested_time = requested;
    j.actual_time = requested;
    return q.push_back(j);
  };
  push(1, 8, 100.0);
  push(2, 2, 300.0);
  push(3, 4, 50.0);
  push(4, 6, 200.0);
  EXPECT_EQ(q.bound(0).nodes, 2);
  EXPECT_EQ(q.bound(0).requested_time, 50.0);
  // Job 4 holds neither minimum: the bound stays exact.
  q.take(q.slot_of(4));
  EXPECT_FALSE(q.stale(0));
  // Job 2 holds the node minimum: the bound is kept but flagged.
  q.take(q.slot_of(2));
  EXPECT_TRUE(q.stale(0));
  EXPECT_EQ(q.bound(0).nodes, 2);
  EXPECT_EQ(q.refresh(0).nodes, 4);
  EXPECT_EQ(q.bound(0).requested_time, 50.0);
  // A push only lowers a bound, stale or not.
  q.take(q.slot_of(3));
  push(5, 16, 10.0);
  EXPECT_TRUE(q.stale(0));
  EXPECT_EQ(q.bound(0).requested_time, 10.0);
  EXPECT_EQ(q.refresh(0).nodes, 8);
}

}  // namespace
}  // namespace rrsim::sched
