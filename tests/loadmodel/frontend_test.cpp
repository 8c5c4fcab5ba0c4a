#include "rrsim/loadmodel/frontend.h"

#include <gtest/gtest.h>

namespace rrsim::loadmodel {
namespace {

TEST(FrontEnd, RejectsBadConstruction) {
  EXPECT_THROW(FrontEnd(0), std::invalid_argument);
}

TEST(FrontEnd, SubmitGrowsQueue) {
  FrontEnd fe(16);
  EXPECT_EQ(fe.queue_size(), 0u);
  fe.submit(4, 3600.0);
  fe.submit(8, 60.0);
  EXPECT_EQ(fe.queue_size(), 2u);
}

TEST(FrontEnd, SubmitValidation) {
  FrontEnd fe(16);
  EXPECT_THROW(fe.submit(0, 60.0), std::invalid_argument);
  EXPECT_THROW(fe.submit(17, 60.0), std::invalid_argument);
  EXPECT_THROW(fe.submit(1, 0.0), std::invalid_argument);
}

TEST(FrontEnd, CancelHeadShrinksQueue) {
  FrontEnd fe(16);
  fe.submit(1, 60.0);
  fe.submit(2, 60.0);
  EXPECT_TRUE(fe.cancel_head());
  EXPECT_EQ(fe.queue_size(), 1u);
  EXPECT_TRUE(fe.cancel_head());
  EXPECT_FALSE(fe.cancel_head());  // empty
}

TEST(FrontEnd, IdsAreUnique) {
  FrontEnd fe(16);
  const auto a = fe.submit(1, 60.0);
  const auto b = fe.submit(1, 60.0);
  EXPECT_NE(a, b);
}

TEST(FrontEnd, PrefillFillsWithoutSchedulingWork) {
  util::Rng rng(1);
  FrontEnd fe(16);
  fe.prefill(1000, rng);
  EXPECT_EQ(fe.queue_size(), 1000u);
  EXPECT_EQ(fe.work_performed(), 0u);
}

TEST(FrontEnd, PerOperationWorkGrowsWithQueueDepth) {
  util::Rng rng(2);
  FrontEnd shallow(16);
  shallow.prefill(10, rng);
  FrontEnd deep(16);
  deep.prefill(10000, rng);
  shallow.submit(1, 60.0);
  deep.submit(1, 60.0);
  // The Maui-style iteration is O(queue): the deep queue pays ~1000x.
  EXPECT_GT(deep.work_performed(), 100 * shallow.work_performed());
}

TEST(MeasureThroughput, ProducesOnePointPerDepth) {
  util::Rng rng(3);
  const auto points = measure_throughput(16, {0, 100, 500}, 50, rng);
  ASSERT_EQ(points.size(), 3u);
  EXPECT_EQ(points[0].queue_size, 0u);
  EXPECT_EQ(points[2].queue_size, 500u);
  for (const auto& p : points) {
    EXPECT_GT(p.pairs_per_sec, 0.0);
    EXPECT_GT(p.work_per_pair, 0.0);
  }
}

TEST(MeasureThroughput, ThroughputDecaysWithQueueDepth) {
  // The Fig 5 shape: ops/sec at an empty queue clearly exceeds ops/sec
  // at a 20,000-deep queue (paper: ~2.2x), but not by orders of
  // magnitude (the fixed per-operation cost dominates shallow queues).
  // Throughput is the inverse of the work each pair performs; asserting
  // on the work counter keeps the test independent of host load, which a
  // wall-clock ratio is not.
  util::Rng rng(4);
  const auto points = measure_throughput(16, {0, 20000}, 200, rng);
  ASSERT_EQ(points.size(), 2u);
  EXPECT_GT(points[1].work_per_pair, 1.5 * points[0].work_per_pair);
  EXPECT_LT(points[1].work_per_pair, 50.0 * points[0].work_per_pair);
}

TEST(FrontEnd, BaseOpCostIsConfigurable) {
  util::Rng rng(6);
  FrontEnd free_fe(16, 0);
  FrontEnd costly_fe(16, 200000);
  free_fe.submit(1, 60.0);
  costly_fe.submit(1, 60.0);
  // The queue-proportional work counter is identical; only wall time (via
  // the ballast computation) differs.
  EXPECT_EQ(free_fe.work_performed(), costly_fe.work_performed());
  EXPECT_EQ(free_fe.ballast(), 0.0);
  EXPECT_GT(costly_fe.ballast(), 0.0);
}

TEST(MeasureThroughput, RejectsBadPairs) {
  util::Rng rng(5);
  EXPECT_THROW(measure_throughput(16, {0}, 0, rng), std::invalid_argument);
}

}  // namespace
}  // namespace rrsim::loadmodel
