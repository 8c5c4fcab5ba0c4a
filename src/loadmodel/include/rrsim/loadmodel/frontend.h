// A batch-scheduler front-end whose submit/cancel throughput can be
// *measured* — rrsim's stand-in for the paper's OpenPBS/Maui experiment
// (Fig 5). The paper saturated a PBS server (whose cluster was fully
// occupied by one long job) with qsub/qdel pairs at different queue
// depths. Here the same protocol runs against an in-process front-end
// that, like Maui, performs a full scheduling iteration on every queue
// event: a priority sweep over all pending jobs plus a backfill
// feasibility scan. Per-operation work therefore grows with queue depth,
// which is the mechanism behind Fig 5's decaying curve; absolute ops/s
// are far higher than a 2006 daemon with disk I/O (see DESIGN.md).
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "rrsim/util/rng.h"

namespace rrsim::loadmodel {

/// One pending request in the front-end's queue.
struct FrontEndJob {
  std::uint64_t id = 0;
  int nodes = 1;
  double requested_time = 3600.0;
  double priority = 0.0;  ///< recomputed every scheduling iteration
};

/// In-process scheduler front-end with a Maui-style per-event scheduling
/// iteration. The managed cluster is fully busy (as in the paper's
/// measurement setup), so no job ever starts — every operation pays the
/// full queue-proportional scheduling cost.
class FrontEnd {
 public:
  /// `cluster_nodes`: size of the (busy) cluster the feasibility checks
  /// run against. `base_op_work` is the fixed per-operation cost in
  /// work units (default equivalent to a ~10,000-entry queue sweep),
  /// standing in for the constant costs a real front-end pays per
  /// qsub/qdel — process spawn, TCP round trip, job-file disk write.
  /// Without it the throughput curve would decay by orders of magnitude
  /// instead of the paper's ~2x between an empty and a 20,000-deep queue.
  /// Throws std::invalid_argument if cluster_nodes < 1.
  explicit FrontEnd(int cluster_nodes, std::uint64_t base_op_work = 20000);

  /// Enqueues a request and runs a scheduling iteration (qsub).
  std::uint64_t submit(int nodes, double requested_time);

  /// Removes the job at the head of the queue and runs a scheduling
  /// iteration (qdel of the head causes maximum churn, as in the paper).
  /// Returns false if the queue is empty.
  bool cancel_head();

  /// Fills the queue to `count` jobs with random small requests, without
  /// running scheduling iterations (fast experiment setup).
  void prefill(std::size_t count, util::Rng& rng);

  std::size_t queue_size() const noexcept { return queue_.size(); }

  /// Total queue-proportional evaluations performed across all scheduling
  /// iterations (excludes the fixed base cost); grows ~ O(ops *
  /// queue_size). Exposed for tests.
  std::uint64_t work_performed() const noexcept { return work_; }

  /// Fixed per-operation cost, in the same work units.
  std::uint64_t base_op_work() const noexcept { return base_op_work_; }

  /// Accumulator of the fixed-cost computation; reading it keeps the
  /// work observable (and un-elidable) to the optimiser.
  double ballast() const noexcept { return ballast_; }

 private:
  /// Maui-style iteration: recompute priorities for every pending job,
  /// pick the best candidate, test feasibility, then scan the queue once
  /// for backfill candidates. No job ever fits (cluster busy).
  void scheduling_iteration();

  int cluster_nodes_;
  int free_nodes_ = 0;  // cluster fully busy, as in the paper's setup
  std::uint64_t base_op_work_;
  std::uint64_t next_id_ = 1;
  std::uint64_t work_ = 0;
  double clock_ = 0.0;   // logical queue age used in priority terms
  double ballast_ = 0.0; // sink for the fixed-cost computation
  std::deque<FrontEndJob> queue_;
};

/// One point of the Fig 5 curve.
struct ThroughputPoint {
  std::size_t queue_size = 0;
  double pairs_per_sec = 0.0;  ///< submit+cancel *pairs* per wall second
  /// Work units (fixed plus queue-proportional) per pair: the
  /// deterministic cost behind pairs_per_sec, independent of host load.
  double work_per_pair = 0.0;
};

/// Measures submit/cancel-pair throughput at each queue depth in
/// `queue_sizes`: fills the front-end to the depth, then times `pairs`
/// submit+cancel-head pairs with a monotonic clock, and counts the work
/// units they performed. One fresh FrontEnd per depth. Throws
/// std::invalid_argument if pairs < 1.
std::vector<ThroughputPoint> measure_throughput(
    int cluster_nodes, const std::vector<std::size_t>& queue_sizes,
    int pairs, util::Rng& rng);

}  // namespace rrsim::loadmodel
