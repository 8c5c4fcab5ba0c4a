// EASY backfilling (Lifka 1995, as formalised by Mu'alem & Feitelson 2001):
// FCFS with one reservation. The queue head gets a "shadow" reservation at
// the earliest time enough nodes will be free (based on running jobs'
// *requested* end times); any later job may jump ahead if starting it now
// cannot delay that reservation. The paper calls EASY "representative of
// algorithms running in deployed systems today".
//
// Pending jobs live in a PendingQueue (O(1) cancel, a compact scan key).
// Every submit, cancel and completion runs one counted scheduling pass,
// but a pass that provably starts nothing skips the backfill rescan: after
// a full pass the queue is marked *clean* when a rescan in that state
// would start nothing and compute the same shadow. Until a completion or
// a head cancel dirties it, a non-head cancel is a no-op pass and a submit
// only tests the new tail job. A full pass's backfill scan skips every
// 32-slot block whose lower bound (PendingQueue::bound) fails the backfill
// test. Starts, counters and shadows are exactly those of the full
// rescan on every event.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "rrsim/sched/pending_queue.h"
#include "rrsim/sched/scheduler.h"

namespace rrsim::sched {

/// EASY-backfilling batch scheduler.
class EasyScheduler final : public ClusterScheduler {
 public:
  EasyScheduler(des::Simulation& sim, int total_nodes)
      : ClusterScheduler(sim, total_nodes) {}

  std::string name() const override { return "easy"; }
  std::size_t queue_length() const override { return queue_.size(); }

  void reset() override {
    ClusterScheduler::reset();
    queue_.clear();
    clean_ = false;
    running_ends_.clear();
  }

  std::size_t live_state_bytes() const noexcept override {
    return ClusterScheduler::live_state_bytes() + queue_.memory_bytes() +
           running_ends_.capacity() * sizeof(running_ends_[0]);
  }

  /// Shadow reservation currently protecting the queue head: the time at
  /// which the head is guaranteed to start, or nullopt if the queue is
  /// empty. Exposed for tests of the no-head-delay invariant.
  std::optional<Time> head_shadow_time() const;

#if RRSIM_VALIDATE_ENABLED
  void debug_validate() const override {
    ClusterScheduler::debug_validate();
    validate_ends();
    validate_queue();
  }
#endif

 protected:
  void handle_submit(Job job) override;
  Job handle_cancel(JobId id) override;
  void handle_completion(const Job& job) override;
  std::vector<const Job*> pending_in_order() const override;

 private:
  struct Shadow {
    Time time = 0.0;  ///< when the head can start, at the latest
    int extra = 0;    ///< nodes free at that moment beyond the head's need

    bool operator==(const Shadow& o) const noexcept {
      return time == o.time && extra == o.extra;
    }
  };

  /// Computes the head's shadow by walking running_ends_ in end order.
  /// Requires a non-empty queue and that the head does not currently fit.
  Shadow compute_shadow() const;

  /// One full scheduling pass: start from the head while possible, then
  /// backfill. Re-runs itself after any decline (queue shape changed).
  /// Leaves the queue clean when a rescan would start nothing.
  void schedule_pass();

  /// The pass a submit runs on a clean queue: the head and the shadow are
  /// unchanged and every older job would be rejected again, so only the
  /// new tail job in `slot` is tested.
  void backfill_tail(std::size_t slot);

  /// Runs after every event's pass: compacts the queue (slot numbers may
  /// change only here, never during a scan) and, in validate builds,
  /// checks it.
  void settle_queue();

  /// The backfill test of one slot against `shadow` at `now`; a tombstone
  /// never passes (its node count exceeds any free count).
  bool backfills(const PendingQueue::Key& key, Time now,
                 const Shadow& shadow) const noexcept {
    return key.nodes <= free_nodes() &&
           (now + key.requested_time <= shadow.time ||
            key.nodes <= shadow.extra);
  }

  /// Whether block `block` may hold a slot that backfills: false when
  /// its lower bound fails the test, refreshing a stale bound first.
  /// Both halves of the test are monotone in the key, so a failing bound
  /// proves that every live slot of the block fails too.
  bool block_may_backfill(std::size_t block, Time now, const Shadow& shadow);

  /// backfills() for the slots [lo, hi) of one block, evaluated without
  /// branches: bit `slot % PendingQueue::kBlock` is set for each slot
  /// that passes.
  std::uint32_t backfill_mask(std::size_t lo, std::size_t hi, Time now,
                              const Shadow& shadow) const;

  /// Starts `job` via try_start and, on success, records its requested
  /// end in running_ends_. `now + job.requested_time` must be computed
  /// before the move, hence the helper.
  bool start_and_track(Job job);

#if RRSIM_VALIDATE_ENABLED
  /// running_ends_ must mirror the running set (one entry per running
  /// job) and stay sorted — compute_shadow's linear scan depends on it.
  void validate_ends() const {
    RRSIM_CHECK(running_ends_.size() == running_count(),
                "easy: running_ends_ size disagrees with the running set");
    for (std::size_t i = 1; i < running_ends_.size(); ++i) {
      RRSIM_CHECK(running_ends_[i - 1] <= running_ends_[i],
                  "easy: running_ends_ lost its sort order");
    }
  }

  /// The pending queue's own invariants, plus the soundness of skipping:
  /// while the queue is clean, a full rescan now would start nothing and
  /// would compute the cached shadow.
  void validate_queue() const;
#endif

  PendingQueue queue_;
  /// Set after a pass when a full rescan in the current state would start
  /// nothing and compute `shadow_`. Skipping is exact because during a
  /// scan free nodes and shadow.extra only shrink, and
  /// `now + requested_time <= shadow.time` can only turn false as `now`
  /// grows, so a job rejected once stays rejected.
  bool clean_ = false;
  Shadow shadow_;  ///< the head's shadow while clean_
  /// Running jobs as (requested_end, nodes), kept sorted across
  /// start/finish so compute_shadow never re-sorts the running set. The
  /// pair ordering matches what sorting running_requested_ends() yielded.
  /// A sorted vector rather than a multiset: the population is bounded by
  /// the node count, inserts/erases are memmoves of a contiguous 16-byte
  /// element, and compute_shadow becomes a linear scan of one array.
  /// Duplicate (end, nodes) pairs are value-identical, so which instance
  /// an erase removes cannot affect results.
  std::vector<std::pair<Time, int>> running_ends_;
};

}  // namespace rrsim::sched
