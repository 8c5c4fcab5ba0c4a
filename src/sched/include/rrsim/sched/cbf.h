// Conservative Backfilling (Mu'alem & Feitelson 2001): every job receives
// a reservation when it is submitted — the earliest slot in the
// availability profile that delays no earlier reservation. Jobs may leap-
// frog in start order but never push anyone's reservation back. The
// reservation made at submit time doubles as the scheduler's queue-wait
// prediction, which Section 5 of the paper studies.
//
// The implementation is incremental: a cancel, decline or early
// completion re-reserves only the queue suffix whose slots can actually
// move, instead of rebuilding the whole profile from scratch. The freed
// footprint and the suffix's reservations go back into the profile in one
// merge (Profile::release_all), and each suffix job is then re-reserved by
// one scan that finds and subtracts its slot (Profile::reserve_earliest).
// Redundant-request workloads are cancel-heavy by construction (degree N
// costs up to N-1 cancels per grid job), and this re-reservation loop is
// where CBF spends its time.
#pragma once

#include <cstdint>
#include <queue>
#include <vector>

#include "rrsim/sched/profile.h"
#include "rrsim/sched/scheduler.h"
#include "rrsim/util/flat_map.h"

namespace rrsim::sched {

/// Conservative-backfilling batch scheduler.
class CbfScheduler final : public ClusterScheduler {
 public:
  /// When a job finishes before its requested time, the scheduler
  /// releases the unused tail of its footprint and pulls every
  /// reservation as early as possible (the "compression" step of the
  /// published algorithm).
  CbfScheduler(des::Simulation& sim, int total_nodes)
      : ClusterScheduler(sim, total_nodes),
        profile_(total_nodes),
        rebuild_scratch_(total_nodes) {}

  std::string name() const override { return "cbf"; }
  std::size_t queue_length() const override { return queue_.size(); }

  /// Current (possibly compressed) reservation for a pending job, or
  /// nullopt if the job is not pending. The *submit-time* value is
  /// available via predicted_start_at_submit(). O(1).
  std::optional<Time> current_reservation(JobId id) const;

  /// Enables the incremental-vs-rebuild oracle: after every profile
  /// mutation, the incremental state (profile + reservations) is checked
  /// against a from-scratch rebuild. A mismatch adopts the rebuild result
  /// (so behaviour stays correct) and increments self_check_fallbacks().
  /// Off by default — this is the debug/test invariant check, O(Q) per
  /// operation.
  void set_self_check(bool on) { self_check_ = on; }

  /// Number of self-check mismatches that forced a rebuild fallback.
  /// Tests assert this stays 0; anything else means the incremental
  /// update diverged from the published rebuild semantics.
  std::uint64_t self_check_fallbacks() const noexcept {
    return self_check_fallbacks_;
  }

  /// Number of from-scratch profile rebuilds performed (the fallback
  /// path). With compression enabled it runs when incremental_base_ok()
  /// fails: a running footprint's stored end differs from its requested
  /// end (left by an earlier rebuild's re-snap), or a rebuild's
  /// floating-point snap would move it. That is not rare: a rebuild
  /// re-snaps footprints, which makes the next check fail too, and on the
  /// Table 4 protocol about a third of compress decisions end in a
  /// rebuild (compare compressions()).
  std::uint64_t rebuilds() const noexcept { return rebuilds_; }

  /// Number of incremental suffix compressions performed; with rebuilds()
  /// it splits the compress decisions between the two paths.
  std::uint64_t compressions() const noexcept { return compressions_; }

  std::size_t live_state_bytes() const noexcept override {
    return ClusterScheduler::live_state_bytes() +
           queue_.capacity() * sizeof(Entry) + pos_.memory_bytes() +
           running_end_.memory_bytes() + heap_.size() * sizeof(HeapEntry);
  }

  void reset() override {
    ClusterScheduler::reset();
    queue_.clear();
    profile_.reset();
    pos_.clear();
    running_end_.clear();
    heap_ = {};  // priority_queue has no clear(); small, rebuilt on demand
    next_seq_ = 0;
    wakeup_ = {};  // the underlying event died with the Simulation reset
    self_check_fallbacks_ = 0;
    rebuilds_ = 0;
    compressions_ = 0;
  }

#if RRSIM_VALIDATE_ENABLED
  /// Base sweep plus the CBF index invariants (validate_index()).
  void debug_validate() const override;

  /// Corruption hook for the oracle death tests: points the front job's
  /// pos_ entry at the wrong queue position.
  void debug_corrupt_index() {
    if (!queue_.empty()) pos_[queue_.front().job.id] = queue_.size();
  }
#endif

 protected:
  void handle_submit(Job job) override;
  Job handle_cancel(JobId id) override;
  void handle_completion(const Job& job) override;
  std::vector<const Job*> pending_in_order() const override;

 private:
  struct Entry {
    Job job;
    Time reserved_start = 0.0;
    std::uint64_t seq = 0;  ///< submission order, strictly increasing
  };

  /// Lazily-invalidated wake-up/dispatch index: one entry per reservation
  /// assignment. An entry is current iff the job is still queued with the
  /// same seq and reserved_start (reservations only move earlier, so a
  /// superseded entry never shadows the live one at the heap top).
  struct HeapEntry {
    Time time;
    std::uint64_t seq;
    JobId id;
  };
  struct HeapLater {
    bool operator()(const HeapEntry& a, const HeapEntry& b) const noexcept {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  /// True if `e` still describes a queued reservation.
  bool entry_current(const HeapEntry& e) const;

  /// Removes queue position `k`, keeping the id->position index in step.
  void erase_entry(std::size_t k);

  /// Queues reservation [r, r+req) for the next compress_from() to
  /// release, clipped to the future (the part before `now` may already
  /// have been pruned).
  void stage_release(Time r, Time req, int nodes);

  /// True if an incremental compression would reproduce a from-scratch
  /// rebuild bit-exactly. A rebuild re-reserves every running footprint
  /// as [now, now + (end - now)); the incremental profile keeps the
  /// breakpoint the footprint was created with. Those agree only when
  /// `now + (end - now) == end` holds in double arithmetic for every
  /// running job (it usually does, but it is not an FP identity) and the
  /// stored breakpoint is still the job's true requested end. O(running).
  bool incremental_base_ok() const;

  /// Compression after capacity was freed: releases the staged freed_
  /// intervals and every reservation at queue position >= from_pos in one
  /// Profile::release_all, then greedily re-reserves the suffix in FCFS
  /// order. Positions before from_pos cannot move — a job's reservation
  /// depends only on the running set and *earlier* queue positions — so
  /// this computes exactly what a from-scratch rebuild would, touching
  /// only the suffix. Callers must have checked incremental_base_ok().
  void compress_from(std::size_t from_pos);

  /// From-scratch fallback: resets the profile (in place) from the
  /// running set and re-reserves every queued job in FCFS order;
  /// reservations can only move earlier. Used when incremental_base_ok()
  /// fails and by the self-check fallback.
  void rebuild_profile();

  /// Starts every queued job whose reservation time has arrived, then
  /// schedules a wake-up at the next reservation.
  void dispatch_ready();

  /// Self-check oracle body: compares incremental state against a
  /// from-scratch rebuild into rebuild_scratch_.
  void verify_against_rebuild();

#if RRSIM_VALIDATE_ENABLED
  /// queue_/pos_ bijection, FCFS seq order, running_end_ ⊆ running set.
  /// O(queue) — runs after each handler (the handlers themselves are
  /// already O(queue) on their mutation paths).
  void validate_index() const;
#endif

  std::vector<Entry> queue_;  // FCFS order
  Profile profile_;
  util::FlatHashMap<JobId, std::size_t> pos_;  // id -> queue position
  /// Where each running job's footprint actually ends *in the profile*:
  /// its reservation end at start time, possibly re-snapped by a later
  /// rebuild. Tail releases on early completion must use this value, not
  /// a recomputed end, to invert the stored reservation bit-exactly.
  util::FlatHashMap<JobId, Time> running_end_;
  std::priority_queue<HeapEntry, std::vector<HeapEntry>, HeapLater> heap_;
  std::uint64_t next_seq_ = 0;
  des::Simulation::EventHandle wakeup_;

  /// Intervals staged for the next compress_from(); empty in between.
  std::vector<Profile::Interval> freed_;

  bool self_check_ = false;
  std::uint64_t self_check_fallbacks_ = 0;
  std::uint64_t rebuilds_ = 0;
  std::uint64_t compressions_ = 0;
  Profile rebuild_scratch_;
};

}  // namespace rrsim::sched
