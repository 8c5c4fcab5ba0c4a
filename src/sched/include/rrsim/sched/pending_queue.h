// The FCFS pending queue shared by the FCFS and EASY schedulers.
//
// Redundant-request workloads cancel most replicas moments after
// submitting them, usually from the middle of a deep queue. A deque paid a
// linear id search plus a mid-queue erase per cancel; this queue makes
// every removal O(1):
//
//  * Append-only slots keep FCFS order. Removing a job leaves a tombstone
//    in its slot; an id -> slot index finds it without a search.
//  * Storage is split in two parallel arrays: a 16-byte scan key
//    {requested_time, nodes} per slot, which is all EASY's backfill scan
//    reads, and the full Job payload, read only when a job leaves. A
//    tombstone's key has nodes == kTombstone (INT_MAX), so a "fits in the
//    free nodes" test rejects it without a separate liveness check.
//  * A head index points at the first live slot. Compaction squeezes the
//    tombstones out once they outnumber the live jobs (the dead/live
//    ratio is the only trigger), and only when the owner asks for it
//    between passes: slot numbers stay stable during a scan.
//  * Every 32-slot block keeps a lower bound on its live keys: the
//    minimum requested_time and the minimum nodes. push_back lowers it in
//    O(1); take only flags it stale when the removed key may have been a
//    minimum, since a bound that is too low is still a bound; refresh()
//    recomputes one block on demand; compaction rebuilds them all. A
//    backfill test that is monotone in both key fields rejects a whole
//    block when it rejects the block's bound.
#pragma once

#include <algorithm>
#include <climits>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "rrsim/sched/job.h"
#include "rrsim/util/flat_map.h"
#include "rrsim/util/validate.h"

namespace rrsim::sched {

/// Tombstoned FCFS queue of pending jobs with O(1) removal by id.
class PendingQueue {
 public:
  /// What a backfill scan reads of one slot.
  struct Key {
    Time requested_time = 0.0;
    int nodes = 0;  ///< kTombstone once the slot's job has left
  };
  static constexpr int kTombstone = INT_MAX;
  /// Slots per bounded block; slot `s` lies in block `s / kBlock`.
  static constexpr std::size_t kBlock = 32;
  /// The bound of a block with no live key: rejected by any fit test.
  static constexpr Key kEmptyBound{std::numeric_limits<Time>::infinity(),
                                   kTombstone};

  std::size_t size() const noexcept { return live_; }
  bool empty() const noexcept { return live_ == 0; }

  /// Slot of the first live job (one past the last slot when empty), and
  /// one past the last slot. Live slots lie in [head(), end()).
  std::size_t head() const noexcept { return head_; }
  std::size_t end() const noexcept { return keys_.size(); }

  const Key& key(std::size_t slot) const noexcept { return keys_[slot]; }
  const Job& front() const noexcept { return jobs_[head_]; }

  /// Slot of pending job `id`, which must be queued.
  std::size_t slot_of(JobId id) const { return slot_of_.at(id); }

  /// Lower bound on the live keys of block `b`: no live slot in it has
  /// fewer nodes or a shorter requested_time. Exact unless stale(b).
  const Key& bound(std::size_t b) const noexcept { return bounds_[b]; }
  bool stale(std::size_t b) const noexcept { return stale_[b] != 0; }

  /// Recomputes block `b`'s bound as the exact minimum over its live
  /// keys (kEmptyBound when it has none) and returns it.
  const Key& refresh(std::size_t b) noexcept {
    stale_[b] = 0;
    return bounds_[b] = live_min(b);
  }

  /// Appends `job` at the tail; returns its slot.
  std::size_t push_back(Job job) {
    const std::size_t slot = keys_.size();
    slot_of_.try_emplace(job.id, static_cast<std::uint32_t>(slot));
    const Key key{job.requested_time, job.nodes};
    keys_.push_back(key);
    jobs_.push_back(std::move(job));
    ++live_;
    if (slot % kBlock == 0) {
      bounds_.push_back(key);
      stale_.push_back(0);
    } else {
      Key& bound = bounds_.back();
      bound.requested_time = std::min(bound.requested_time, key.requested_time);
      bound.nodes = std::min(bound.nodes, key.nodes);
    }
    return slot;
  }

  /// Removes the live job in `slot` and returns it. Leaves a tombstone;
  /// no other slot moves.
  Job take(std::size_t slot) {
    const Key& bound = bounds_[slot / kBlock];
    stale_[slot / kBlock] |=
        static_cast<std::uint8_t>(keys_[slot].nodes == bound.nodes ||
                                  keys_[slot].requested_time ==
                                      bound.requested_time);
    keys_[slot].nodes = kTombstone;
    slot_of_.erase(jobs_[slot].id);
    --live_;
    if (slot == head_) {
      do {
        ++head_;
      } while (head_ < keys_.size() && keys_[head_].nodes == kTombstone);
    }
    return std::move(jobs_[slot]);
  }

  /// Visits every pending job in FCFS order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t i = head_; i < keys_.size(); ++i) {
      if (keys_[i].nodes != kTombstone) fn(jobs_[i]);
    }
  }

  /// Squeezes the tombstones out once they outnumber the live jobs, so
  /// scans touch at most about twice the live slots and the copying is
  /// paid for by the removals that made the tombstones. Renumbers slots:
  /// call it only between scans.
  void compact_if_sparse() {
    if (keys_.size() - live_ > live_) compact();
  }

  /// Drops every job but keeps the storage.
  void clear() noexcept {
    keys_.clear();
    jobs_.clear();
    bounds_.clear();
    stale_.clear();
    slot_of_.clear();
    head_ = 0;
    live_ = 0;
  }

  /// Bytes of storage held, by capacity (the high-water footprint).
  std::size_t memory_bytes() const noexcept {
    return keys_.capacity() * sizeof(Key) + jobs_.capacity() * sizeof(Job) +
           bounds_.capacity() * sizeof(Key) + stale_.capacity() +
           slot_of_.memory_bytes();
  }

#if RRSIM_VALIDATE_ENABLED
  /// Keys, payloads and the id -> slot index describe one set of jobs;
  /// the live count is right and the head is the first live slot. Every
  /// block bound is at most each live key of its block, and equals their
  /// minimum unless flagged stale.
  void validate() const {
    RRSIM_CHECK(keys_.size() == jobs_.size(),
                "pending queue: key and payload arrays differ in length");
    RRSIM_CHECK(head_ <= keys_.size(), "pending queue: head past the end");
    std::size_t live = 0;
    for (std::size_t i = 0; i < keys_.size(); ++i) {
      const std::uint32_t* slot = slot_of_.find(jobs_[i].id);
      if (keys_[i].nodes == kTombstone) {
        RRSIM_CHECK(slot == nullptr || *slot != i,
                    "pending queue: index points at a tombstone");
        continue;
      }
      RRSIM_CHECK(i >= head_, "pending queue: live slot before the head");
      RRSIM_CHECK(slot != nullptr && *slot == i,
                  "pending queue: id -> slot index disagrees with the slots");
      RRSIM_CHECK(keys_[i].nodes == jobs_[i].nodes &&
                      keys_[i].requested_time == jobs_[i].requested_time,
                  "pending queue: scan key disagrees with its payload");
      ++live;
    }
    RRSIM_CHECK(live == live_, "pending queue: live count is wrong");
    RRSIM_CHECK(slot_of_.size() == live_,
                "pending queue: index holds ids that are not queued");
    RRSIM_CHECK(live_ == 0 ? head_ == keys_.size()
                           : keys_[head_].nodes != kTombstone,
                "pending queue: head is not the first live slot");
    RRSIM_CHECK(bounds_.size() == (keys_.size() + kBlock - 1) / kBlock &&
                    stale_.size() == bounds_.size(),
                "pending queue: one bound per block");
    for (std::size_t b = 0; b < bounds_.size(); ++b) {
      const Key min = live_min(b);
      RRSIM_CHECK(bounds_[b].nodes <= min.nodes &&
                      bounds_[b].requested_time <= min.requested_time,
                  "pending queue: block bound exceeds a live key");
      RRSIM_CHECK(stale_[b] != 0 || (bounds_[b].nodes == min.nodes &&
                                     bounds_[b].requested_time ==
                                         min.requested_time),
                  "pending queue: fresh block bound is not the minimum");
    }
  }
#endif

 private:
  void compact() {
    std::size_t out = 0;
    for (std::size_t in = head_; in < keys_.size(); ++in) {
      if (keys_[in].nodes == kTombstone) continue;
      if (out != in) {
        keys_[out] = keys_[in];
        jobs_[out] = std::move(jobs_[in]);
        *slot_of_.find(jobs_[out].id) = static_cast<std::uint32_t>(out);
      }
      ++out;
    }
    keys_.resize(out);
    jobs_.resize(out);
    head_ = 0;
    bounds_.resize((out + kBlock - 1) / kBlock);
    stale_.resize(bounds_.size());
    for (std::size_t b = 0; b < bounds_.size(); ++b) refresh(b);
  }

  /// The exact minimum over block `b`'s live keys; kEmptyBound if none.
  Key live_min(std::size_t b) const noexcept {
    Key min = kEmptyBound;
    for (std::size_t i = b * kBlock;
         i < std::min((b + 1) * kBlock, keys_.size()); ++i) {
      const bool live = keys_[i].nodes != kTombstone;
      min.nodes = std::min(min.nodes, keys_[i].nodes);
      min.requested_time =
          std::min(min.requested_time, live ? keys_[i].requested_time
                                            : kEmptyBound.requested_time);
    }
    return min;
  }

  std::vector<Key> keys_;
  std::vector<Job> jobs_;  ///< payload, parallel to keys_
  std::vector<Key> bounds_;           ///< one lower bound per block
  std::vector<std::uint8_t> stale_;  ///< 1 once a bound may be too low
  util::FlatHashMap<JobId, std::uint32_t> slot_of_;
  std::size_t head_ = 0;
  std::size_t live_ = 0;
};

}  // namespace rrsim::sched
