#include "rrsim/sched/easy.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace rrsim::sched {

void EasyScheduler::handle_submit(Job job) {
  const std::size_t slot = queue_.push_back(std::move(job));
  if (clean_) {
    backfill_tail(slot);
  } else {
    schedule_pass();
  }
  settle_queue();
}

Job EasyScheduler::handle_cancel(JobId id) {
  const std::size_t slot = queue_.slot_of(id);
  if (slot == queue_.head()) clean_ = false;  // the shadow belonged to it
  Job job = queue_.take(slot);
  if (clean_) {
    count_pass();  // every other job would be rejected again
  } else {
    schedule_pass();  // cancellation opens backfill opportunities
  }
  settle_queue();
  return job;
}

void EasyScheduler::handle_completion(const Job& job) {
  const std::pair<Time, int> key{job.start_time + job.requested_time,
                                 job.nodes};
  const auto it =
      std::lower_bound(running_ends_.begin(), running_ends_.end(), key);
  if (it == running_ends_.end() || *it != key) {
    throw std::logic_error("easy: finished job missing from running_ends_");
  }
  running_ends_.erase(it);  // erase one instance, not all duplicates
#if RRSIM_VALIDATE_ENABLED
  validate_ends();
#endif
  schedule_pass();
  settle_queue();
}

void EasyScheduler::settle_queue() {
  queue_.compact_if_sparse();
#if RRSIM_VALIDATE_ENABLED
  validate_queue();
#endif
}

std::vector<const Job*> EasyScheduler::pending_in_order() const {
  std::vector<const Job*> out;
  out.reserve(queue_.size());
  queue_.for_each([&out](const Job& j) { out.push_back(&j); });
  return out;
}

EasyScheduler::Shadow EasyScheduler::compute_shadow() const {
  const Job& head = queue_.front();
  int avail = free_nodes();
  for (const auto& [end, nodes] : running_ends_) {
    avail += nodes;
    if (avail >= head.nodes) {
      return Shadow{end, avail - head.nodes};
    }
  }
  // Unreachable while the head does not fit: head.nodes <= total_nodes, so
  // draining every running job always yields enough.
  throw std::logic_error("easy: shadow not found for non-fitting head");
}

std::optional<Time> EasyScheduler::head_shadow_time() const {
  if (queue_.empty()) return std::nullopt;
  if (queue_.front().nodes <= free_nodes()) return sim_.now();
  return compute_shadow().time;
}

bool EasyScheduler::start_and_track(Job job) {
  const Time end = sim_.now() + job.requested_time;
  const int nodes = job.nodes;
  if (!try_start(std::move(job))) return false;
  // `end` equals start_time + requested_time: try_start stamps
  // start_time with the same now used above.
  const std::pair<Time, int> key{end, nodes};
  running_ends_.insert(
      std::upper_bound(running_ends_.begin(), running_ends_.end(), key), key);
#if RRSIM_VALIDATE_ENABLED
  validate_ends();
#endif
  return true;
}

void EasyScheduler::schedule_pass() {
  count_pass();
  clean_ = false;
  for (;;) {
    // Phase 1: strict FCFS starts from the head.
    while (!queue_.empty() && queue_.front().nodes <= free_nodes()) {
      start_and_track(queue_.take(queue_.head()));
    }
    if (queue_.empty()) return;

    // Phase 2: backfill behind the (non-fitting) head under the one-
    // reservation rule. Shadow/extra are maintained incrementally: a
    // backfilled job that may outlive the shadow consumes `extra`. The
    // scan goes block by block: a block whose lower bound fails the test
    // holds no slot that passes it, so it is skipped whole; in any other
    // block the passing slots are found branch-free as a bit mask.
    Shadow shadow = compute_shadow();
    const Time now = sim_.now();
    bool started = false;
    bool declined = false;  // a decline makes the shadow bookkeeping stale
    std::uint64_t slots = 0;
    std::uint64_t skipped = 0;
    for (std::size_t lo = queue_.head() + 1;
         lo < queue_.end() && free_nodes() > 0 && !declined;) {
      const std::size_t block = lo / PendingQueue::kBlock;
      const std::size_t hi =
          std::min((block + 1) * PendingQueue::kBlock, queue_.end());
      if (!block_may_backfill(block, now, shadow)) {
        ++skipped;
        lo = hi;
        continue;
      }
      slots += hi - lo;
      for (std::uint32_t mask = backfill_mask(lo, hi, now, shadow); mask != 0;
           mask &= mask - 1) {
        const std::size_t i =
            block * PendingQueue::kBlock +
            static_cast<std::size_t>(std::countr_zero(mask));
        const PendingQueue::Key key = queue_.key(i);
        // A start earlier in this block may have used up the free nodes
        // or the extra this slot passed with.
        if (!backfills(key, now, shadow)) continue;
        const bool ends_before_shadow =
            now + key.requested_time <= shadow.time;
        if (!ends_before_shadow) shadow.extra -= key.nodes;
        started = true;
        if (!start_and_track(queue_.take(i))) {
          // Decline: the start did not happen, so the shadow bookkeeping
          // above may now be stale; restart the whole pass.
          declined = true;
          break;
        }
      }
      lo = hi;
    }
    count_backfill_scan(slots, skipped);
    if (declined) continue;
    // Clean when a rescan would compute this same shadow: then every job
    // it tests sees no more free nodes and no more extra than this scan
    // did. A backfilled job whose requested end ties the shadow time can
    // move compute_shadow's first crossing, so a fresh shadow's extra can
    // differ from the incremental one; then the queue stays dirty.
    clean_ = !started || shadow == compute_shadow();
    shadow_ = shadow;
    return;
  }
}

bool EasyScheduler::block_may_backfill(std::size_t block, Time now,
                                       const Shadow& shadow) {
  return backfills(queue_.bound(block), now, shadow) &&
         (!queue_.stale(block) ||
          backfills(queue_.refresh(block), now, shadow));
}

std::uint32_t EasyScheduler::backfill_mask(std::size_t lo, std::size_t hi,
                                           Time now,
                                           const Shadow& shadow) const {
  // backfills() with its short-circuits turned into bit operations: which
  // slot passes is data-dependent, so branches on it mispredict.
  const int free = free_nodes();
  std::uint32_t mask = 0;
  for (std::size_t i = lo; i < hi; ++i) {
    const PendingQueue::Key& key = queue_.key(i);
    const bool pass = (key.nodes <= free) &
                      ((now + key.requested_time <= shadow.time) |
                       (key.nodes <= shadow.extra));
    mask |= std::uint32_t{pass} << (i % PendingQueue::kBlock);
  }
  return mask;
}

void EasyScheduler::backfill_tail(std::size_t slot) {
  count_pass();
  const Time now = sim_.now();
  const PendingQueue::Key key = queue_.key(slot);
  if (!backfills(key, now, shadow_)) return;
  const bool ends_before_shadow = now + key.requested_time <= shadow_.time;
  // A decline leaves the clean state exactly as it was: the full pass
  // would restart, recompute the same shadow and start nothing.
  if (!start_and_track(queue_.take(slot))) return;
  if (!ends_before_shadow) shadow_.extra -= key.nodes;
  clean_ = shadow_ == compute_shadow();
}

#if RRSIM_VALIDATE_ENABLED
void EasyScheduler::validate_queue() const {
  queue_.validate();
  if (!clean_) return;
  RRSIM_CHECK(!queue_.empty(), "easy: empty queue marked clean");
  RRSIM_CHECK(queue_.front().nodes > free_nodes(),
              "easy: queue marked clean while its head fits");
  RRSIM_CHECK(compute_shadow() == shadow_,
              "easy: cached shadow differs from a fresh one");
  const Time now = sim_.now();
  for (std::size_t i = queue_.head() + 1; i < queue_.end(); ++i) {
    RRSIM_CHECK(!backfills(queue_.key(i), now, shadow_),
                "easy: skipped rescan would have backfilled a job");
  }
}
#endif

}  // namespace rrsim::sched
