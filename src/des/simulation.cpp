#include "rrsim/des/simulation.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

namespace rrsim::des {

bool Simulation::EventHandle::cancel() noexcept {
  if (sim_ == nullptr || !sim_->is_live(slot_, gen_)) return false;
  // The heap entry stays behind and is skipped when it surfaces (or
  // dropped by the next compaction); the slot itself retires at once.
  sim_->retire(slot_);  // drops the callback's captures promptly
  if (sim_->live_ > 0) --sim_->live_;
  sim_ = nullptr;
  return true;
}

bool Simulation::EventHandle::pending() const noexcept {
  return sim_ != nullptr && sim_->is_live(slot_, gen_);
}

void Simulation::retire(std::uint32_t slot) noexcept {
  Slot& s = slots_[slot];
  s.callback = nullptr;  // drop captured resources; cheap if already moved
  ++s.generation;
  free_slots_.push_back(slot);
}

void Simulation::heap_push(const QueueEntry& e) {
  // Cancelled events and policy-dispatched cohort members leave stale
  // entries behind. Once they outnumber the live ones, filter them out
  // and re-heapify in place: O(heap size), paid for by the more than
  // live_ + kCompactSlack retirements since the last rebuild. Dispatch
  // follows the total (time, priority, seq) order, so the layout change
  // is invisible.
  if (heap_.size() > 2 * live_ + kCompactSlack) {
    heap_.erase(std::remove_if(heap_.begin(), heap_.end(),
                               [this](const QueueEntry& q) {
                                 return !is_live(q.slot, q.gen);
                               }),
                heap_.end());
    std::make_heap(heap_.begin(), heap_.end(), Compare{});
  }
  heap_.push_back(e);
  std::push_heap(heap_.begin(), heap_.end(), Compare{});
}

void Simulation::heap_pop() noexcept {
  std::pop_heap(heap_.begin(), heap_.end(), Compare{});
  heap_.pop_back();
}

bool Simulation::skim_stale() noexcept {
  while (!heap_.empty()) {
    const QueueEntry& top = heap_.front();
    if (is_live(top.slot, top.gen)) return true;
    heap_pop();
  }
  return false;
}

Simulation::EventHandle Simulation::schedule_at(Time t, Callback cb,
                                                Priority prio,
                                                std::uint32_t tag) {
  if (!(t >= now_) || !std::isfinite(t)) {
    throw std::invalid_argument("schedule_at: time must be finite and >= now");
  }
  if (!cb) throw std::invalid_argument("schedule_at: empty callback");
  std::uint32_t index;
  if (!free_slots_.empty()) {
    index = free_slots_.back();
    free_slots_.pop_back();
  } else {
    if (slots_.size() >= std::numeric_limits<std::uint32_t>::max()) {
      throw std::length_error("schedule_at: event pool exhausted");
    }
    index = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& slot = slots_[index];
  slot.callback = std::move(cb);
  slot.tag = tag;
#if RRSIM_VALIDATE_ENABLED
  slot.epoch = dispatched_;
#endif
  heap_push(QueueEntry{t, static_cast<int>(prio), next_seq_++, index,
                       slot.generation});
  ++live_;
  return EventHandle(this, index, slot.generation);
}

Simulation::EventHandle Simulation::schedule_in(Time dt, Callback cb,
                                                Priority prio,
                                                std::uint32_t tag) {
  if (!(dt >= 0.0)) throw std::invalid_argument("schedule_in: negative delay");
  return schedule_at(now_ + dt, std::move(cb), prio, tag);
}

void TieBreakPolicy::attach_coupling_probe(
    std::uint32_t partition, std::function<std::uint64_t()> probe) {
  (void)partition;
  (void)probe;
}

bool Simulation::step_policy() {
  // Once stale entries are skimmed, the heap top carries the global
  // minimum under (time, priority, seq).
  if (!skim_stale()) return false;
  const Time t = heap_.front().time;
  const int prio = heap_.front().priority;
  // Group accounting: each maximal run of same-(time, priority)
  // dispatches is one group; ordinals are dense over the run (singleton
  // groups included) so a replay driver can address a group stably.
  if (!group_open_ || t != group_time_ || prio != group_prio_) {
    group_open_ = true;
    group_time_ = t;
    group_prio_ = prio;
    ++tie_groups_;
  }
  // Gather the cohort: every live event has an entry in heap_, so a
  // single scan sees the whole minimal-(time, priority) group.
  group_members_.clear();
  for (const QueueEntry& e : heap_) {
    if (e.time != t || e.priority != prio) continue;
    if (!is_live(e.slot, e.gen)) continue;
    group_members_.push_back(GroupMember{e.seq, e.slot, slots_[e.slot].tag});
  }
  std::sort(group_members_.begin(), group_members_.end(),
            [](const GroupMember& a, const GroupMember& b) {
              return a.seq < b.seq;  // seqs are unique: a total order
            });
  std::size_t choice = 0;
  if (group_members_.size() > 1) {
    group_scratch_.clear();
    for (const GroupMember& m : group_members_) {
      group_scratch_.push_back(TieEvent{m.seq, m.tag});
    }
    const TieGroup group{tie_groups_ - 1, policy_partition_, t, prio,
                         group_scratch_.data(), group_scratch_.size()};
    choice = policy_->pick(group);
    if (choice >= group_members_.size()) {
      throw std::logic_error("tie-break policy picked an index out of range");
    }
  }
  const GroupMember chosen = group_members_[choice];
#if RRSIM_VALIDATE_ENABLED
  // Relaxed dispatch-order oracle: a policy may permute seq order inside
  // a (time, priority) group, so only the (time, priority) axes bind for
  // events queued across a pop; the time axis is unconditional.
  RRSIM_CHECK(t >= now_, "event dispatched before now()");
  if (vd_have_last_) {
    RRSIM_CHECK(t >= vd_last_time_, "dispatch time went backwards");
    if (slots_[chosen.slot].epoch < vd_last_epoch_) {
      RRSIM_CHECK(t > vd_last_time_ || prio >= vd_last_prio_,
                  "(time, priority) dispatch order violated under a "
                  "tie-break policy");
    }
  }
  vd_have_last_ = true;
  vd_last_time_ = t;
  vd_last_prio_ = prio;
  vd_last_seq_ = chosen.seq;
  vd_last_epoch_ = dispatched_ + 1;
#endif
  now_ = t;
  // Dispatch the chosen member directly off its slot. Its heap entry (if
  // it was not the top) stays behind and is skipped once the slot
  // retires — the same mechanism that absorbs cancelled events.
  Callback cb(std::move(slots_[chosen.slot].callback));
  retire(chosen.slot);
  if (live_ > 0) --live_;
  ++dispatched_;
  cb();
  return true;
}

bool Simulation::step() {
  if (policy_ != nullptr) return step_policy();
  if (!skim_stale()) return false;
  const QueueEntry entry = heap_.front();
  heap_pop();
#if RRSIM_VALIDATE_ENABLED
  // Dispatch-order oracle. Time never goes backwards; the full
  // (time, priority, seq) order additionally holds against any event
  // that was already queued at the previous pop (an event inserted
  // during that dispatch may legally share its time with a lower
  // priority, so only the time axis binds for those).
  RRSIM_CHECK(entry.time >= now_, "event dispatched before now()");
  if (vd_have_last_) {
    RRSIM_CHECK(entry.time >= vd_last_time_,
                "dispatch time went backwards");
    if (slots_[entry.slot].epoch < vd_last_epoch_) {
      const bool after =
          entry.time > vd_last_time_ ||
          entry.priority > vd_last_prio_ ||
          (entry.priority == vd_last_prio_ && entry.seq > vd_last_seq_);
      RRSIM_CHECK(after,
                  "(time, priority, seq) dispatch order violated for "
                  "events queued across a pop");
    }
  }
  vd_have_last_ = true;
  vd_last_time_ = entry.time;
  vd_last_prio_ = entry.priority;
  vd_last_seq_ = entry.seq;
  vd_last_epoch_ = dispatched_ + 1;
#endif
  now_ = entry.time;
  // Move the callback out (single move-construction — cheaper than
  // going through retire()'s assignment) and retire the slot *before*
  // running it, so the callback can schedule new events (possibly
  // reusing this slot) and outstanding handles read "fired".
  Callback cb(std::move(slots_[entry.slot].callback));
  retire(entry.slot);
  if (live_ > 0) --live_;
  ++dispatched_;
  cb();
  return true;
}

void Simulation::run() {
  while (step()) {
  }
}

void Simulation::run_until(Time t) {
  if (t < now_) throw std::invalid_argument("run_until: time in the past");
  while (skim_stale() && !(heap_.front().time > t)) step();
  now_ = t;
}

void Simulation::run_before(Time t) {
  if (t < now_) throw std::invalid_argument("run_before: time in the past");
  while (skim_stale() && heap_.front().time < t) step();
  if (t > now_) now_ = t;
}

Time Simulation::next_event_time() {
  return skim_stale() ? heap_.front().time : kTimeInfinity;
}

#if RRSIM_VALIDATE_ENABLED
std::uint64_t Simulation::debug_fingerprint() const noexcept {
  // FNV-1a over the semantic state. Arena capacities (slab size, heap /
  // free-list storage) are deliberately excluded: they are what
  // reset() keeps warm. What must match a fresh simulation is everything
  // observable through the public API plus queue occupancy.
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t v) noexcept {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  };
  const auto mix_time = [&mix](Time t) noexcept {
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(Time));
    __builtin_memcpy(&bits, &t, sizeof(bits));
    mix(bits);
  };
  mix_time(now_);
  mix(next_seq_);
  mix(dispatched_);
  mix(live_);
  mix(heap_.size());
  mix(slots_.size() - free_slots_.size());  // slots not on the free list
  std::uint64_t armed = 0;  // slots still holding a callback
  for (const Slot& s : slots_) {
    if (s.callback) ++armed;
  }
  mix(armed);
  mix(policy_ == nullptr ? 0 : 1);
  mix(policy_partition_);
  mix(tie_groups_);
  mix(group_open_ ? 1 : 0);
  mix(vd_have_last_ ? 1 : 0);
  return h;
}
#endif

void Simulation::reset() noexcept {
  now_ = 0.0;
  next_seq_ = 0;
  dispatched_ = 0;
  live_ = 0;
  heap_.clear();
  // The policy is per-run configuration: clearing it keeps a pooled
  // workspace simulation from calling into a policy object the previous
  // run's driver may already have destroyed.
  policy_ = nullptr;
  policy_partition_ = 0;
  tie_groups_ = 0;
  group_open_ = false;
  group_time_ = 0.0;
  group_prio_ = 0;
  group_members_.clear();
  group_scratch_.clear();
  // Retire every slot: destroy lingering callbacks (a truncated run leaves
  // events queued) and bump generations so handles from the previous run
  // are inert. The free list is rebuilt highest-index-first so the next
  // run allocates slot 0, 1, 2, ... exactly like a fresh slab would.
  free_slots_.clear();
  free_slots_.reserve(slots_.size());
  for (std::size_t i = slots_.size(); i-- > 0;) {
    Slot& s = slots_[i];
    s.callback = nullptr;
    ++s.generation;
    free_slots_.push_back(static_cast<std::uint32_t>(i));
  }
#if RRSIM_VALIDATE_ENABLED
  vd_have_last_ = false;
  if (vd_leak_on_reset_) next_seq_ = 1;  // simulated missed-member bug
  // Reset-coverage oracle: a reset simulation must fingerprint equal to
  // a freshly constructed one. A member added to Simulation but not to
  // reset() (and folded into debug_fingerprint()) trips here.
  RRSIM_CHECK(debug_fingerprint() == Simulation().debug_fingerprint(),
              "reset() state differs from a freshly constructed Simulation");
#endif
}

}  // namespace rrsim::des
