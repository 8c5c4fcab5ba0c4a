#include "rrsim/sched/cbf.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace rrsim::sched {

#if RRSIM_VALIDATE_ENABLED
void CbfScheduler::validate_index() const {
  RRSIM_CHECK(pos_.size() == queue_.size(),
              "cbf: pos_ index and queue_ disagree on size");
  for (std::size_t i = 0; i < queue_.size(); ++i) {
    const std::size_t* p = pos_.find(queue_[i].job.id);
    RRSIM_CHECK(p != nullptr && *p == i,
                "cbf: pos_ entry does not point at the job's queue slot");
    if (i > 0) {
      RRSIM_CHECK(queue_[i - 1].seq < queue_[i].seq,
                  "cbf: queue_ no longer in submission (FCFS) order");
    }
  }
  running_end_.for_each([this](const JobId& id, const Time& end) {
    RRSIM_CHECK(running_jobs().find(id) != running_jobs().end(),
                "cbf: running_end_ keeps a footprint for a job that is "
                "not running");
    RRSIM_CHECK(end > 0.0, "cbf: non-positive stored footprint end");
  });
}

void CbfScheduler::debug_validate() const {
  ClusterScheduler::debug_validate();
  validate_index();
}
#endif

void CbfScheduler::handle_submit(Job job) {
  const Time now = sim_.now();
  // GC: every reservation whose interval expired leaves dead breakpoints
  // behind; submissions are the steady pulse that sweeps them.
  profile_.prune_before(now);
  const Time s =
      profile_.reserve_earliest(now, job.nodes, job.requested_time);
  record_prediction(job.id, s);  // the Section 5 predictor
  const JobId id = job.id;
  const std::uint64_t seq = next_seq_++;
  pos_.try_emplace(id, queue_.size());
  queue_.push_back(Entry{std::move(job), s, seq});
  heap_.push(HeapEntry{s, seq, id});
  dispatch_ready();
#if RRSIM_VALIDATE_ENABLED
  validate_index();
#endif
}

Job CbfScheduler::handle_cancel(JobId id) {
  const std::size_t* p = pos_.find(id);
  if (p == nullptr) {
    throw std::logic_error("cbf: cancel of non-pending job");
  }
  const std::size_t k = *p;
  Job job = std::move(queue_[k].job);
  const Time r = queue_[k].reserved_start;
  erase_entry(k);
  if (incremental_base_ok()) {
    // Freed slot: drop the reservation and pull the suffix earlier. The
    // prefix cannot move (its slots depend only on the running set and
    // earlier positions), so this equals a rebuild.
    stage_release(r, job.requested_time, job.nodes);
    compress_from(k);
  } else {
    rebuild_profile();
  }
  if (self_check_) verify_against_rebuild();
  dispatch_ready();
#if RRSIM_VALIDATE_ENABLED
  validate_index();
#endif
  return job;
}

void CbfScheduler::handle_completion(const Job& job) {
  Time stored_end = 0.0;
  if (const Time* se = running_end_.find(job.id)) {
    stored_end = *se;
    running_end_.erase(job.id);
  }
  const bool early =
      job.finish_time < job.start_time + job.requested_time;
  if (early) {
    if (incremental_base_ok()) {
      // Release the unused tail of the conservative footprint, then pull
      // every reservation as early as possible.
      const Time now = sim_.now();
      if (stored_end > now) {
        freed_.push_back(Profile::Interval{now, stored_end, job.nodes});
      }
      compress_from(0);
    } else {
      rebuild_profile();
    }
    if (self_check_) verify_against_rebuild();
  }
  dispatch_ready();
#if RRSIM_VALIDATE_ENABLED
  validate_index();
#endif
}

std::vector<const Job*> CbfScheduler::pending_in_order() const {
  std::vector<const Job*> out;
  out.reserve(queue_.size());
  for (const Entry& e : queue_) out.push_back(&e.job);
  return out;
}

std::optional<Time> CbfScheduler::current_reservation(JobId id) const {
  const std::size_t* p = pos_.find(id);
  if (p == nullptr) return std::nullopt;
  return queue_[*p].reserved_start;
}

bool CbfScheduler::entry_current(const HeapEntry& e) const {
  const std::size_t* p = pos_.find(e.id);
  if (p == nullptr) return false;
  const Entry& entry = queue_[*p];
  return entry.seq == e.seq && entry.reserved_start == e.time;
}

void CbfScheduler::erase_entry(std::size_t k) {
  pos_.erase(queue_[k].job.id);
  queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(k));
  for (std::size_t i = k; i < queue_.size(); ++i) {
    pos_[queue_[i].job.id] = i;
  }
}

void CbfScheduler::stage_release(Time r, Time req, int nodes) {
  // A reservation already partly in the past (a due-but-blocked job) is
  // releasable only from `now` on. The end must be the exact breakpoint
  // the reservation created, so it is recomputed with the same expression
  // (r + req), never round-tripped through a duration.
  const Time start = std::max(r, sim_.now());
  const Time end = r + req;
  if (end > start) freed_.push_back(Profile::Interval{start, end, nodes});
}

bool CbfScheduler::incremental_base_ok() const {
  const Time now = sim_.now();
  for (const auto& [id, job] : running_jobs()) {
    const Time end = job.start_time + job.requested_time;
    if (end <= now) continue;  // footprint contributes nothing ahead
    const Time* stored = running_end_.find(id);
    if (stored == nullptr || *stored != end) return false;
    if (now + (end - now) != end) return false;
  }
  return true;
}

void CbfScheduler::compress_from(std::size_t from_pos) {
  count_pass();
  ++compressions_;
  const Time now = sim_.now();
  // Release the whole suffix before re-reserving any of it: re-reserving
  // one job at a time around still-standing later reservations is NOT
  // equivalent to a rebuild (a later job can grab the freed slot first).
  // The suffix goes back together with the freed footprint, in one merge.
  for (std::size_t i = from_pos; i < queue_.size(); ++i) {
    const Entry& e = queue_[i];
    stage_release(e.reserved_start, e.job.requested_time, e.job.nodes);
  }
  profile_.release_all(freed_);
  freed_.clear();
  for (std::size_t i = from_pos; i < queue_.size(); ++i) {
    Entry& e = queue_[i];
    const Time s =
        profile_.reserve_earliest(now, e.job.nodes, e.job.requested_time);
    if (s != e.reserved_start) {
      e.reserved_start = s;
      heap_.push(HeapEntry{s, e.seq, e.job.id});
    }
  }
}

void CbfScheduler::rebuild_profile() {
  count_pass();
  ++rebuilds_;
  const Time now = sim_.now();
  profile_.reset();
  running_end_.clear();
  for (const auto& [id, job] : running_jobs()) {
    const Time end = job.start_time + job.requested_time;
    if (end > now) {
      profile_.reserve(now, end - now, job.nodes);
      // The stored breakpoint is now + (end - now), which is where the
      // reserve above actually put it — not necessarily `end`.
      running_end_[id] = now + (end - now);
    }
  }
  for (Entry& e : queue_) {
    const Time s =
        profile_.reserve_earliest(now, e.job.nodes, e.job.requested_time);
    if (s != e.reserved_start) {
      e.reserved_start = s;
      heap_.push(HeapEntry{s, e.seq, e.job.id});
    }
  }
}

void CbfScheduler::dispatch_ready() {
  count_pass();
  // Reservations whose time has arrived, collected from the heap. Entries
  // stay in `due` across start attempts and are revalidated each round:
  // a start can trigger callbacks that cancel or compress reentrantly.
  std::vector<HeapEntry> due;
  for (;;) {
    const Time now = sim_.now();
    while (!heap_.empty() && heap_.top().time <= now) {
      const HeapEntry e = heap_.top();
      heap_.pop();
      if (entry_current(e)) due.push_back(e);
    }
    // The first due-and-fitting job in queue order starts; the minimum
    // seq among due entries is that job.
    std::size_t best = due.size();
    for (std::size_t i = 0; i < due.size(); ++i) {
      if (!entry_current(due[i])) continue;
      const Entry& entry = queue_[*pos_.find(due[i].id)];
      if (entry.job.nodes > free_nodes()) {
        // Due, but a same-timestamp completion has not freed its nodes
        // yet (equal-time completions drain one at a time). That
        // completion will re-enter dispatch_ready; starting must wait.
        continue;
      }
      if (best == due.size() || due[i].seq < due[best].seq) best = i;
    }
    if (best == due.size()) break;
    const JobId id = due[best].id;
    const std::size_t k = *pos_.find(id);
    const Time r = queue_[k].reserved_start;
    const Time req = queue_[k].job.requested_time;
    const int nodes = queue_[k].job.nodes;
    Job job = std::move(queue_[k].job);
    erase_entry(k);
    if (try_start(std::move(job))) {
      // Its footprint in the profile is the reservation it held.
      running_end_.try_emplace(id, r + req);
    } else {
      // Declined: its reservation must be released so later jobs can
      // move up.
      if (incremental_base_ok()) {
        stage_release(r, req, nodes);
        compress_from(k);
      } else {
        rebuild_profile();
      }
      if (self_check_) verify_against_rebuild();
    }
  }
  // Wake up at the next future reservation. Entries already due but
  // blocked on a same-timestamp completion need no wake-up: that
  // completion re-enters dispatch_ready after freeing its nodes.
  wakeup_.cancel();
  const Time now = sim_.now();
  for (const HeapEntry& e : due) {
    if (entry_current(e)) heap_.push(e);  // blocked: keep indexed
  }
  Time next = des::kTimeInfinity;
  std::vector<HeapEntry> keep;
  while (!heap_.empty()) {
    const HeapEntry e = heap_.top();
    if (!entry_current(e)) {
      heap_.pop();  // superseded assignment: drop it for good
      continue;
    }
    if (e.time <= now) {
      heap_.pop();  // due-but-blocked: look past it for the wake-up
      keep.push_back(e);
      continue;
    }
    next = e.time;
    break;
  }
  for (const HeapEntry& e : keep) heap_.push(e);
  if (next < des::kTimeInfinity) {
    wakeup_ = sim_.schedule_at(
        next, [this] { dispatch_ready(); }, des::Priority::kControl,
        event_tag());
  }
}

void CbfScheduler::verify_against_rebuild() {
  const Time now = sim_.now();
  Profile& oracle = rebuild_scratch_;
  oracle.reset();
  for (const auto& kv : running_jobs()) {
    const Job& job = kv.second;
    const Time end = job.start_time + job.requested_time;
    if (end > now) oracle.reserve(now, end - now, job.nodes);
  }
  bool ok = true;
  for (const Entry& e : queue_) {
    const Time s =
        oracle.reserve_earliest(now, e.job.nodes, e.job.requested_time);
    if (s != e.reserved_start) ok = false;
  }
  if (ok && profile_.future_equals(oracle, now)) return;
  ++self_check_fallbacks_;
  rebuild_profile();  // adopt the oracle's answer; behaviour stays right
}

}  // namespace rrsim::sched
