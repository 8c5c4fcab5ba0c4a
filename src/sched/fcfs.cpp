#include "rrsim/sched/fcfs.h"

namespace rrsim::sched {

void FcfsScheduler::handle_submit(Job job) {
  queue_.push_back(std::move(job));
  schedule_pass();
}

Job FcfsScheduler::handle_cancel(JobId id) {
  Job job = queue_.take(queue_.slot_of(id));
  schedule_pass();  // removing the head may unblock successors
  return job;
}

void FcfsScheduler::handle_completion(const Job&) { schedule_pass(); }

std::vector<const Job*> FcfsScheduler::pending_in_order() const {
  std::vector<const Job*> out;
  out.reserve(queue_.size());
  queue_.for_each([&out](const Job& j) { out.push_back(&j); });
  return out;
}

void FcfsScheduler::schedule_pass() {
  count_pass();
  while (!queue_.empty() && queue_.front().nodes <= free_nodes()) {
    try_start(queue_.take(queue_.head()));  // declined jobs simply leave
  }
  queue_.compact_if_sparse();
}

}  // namespace rrsim::sched
