// Oracle tests for EASY's pending queue: the scheduler must behave
// exactly — event for event, double for double, pass for pass — like the
// historical implementation that kept its queue in a std::deque, found
// cancels by a linear search and rescanned the whole queue for backfill
// on every submit, cancel and completion. A verbatim replica of that
// implementation (LegacyEasy below) runs the same randomized churn and
// the two traces are compared bit-exactly, including the head's shadow
// time after every timestamp.
#include "rrsim/sched/easy.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "rrsim/util/rng.h"

namespace rrsim::sched {
namespace {

// --- Verbatim replica of the deque-based EASY ----------------------------
class LegacyEasy final : public ClusterScheduler {
 public:
  LegacyEasy(des::Simulation& sim, int total_nodes)
      : ClusterScheduler(sim, total_nodes) {}

  std::string name() const override { return "easy-legacy"; }
  std::size_t queue_length() const override { return queue_.size(); }

  std::optional<Time> head_shadow_time() const {
    if (queue_.empty()) return std::nullopt;
    if (queue_.front().nodes <= free_nodes()) return sim_.now();
    return compute_shadow().time;
  }

 protected:
  void handle_submit(Job job) override {
    queue_.push_back(std::move(job));
    schedule_pass();
  }

  Job handle_cancel(JobId id) override {
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
      if (it->id == id) {
        Job job = *it;
        queue_.erase(it);
        schedule_pass();
        return job;
      }
    }
    throw std::logic_error("legacy easy: cancel of non-pending job");
  }

  void handle_completion(const Job& job) override {
    const std::pair<Time, int> key{job.start_time + job.requested_time,
                                   job.nodes};
    const auto it =
        std::lower_bound(running_ends_.begin(), running_ends_.end(), key);
    if (it == running_ends_.end() || *it != key) {
      throw std::logic_error("legacy easy: finished job not tracked");
    }
    running_ends_.erase(it);
    schedule_pass();
  }

  std::vector<const Job*> pending_in_order() const override {
    std::vector<const Job*> out;
    out.reserve(queue_.size());
    for (const Job& j : queue_) out.push_back(&j);
    return out;
  }

 private:
  struct Shadow {
    Time time = 0.0;
    int extra = 0;
  };

  Shadow compute_shadow() const {
    const Job& head = queue_.front();
    int avail = free_nodes();
    for (const auto& [end, nodes] : running_ends_) {
      avail += nodes;
      if (avail >= head.nodes) {
        return Shadow{end, avail - head.nodes};
      }
    }
    throw std::logic_error("legacy easy: shadow not found");
  }

  bool start_and_track(Job job) {
    const Time end = sim_.now() + job.requested_time;
    const int nodes = job.nodes;
    if (!try_start(std::move(job))) return false;
    const std::pair<Time, int> key{end, nodes};
    running_ends_.insert(
        std::upper_bound(running_ends_.begin(), running_ends_.end(), key),
        key);
    return true;
  }

  void schedule_pass() {
    count_pass();
    for (;;) {
      while (!queue_.empty() && queue_.front().nodes <= free_nodes()) {
        Job job = std::move(queue_.front());
        queue_.pop_front();
        start_and_track(std::move(job));
      }
      if (queue_.empty()) return;

      Shadow shadow = compute_shadow();
      const Time now = sim_.now();
      bool queue_changed = false;
      for (auto it = std::next(queue_.begin());
           it != queue_.end() && free_nodes() > 0;) {
        const bool fits_now = it->nodes <= free_nodes();
        const bool ends_before_shadow =
            now + it->requested_time <= shadow.time;
        const bool within_extra = it->nodes <= shadow.extra;
        if (fits_now && (ends_before_shadow || within_extra)) {
          Job job = *it;
          it = queue_.erase(it);
          if (!ends_before_shadow) shadow.extra -= job.nodes;
          if (!start_and_track(std::move(job))) {
            queue_changed = true;
            break;
          }
        } else {
          ++it;
        }
      }
      if (!queue_changed) return;
    }
  }

  std::deque<Job> queue_;
  std::vector<std::pair<Time, int>> running_ends_;
};

// --- Randomized churn workload -----------------------------------------

struct Trace {
  // (kind, id, time): 's'tart, 'f'inish, 'c'ancel, 'd'ecline.
  std::vector<std::tuple<char, JobId, Time>> events;
  // head_shadow_time() after each submit or cancel and at every whole
  // second once that second's events have run.
  std::vector<std::optional<Time>> shadows;
  OpCounters counters;
  std::size_t max_pending = 0;  // deepest queue seen after a submit
};

struct ChurnParams {
  std::uint64_t seed = 1;
  int nodes = 16;
  int jobs = 400;
  int max_gap = 5;  ///< longest gap between submissions, in seconds
  bool declines = true;
};

/// Integer submit, requested and actual times, so requested ends tie
/// with the shadow time and with each other (the shadow's first-crossing
/// case). A third of the submissions join the previous one's timestamp.
/// Cancels target the job itself (pending or already started), a random
/// earlier job, or whatever job heads the queue at that moment.
template <typename Scheduler>
Trace run_churn(const ChurnParams& p) {
  des::Simulation sim;
  Scheduler sched(sim, p.nodes);
  Trace trace;
  // Submission order and pending flags, to find the head from outside.
  std::vector<JobId> order;
  std::vector<char> pending(static_cast<std::size_t>(p.jobs) + 1, 0);

  ClusterScheduler::Callbacks cb;
  cb.on_grant = [&](const Job& j) {
    if (p.declines && j.id % 7 == 3) {
      trace.events.emplace_back('d', j.id, sim.now());
      pending[j.id] = 0;
      return false;
    }
    return true;
  };
  cb.on_start = [&](const Job& j) {
    trace.events.emplace_back('s', j.id, j.start_time);
    pending[j.id] = 0;
  };
  cb.on_finish = [&](const Job& j) {
    trace.events.emplace_back('f', j.id, j.finish_time);
  };
  cb.on_cancelled = [&](const Job& j) {
    trace.events.emplace_back('c', j.id, sim.now());
    pending[j.id] = 0;
  };
  sched.set_callbacks(std::move(cb));

  const auto cancel = [&](JobId id) {
    sched.cancel(id);
    trace.shadows.push_back(sched.head_shadow_time());
  };
  const auto cancel_head = [&] {
    const auto it = std::find_if(order.begin(), order.end(),
                                 [&](JobId id) { return pending[id] != 0; });
    if (it != order.end()) cancel(*it);
  };

  util::Rng rng(p.seed);
  double t = 0.0;
  for (JobId id = 1; id <= static_cast<JobId>(p.jobs); ++id) {
    if (!rng.chance(0.35)) {
      t += static_cast<double>(rng.between(0, p.max_gap));
    }
    Job job;
    job.id = id;
    job.nodes = static_cast<int>(rng.between(1, p.nodes));
    job.requested_time = static_cast<double>(rng.between(1, 40));
    job.actual_time =
        rng.chance(0.4)
            ? job.requested_time
            : static_cast<double>(rng.between(
                  1, static_cast<std::int64_t>(job.requested_time)));
    sim.schedule_at(
        t,
        [&, job] {
          order.push_back(job.id);
          pending[job.id] = 1;
          sched.submit(job);
          trace.shadows.push_back(sched.head_shadow_time());
          trace.max_pending =
              std::max(trace.max_pending, sched.queue_length());
        },
        des::Priority::kArrival);
    if (rng.chance(0.45)) {
      const double at = t + static_cast<double>(rng.between(0, 30));
      sim.schedule_at(at, [&cancel, id] { cancel(id); },
                      des::Priority::kCancel);
    }
    if (rng.chance(0.15)) {
      const auto target = static_cast<JobId>(rng.between(1, id));
      const double at = t + static_cast<double>(rng.between(0, 10));
      sim.schedule_at(at, [&cancel, target] { cancel(target); },
                      des::Priority::kCancel);
    }
    if (rng.chance(0.15)) {
      const double at = t + static_cast<double>(rng.between(0, 20));
      sim.schedule_at(at, [&cancel_head] { cancel_head(); },
                      des::Priority::kCancel);
    }
  }

  // A probe at every whole second after that second's events, for as
  // long as anything is queued, running or still to arrive.
  const double last_submit = t;
  std::function<void()> probe = [&] {
    trace.shadows.push_back(sched.head_shadow_time());
    if (sim.now() < last_submit || sched.queue_length() > 0 ||
        sched.running_count() > 0) {
      sim.schedule_at(sim.now() + 1.0, [&probe] { probe(); },
                      des::Priority::kControl);
    }
  };
  sim.schedule_at(0.0, [&probe] { probe(); }, des::Priority::kControl);
  sim.run();

  trace.counters = sched.counters();
  return trace;
}

void expect_traces_equal(const Trace& legacy, const Trace& now,
                         const ChurnParams& p) {
  const std::string where = "seed=" + std::to_string(p.seed) +
                            " nodes=" + std::to_string(p.nodes);
  ASSERT_EQ(legacy.events.size(), now.events.size()) << where;
  for (std::size_t i = 0; i < legacy.events.size(); ++i) {
    ASSERT_EQ(legacy.events[i], now.events[i]) << where << " event " << i;
  }
  ASSERT_EQ(legacy.shadows.size(), now.shadows.size()) << where;
  for (std::size_t i = 0; i < legacy.shadows.size(); ++i) {
    ASSERT_EQ(legacy.shadows[i], now.shadows[i]) << where << " probe " << i;
  }
  const OpCounters& a = legacy.counters;
  const OpCounters& b = now.counters;
  EXPECT_EQ(a.submits, b.submits) << where;
  EXPECT_EQ(a.rejects, b.rejects) << where;
  EXPECT_EQ(a.cancels, b.cancels) << where;
  EXPECT_EQ(a.starts, b.starts) << where;
  EXPECT_EQ(a.finishes, b.finishes) << where;
  EXPECT_EQ(a.declines, b.declines) << where;
  EXPECT_EQ(a.sched_passes, b.sched_passes) << where;
}

TEST(EasyIncremental, MatchesLegacyDequeTraceBitExactly) {
  for (const int nodes : {4, 16, 64}) {
    for (const std::uint64_t seed : {1u, 17u, 40u, 333u}) {
      ChurnParams p;
      p.seed = seed;
      p.nodes = nodes;
      const Trace legacy = run_churn<LegacyEasy>(p);
      const Trace now = run_churn<EasyScheduler>(p);
      expect_traces_equal(legacy, now, p);
      EXPECT_GT(now.counters.cancels, 40u) << "workload too tame";
      EXPECT_GT(now.counters.declines, 10u) << "workload too tame";
    }
  }
}

TEST(EasyIncremental, MatchesLegacyWithoutDeclines) {
  for (const std::uint64_t seed : {5u, 91u}) {
    ChurnParams p;
    p.seed = seed;
    p.nodes = 32;
    p.declines = false;
    expect_traces_equal(run_churn<LegacyEasy>(p), run_churn<EasyScheduler>(p),
                        p);
  }
}

TEST(EasyIncremental, MatchesLegacyOnADeepQueue) {
  // Many more jobs than the cluster drains: hundreds pending, so cancels
  // leave long runs of tombstones and compaction renumbers slots often.
  ChurnParams p;
  p.seed = 2026;
  p.nodes = 8;
  p.jobs = 2500;
  const Trace legacy = run_churn<LegacyEasy>(p);
  const Trace now = run_churn<EasyScheduler>(p);
  expect_traces_equal(legacy, now, p);
}

TEST(EasyIncremental, MatchesLegacyWhenBlocksAreSkipped) {
  // 1-128-node jobs on 128 nodes arrive faster than they drain, so
  // hundreds of jobs pend across many 32-slot blocks and cancels hit the
  // middle of the queue. Most blocks hold only jobs too wide for the
  // free nodes, and the scan must skip them on their bounds alone.
  for (const std::uint64_t seed : {3u, 77u}) {
    ChurnParams p;
    p.seed = seed;
    p.nodes = 128;
    p.jobs = 3000;
    p.max_gap = 2;
    const Trace legacy = run_churn<LegacyEasy>(p);
    const Trace now = run_churn<EasyScheduler>(p);
    expect_traces_equal(legacy, now, p);
    EXPECT_GE(now.max_pending, 300u) << "queue too shallow";
    EXPECT_GT(now.counters.cancels, 1000u) << "workload too tame";
    EXPECT_GT(now.counters.backfill_blocks_skipped, 0u)
        << "no block was skipped";
  }
}


// --- Requested ends that tie the shadow time ----------------------------
// A backfilled job whose requested end equals the shadow time sorts
// behind the running end where the shadow was found, so a fresh
// compute_shadow() can find more extra nodes than the scan's incremental
// shadow. The queue must then stay dirty, because the next event's full
// rescan backfills a job that the scan rejected. In both scripts below,
// job 6 starts only because of that rescan. Random churn rarely builds
// this state, hence the scripts.

struct Scripted {
  Time at = 0.0;
  Job job;
};

Scripted at(Time t, JobId id, int nodes, Time requested) {
  Scripted s;
  s.at = t;
  s.job.id = id;
  s.job.nodes = nodes;
  s.job.requested_time = requested;
  s.job.actual_time = requested;
  return s;
}

template <typename Scheduler>
std::vector<std::pair<JobId, Time>> run_script(
    int nodes, const std::vector<Scripted>& script) {
  des::Simulation sim;
  Scheduler sched(sim, nodes);
  std::vector<std::pair<JobId, Time>> starts;
  ClusterScheduler::Callbacks cb;
  cb.on_start = [&starts](const Job& j) {
    starts.emplace_back(j.id, j.start_time);
  };
  sched.set_callbacks(std::move(cb));
  for (const Scripted& s : script) {
    sim.schedule_at(s.at, [&sched, job = s.job] { sched.submit(job); },
                    des::Priority::kArrival);
  }
  sim.run();
  return starts;
}

Time start_of(const std::vector<std::pair<JobId, Time>>& starts, JobId id) {
  for (const auto& [job, t] : starts) {
    if (job == id) return t;
  }
  return -1.0;
}

TEST(EasyIncremental, TiedEndAfterTailBackfillKeepsQueueDirty) {
  // 9 nodes. Jobs 1 and 2 end at 10; head 3 needs 6 of the 5 free, so
  // its shadow is (10, extra 0). Job 4 backfills on its own submit,
  // ending exactly at 10; a fresh shadow now has extra 3, so job 6 fits
  // beside the head on its submit.
  const std::vector<Scripted> script = {
      at(0, 1, 1, 10), at(0, 2, 3, 10), at(0, 3, 6, 5),
      at(0, 4, 4, 10), at(0, 6, 1, 100)};
  const auto legacy = run_script<LegacyEasy>(9, script);
  EXPECT_EQ(run_script<EasyScheduler>(9, script), legacy);
  EXPECT_EQ(start_of(legacy, 6), 0.0);
}

TEST(EasyIncremental, TiedEndAfterFullPassKeepsQueueDirty) {
  // 10 nodes. Job 3 ends at 5; head 4 (7 nodes) waits for the shadow
  // (10, extra 0). At 5 the completion's full pass backfills job 5,
  // ending exactly at 10, and rejects job 6 against extra 0. A fresh
  // shadow has extra 3, so job 7's submit at 6 must rescan and start 6.
  const std::vector<Scripted> script = {
      at(0, 1, 1, 10), at(0, 2, 3, 10), at(0, 3, 2, 5), at(0, 4, 7, 5),
      at(0, 5, 5, 5),  at(0, 6, 1, 100), at(6, 7, 1, 100)};
  const auto legacy = run_script<LegacyEasy>(10, script);
  EXPECT_EQ(run_script<EasyScheduler>(10, script), legacy);
  EXPECT_EQ(start_of(legacy, 5), 5.0);
  EXPECT_EQ(start_of(legacy, 6), 6.0);
}

}  // namespace
}  // namespace rrsim::sched
