// Scheduler hot-path benchmark and perf record.
//
// Replays one redundancy-heavy synthetic workload — a deep queue where
// most submissions are "losing replicas" cancelled a few seconds later,
// exactly the cancel storm a redundant-request gateway produces — through
// FCFS, EASY, the incremental CBF, and two in-file replicas of the designs
// they replaced: the pre-incremental CBF that rebuilt its availability
// profile from scratch on every cancel, and the deque-based EASY that
// searched its queue on every cancel and rescanned it on every event.
// Reports schedule-passes/sec and cancels/sec per algorithm, verifies
// that CBF and EASY reproduce their replicas' traces bit-exactly in the
// same run, prints how many pending slots each EASY's backfill scans
// tested (and how many 32-slot blocks the block-bounded scan skipped),
// and writes the results to BENCH_sched.json so future changes have a
// perf trajectory to compare against.
//
//   ./micro_sched [--submissions=2500] [--nodes=64]
//                 [--out=BENCH_sched.json] plus common flags.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <memory>
#include <queue>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "rrsim/des/simulation.h"
#include "rrsim/sched/cbf.h"
#include "rrsim/sched/easy.h"
#include "rrsim/sched/fcfs.h"
#include "rrsim/sched/profile.h"
#include "rrsim/util/rng.h"

namespace {

using namespace rrsim;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ---------------------------------------------------------------------------
// Legacy CBF replica: a faithful copy of the seed tree's conservative
// backfilling, which rebuilt the profile from scratch on every cancel and
// early completion, scanned the whole queue per dispatch pass, and swept
// it again to find the next wake-up. Kept in-file (mirroring the oracle
// in tests/sched/cbf_incremental_test.cpp) so the incremental core's win
// stays measurable against the design it replaced.
class LegacyCbf final : public sched::ClusterScheduler {
 public:
  LegacyCbf(des::Simulation& sim, int total_nodes)
      : ClusterScheduler(sim, total_nodes), profile_(total_nodes) {}

  std::string name() const override { return "cbf-rebuild"; }
  std::size_t queue_length() const override { return queue_.size(); }

 protected:
  void handle_submit(sched::Job job) override {
    const sched::Time now = sim_.now();
    const sched::Time s =
        profile_.earliest_start(now, job.nodes, job.requested_time);
    profile_.reserve(s, job.requested_time, job.nodes);
    record_prediction(job.id, s);
    queue_.push_back(Entry{std::move(job), s});
    dispatch_ready();
  }

  sched::Job handle_cancel(sched::JobId id) override {
    const auto it =
        std::find_if(queue_.begin(), queue_.end(),
                     [id](const Entry& e) { return e.job.id == id; });
    if (it == queue_.end()) {
      throw std::logic_error("legacy cbf: cancel of non-pending job");
    }
    sched::Job job = it->job;
    queue_.erase(it);
    rebuild_profile();
    dispatch_ready();
    return job;
  }

  void handle_completion(const sched::Job& job) override {
    const bool early = job.finish_time < job.start_time + job.requested_time;
    if (early) rebuild_profile();
    dispatch_ready();
  }

  std::vector<const sched::Job*> pending_in_order() const override {
    std::vector<const sched::Job*> out;
    out.reserve(queue_.size());
    for (const Entry& e : queue_) out.push_back(&e.job);
    return out;
  }

 private:
  struct Entry {
    sched::Job job;
    sched::Time reserved_start = 0.0;
  };

  void rebuild_profile() {
    count_pass();
    const sched::Time now = sim_.now();
    profile_ = sched::Profile(total_nodes());
    for (const auto& [end, nodes] : running_requested_ends()) {
      if (end > now) profile_.reserve(now, end - now, nodes);
    }
    for (Entry& e : queue_) {
      e.reserved_start =
          profile_.earliest_start(now, e.job.nodes, e.job.requested_time);
      profile_.reserve(e.reserved_start, e.job.requested_time, e.job.nodes);
    }
  }

  void dispatch_ready() {
    count_pass();
    const sched::Time now = sim_.now();
    bool again = true;
    while (again) {
      again = false;
      for (auto it = queue_.begin(); it != queue_.end(); ++it) {
        if (it->reserved_start > now) continue;
        if (it->job.nodes > free_nodes()) continue;
        sched::Job job = it->job;
        queue_.erase(it);
        if (!try_start(std::move(job))) rebuild_profile();
        again = true;
        break;
      }
    }
    wakeup_.cancel();
    sched::Time next = des::kTimeInfinity;
    for (const Entry& e : queue_) {
      if (e.reserved_start > now) next = std::min(next, e.reserved_start);
    }
    if (next < des::kTimeInfinity) {
      wakeup_ = sim_.schedule_at(
          next, [this] { dispatch_ready(); }, des::Priority::kControl);
    }
  }

  std::vector<Entry> queue_;
  sched::Profile profile_;
  des::Simulation::EventHandle wakeup_;
};

// ---------------------------------------------------------------------------
// Legacy EASY replica: a faithful copy of the deque-based EASY, which found
// each cancelled job by a linear search, erased it from the middle of a
// std::deque, and rescanned the whole queue for backfill on every submit,
// cancel and completion. Kept in-file (mirroring the oracle in
// tests/sched/easy_incremental_test.cpp) so the pending queue's win stays
// measurable against the design it replaced.
class LegacyEasy final : public sched::ClusterScheduler {
 public:
  LegacyEasy(des::Simulation& sim, int total_nodes)
      : ClusterScheduler(sim, total_nodes) {}

  std::string name() const override { return "easy-legacy"; }
  std::size_t queue_length() const override { return queue_.size(); }

 protected:
  void handle_submit(sched::Job job) override {
    queue_.push_back(std::move(job));
    schedule_pass();
  }

  sched::Job handle_cancel(sched::JobId id) override {
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
      if (it->id == id) {
        sched::Job job = *it;
        queue_.erase(it);
        schedule_pass();
        return job;
      }
    }
    throw std::logic_error("legacy easy: cancel of non-pending job");
  }

  void handle_completion(const sched::Job& job) override {
    const std::pair<sched::Time, int> key{job.start_time + job.requested_time,
                                          job.nodes};
    const auto it =
        std::lower_bound(running_ends_.begin(), running_ends_.end(), key);
    if (it == running_ends_.end() || *it != key) {
      throw std::logic_error("legacy easy: finished job not tracked");
    }
    running_ends_.erase(it);
    schedule_pass();
  }

  std::vector<const sched::Job*> pending_in_order() const override {
    std::vector<const sched::Job*> out;
    out.reserve(queue_.size());
    for (const sched::Job& j : queue_) out.push_back(&j);
    return out;
  }

 private:
  struct Shadow {
    sched::Time time = 0.0;
    int extra = 0;
  };

  Shadow compute_shadow() const {
    const sched::Job& head = queue_.front();
    int avail = free_nodes();
    for (const auto& [end, nodes] : running_ends_) {
      avail += nodes;
      if (avail >= head.nodes) return Shadow{end, avail - head.nodes};
    }
    throw std::logic_error("legacy easy: shadow not found");
  }

  bool start_and_track(sched::Job job) {
    const sched::Time end = sim_.now() + job.requested_time;
    const int nodes = job.nodes;
    if (!try_start(std::move(job))) return false;
    const std::pair<sched::Time, int> key{end, nodes};
    running_ends_.insert(
        std::upper_bound(running_ends_.begin(), running_ends_.end(), key),
        key);
    return true;
  }

  void schedule_pass() {
    count_pass();
    for (;;) {
      while (!queue_.empty() && queue_.front().nodes <= free_nodes()) {
        sched::Job job = std::move(queue_.front());
        queue_.pop_front();
        start_and_track(std::move(job));
      }
      if (queue_.empty()) return;

      Shadow shadow = compute_shadow();
      const sched::Time now = sim_.now();
      bool queue_changed = false;
      std::uint64_t slots = 0;  // every slot is tested one by one
      for (auto it = std::next(queue_.begin());
           it != queue_.end() && free_nodes() > 0;) {
        ++slots;
        const bool fits_now = it->nodes <= free_nodes();
        const bool ends_before_shadow =
            now + it->requested_time <= shadow.time;
        const bool within_extra = it->nodes <= shadow.extra;
        if (fits_now && (ends_before_shadow || within_extra)) {
          sched::Job job = *it;
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
      count_backfill_scan(slots, 0);
      if (!queue_changed) return;
    }
  }

  std::deque<sched::Job> queue_;
  std::vector<std::pair<sched::Time, int>> running_ends_;
};

// ---------------------------------------------------------------------------
// The workload: a cancel storm over an ever-deepening queue.
//
// Arrivals outpace the cluster by design (the paper's overload regime), so
// the 25% of submissions that are "winning" requests pile up in the queue,
// while the other 75% — losing replicas whose sibling started elsewhere —
// are cancelled a few seconds after submission. Cancels therefore hit near
// the *tail* of a queue hundreds deep: the rebuild baseline re-reserves
// every queued job on each one, the incremental core only the short
// suffix behind the freed slot. Jobs run exactly their requested time so
// the comparison isolates cancel handling (early-completion compression
// costs O(queue) in both designs).
struct Workload {
  struct Submission {
    sched::Job job;
    double submit_at = 0.0;
    double cancel_at = -1.0;  // < 0: never cancelled
  };
  std::vector<Submission> submissions;
};

Workload make_workload(int submissions, int nodes, std::uint64_t seed) {
  Workload w;
  w.submissions.reserve(static_cast<std::size_t>(submissions));
  util::Rng rng(seed);
  double t = 0.0;
  for (int i = 1; i <= submissions; ++i) {
    t += rng.uniform(0.5, 3.0);
    Workload::Submission s;
    s.job.id = static_cast<sched::JobId>(i);
    s.job.nodes = static_cast<int>(rng.between(1, std::min(nodes, 8)));
    s.job.requested_time = rng.uniform(300.0, 3600.0);
    s.job.actual_time = s.job.requested_time;
    s.submit_at = t;
    if (rng.chance(0.75)) s.cancel_at = t + rng.uniform(2.0, 90.0);
    w.submissions.push_back(s);
  }
  return w;
}

// What one scheduler did with the workload, plus how fast.
struct RunResult {
  double elapsed = 0.0;
  sched::OpCounters counters;
  std::uint64_t cancels_issued = 0;
  std::size_t peak_queue = 0;
  double start_time_sum = 0.0;  // deterministic trace checksum
  std::uint64_t rebuilds = 0;      // incremental CBF only
  std::uint64_t compressions = 0;  // incremental CBF only
  double passes_per_sec() const {
    return static_cast<double>(counters.sched_passes) / elapsed;
  }
  double cancels_per_sec() const {
    return static_cast<double>(counters.cancels) / elapsed;
  }
};

template <typename Scheduler, typename... Args>
RunResult run_workload(const Workload& w, int nodes, Args&&... args) {
  const auto start = Clock::now();
  des::Simulation sim;
  Scheduler sched(sim, nodes, std::forward<Args>(args)...);
  RunResult result;

  sched::ClusterScheduler::Callbacks cb;
  cb.on_start = [&result](const sched::Job& j) {
    result.start_time_sum += j.start_time;
  };
  sched.set_callbacks(std::move(cb));

  for (const Workload::Submission& s : w.submissions) {
    sim.schedule_at(s.submit_at,
                    [&sched, &result, job = s.job] {
                      sched.submit(job);
                      result.peak_queue =
                          std::max(result.peak_queue, sched.queue_length());
                    },
                    des::Priority::kArrival);
    if (s.cancel_at >= 0.0) {
      const sched::JobId id = s.job.id;
      sim.schedule_at(s.cancel_at,
                      [&sched, &result, id] {
                        if (sched.cancel(id)) ++result.cancels_issued;
                      },
                      des::Priority::kCancel);
    }
  }
  sim.run();

  result.counters = sched.counters();
  if constexpr (std::is_same_v<Scheduler, sched::CbfScheduler>) {
    result.rebuilds = sched.rebuilds();
    result.compressions = sched.compressions();
  }
  result.elapsed = seconds_since(start);
  return result;
}

void print_row(const char* name, const RunResult& r) {
  std::printf("  %-12s %8.3f s  %9llu passes  %12.0f passes/s  %10.0f "
              "cancels/s  peak queue %zu\n",
              name, r.elapsed,
              static_cast<unsigned long long>(r.counters.sched_passes),
              r.passes_per_sec(), r.cancels_per_sec(), r.peak_queue);
}

}  // namespace

int main(int argc, char** argv) {
  return rrsim::bench::run_harness([&] {
    const util::Cli cli(argc, argv);
    const auto submissions =
        static_cast<int>(cli.get_int("submissions", 2500));
    const auto nodes = static_cast<int>(cli.get_int("nodes", 64));
    if (submissions < 1 || nodes < 1) {
      throw std::invalid_argument("--submissions and --nodes must be >= 1");
    }
    const std::string out_path = cli.get_string("out", "BENCH_sched.json");

    std::printf("=== micro_sched - scheduler hot-path throughput ===\n");
    std::printf(
        "one redundancy-heavy workload (%d submissions, 75%% cancelled as\n"
        "losing replicas, %d nodes) replayed through each scheduler;\n"
        "cbf-rebuild is the pre-incremental design (full profile rebuild\n"
        "per cancel) and must produce a bit-identical trace to cbf;\n"
        "easy-legacy is the deque-based EASY and must match easy\n\n",
        submissions, nodes);

    const Workload w = make_workload(submissions, nodes, 20260807);

    const RunResult fcfs = run_workload<sched::FcfsScheduler>(w, nodes);
    print_row("fcfs", fcfs);
    const RunResult easy_legacy = run_workload<LegacyEasy>(w, nodes);
    print_row("easy-legacy", easy_legacy);
    const RunResult easy = run_workload<sched::EasyScheduler>(w, nodes);
    print_row("easy", easy);
    const RunResult legacy = run_workload<LegacyCbf>(w, nodes);
    print_row("cbf-rebuild", legacy);
    const RunResult cbf = run_workload<sched::CbfScheduler>(w, nodes);
    print_row("cbf", cbf);

    // The behaviour-preservation contract, enforced in the same run that
    // measures the speedup: same starts, same finishes, same cancel
    // outcomes, same number of scheduling passes, same start times.
    const auto same_trace = [](const RunResult& a, const RunResult& b) {
      return a.counters.starts == b.counters.starts &&
             a.counters.finishes == b.counters.finishes &&
             a.counters.cancels == b.counters.cancels &&
             a.counters.sched_passes == b.counters.sched_passes &&
             a.cancels_issued == b.cancels_issued &&
             a.start_time_sum == b.start_time_sum;
    };
    if (!same_trace(cbf, legacy)) {
      throw std::runtime_error(
          "equivalence violation: incremental cbf diverged from the "
          "rebuild baseline");
    }
    if (!same_trace(easy, easy_legacy)) {
      throw std::runtime_error(
          "equivalence violation: easy diverged from the deque-based "
          "baseline");
    }
    std::printf(
        "\neasy backfill scans: %llu slots tested, %llu blocks skipped "
        "(easy-legacy: %llu slots tested)\n",
        static_cast<unsigned long long>(easy.counters.backfill_slots),
        static_cast<unsigned long long>(easy.counters.backfill_blocks_skipped),
        static_cast<unsigned long long>(easy_legacy.counters.backfill_slots));

    const double speedup = legacy.elapsed / cbf.elapsed;
    std::printf(
        "cbf incremental vs rebuild: %.2fx  (%llu cancels, %llu rebuild "
        "fallbacks vs %llu incremental compressions, traces "
        "bit-identical)\n",
        speedup, static_cast<unsigned long long>(cbf.counters.cancels),
        static_cast<unsigned long long>(cbf.rebuilds),
        static_cast<unsigned long long>(cbf.compressions));
    const double easy_speedup = easy_legacy.elapsed / easy.elapsed;
    std::printf("easy pending queue vs deque: %.2fx  (traces bit-identical)\n",
                easy_speedup);

    std::FILE* f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) {
      throw std::runtime_error("cannot write " + out_path);
    }
    std::fprintf(f,
                 "{\n"
                 "  \"benchmark\": \"micro_sched\",\n");
    bench::write_json_env_fields(f, 1);
    std::fprintf(f,
                 "  \"submissions\": %d,\n"
                 "  \"nodes\": %d,\n"
                 "  \"cancels\": %llu,\n"
                 "  \"peak_queue_cbf\": %zu,\n"
                 "  \"fcfs_passes_per_sec\": %.0f,\n"
                 "  \"fcfs_cancels_per_sec\": %.0f,\n"
                 "  \"easy_passes_per_sec\": %.0f,\n"
                 "  \"easy_cancels_per_sec\": %.0f,\n"
                 "  \"easy_seconds\": %.4f,\n"
                 "  \"easy_legacy_seconds\": %.4f,\n"
                 "  \"easy_speedup_vs_legacy\": %.4f,\n"
                 "  \"easy_backfill_slots\": %llu,\n"
                 "  \"easy_backfill_blocks_skipped\": %llu,\n"
                 "  \"easy_legacy_backfill_slots\": %llu,\n"
                 "  \"cbf_rebuild_seconds\": %.4f,\n"
                 "  \"cbf_rebuild_passes_per_sec\": %.0f,\n"
                 "  \"cbf_rebuild_cancels_per_sec\": %.0f,\n"
                 "  \"cbf_seconds\": %.4f,\n"
                 "  \"cbf_passes_per_sec\": %.0f,\n"
                 "  \"cbf_cancels_per_sec\": %.0f,\n"
                 "  \"cbf_rebuilds\": %llu,\n"
                 "  \"cbf_compressions\": %llu,\n"
                 "  \"cbf_speedup_vs_rebuild\": %.4f,\n"
                 "  \"traces_bit_identical\": true,\n"
                 "  \"note\": \"cbf-rebuild replays the pre-incremental "
                 "algorithm over the shared sched::Profile, so both sides "
                 "use its skip-ahead slot search; cbf_speedup_vs_rebuild "
                 "measures the incremental algorithm, not the profile. "
                 "cbf_rebuilds counts incremental CBF's fallbacks to a full "
                 "rebuild, cbf_compressions its incremental suffix "
                 "compressions.\"\n"
                 "}\n",
                 submissions, nodes,
                 static_cast<unsigned long long>(cbf.counters.cancels),
                 cbf.peak_queue, fcfs.passes_per_sec(),
                 fcfs.cancels_per_sec(), easy.passes_per_sec(),
                 easy.cancels_per_sec(), easy.elapsed, easy_legacy.elapsed,
                 easy_speedup,
                 static_cast<unsigned long long>(easy.counters.backfill_slots),
                 static_cast<unsigned long long>(
                     easy.counters.backfill_blocks_skipped),
                 static_cast<unsigned long long>(
                     easy_legacy.counters.backfill_slots),
                 legacy.elapsed,
                 legacy.passes_per_sec(), legacy.cancels_per_sec(),
                 cbf.elapsed, cbf.passes_per_sec(), cbf.cancels_per_sec(),
                 static_cast<unsigned long long>(cbf.rebuilds),
                 static_cast<unsigned long long>(cbf.compressions), speedup);
    std::fclose(f);
    std::printf("\nperf record written to %s\n", out_path.c_str());
  });
}
