// rrsim_perfbench: end-to-end and per-layer benchmark of rrsim campaigns.
//
//   rrsim_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   [--reference FILE] [--spans-dir DIR] [--commit ID]
//                   [--source-digest HEX] [--write-reference]
//
// Every round queues the workload's units on one exec::SweepRunner (one
// timed task per unit, core::trace_affinity as the affinity hint,
// core::thread_workspace() as the workspace) against a cold trace cache,
// exactly as the paper harnesses reach them through CampaignSweep.
// --trace 0 repeats rounds for S seconds and reports the end-to-end
// metrics; --trace 1 alternates untraced and traced rounds, reruns the
// units on one worker, replays one unit layer by layer, and reports the
// per-layer metrics. The last stdout line is one JSON object.
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "replay.h"
#include "rrsim/core/experiment.h"
#include "rrsim/exec/sweep_runner.h"
#include "rrsim/util/validate.h"
#include "rrsim/workload/trace_cache.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {
namespace {

// The seed whose outputs are pinned by the reference file.
constexpr std::uint64_t kDefaultSeed = 1;
constexpr int kMaxWorkers = 4;
constexpr int kMinRounds = 3;

// ---------------------------------------------------------------- guard ---

const char* build_defect() {
#if !defined(NDEBUG)
  return "assertions are enabled (built without NDEBUG)";
#elif RRSIM_VALIDATE_ENABLED
  return "invariant validators are compiled in (RRSIM_VALIDATE)";
#elif defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "built with a sanitizer";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer) ||                                     \
    __has_feature(undefined_behavior_sanitizer)
  return "built with a sanitizer";
#else
  return nullptr;
#endif
#else
  return nullptr;
#endif
}

int online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::thread::hardware_concurrency());
}

// ------------------------------------------------------------------ args ---

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  int trace = 0;
  std::string reference;
  std::string spans_dir = ".";
  std::string commit = "unknown";
  std::string source_digest = "unknown";
  bool write_reference = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--write-reference") {
      a.write_reference = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--trace") {
      a.trace = std::stoi(v);
    } else if (k == "--reference") {
      a.reference = v;
    } else if (k == "--spans-dir") {
      a.spans_dir = v;
    } else if (k == "--commit") {
      a.commit = v;
    } else if (k == "--source-digest") {
      a.source_digest = v;
    } else {
      throw std::invalid_argument("unknown flag " + k);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  if (a.trace != 0 && a.trace != 1) {
    throw std::invalid_argument("--trace must be 0 or 1");
  }
  if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

// ------------------------------------------------------------- reference ---
//
// Line-oriented: "unit <index> <hex checksum>", "count <name> <value>",
// "replay <hex checksum> <events>", each prefixed by "<workload> <seed>".

struct Reference {
  std::map<std::size_t, std::uint64_t> units;
  std::map<std::string, std::uint64_t> counts;
  std::uint64_t replay = 0;
  std::uint64_t replay_events = 0;  ///< des.events of the layer replay
  bool has_replay = false;
};

Reference load_reference(const std::string& path, const std::string& workload,
                         std::uint64_t seed) {
  Reference ref;
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read reference " + path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string w, kind;
    std::uint64_t s = 0;
    ls >> w >> s >> kind;
    if (w != workload || s != seed) continue;
    if (kind == "unit") {
      std::size_t i = 0;
      std::string hex;
      ls >> i >> hex;
      ref.units[i] = std::stoull(hex, nullptr, 16);
    } else if (kind == "count") {
      std::string name;
      std::uint64_t v = 0;
      ls >> name >> v;
      ref.counts[name] = v;
    } else if (kind == "replay") {
      std::string hex;
      ls >> hex >> ref.replay_events;
      ref.replay = std::stoull(hex, nullptr, 16);
      ref.has_replay = true;
    }
  }
  return ref;
}

// ----------------------------------------------------------------- round ---

struct CacheDelta {
  std::uint64_t stream_hits = 0, stream_misses = 0;
  std::uint64_t checkpoint_hits = 0, checkpoint_misses = 0;
  std::uint64_t draw_hits = 0, draw_misses = 0;
};

struct Round {
  int workers = 0;
  std::vector<UnitOut> units;
  double setup_s = 0.0;  ///< round start -> first unit starts
  double wall_s = 0.0;   ///< SweepRunner::run
  double run_start_s = 0.0;
  CacheDelta cache;

  double cpu_s() const {
    double s = 0.0;
    for (const UnitOut& u : units) s += u.host_s();
    return s;
  }
};

// Exact per-round counts; identical across every round of the same code
// and seed, whatever the worker count.
std::map<std::string, std::uint64_t> round_counts(const Round& r) {
  std::map<std::string, std::uint64_t> c;
  for (const UnitOut& u : r.units) {
    c["sched.submits"] += u.ops.submits;
    c["sched.cancels"] += u.ops.cancels;
    c["sched.passes"] += u.ops.sched_passes;
    c["sched.declines"] += u.ops.declines;
    c["sched.starts"] += u.ops.starts;
    c["grid.cancels"] += u.gateway_cancels;
    c["grid.duplicate_starts"] += u.duplicate_starts;
    c["workload.jobs"] += u.jobs;
    c["pdes.windows"] += u.pdes_windows;
  }
  return c;
}

std::atomic<std::uint32_t> g_next_worker{0};

std::uint32_t worker_index() {
  thread_local const std::uint32_t id = ++g_next_worker;
  return id;
}

UnitOut run_unit(const Unit& unit, Clock::time_point t0) {
  UnitOut o;
  o.leader = unit.leader;
  o.start_s = std::chrono::duration<double>(Clock::now() - t0).count();
  try {
    const rrsim::core::SimResult r = rrsim::core::run_experiment(
        unit.config, rrsim::core::thread_workspace());
    o.checksum = result_checksum(r);
    o.ops = r.ops;
    o.gateway_cancels = r.gateway_cancels;
    o.jobs = r.jobs_generated;
    o.duplicate_starts = r.duplicate_starts;
    o.pdes_windows = r.pdes_windows;
    o.avg_max_queue = r.avg_max_queue;
    o.live_state_bytes = r.live_state_bytes;
    o.resident_trace_bytes = r.resident_trace_bytes;
    o.ok = true;
  } catch (const std::exception& e) {
    o.error = e.what();
  }
  o.end_s = std::chrono::duration<double>(Clock::now() - t0).count();
  return o;
}

Round run_round(const std::string& name, std::uint64_t seed, int workers,
                Tracer* tracer) {
  rrsim::workload::TraceCache& cache = rrsim::workload::TraceCache::global();
  cache.clear();  // every round pays for its own trace generation
  g_next_worker = 0;
  const Clock::time_point t0 = Clock::now();

  const auto w = std::make_shared<const Workload>(make_workload(name, seed));
  Round round;
  round.workers = workers;
  round.units.resize(w->units.size());
  rrsim::exec::SweepRunner runner(workers);
  std::uint32_t unit_name = 0, run_name = 0, leader = 0, follower = 0;
  if (tracer != nullptr) {
    unit_name = tracer->intern("core.unit");
    run_name = tracer->intern("exec.run");
    leader = tracer->intern("leader");
    follower = tracer->intern("follower");
  }
  // The exec.run span id, published before any unit can start.
  auto run_span = std::make_shared<std::uint32_t>(0);
  for (std::size_t i = 0; i < w->units.size(); ++i) {
    const Unit& u = w->units[i];
    runner.add_affine(
        1, u.affinity,
        [w, i, t0, tracer, unit_name, run_span,
         label = u.leader ? leader : follower](int) {
          const Scoped span(tracer, unit_name, *run_span, i, worker_index(),
                            label);
          return run_unit(w->units[i], t0);
        },
        [&round, i](int, UnitOut o) { round.units[i] = std::move(o); });
  }

  const std::uint64_t sh = cache.hits(), sm = cache.misses();
  const std::uint64_t ch = cache.checkpoint_hits(),
                      cm = cache.checkpoint_misses();
  const std::uint64_t dh = cache.draw_hits(), dm = cache.draw_misses();
  const Clock::time_point run_start = Clock::now();
  {
    const Scoped span(tracer, run_name, 0, 0, 0);
    *run_span = span.id();
    runner.run();
  }
  const Clock::time_point run_end = Clock::now();
  round.cache = {cache.hits() - sh,
                 cache.misses() - sm,
                 cache.checkpoint_hits() - ch,
                 cache.checkpoint_misses() - cm,
                 cache.draw_hits() - dh,
                 cache.draw_misses() - dm};
  round.wall_s = std::chrono::duration<double>(run_end - run_start).count();
  round.run_start_s = std::chrono::duration<double>(run_start - t0).count();
  double first = round.units.empty() ? 0.0 : round.units[0].start_s;
  for (const UnitOut& u : round.units) first = std::min(first, u.start_s);
  round.setup_s = first;
  return round;
}

// ------------------------------------------------------------ statistics ---

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Linear-interpolated quantile, q in [0, 1].
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

// The highest of the usual percentiles with at least ten samples above it.
double tail_percentile(std::size_t n) {
  for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0}) {
    if (static_cast<double>(n) * (100.0 - p) / 100.0 >= 10.0) return p;
  }
  return 50.0;
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

double elapsed_s(Clock::time_point since) {
  return std::chrono::duration<double>(Clock::now() - since).count();
}

// --------------------------------------------------------------- checker ---

class Checker {
 public:
  explicit Checker(const Reference* ref) : ref_(ref) {}

  // Folds one round into the verdict: every unit must have run, match the
  // first round's checksum (any round, any worker count), match the
  // reference at the default seed, and the round's exact counts must
  // repeat.
  void add(const Round& r) {
    attempted_ += r.units.size();
    if (first_.empty()) {
      for (const UnitOut& u : r.units) first_.push_back(u.ok ? u.checksum : 0);
      counts_ = round_counts(r);
      if (ref_ != nullptr) {
        for (const auto& [name, v] : ref_->counts) {
          const auto it = counts_.find(name);
          if (it == counts_.end() || it->second != v) {
            fail("count " + name + " = " +
                 std::to_string(it == counts_.end() ? 0 : it->second) +
                 ", reference " + std::to_string(v));
          }
        }
      }
    } else if (round_counts(r) != counts_) {
      fail("exact counts differ between rounds");
    }
    for (std::size_t i = 0; i < r.units.size(); ++i) {
      const UnitOut& u = r.units[i];
      bool bad = false;
      if (!u.ok) {
        fail("unit " + std::to_string(i) + " threw: " + u.error);
        bad = true;
      } else if (u.checksum != first_[i]) {
        fail("unit " + std::to_string(i) + " checksum differs at " +
             std::to_string(r.workers) + " workers");
        bad = true;
      } else if (ref_ != nullptr) {
        const auto it = ref_->units.find(i);
        if (it == ref_->units.end() || it->second != u.checksum) {
          fail("unit " + std::to_string(i) + " checksum differs from the "
               "reference");
          bad = true;
        }
      }
      if (bad) ++failed_;
    }
  }

  void fail(const std::string& why) {
    if (reasons_.size() < 8) reasons_.push_back(why);
    correct_ = false;
  }

  bool correct() const { return correct_; }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  const std::vector<std::string>& reasons() const { return reasons_; }
  const std::map<std::string, std::uint64_t>& counts() const { return counts_; }
  const std::vector<std::uint64_t>& checksums() const { return first_; }

 private:
  const Reference* ref_;
  std::vector<std::uint64_t> first_;
  std::map<std::string, std::uint64_t> counts_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool correct_ = true;
  std::vector<std::string> reasons_;
};

// ---------------------------------------------------------------- output ---

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(const Checker& check, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-28s %18.9g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const std::string& r : check.reasons()) {
    std::printf("  FAILED: %s\n", r.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              check.correct() ? "true" : "false", check.attempted(),
              check.failed());
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

void write_reference(const Args& a, const Checker& check,
                     const ReplayOut* replay) {
  for (std::size_t i = 0; i < check.checksums().size(); ++i) {
    std::printf("REF %s %" PRIu64 " unit %zu %016" PRIx64 "\n",
                a.workload.c_str(), a.seed, i, check.checksums()[i]);
  }
  for (const auto& [name, v] : check.counts()) {
    std::printf("REF %s %" PRIu64 " count %s %" PRIu64 "\n",
                a.workload.c_str(), a.seed, name.c_str(), v);
  }
  if (replay != nullptr) {
    std::printf("REF %s %" PRIu64 " replay %016" PRIx64 " %" PRIu64 "\n",
                a.workload.c_str(), a.seed, replay->checksum, replay->events);
  }
}

// ------------------------------------------------------------ end to end ---

std::vector<Metric> end_to_end(const std::vector<Round>& rounds,
                               const std::string& workload) {
  std::vector<double> wall, cpu, setup, unit_ms;
  // Each unit's typical time is its median over rounds; the median unit
  // is taken over those, so round-to-round noise does not pick the order
  // statistic. The tail pools every round's samples.
  std::vector<std::vector<double>> per_unit(rounds.front().units.size());
  std::uint64_t failed_units = 0, units = 0;
  for (const Round& r : rounds) {
    wall.push_back(r.wall_s);
    cpu.push_back(r.cpu_s());
    setup.push_back(r.setup_s);
    for (std::size_t i = 0; i < r.units.size(); ++i) {
      const UnitOut& u = r.units[i];
      unit_ms.push_back(u.host_s() * 1e3);
      per_unit[i].push_back(u.host_s() * 1e3);
      ++units;
      if (!u.ok) ++failed_units;
    }
  }
  std::vector<double> typical;
  for (const std::vector<double>& v : per_unit) typical.push_back(median(v));
  std::printf("  round wall_s:");
  for (const double x : wall) std::printf(" %.3f", x);
  std::printf("\n");
  const double p = tail_percentile(unit_ms.size());
  std::printf("workload %s: %zu rounds, %zu units per round\n",
              workload.c_str(), rounds.size(), rounds.front().units.size());
  std::printf("  unit_ms_tail is p%g of %zu unit times (%zu beyond it)\n", p,
              unit_ms.size(),
              static_cast<std::size_t>(static_cast<double>(unit_ms.size()) *
                                       (100.0 - p) / 100.0));
  std::printf("  failed_frac %.6g (%" PRIu64 " of %" PRIu64
              " units; reported as failed/attempted)\n",
              ratio(static_cast<double>(failed_units),
                    static_cast<double>(units)),
              failed_units, units);
  return {
      {"wall_s", median(wall), "s"},
      {"cpu_s", median(cpu), "s"},
      {"unit_ms_p50", median(typical), "ms"},
      {"unit_ms_tail", quantile(unit_ms, p / 100.0), "ms"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"setup_s", median(setup), "s"},
  };
}

// ------------------------------------------------------------- per layer ---

struct Traced {
  std::vector<Round> untraced;  ///< W workers, spans off
  std::vector<Round> traced;    ///< W workers, spans on
  ReplayOut replay;
};

std::vector<Metric> per_layer(const Traced& t, const Checker& check,
                              const Tracer& unit_spans,
                              const Tracer& replay_spans) {
  const std::map<std::string, std::uint64_t>& c = check.counts();
  const auto count = [&c](const char* k) {
    const auto it = c.find(k);
    return it == c.end() ? 0.0 : static_cast<double>(it->second);
  };
  const Round& r = t.untraced.front();
  double max_queue = 0.0, live = 0.0, resident = 0.0;
  for (const UnitOut& u : r.units) {
    max_queue += u.avg_max_queue;
    live = std::max(live, static_cast<double>(u.live_state_bytes));
    resident = std::max(resident, static_cast<double>(u.resident_trace_bytes));
  }
  max_queue = ratio(max_queue, static_cast<double>(r.units.size()));

  std::vector<double> busy, idle, leader, wall_u, wall_t;
  for (const Round& x : t.untraced) {
    const double cap = static_cast<double>(x.workers) * x.wall_s;
    busy.push_back(ratio(x.cpu_s(), cap));
    idle.push_back(cap - x.cpu_s());
    wall_u.push_back(x.wall_s);
    double lead_end = x.run_start_s;
    for (const UnitOut& u : x.units) {
      if (u.leader) lead_end = std::max(lead_end, u.end_s);
    }
    leader.push_back(lead_end - x.run_start_s);
  }
  for (const Round& x : t.traced) wall_t.push_back(x.wall_s);

  const auto hit_ratio = [](std::uint64_t h, std::uint64_t m) {
    return ratio(static_cast<double>(h), static_cast<double>(h + m));
  };
  const CacheDelta& cd = r.cache;
  const std::map<std::string, SpanTotals> us = unit_spans.totals();
  const std::map<std::string, SpanTotals> rs = replay_spans.totals();
  const auto self_s = [](const std::map<std::string, SpanTotals>& m,
                         const char* k) {
    const auto it = m.find(k);
    return it == m.end() ? 0.0 : it->second.self_s;
  };
  const auto per_call_us = [](const std::map<std::string, SpanTotals>& m,
                              const char* k, bool self) {
    const auto it = m.find(k);
    if (it == m.end() || it->second.count == 0) return 0.0;
    return (self ? it->second.self_s : it->second.total_s) * 1e6 /
           static_cast<double>(it->second.count);
  };
  const double wall_untraced = median(wall_u);

  return {
      {"sched.submits", count("sched.submits"), "count"},
      {"sched.cancels", count("sched.cancels"), "count"},
      {"sched.passes", count("sched.passes"), "count"},
      {"sched.declines", count("sched.declines"), "count"},
      {"sched.max_queue", max_queue, "jobs"},
      {"grid.replicas_per_job",
       ratio(count("sched.submits"), count("workload.jobs")), "ratio"},
      {"grid.useful_ratio",
       ratio(count("sched.starts"), count("sched.submits")), "ratio"},
      {"grid.cancels", count("grid.cancels"), "count"},
      {"grid.submit_us", per_call_us(rs, "grid.submit", false), "us"},
      {"grid.duplicate_starts", count("grid.duplicate_starts"), "count"},
      {"des.events", static_cast<double>(t.replay.events), "count"},
      {"des.step_us", per_call_us(rs, "des.step", true), "us"},
      {"workload.jobs", count("workload.jobs"), "count"},
      {"workload.stream_hit_ratio", hit_ratio(cd.stream_hits, cd.stream_misses),
       "ratio"},
      {"workload.checkpoint_hit_ratio",
       hit_ratio(cd.checkpoint_hits, cd.checkpoint_misses), "ratio"},
      {"workload.draw_hit_ratio", hit_ratio(cd.draw_hits, cd.draw_misses),
       "ratio"},
      {"workload.resident_trace_mb", resident / (1024.0 * 1024.0), "MB"},
      {"workload.generate_s", self_s(rs, "workload.generate"), "s"},
      {"exec.busy_frac", median(busy), "ratio"},
      {"exec.idle_s", median(idle), "s"},
      {"exec.leader_s", median(leader), "s"},
      {"core.live_state_mb", live / (1024.0 * 1024.0), "MB"},
      {"pdes.windows", count("pdes.windows"), "count"},
      {"pdes.windows_per_job",
       ratio(count("pdes.windows"), count("workload.jobs")), "ratio"},
      {"metrics.fold_s", self_s(rs, "metrics.fold"), "s"},
      {"span.exec.run.self_s", self_s(us, "exec.run"), "s"},
      {"span.core.unit.self_s", self_s(us, "core.unit"), "s"},
      {"span.workload.generate.self_s", self_s(rs, "workload.generate"), "s"},
      {"span.grid.submit.self_s", self_s(rs, "grid.submit"), "s"},
      {"span.des.step.self_s", self_s(rs, "des.step"), "s"},
      {"span.metrics.fold.self_s", self_s(rs, "metrics.fold"), "s"},
      {"trace.coverage_frac",
       ratio(replay_spans.root_coverage_s(0), t.replay.wall_s), "ratio"},
      {"trace.overhead_frac",
       ratio(median(wall_t) - wall_untraced, wall_untraced), "ratio"},
  };
}

// ------------------------------------------------------------------ main ---

int run(const Args& a) {
  if (const char* defect = build_defect()) {
    std::fprintf(stderr, "error: refusing to report: %s\n", defect);
    return 3;
  }
  const int cpus = online_cpus();
  const int workers = std::max(1, std::min(kMaxWorkers, cpus));
  std::printf("host: nproc=%d hardware_concurrency=%u workers=%d "
              "compiler=\"%s\" commit=%s source=%s\n",
              cpus, std::thread::hardware_concurrency(), workers, __VERSION__,
              a.commit.c_str(), a.source_digest.c_str());

  // At the default seed outputs are compared with the stored reference;
  // any other seed is "unseen" and keeps only the cross-round and
  // cross-worker checks.
  const bool pinned = a.seed == kDefaultSeed && !a.reference.empty() &&
                      !a.write_reference;
  Reference ref;
  if (pinned) {
    ref = load_reference(a.reference, a.workload, a.seed);
    if (ref.units.empty()) {
      throw std::runtime_error("reference has no entries for " + a.workload);
    }
  }
  std::printf("seed %" PRIu64 ": %s\n", a.seed,
              pinned ? "outputs compared with the stored reference"
                     : "no reference; cross-round and cross-worker checks");
  Checker check(pinned ? &ref : nullptr);
  const Clock::time_point start = Clock::now();

  if (a.trace == 0) {
    std::vector<Round> rounds;
    while (static_cast<int>(rounds.size()) < kMinRounds ||
           elapsed_s(start) < a.seconds) {
      rounds.push_back(run_round(a.workload, a.seed, workers, nullptr));
      check.add(rounds.back());
    }
    const std::vector<Metric> m = end_to_end(rounds, a.workload);
    if (a.write_reference) write_reference(a, check, nullptr);
    print_result(check, m);
    return check.correct() ? 0 : 1;
  }

  Traced t;
  Tracer unit_spans(Clock::now());
  while (t.untraced.size() < 2 || elapsed_s(start) < a.seconds) {
    t.untraced.push_back(run_round(a.workload, a.seed, workers, nullptr));
    check.add(t.untraced.back());
    t.traced.push_back(run_round(a.workload, a.seed, workers, &unit_spans));
    check.add(t.traced.back());
  }
  // The traced one-worker rerun must reproduce the W-worker checksums.
  Tracer serial_spans(Clock::now());
  check.add(run_round(a.workload, a.seed, 1, &serial_spans));

  const Workload w = make_workload(a.workload, a.seed);
  Tracer replay_spans(Clock::now());
  try {
    t.replay = replay_unit(w.units[w.replay_unit].config, replay_spans);
    if (pinned) {
      if (!ref.has_replay || ref.replay != t.replay.checksum) {
        check.fail("layer replay checksum differs from the reference");
      }
      if (ref.replay_events != t.replay.events) {
        check.fail("des.events differs from the reference");
      }
    }
  } catch (const std::exception& e) {
    check.fail(std::string("layer replay threw: ") + e.what());
  }
  std::printf("workload %s: %zu untraced + %zu traced rounds at %d workers, "
              "1 traced round at 1 worker; replayed unit %zu (%s)\n",
              a.workload.c_str(), t.untraced.size(), t.traced.size(), workers,
              w.replay_unit, w.units[w.replay_unit].label.c_str());

  const std::vector<Metric> m =
      per_layer(t, check, serial_spans, replay_spans);
  for (const auto& [name, tot] : replay_spans.totals()) {
    std::printf("  span %-18s count %9" PRIu64 "  total %10.6f s  self "
                "%10.6f s\n",
                name.c_str(), tot.count, tot.total_s, tot.self_s);
  }
  unit_spans.write(a.spans_dir + "/spans-" + a.workload + "-units.tsv");
  serial_spans.write(a.spans_dir + "/spans-" + a.workload + "-serial.tsv");
  replay_spans.write(a.spans_dir + "/spans-" + a.workload + "-replay.tsv");
  if (a.write_reference) write_reference(a, check, &t.replay);
  print_result(check, m);
  return check.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
