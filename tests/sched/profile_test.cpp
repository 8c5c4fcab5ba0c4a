#include "rrsim/sched/profile.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <utility>
#include <vector>

#include "rrsim/util/rng.h"

namespace rrsim::sched {
namespace {

TEST(Profile, StartsFullyFree) {
  const Profile p(64);
  EXPECT_EQ(p.total_nodes(), 64);
  EXPECT_EQ(p.free_at(0.0), 64);
  EXPECT_EQ(p.free_at(1e9), 64);
}

TEST(Profile, RejectsBadConstruction) {
  EXPECT_THROW(Profile(0), std::invalid_argument);
  EXPECT_THROW(Profile(-5), std::invalid_argument);
}

TEST(Profile, ReserveCreatesStep) {
  Profile p(10);
  p.reserve(5.0, 10.0, 4);
  EXPECT_EQ(p.free_at(0.0), 10);
  EXPECT_EQ(p.free_at(5.0), 6);
  EXPECT_EQ(p.free_at(14.999), 6);
  EXPECT_EQ(p.free_at(15.0), 10);
}

TEST(Profile, OverlappingReservationsStack) {
  Profile p(10);
  p.reserve(0.0, 10.0, 3);
  p.reserve(5.0, 10.0, 3);
  EXPECT_EQ(p.free_at(2.0), 7);
  EXPECT_EQ(p.free_at(7.0), 4);
  EXPECT_EQ(p.free_at(12.0), 7);
  EXPECT_EQ(p.free_at(20.0), 10);
}

TEST(Profile, ReserveRejectsOverCapacity) {
  Profile p(4);
  p.reserve(0.0, 10.0, 3);
  EXPECT_THROW(p.reserve(5.0, 2.0, 2), std::logic_error);
}

TEST(Profile, ReserveRejectsBadArguments) {
  Profile p(4);
  EXPECT_THROW(p.reserve(-1.0, 1.0, 1), std::invalid_argument);
  EXPECT_THROW(p.reserve(0.0, 0.0, 1), std::invalid_argument);
  EXPECT_THROW(p.reserve(0.0, 1.0, 0), std::invalid_argument);
}

TEST(Profile, MinFreeOverWindow) {
  Profile p(10);
  p.reserve(5.0, 5.0, 6);
  EXPECT_EQ(p.min_free(0.0, 5.0), 10);   // window ends as dip begins
  EXPECT_EQ(p.min_free(0.0, 6.0), 4);    // window overlaps the dip
  EXPECT_EQ(p.min_free(6.0, 2.0), 4);    // inside the dip
  EXPECT_EQ(p.min_free(10.0, 5.0), 10);  // after release
}

TEST(Profile, EarliestStartImmediateWhenFree) {
  Profile p(8);
  EXPECT_EQ(p.earliest_start(0.0, 8, 100.0), 0.0);
  EXPECT_EQ(p.earliest_start(42.0, 1, 1.0), 42.0);
}

TEST(Profile, EarliestStartWaitsForRelease) {
  Profile p(8);
  p.reserve(0.0, 50.0, 8);
  EXPECT_EQ(p.earliest_start(0.0, 1, 10.0), 50.0);
}

TEST(Profile, EarliestStartFindsGapBetweenReservations) {
  Profile p(8);
  p.reserve(0.0, 10.0, 8);
  p.reserve(30.0, 10.0, 8);
  // A 20-second job fits exactly in the [10, 30) gap.
  EXPECT_EQ(p.earliest_start(0.0, 8, 20.0), 10.0);
  // A 21-second job does not; it must wait until 40.
  EXPECT_EQ(p.earliest_start(0.0, 8, 21.0), 40.0);
}

TEST(Profile, EarliestStartSkipsTooSmallGap) {
  Profile p(8);
  p.reserve(0.0, 10.0, 4);   // 4 free until 10
  p.reserve(10.0, 10.0, 8);  // 0 free in [10, 20)
  // 5 nodes for 15 s cannot use [0,10) (only 4 free) nor span [10,20).
  EXPECT_EQ(p.earliest_start(0.0, 5, 15.0), 20.0);
}

TEST(Profile, EarliestStartRespectsFromInsideSegment) {
  Profile p(8);
  p.reserve(20.0, 10.0, 8);
  EXPECT_EQ(p.earliest_start(5.0, 8, 15.0), 5.0);
  EXPECT_EQ(p.earliest_start(6.0, 8, 15.0), 30.0);  // would hit the wall
}

TEST(Profile, EarliestStartRejectsBadArguments) {
  Profile p(8);
  EXPECT_THROW(p.earliest_start(0.0, 0, 1.0), std::invalid_argument);
  EXPECT_THROW(p.earliest_start(0.0, 9, 1.0), std::invalid_argument);
  EXPECT_THROW(p.earliest_start(0.0, 1, 0.0), std::invalid_argument);
}

TEST(Profile, ReserveAtEarliestStartNeverThrows_Property) {
  // Property: for any reservation pattern, reserving at the time
  // earliest_start returns is always feasible.
  util::Rng rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    Profile p(16);
    for (int i = 0; i < 30; ++i) {
      const int nodes = static_cast<int>(rng.between(1, 16));
      const double duration = rng.uniform(0.5, 50.0);
      const double from = rng.uniform(0.0, 100.0);
      const Time start = p.earliest_start(from, nodes, duration);
      ASSERT_GE(start, from);
      ASSERT_GE(p.min_free(start, duration), nodes);
      ASSERT_NO_THROW(p.reserve(start, duration, nodes));
    }
    // Capacity is never negative anywhere.
    for (const auto& [t, free] : p.steps()) {
      ASSERT_GE(free, 0);
      ASSERT_LE(free, 16);
    }
    // The final segment always returns to full capacity.
    ASSERT_EQ(p.steps().back().second, 16);
  }
}

TEST(Profile, EarliestStartIsEarliest_Property) {
  // Property: no feasible start strictly earlier than the returned one
  // exists at any breakpoint or at `from` itself.
  util::Rng rng(8);
  for (int trial = 0; trial < 100; ++trial) {
    Profile p(8);
    for (int i = 0; i < 10; ++i) {
      const int nodes = static_cast<int>(rng.between(1, 8));
      const double duration = rng.uniform(1.0, 20.0);
      const Time start = p.earliest_start(0.0, nodes, duration);
      p.reserve(start, duration, nodes);
    }
    const int nodes = static_cast<int>(rng.between(1, 8));
    const double duration = rng.uniform(1.0, 20.0);
    const Time start = p.earliest_start(0.0, nodes, duration);
    // Check candidate times strictly before `start`.
    if (p.min_free(0.0, duration) >= nodes) {
      ASSERT_EQ(start, 0.0);
    }
    for (const auto& [t, free] : p.steps()) {
      if (t >= start) break;
      ASSERT_LT(p.min_free(t, duration), nodes)
          << "found earlier feasible anchor at " << t;
    }
  }
}

TEST(Profile, ReleaseIsExactInverseOfReserve) {
  Profile p(10);
  p.reserve(0.0, 20.0, 3);
  p.reserve(5.0, 10.0, 4);
  const auto before = p.steps();
  p.reserve(7.5, 4.0, 2);
  p.release_all({{7.5, 7.5 + 4.0, 2}});
  EXPECT_EQ(p.steps(), before);  // breakpoints restored bit-exactly
}

TEST(Profile, ReleaseCoalescesAdjacentEqualLevels) {
  Profile p(10);
  p.reserve(5.0, 10.0, 4);
  p.release_all({{5.0, 15.0, 4}});
  // Back to a single fully-free segment: no leftover breakpoints.
  ASSERT_EQ(p.steps().size(), 1u);
  EXPECT_EQ(p.steps().front(), (std::pair<Time, int>{0.0, 10}));
}

TEST(Profile, ReleaseRejectsUnmatchedAndLeavesProfileUntouched) {
  Profile p(10);
  p.reserve(0.0, 10.0, 3);
  const auto before = p.steps();
  // [5, 15) is only covered by a reservation on [5, 10): releasing 3
  // nodes over the whole window would push [10, 15) above capacity.
  EXPECT_THROW(p.release_all({{5.0, 15.0, 3}}), std::logic_error);
  EXPECT_EQ(p.steps(), before);
  EXPECT_THROW(p.release_all({{-1.0, 0.0, 1}}), std::invalid_argument);
  EXPECT_THROW(p.release_all({{0.0, 0.0, 1}}), std::invalid_argument);
  EXPECT_THROW(p.release_all({{0.0, 1.0, 0}}), std::invalid_argument);
}

TEST(Profile, ReserveRejectsOverCapacityAndLeavesProfileUntouched) {
  Profile p(4);
  p.reserve(0.0, 10.0, 3);
  const auto before = p.steps();
  EXPECT_THROW(p.reserve(5.0, 10.0, 2), std::logic_error);
  EXPECT_EQ(p.steps(), before);
}

TEST(Profile, ReleaseUntilHitsExactEndBreakpoint) {
  Profile p(8);
  const Time start = 0.1;
  const Time duration = 0.2;
  p.reserve(start, duration, 5);
  // 0.1 + 0.2 is not representable; the breakpoint sits at the rounded
  // sum. Releasing the tail from mid-interval must erase it exactly.
  const Time end = start + duration;
  p.release_all({{0.15, end, 5}});
  p.release_all({{start, 0.15, 5}});
  ASSERT_EQ(p.steps().size(), 1u);
  EXPECT_EQ(p.free_at(0.2), 8);
}

TEST(Profile, ResetRestoresFullyFree) {
  Profile p(6);
  p.reserve(1.0, 2.0, 3);
  p.reserve(10.0, 5.0, 6);
  p.reset();
  ASSERT_EQ(p.steps().size(), 1u);
  EXPECT_EQ(p.free_at(0.0), 6);
  EXPECT_EQ(p.total_nodes(), 6);
}

TEST(Profile, PruneBeforePreservesTheFutureFunction) {
  Profile p(8);
  p.reserve(0.0, 10.0, 8);   // expired by t=20
  p.reserve(15.0, 10.0, 4);  // active at t=20
  p.reserve(30.0, 10.0, 6);
  const Profile copy = p;
  p.prune_before(20.0);
  EXPECT_LT(p.steps().size(), copy.steps().size());
  for (double t : {20.0, 24.999, 25.0, 30.0, 39.0, 40.0, 100.0}) {
    EXPECT_EQ(p.free_at(t), copy.free_at(t)) << "t=" << t;
  }
  // The result-defining anchors survive with their exact values.
  EXPECT_EQ(p.earliest_start(20.0, 6, 5.0), copy.earliest_start(20.0, 6, 5.0));
  EXPECT_EQ(p.earliest_start(20.0, 8, 1.0), copy.earliest_start(20.0, 8, 1.0));
  EXPECT_TRUE(p.future_equals(copy, 20.0));
}

TEST(Profile, FutureEqualsDiscriminates) {
  Profile a(8);
  Profile b(8);
  a.reserve(10.0, 5.0, 3);
  b.reserve(10.0, 5.0, 3);
  EXPECT_TRUE(a.future_equals(b, 0.0));
  b.reserve(20.0, 1.0, 1);
  EXPECT_FALSE(a.future_equals(b, 0.0));
  EXPECT_TRUE(a.future_equals(b, 21.0));  // past differences invisible
}

TEST(Profile, CanonicalAfterRandomReserveRelease_Property) {
  // Property: after any interleaving of reserves and exact releases, the
  // representation stays canonical (no adjacent equal levels) and the
  // capacity function matches a brute-force per-unit-time oracle.
  // Integer-valued times keep the oracle's unit sampling exact.
  constexpr int kTotal = 12;
  constexpr int kHorizon = 200;
  util::Rng rng(21);
  for (int trial = 0; trial < 50; ++trial) {
    Profile p(kTotal);
    std::vector<int> oracle(kHorizon, kTotal);  // free nodes per unit slot
    struct Res {
      Time start, duration;
      int nodes;
    };
    std::vector<Res> active;
    for (int op = 0; op < 120; ++op) {
      const bool do_release = !active.empty() && rng.chance(0.4);
      if (do_release) {
        const std::size_t k = rng.below(active.size());
        const Res r = active[k];
        active.erase(active.begin() + static_cast<std::ptrdiff_t>(k));
        ASSERT_NO_THROW(
            p.release_all({{r.start, r.start + r.duration, r.nodes}}));
        for (int t = static_cast<int>(r.start);
             t < static_cast<int>(r.start + r.duration); ++t) {
          oracle[static_cast<std::size_t>(t)] += r.nodes;
        }
      } else {
        const Res r{static_cast<Time>(rng.between(0, 150)),
                    static_cast<Time>(rng.between(1, 40)),
                    static_cast<int>(rng.between(1, kTotal))};
        const int end = static_cast<int>(r.start + r.duration);
        const int window_min = *std::min_element(
            oracle.begin() + static_cast<int>(r.start), oracle.begin() + end);
        if (window_min < r.nodes) {
          ASSERT_THROW(p.reserve(r.start, r.duration, r.nodes),
                       std::logic_error);
          continue;
        }
        ASSERT_NO_THROW(p.reserve(r.start, r.duration, r.nodes));
        active.push_back(r);
        for (int t = static_cast<int>(r.start); t < end; ++t) {
          oracle[static_cast<std::size_t>(t)] -= r.nodes;
        }
      }
      // Canonical: strictly increasing times, no adjacent equal levels.
      const auto& steps = p.steps();
      for (std::size_t i = 1; i < steps.size(); ++i) {
        ASSERT_LT(steps[i - 1].first, steps[i].first);
        ASSERT_NE(steps[i - 1].second, steps[i].second);
      }
      // Function matches the oracle at every unit-slot midpoint.
      for (int t = 0; t < kHorizon; ++t) {
        ASSERT_EQ(p.free_at(t + 0.5), oracle[static_cast<std::size_t>(t)])
            << "trial=" << trial << " op=" << op << " t=" << t;
      }
    }
    // Releasing everything returns the profile to a single free segment.
    for (const Res& r : active) {
      p.release_all({{r.start, r.start + r.duration, r.nodes}});
    }
    ASSERT_EQ(p.steps().size(), 1u);
    ASSERT_EQ(p.steps().front().second, kTotal);
  }
}

TEST(Profile, HintedLookupsMatchBruteForce_Property) {
  // Property: point lookups are hint-independent — interleaving sequential
  // scans with far jumps (which make the hint maximally stale) always
  // matches a from-scratch scan over steps().
  util::Rng rng(22);
  Profile p(16);
  for (int i = 0; i < 40; ++i) {
    const int nodes = static_cast<int>(rng.between(1, 8));
    const double duration = rng.uniform(0.5, 30.0);
    const Time start = p.earliest_start(rng.uniform(0.0, 300.0), nodes,
                                        duration);
    p.reserve(start, duration, nodes);
  }
  const auto& steps = p.steps();
  auto brute = [&](Time t) {
    int level = steps.front().second;
    for (const auto& [bt, free] : steps) {
      if (bt <= t) level = free;
    }
    return level;
  };
  for (int q = 0; q < 2000; ++q) {
    // Alternate short forward steps with uniform jumps.
    const Time t = (q % 3 == 2) ? rng.uniform(0.0, 400.0)
                                : static_cast<Time>(q) * 0.2;
    ASSERT_EQ(p.free_at(t), brute(t)) << "t=" << t;
  }
}

// ---------------------------------------------------------------------------
// Differential oracle. NaiveProfile is a verbatim copy of Profile as it was
// before the one-scan search and the batched release: earliest_start()
// retries every anchor, and every reserve/release splits both ends and
// coalesces on its own. Profile must return the same starts and hold the
// same breakpoints after every operation.
class NaiveProfile {
 public:
  explicit NaiveProfile(int total_nodes) : total_(total_nodes) {
    steps_.emplace_back(0.0, total_);
  }

  const std::vector<std::pair<Time, int>>& steps() const { return steps_; }

  Time earliest_start(Time from, int nodes, Time duration) const {
    if (nodes < 1 || nodes > total_) {
      throw std::invalid_argument("earliest_start: nodes out of range");
    }
    if (duration <= 0.0) {
      throw std::invalid_argument("earliest_start: non-positive duration");
    }
    if (from < 0.0) from = 0.0;
    const std::size_t start_seg = segment_index(from);
    for (std::size_t a = start_seg; a < steps_.size(); ++a) {
      const Time candidate = std::max(from, steps_[a].first);
      if (steps_[a].second < nodes) continue;
      const Time end = candidate + duration;
      bool feasible = true;
      for (std::size_t j = a + 1; j < steps_.size() && steps_[j].first < end;
           ++j) {
        if (steps_[j].second < nodes) {
          feasible = false;
          break;
        }
      }
      if (feasible) return candidate;
    }
    throw std::logic_error("profile never regains requested capacity");
  }

  void reserve(Time start, Time duration, int nodes) {
    apply(start, start + duration, -nodes);
  }
  void release_until(Time start, Time end, int nodes) {
    apply(start, end, nodes);
  }

  void prune_before(Time t) {
    const std::size_t i = segment_index(t);
    if (i == 0) return;
    steps_.erase(steps_.begin(),
                 steps_.begin() + static_cast<std::ptrdiff_t>(i));
  }

 private:
  std::size_t segment_index(Time t) const {
    auto it = std::upper_bound(steps_.begin(), steps_.end(), t,
                               [](Time value, const std::pair<Time, int>& s) {
                                 return value < s.first;
                               });
    return it == steps_.begin()
               ? 0
               : static_cast<std::size_t>(it - steps_.begin()) - 1;
  }

  std::size_t split_at(Time t) {
    const std::size_t i = segment_index(t);
    if (steps_[i].first == t) return i;
    steps_.insert(steps_.begin() + static_cast<std::ptrdiff_t>(i) + 1,
                  {t, steps_[i].second});
    return i + 1;
  }

  void apply(Time start, Time end, int delta) {
    const std::size_t first = split_at(start);
    const std::size_t last = split_at(end);
    for (std::size_t i = first; i < last; ++i) {
      const int level = steps_[i].second + delta;
      if (level < 0 || level > total_) {
        coalesce_around(first, last);
        throw std::logic_error("capacity out of range");
      }
    }
    for (std::size_t i = first; i < last; ++i) steps_[i].second += delta;
    coalesce_around(first, last);
  }

  void coalesce_around(std::size_t first, std::size_t last) {
    std::size_t lo = first > 0 ? first - 1 : 0;
    std::size_t hi = std::min(last + 1, steps_.size());
    std::size_t write = lo;
    for (std::size_t read = lo; read < hi; ++read) {
      if (write > 0 && steps_[read].second == steps_[write - 1].second) {
        continue;
      }
      if (write != read) steps_[write] = steps_[read];
      ++write;
    }
    if (write != hi) {
      steps_.erase(steps_.begin() + static_cast<std::ptrdiff_t>(write),
                   steps_.begin() + static_cast<std::ptrdiff_t>(hi));
    }
  }

  int total_;
  std::vector<std::pair<Time, int>> steps_;
};

/// A reservation held by the churn driver: [start, end) as reserved.
struct Held {
  Time start;
  Time end;
  int nodes;
};

/// The part of `h` a release at `now` returns, as CBF clips it: all of it
/// if it starts at or after `now`, else its future tail; false if nothing
/// of it lies ahead.
bool clip_to_future(const Held& h, Time now, Profile::Interval& out) {
  out = Profile::Interval{std::max(h.start, now), h.end, h.nodes};
  return out.end > out.start;
}

/// Randomized churn over both profiles: reserve-at-earliest (from `now`
/// or from inside a segment), single releases, batched releases of a
/// random subset, tail releases, prunes, and a clock that advances in
/// integer steps so breakpoints tie. Asserts identical starts and
/// breakpoints after every operation.
void run_differential_churn(int total, std::uint64_t seed, int ops,
                            bool integer_durations) {
  util::Rng rng(seed);
  Profile p(total);
  NaiveProfile naive(total);
  std::vector<Held> held;
  std::vector<Profile::Interval> batch;
  Time now = 0.0;
  for (int op = 0; op < ops; ++op) {
    SCOPED_TRACE(::testing::Message()
                 << "seed=" << seed << " total=" << total << " op=" << op);
    const double dice = rng.uniform01();
    if (dice < 0.45 || held.empty()) {
      const int nodes = static_cast<int>(rng.between(1, total));
      const Time duration =
          integer_durations || rng.chance(0.7)
              ? static_cast<Time>(rng.between(1, 40))
              : rng.uniform(0.25, 40.0);
      // Half the searches start inside a segment rather than at `now`.
      const Time from =
          rng.chance(0.5) ? now : now + static_cast<Time>(rng.between(0, 30)) + 0.5;
      const Time query = p.earliest_start(from, nodes, duration);
      const Time expect = naive.earliest_start(from, nodes, duration);
      ASSERT_EQ(query, expect);
      const Time s = p.reserve_earliest(from, nodes, duration);
      ASSERT_EQ(s, expect);
      naive.reserve(expect, duration, nodes);
      held.push_back(Held{s, s + duration, nodes});
    } else if (dice < 0.60) {
      // One reservation back, whole, when it is still wholly ahead.
      const std::size_t k = rng.below(held.size());
      if (held[k].start < now) continue;
      const Held h = held[k];
      held.erase(held.begin() + static_cast<std::ptrdiff_t>(k));
      p.release_all({{h.start, h.end, h.nodes}});
      naive.release_until(h.start, h.end, h.nodes);
    } else if (dice < 0.80) {
      // A batch: a random subset, released together vs one by one.
      batch.clear();
      std::vector<Held> keep;
      for (const Held& h : held) {
        Profile::Interval iv{};
        if (rng.chance(0.5)) {
          if (clip_to_future(h, now, iv)) batch.push_back(iv);
        } else {
          keep.push_back(h);
        }
      }
      held.swap(keep);
      p.release_all(batch);
      for (const Profile::Interval& iv : batch) {
        naive.release_until(iv.start, iv.end, iv.nodes);
      }
    } else if (dice < 0.90) {
      // Release a tail [cut, end), as an early completion does; the head
      // stays reserved.
      const std::size_t k = rng.below(held.size());
      Held& h = held[k];
      const Time cut = std::max(now, h.start + 0.5 * (h.end - h.start));
      if (!(cut > h.start && cut < h.end)) continue;
      p.release_all({{cut, h.end, h.nodes}});
      naive.release_until(cut, h.end, h.nodes);
      h.end = cut;
    } else {
      now += static_cast<Time>(rng.between(0, 6));
      p.prune_before(now);
      naive.prune_before(now);
    }
    ASSERT_EQ(p.steps(), naive.steps());
  }
}

TEST(ProfileDifferential, MatchesNaiveUnderIntegerChurn) {
  for (const int total : {1, 4, 16}) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      run_differential_churn(total, seed, 600, /*integer_durations=*/true);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(ProfileDifferential, MatchesNaiveWithFractionalDurations) {
  for (const int total : {3, 32}) {
    for (std::uint64_t seed = 11; seed <= 14; ++seed) {
      run_differential_churn(total, seed, 600, /*integer_durations=*/false);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(ProfileDifferential, SkipAheadPastBlockingSegments) {
  // Several blocking dips closer together than the window: the search
  // must resume after each blocker and land where the naive scan does.
  Profile p(8);
  NaiveProfile naive(8);
  for (const Time t : {2.0, 5.0, 9.0, 14.0}) {
    p.reserve(t, 1.0, 6);
    naive.reserve(t, 1.0, 6);
  }
  for (const Time d : {1.0, 2.0, 3.0, 4.0, 5.0, 6.0}) {
    for (const Time from : {0.0, 0.5, 2.5, 3.0, 10.0}) {
      EXPECT_EQ(p.earliest_start(from, 4, d), naive.earliest_start(from, 4, d))
          << "from=" << from << " d=" << d;
    }
  }
  // The widest gap, [10, 14), is 4 long; a 4.5 window fits only after 15.
  EXPECT_EQ(p.reserve_earliest(0.0, 4, 4.5), 15.0);
  naive.reserve(15.0, 4.5, 4);
  EXPECT_EQ(p.steps(), naive.steps());
}

TEST(ProfileDifferential, ReleaseAllMatchesSequentialAtTiedEdges) {
  // Edges that coincide with each other and with existing breakpoints,
  // including an interval that starts where another ends.
  Profile p(10);
  NaiveProfile naive(10);
  const std::vector<Held> res = {
      {0.0, 5.0, 3}, {5.0, 10.0, 3}, {5.0, 10.0, 2}, {2.0, 5.0, 4}};
  for (const Held& h : res) {
    p.reserve(h.start, h.end - h.start, h.nodes);
    naive.reserve(h.start, h.end - h.start, h.nodes);
  }
  ASSERT_EQ(p.steps(), naive.steps());
  std::vector<Profile::Interval> batch;
  batch.reserve(res.size());
  for (const Held& h : res) batch.push_back({h.start, h.end, h.nodes});
  batch.pop_back();
  p.release_all(batch);
  for (const Profile::Interval& iv : batch) {
    naive.release_until(iv.start, iv.end, iv.nodes);
  }
  EXPECT_EQ(p.steps(), naive.steps());
  p.release_all({{2.0, 5.0, 4}});
  ASSERT_EQ(p.steps().size(), 1u);
  EXPECT_EQ(p.steps().front(), (std::pair<Time, int>{0.0, 10}));
  p.release_all({});  // an empty batch is a no-op
  EXPECT_EQ(p.steps().size(), 1u);
}

TEST(ProfileDifferential, ReleaseAllThrowsAndLeavesProfileUntouched) {
  Profile p(10);
  p.reserve(0.0, 10.0, 3);
  p.reserve(4.0, 4.0, 5);
  p.prune_before(2.0);  // first breakpoint stays at 0
  const auto before = p.steps();
  // The same reservation twice in one batch: the second copy has nothing
  // to give back, and it is caught only once the merge reaches [4, 8).
  EXPECT_THROW(p.release_all({{0.0, 10.0, 3}, {4.0, 8.0, 5}, {4.0, 8.0, 5}}),
               std::logic_error);
  EXPECT_EQ(p.steps(), before);
  // An over-release that only exceeds capacity past the last reservation.
  EXPECT_THROW(p.release_all({{0.0, 10.0, 3}, {9.0, 12.0, 1}}),
               std::logic_error);
  EXPECT_EQ(p.steps(), before);
  // Malformed intervals are rejected before anything is merged.
  EXPECT_THROW(p.release_all({{0.0, 10.0, 3}, {5.0, 5.0, 1}}),
               std::invalid_argument);
  EXPECT_THROW(p.release_all({{0.0, 10.0, 3}, {6.0, 5.0, 1}}),
               std::invalid_argument);
  EXPECT_THROW(p.release_all({{4.0, 8.0, 0}}), std::invalid_argument);
  EXPECT_THROW(p.release_all({{-1.0, 8.0, 1}}), std::invalid_argument);
  EXPECT_EQ(p.steps(), before);
  // The profile still works after the failed calls.
  p.release_all({{0.0, 10.0, 3}, {4.0, 8.0, 5}});
  ASSERT_EQ(p.steps().size(), 1u);
}

TEST(ProfileDifferential, ReleaseAllRejectsIntervalBeforeFirstBreakpoint) {
  Profile p(4);
  p.reserve(5.0, 5.0, 2);
  p.reserve(12.0, 3.0, 1);
  p.prune_before(11.0);  // first breakpoint is now 10
  const auto before = p.steps();
  ASSERT_EQ(before.front().first, 10.0);
  EXPECT_THROW(p.release_all({{9.0, 15.0, 1}}), std::invalid_argument);
  EXPECT_EQ(p.steps(), before);
}

}  // namespace
}  // namespace rrsim::sched
