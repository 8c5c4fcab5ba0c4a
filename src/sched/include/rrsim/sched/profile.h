// Node-availability profile: how many nodes are free over future time.
// This is the planning structure behind Conservative Backfilling and
// behind reservation-based queue-wait prediction (Section 5 of the paper).
#pragma once

#include <utility>
#include <vector>

#include "rrsim/des/simulation.h"

namespace rrsim::sched {

using des::Time;

/// Piecewise-constant free-node count over [0, +inf).
///
/// Represented as breakpoints (t_i, free_i), sorted by t_i, meaning
/// `free_i` nodes are available on [t_i, t_{i+1}); the last segment extends
/// to infinity. The representation is kept canonical — adjacent segments
/// always have distinct levels — so a free-node function has exactly one
/// representation, and point lookups remember the last segment touched, so
/// the sequential access pattern of backfilling scans stays O(1) per step.
///
/// CBF under redundant-request churn drives three operations, each one
/// pass over the breakpoints: reserve_earliest() finds the earliest slot
/// and subtracts it in the same scan (a failed window resumes after the
/// segment that blocked it, not at the next anchor); release_all() adds
/// the freed footprint and the whole queue suffix's reservations back in
/// one sorted merge; and prune_before() drops expired breakpoints.
class Profile {
 public:
  /// A profile with `total_nodes` free everywhere. Throws
  /// std::invalid_argument if total_nodes < 1.
  explicit Profile(int total_nodes);

  /// Total capacity.
  int total_nodes() const noexcept { return total_; }

  /// Free nodes at time `t` (>= 0).
  int free_at(Time t) const;

  /// Smallest free-node count over [start, start + duration).
  int min_free(Time start, Time duration) const;

  /// Earliest time t >= `from` at which `nodes` nodes are simultaneously
  /// free for the whole interval [t, t + duration). Always exists because
  /// the profile eventually returns to a constant level >= nodes whenever
  /// nodes <= total (reservations are finite); throws std::invalid_argument
  /// if nodes > total or nodes < 1 or duration <= 0.
  Time earliest_start(Time from, int nodes, Time duration) const;

  /// earliest_start() followed by reserve() at the slot it found, in one
  /// scan: the search already knows the segments holding both ends of the
  /// window. Returns the start. The result — slot and breakpoints — is
  /// bit-identical to the two separate calls. Same preconditions and
  /// exceptions as earliest_start(); the profile is unchanged when it
  /// throws.
  Time reserve_earliest(Time from, int nodes, Time duration);

  /// Removes `nodes` nodes from the free count over
  /// [start, start + duration). Throws std::logic_error if that would make
  /// any segment negative (callers must reserve only feasible slots); the
  /// profile is unchanged when it throws.
  void reserve(Time start, Time duration, int nodes);

  /// One capacity interval for release_all(): `nodes` over [start, end).
  struct Interval {
    Time start;
    Time end;
    int nodes;
  };

  /// Exact inverse of reserve(), for many intervals at once: adds each
  /// interval's `nodes` back over [start, end) in one merge pass over the
  /// breakpoints, then recanonicalises. Integer deltas commute and the
  /// canonical form is unique, so the result is bit-identical to releasing
  /// the intervals one at a time, in any order.
  ///
  /// Intervals are absolute. A caller releasing a reservation, or its
  /// tail from "now", must pass the end the reservation was made with
  /// (`start + duration`, as reserve() computed it): round-tripping it
  /// through a duration (`end - start`) can move it by an ulp and leave a
  /// stray breakpoint behind.
  ///
  /// Throws std::invalid_argument if an interval is empty (end <= start),
  /// has nodes < 1 or starts before the first breakpoint, and
  /// std::logic_error if the sum would push any segment above
  /// total_nodes() — i.e. if no matching reservation covers an interval.
  /// The profile is unchanged when it throws.
  void release_all(const std::vector<Interval>& intervals);

  /// Returns to the fully-free state without releasing storage, so a
  /// scratch profile can be reused across predictions/rebuilds with no
  /// reallocation.
  void reset();

  /// Garbage-collects breakpoints strictly before the segment containing
  /// `t`: long-lived incremental profiles would otherwise accumulate one
  /// dead breakpoint per expired reservation. Queries earlier than `t`
  /// afterwards report the level of the earliest retained segment; the
  /// function on [t, +inf) is unchanged.
  void prune_before(Time t);

  /// True if this profile and `other` describe the same free-node function
  /// on [from, +inf). Both operands being canonical (no adjacent equal
  /// levels), this compares the level at `from` and every later
  /// breakpoint. Used by the incremental-vs-rebuild invariant checks.
  bool future_equals(const Profile& other, Time from) const;

  /// Breakpoints, for inspection/tests.
  const std::vector<std::pair<Time, int>>& steps() const noexcept {
    return steps_;
  }

#if RRSIM_VALIDATE_ENABLED
  /// Full structural check — strictly increasing breakpoint times, all
  /// levels within [0, total], canonical form (adjacent levels distinct),
  /// trailing level back at full capacity. Runs automatically after every
  /// mutate; callable directly from tests.
  void debug_validate() const;

  /// Corruption hook for the oracle death tests: duplicates the level of
  /// the last segment into a new breakpoint, breaking canonical form.
  void debug_break_canonical();
#endif

 private:
  /// Index of the segment containing `t` (hinted: sequential lookups near
  /// the previous one skip the binary search).
  std::size_t segment_index(Time t) const;

  /// Where the earliest feasible window lies: the segment holding its
  /// start, the start itself, and the first segment at or after its end
  /// (steps_.size() if none).
  struct Slot {
    std::size_t anchor;
    Time start;
    std::size_t end_segment;
  };

  /// The search shared by earliest_start() and reserve_earliest().
  Slot find_slot(Time from, int nodes, Time duration) const;

  /// Ensures a breakpoint exists exactly at `t`; returns its index.
  std::size_t split_at(Time t);

  /// Restores canonicality around the just-modified index range
  /// [first, last]: removes any breakpoint whose level equals its
  /// predecessor's.
  void coalesce_around(std::size_t first, std::size_t last);

  int total_;
  std::vector<std::pair<Time, int>> steps_;
  mutable std::size_t hint_ = 0;  // last segment index returned
};

}  // namespace rrsim::sched
