#include "rrsim/sched/profile.h"

#include <algorithm>
#include <stdexcept>

namespace rrsim::sched {

namespace {

/// release_all()'s working storage: the sorted interval edges
/// (time, +/-nodes) and the merged breakpoints, whose buffer is swapped
/// into the profile. One set per thread, shared by every profile on it:
/// nothing in it survives a call, and per-profile buffers would make each
/// CBF scheduler hold O(queue) scratch for its whole life.
struct MergeScratch {
  std::vector<std::pair<Time, int>> edges;
  std::vector<std::pair<Time, int>> merged;
};

MergeScratch& merge_scratch() {
  thread_local MergeScratch scratch;
  return scratch;
}

}  // namespace

Profile::Profile(int total_nodes) : total_(total_nodes) {
  if (total_ < 1) throw std::invalid_argument("profile needs >= 1 node");
  steps_.emplace_back(0.0, total_);
}

std::size_t Profile::segment_index(Time t) const {
  // The hint is only an accelerator: validity is checked from scratch, so
  // a stale value (after inserts/erases) can never produce a wrong index.
  if (hint_ < steps_.size() && steps_[hint_].first <= t) {
    if (hint_ + 1 == steps_.size() || t < steps_[hint_ + 1].first) {
      return hint_;
    }
    // One step forward covers the sequential scans of reserve().
    if (hint_ + 2 == steps_.size() || t < steps_[hint_ + 2].first) {
      return ++hint_;
    }
  }
  auto it = std::upper_bound(
      steps_.begin(), steps_.end(), t,
      [](Time value, const std::pair<Time, int>& s) { return value < s.first; });
  if (it == steps_.begin()) {
    hint_ = 0;  // t before first breakpoint
  } else {
    hint_ = static_cast<std::size_t>(it - steps_.begin()) - 1;
  }
  return hint_;
}

int Profile::free_at(Time t) const {
  if (t < 0.0) throw std::invalid_argument("free_at: negative time");
  return steps_[segment_index(t)].second;
}

int Profile::min_free(Time start, Time duration) const {
  if (start < 0.0 || duration <= 0.0) {
    throw std::invalid_argument("min_free: bad interval");
  }
  const Time end = start + duration;
  std::size_t i = segment_index(start);
  int min_free_count = steps_[i].second;
  for (++i; i < steps_.size() && steps_[i].first < end; ++i) {
    min_free_count = std::min(min_free_count, steps_[i].second);
  }
  return min_free_count;
}

Profile::Slot Profile::find_slot(Time from, int nodes, Time duration) const {
  if (nodes < 1 || nodes > total_) {
    throw std::invalid_argument("earliest_start: nodes out of range");
  }
  if (duration <= 0.0) {
    throw std::invalid_argument("earliest_start: non-positive duration");
  }
  if (from < 0.0) from = 0.0;
  // Candidate anchors are `from` and every breakpoint after it; the first
  // anchor whose whole window [t, t + duration) has capacity wins. The
  // final segment always has full capacity (reserve() restores the level
  // at each reservation's end), so the scan terminates.
  //
  // When the window anchored at `a` is blocked by segment j, no anchor in
  // (a, j] can win either: each starts at or after the failed candidate,
  // so (FP addition being monotone) its window end is >= the failed one,
  // which lies beyond steps_[j].first — every such window still contains
  // j. The scan therefore resumes at j + 1, so each segment is visited
  // O(1) times.
  const std::size_t n = steps_.size();
  std::size_t a = segment_index(from);
  while (a < n) {
    if (steps_[a].second < nodes) {
      ++a;
      continue;
    }
    const Time candidate = std::max(from, steps_[a].first);
    const Time end = candidate + duration;
    std::size_t j = a + 1;
    while (j < n && steps_[j].first < end && steps_[j].second >= nodes) ++j;
    if (j == n || steps_[j].first >= end) return Slot{a, candidate, j};
    a = j + 1;
  }
  throw std::logic_error("profile never regains requested capacity");
}

Time Profile::earliest_start(Time from, int nodes, Time duration) const {
  return find_slot(from, nodes, duration).start;
}

Time Profile::reserve_earliest(Time from, int nodes, Time duration) {
  const Slot slot = find_slot(from, nodes, duration);
  // The same end expression reserve() computes, so the end breakpoint is
  // bit-identical to the earliest_start() + reserve() pair's.
  const Time end = slot.start + duration;
  if (end == slot.start) return slot.start;  // duration absorbed: no-op
  // Split at the end first, so the anchor index stays valid. Segment
  // end_segment - 1 holds `end` (steps_[anchor].first <= start < end).
  std::size_t last = slot.end_segment;
  if (last == steps_.size() || steps_[last].first != end) {
    steps_.insert(steps_.begin() + static_cast<std::ptrdiff_t>(last),
                  {end, steps_[last - 1].second});
  }
  std::size_t first = slot.anchor;
  if (steps_[first].first != slot.start) {
    steps_.insert(steps_.begin() + static_cast<std::ptrdiff_t>(first) + 1,
                  {slot.start, steps_[first].second});
    ++first;
    ++last;
  }
  // Every level in the window is >= nodes (find_slot checked), so no
  // segment can go negative.
  for (std::size_t i = first; i < last; ++i) steps_[i].second -= nodes;
  coalesce_around(first, last);
#if RRSIM_VALIDATE_ENABLED
  debug_validate();
#endif
  return slot.start;
}

std::size_t Profile::split_at(Time t) {
  const std::size_t i = segment_index(t);
  if (steps_[i].first == t) return i;
  steps_.insert(steps_.begin() + static_cast<std::ptrdiff_t>(i) + 1,
                {t, steps_[i].second});
  return i + 1;
}

void Profile::coalesce_around(std::size_t first, std::size_t last) {
  // Levels changed on [first, last); the boundaries first-1/first and
  // last-1/last may now be equal as well. Scan once over the closed
  // neighbourhood and drop redundant breakpoints.
  std::size_t lo = first > 0 ? first - 1 : 0;
  std::size_t hi = std::min(last + 1, steps_.size());
  std::size_t write = lo;
  for (std::size_t read = lo; read < hi; ++read) {
    if (write > 0 && steps_[read].second == steps_[write - 1].second) {
      continue;  // same level as predecessor: breakpoint is redundant
    }
    if (write != read) steps_[write] = steps_[read];
    ++write;
  }
  if (write != hi) {
    steps_.erase(steps_.begin() + static_cast<std::ptrdiff_t>(write),
                 steps_.begin() + static_cast<std::ptrdiff_t>(hi));
  }
}

#if RRSIM_VALIDATE_ENABLED
void Profile::debug_validate() const {
  RRSIM_CHECK(!steps_.empty(), "profile has no segments");
  RRSIM_CHECK(steps_.back().second == total_,
              "profile tail is not back at full capacity (a reservation "
              "never ends, or release_all() missed the tail)");
  for (std::size_t i = 0; i < steps_.size(); ++i) {
    RRSIM_CHECK(steps_[i].second >= 0 && steps_[i].second <= total_,
                "profile level outside [0, total_nodes]");
    if (i == 0) continue;
    RRSIM_CHECK(steps_[i - 1].first < steps_[i].first,
                "profile breakpoint times not strictly increasing");
    RRSIM_CHECK(steps_[i - 1].second != steps_[i].second,
                "profile not canonical: adjacent segments share a level");
  }
}

void Profile::debug_break_canonical() {
  steps_.emplace_back(steps_.back().first + 1.0, steps_.back().second);
}
#endif

void Profile::reserve(Time start, Time duration, int nodes) {
  if (start < 0.0 || duration <= 0.0 || nodes < 1) {
    throw std::invalid_argument("reserve: bad arguments");
  }
  const std::size_t first = split_at(start);
  const std::size_t last = split_at(start + duration);
  for (std::size_t i = first; i < last; ++i) {
    if (steps_[i].second < nodes) {
      // Undo the splits so a throwing call leaves the profile untouched
      // (the splits are level-neutral; coalescing removes them).
      coalesce_around(first, last);
      throw std::logic_error("reserve: capacity would go negative");
    }
  }
  for (std::size_t i = first; i < last; ++i) steps_[i].second -= nodes;
  coalesce_around(first, last);
#if RRSIM_VALIDATE_ENABLED
  debug_validate();
#endif
}

void Profile::release_all(const std::vector<Interval>& intervals) {
  if (intervals.empty()) return;
  // Each interval becomes two edges, +nodes at its start and -nodes at its
  // end; sorted by time they give the running delta to add to the levels.
  MergeScratch& scratch = merge_scratch();
  std::vector<std::pair<Time, int>>& edges = scratch.edges;
  std::vector<std::pair<Time, int>>& merged = scratch.merged;
  edges.clear();
  for (const Interval& iv : intervals) {
    if (iv.start < steps_.front().first || iv.end <= iv.start ||
        iv.nodes < 1) {
      throw std::invalid_argument("release_all: bad interval");
    }
    edges.emplace_back(iv.start, iv.nodes);
    edges.emplace_back(iv.end, -iv.nodes);
  }
  std::sort(edges.begin(), edges.end());
  // Merge the edges into the breakpoints in time order, keeping only the
  // points where the level changes. The first breakpoint always stays
  // (every edge is at or after it), as releasing one interval at a time
  // would keep it. steps_ is untouched until the swap, so a throw leaves
  // it as it was.
  merged.clear();
  const std::size_t n = steps_.size();
  const std::size_t m = edges.size();
  std::size_t i = 0;
  std::size_t e = 0;
  int base = 0;
  int delta = 0;
  while (i < n || e < m) {
    const Time t = e == m || (i < n && steps_[i].first <= edges[e].first)
                       ? steps_[i].first
                       : edges[e].first;
    if (i < n && steps_[i].first == t) base = steps_[i++].second;
    while (e < m && edges[e].first == t) delta += edges[e++].second;
    const int level = base + delta;
    if (level > total_) {
      throw std::logic_error("release: no matching reservation");
    }
    if (merged.empty() || merged.back().second != level) {
      merged.emplace_back(t, level);
    }
  }
  steps_.swap(merged);
#if RRSIM_VALIDATE_ENABLED
  debug_validate();
#endif
}

void Profile::reset() {
  steps_.clear();
  steps_.emplace_back(0.0, total_);
  hint_ = 0;
#if RRSIM_VALIDATE_ENABLED
  debug_validate();
#endif
}

void Profile::prune_before(Time t) {
  const std::size_t i = segment_index(t);
  if (i == 0) return;
  // The breakpoint times are kept verbatim (no rewriting to `t`), so the
  // function on [t, inf) — including the exact double values earliest_start
  // can return — is bit-identical to the unpruned profile's.
  steps_.erase(steps_.begin(),
               steps_.begin() + static_cast<std::ptrdiff_t>(i));
  hint_ = 0;
#if RRSIM_VALIDATE_ENABLED
  debug_validate();
#endif
}

bool Profile::future_equals(const Profile& other, Time from) const {
  if (free_at(from) != other.free_at(from)) return false;
  std::size_t i = segment_index(from) + 1;
  std::size_t j = other.segment_index(from) + 1;
  // Both representations are canonical, so the change points after `from`
  // must agree pairwise.
  while (true) {
    const bool ai = i < steps_.size();
    const bool bj = j < other.steps_.size();
    if (!ai || !bj) return ai == bj;
    if (steps_[i] != other.steps_[j]) return false;
    ++i;
    ++j;
  }
}

}  // namespace rrsim::sched
