#include "rrsim/workload/trace_cache.h"

#include <bit>
#include <cstring>
#include <stdexcept>

namespace rrsim::workload {

namespace {

// Leading tag byte of the map key, so entries never collide across kinds.
constexpr char kStreamTag = 'S';
constexpr char kCheckpointTag = 'C';
constexpr char kDrawTag = 'D';
constexpr char kCalibrationTag = 'L';
constexpr char kSpoolTag = 'P';

void append_u64(std::string& out, std::uint64_t v) {
  char buf[sizeof v];
  std::memcpy(buf, &v, sizeof v);
  out.append(buf, sizeof v);
}

void append_double(std::string& out, double v) {
  append_u64(out, std::bit_cast<std::uint64_t>(v));
}

std::string tagged(char tag, const std::string& bytes) {
  std::string k;
  k.reserve(1 + bytes.size());
  k.push_back(tag);
  k += bytes;
  return k;
}

// Field-by-field (never memcpy of the struct): padding bytes are
// indeterminate and would make equal keys compare unequal.
void append_params(std::string& out, const LublinParams& params) {
  for_each_lublin_field(params, [&out](double v) { append_double(out, v); });
}

}  // namespace

std::string TraceKey::bytes() const {
  std::string out;
  out.reserve(30 * sizeof(std::uint64_t) + estimator_name.size());
  append_params(out, params);
  append_u64(out, static_cast<std::uint64_t>(max_nodes));
  append_double(out, horizon);
  append_u64(out, stream_rng.first);
  append_u64(out, stream_rng.second);
  append_u64(out, est_rng.first);
  append_u64(out, est_rng.second);
  append_double(out, estimator_mean_factor);
  out += estimator_name;
  return out;
}

std::string DrawSegmentKey::bytes() const {
  std::string out;
  out.reserve(6 * sizeof(std::uint64_t) + 1);
  append_u64(out, users_start.first);
  append_u64(out, users_start.second);
  append_u64(out, redundancy_start.first);
  append_u64(out, redundancy_start.second);
  append_u64(out, count);
  append_u64(out, users_per_cluster);
  out.push_back(scheme_active ? '\1' : '\0');
  return out;
}

std::string CalibrationKey::bytes() const {
  std::string out;
  out.reserve(21 * sizeof(std::uint64_t));
  append_params(out, params);
  append_u64(out, static_cast<std::uint64_t>(max_nodes));
  append_double(out, target_util);
  append_u64(out, static_cast<std::uint64_t>(samples));
  append_u64(out, rng_start.first);
  append_u64(out, rng_start.second);
  return out;
}

std::string SpoolKey::bytes() const {
  std::string out;
  out.reserve(3 * sizeof(std::uint64_t) + path.size());
  append_u64(out, static_cast<std::uint64_t>(max_nodes));
  append_double(out, horizon);
  append_u64(out, window);
  out += path;
  return out;
}

template <typename Value, typename Make, typename Bytes>
Value TraceCache::get_or_make(std::string key, Value Entry::*slot,
                              std::uint64_t& hits, std::uint64_t& misses,
                              const Make& make, const Bytes& bytes_of) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!enabled_) {
      // Count the lookup as a miss so disabled-mode stats still show how
      // much regeneration the cache would have absorbed.
      ++misses;
    } else if (const auto it = map_.find(key); it != map_.end()) {
      ++hits;
      touch_locked(it);
      return it->second.*slot;
    } else {
      ++misses;
    }
  }
  // Make outside the lock: a miss costs milliseconds (a Lublin stream, a
  // checkpoint scan, a Monte-Carlo calibration, a spooled file), and other
  // threads should neither wait on us nor serialize their own misses. Two
  // threads racing on one key may both make; making is deterministic, so
  // the first to publish wins and the duplicate is bit-identical.
  Value value = make();
  std::lock_guard<std::mutex> lock(mu_);
  if (!enabled_) return value;
  Entry entry;
  entry.bytes = bytes_of(value);
  entry.*slot = std::move(value);
  return publish_locked(std::move(key), std::move(entry)).*slot;
}

TraceCache::StreamPtr TraceCache::get_or_generate(const TraceKey& key,
                                                  const Generator& generate) {
  return get_or_make(
      tagged(kStreamTag, key.bytes()), &Entry::stream, hits_, misses_,
      [&] { return std::make_shared<const JobStream>(generate()); },
      [](const StreamPtr& s) { return s->size() * sizeof(JobSpec); });
}

TraceCache::CheckpointPtr TraceCache::get_or_build_checkpoints(
    const TraceKey& key, std::size_t window, const CheckpointBuilder& build) {
  if (window == 0) throw std::invalid_argument("window must be > 0");
  std::string k = tagged(kCheckpointTag, key.bytes());
  append_u64(k, window);
  return get_or_make(
      std::move(k), &Entry::checkpoints, checkpoint_hits_,
      checkpoint_misses_,
      [&] { return std::make_shared<const CheckpointedTrace>(build()); },
      [](const CheckpointPtr& t) { return t->payload_bytes(); });
}

DrawSegment TraceCache::get_or_advance_draws(const DrawSegmentKey& key,
                                             const DrawAdvancer& advance) {
  return get_or_make(tagged(kDrawTag, key.bytes()), &Entry::draws,
                     draw_hits_, draw_misses_, advance,
                     [](const DrawSegment&) { return sizeof(DrawSegment); });
}

Calibration TraceCache::get_or_calibrate(const CalibrationKey& key,
                                         const Calibrator& calibrate) {
  return get_or_make(tagged(kCalibrationTag, key.bytes()),
                     &Entry::calibration, calibration_hits_,
                     calibration_misses_, calibrate,
                     [](const Calibration&) { return sizeof(Calibration); });
}

TraceCache::SpoolPtr TraceCache::get_or_build_spool(const SpoolKey& key,
                                                    const SpoolBuilder& build) {
  if (key.window == 0) throw std::invalid_argument("window must be > 0");
  // Racing duplicates each spool into their own unlinked temp file; the
  // loser's storage is reclaimed when its shared_ptr dies.
  return get_or_make(
      tagged(kSpoolTag, key.bytes()), &Entry::spool, spool_hits_,
      spool_misses_,
      [&] { return std::make_shared<const WindowSpool>(build()); },
      [](const SpoolPtr& s) { return s->payload_bytes(); });
}

TraceCache::Entry TraceCache::publish_locked(std::string key, Entry entry) {
  const auto [it, inserted] = map_.emplace(std::move(key), std::move(entry));
  if (!inserted) {
    // A racing thread published first. Generation is deterministic, so
    // the two payloads are bit-identical; adopt the published one so all
    // consumers share a single buffer. Treat the reuse as a touch.
    touch_locked(it);
    return it->second;
  }
  lru_.push_back(&it->first);
  it->second.lru = std::prev(lru_.end());
  resident_bytes_ += it->second.bytes;
  // Copy the payload out BEFORE evicting: the fresh entry sits at the
  // recency back, so colder entries go first, but a budget smaller than
  // this one payload evicts the entry itself — eviction may invalidate
  // `it`, and the returned shared_ptrs (not the map node) are what keep
  // the payload alive for the caller.
  Entry published = it->second;
  evict_to_budget_locked();
  return published;
}

void TraceCache::touch_locked(Map::iterator it) {
  lru_.splice(lru_.end(), lru_, it->second.lru);
}

void TraceCache::evict_to_budget_locked() {
  if (byte_budget_ == 0) return;
  while (resident_bytes_ > byte_budget_ && !lru_.empty()) {
    const auto it = map_.find(*lru_.front());
    lru_.pop_front();
    // Every lru_ node should name a live map entry; if the invariant ever
    // drifts, skip the stale node rather than dereference end().
    if (it == map_.end()) continue;
    resident_bytes_ -= it->second.bytes;
    map_.erase(it);
  }
}

void TraceCache::set_enabled(bool on) {
  std::lock_guard<std::mutex> lock(mu_);
  enabled_ = on;
}

bool TraceCache::enabled() const {
  std::lock_guard<std::mutex> lock(mu_);
  return enabled_;
}

void TraceCache::set_byte_budget(std::size_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  byte_budget_ = bytes;
  evict_to_budget_locked();
}

std::size_t TraceCache::byte_budget() const {
  std::lock_guard<std::mutex> lock(mu_);
  return byte_budget_;
}

void TraceCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  map_.clear();
  lru_.clear();
  resident_bytes_ = 0;
  hits_ = 0;
  misses_ = 0;
  checkpoint_hits_ = 0;
  checkpoint_misses_ = 0;
  draw_hits_ = 0;
  draw_misses_ = 0;
  spool_hits_ = 0;
  spool_misses_ = 0;
  calibration_hits_ = 0;
  calibration_misses_ = 0;
}

std::uint64_t TraceCache::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

std::uint64_t TraceCache::misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

std::uint64_t TraceCache::checkpoint_hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return checkpoint_hits_;
}

std::uint64_t TraceCache::checkpoint_misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return checkpoint_misses_;
}

std::uint64_t TraceCache::draw_hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return draw_hits_;
}

std::uint64_t TraceCache::draw_misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return draw_misses_;
}

std::uint64_t TraceCache::spool_hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spool_hits_;
}

std::uint64_t TraceCache::spool_misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spool_misses_;
}

std::uint64_t TraceCache::calibration_hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return calibration_hits_;
}

std::uint64_t TraceCache::calibration_misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return calibration_misses_;
}

std::size_t TraceCache::entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return map_.size();
}

std::size_t TraceCache::resident_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return resident_bytes_;
}

TraceCache& TraceCache::global() {
  static TraceCache instance;
  return instance;
}

}  // namespace rrsim::workload
