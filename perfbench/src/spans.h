// In-memory span recorder for the traced run. Spans are recorded only
// around calls the benchmark itself makes into rrsim's layers; nothing
// inside src/ is instrumented. Spans stay in memory until write().
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns(Clock::time_point origin) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin)
      .count();
}

struct Span {
  std::uint32_t name = 0;    ///< interned span name
  std::uint32_t parent = 0;  ///< 1-based index of the causing span, 0 = root
  std::uint64_t tag = 0;     ///< request id (unit index, grid job id)
  std::uint32_t thread = 0;
  std::uint32_t label = 0;   ///< interned role label, 0 = none
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Per-name totals: span count, summed duration, and self time (duration
/// minus the part covered by child spans).
struct SpanTotals {
  std::uint64_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};

class Tracer {
 public:
  /// Name index 0 is reserved for "no label".
  explicit Tracer(Clock::time_point origin) : origin_(origin), names_{""} {}

  std::uint32_t intern(const std::string& name);

  /// Opens a span and returns its 1-based id. Thread-safe.
  std::uint32_t open(std::uint32_t name, std::uint32_t parent,
                     std::uint64_t tag, std::uint32_t thread = 0,
                     std::uint32_t label = 0);
  void close(std::uint32_t id);

  std::int64_t now() const { return now_ns(origin_); }

  std::map<std::string, SpanTotals> totals() const;

  /// Length of the union of all root spans' intervals on `thread`, seconds.
  double root_coverage_s(std::uint32_t thread) const;

  /// Writes every span as one tab-separated line
  /// (id, parent, name, label, tag, thread, start_ns, end_ns).
  void write(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::vector<std::string> names_;
  std::vector<Span> spans_;
  mutable std::mutex mu_;
};

/// RAII span. A null tracer records nothing.
class Scoped {
 public:
  Scoped(Tracer* t, std::uint32_t name, std::uint32_t parent,
         std::uint64_t tag, std::uint32_t thread = 0, std::uint32_t label = 0)
      : t_(t),
        id_(t != nullptr ? t->open(name, parent, tag, thread, label) : 0) {}
  ~Scoped() {
    if (t_ != nullptr) t_->close(id_);
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  std::uint32_t id() const { return id_; }

 private:
  Tracer* t_;
  std::uint32_t id_;
};

}  // namespace perfbench
