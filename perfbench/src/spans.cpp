#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <utility>

namespace perfbench {

std::uint32_t Tracer::intern(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<std::uint32_t>(i);
  }
  names_.push_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

std::uint32_t Tracer::open(std::uint32_t name, std::uint32_t parent,
                           std::uint64_t tag, std::uint32_t thread,
                           std::uint32_t label) {
  const std::int64_t start = now();
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, parent, tag, thread, label, start, start});
  return static_cast<std::uint32_t>(spans_.size());
}

void Tracer::close(std::uint32_t id) {
  const std::int64_t end = now();
  const std::lock_guard<std::mutex> lock(mu_);
  spans_[id - 1].end_ns = end;
}

std::map<std::string, SpanTotals> Tracer::totals() const {
  const std::lock_guard<std::mutex> lock(mu_);
  // Children are nested inside their parent's interval by construction
  // (RAII on one thread), so a parent's self time is its duration minus
  // its direct children's durations.
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent != 0) child_ns[s.parent - 1] += s.end_ns - s.start_ns;
  }
  std::map<std::string, SpanTotals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    SpanTotals& t = out[names_[s.name]];
    const std::int64_t d = s.end_ns - s.start_ns;
    ++t.count;
    t.total_s += static_cast<double>(d) * 1e-9;
    t.self_s += static_cast<double>(d - child_ns[i]) * 1e-9;
  }
  return out;
}

double Tracer::root_coverage_s(std::uint32_t thread) const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::int64_t, std::int64_t>> iv;
  for (const Span& s : spans_) {
    if (s.parent == 0 && s.thread == thread) {
      iv.emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::sort(iv.begin(), iv.end());
  std::int64_t covered = 0;
  std::int64_t reach = 0;
  bool any = false;
  for (const auto& [a, b] : iv) {
    if (!any || a > reach) {
      covered += b - a;
      reach = b;
      any = true;
    } else if (b > reach) {
      covered += b - reach;
      reach = b;
    }
  }
  return static_cast<double>(covered) * 1e-9;
}

void Tracer::write(const std::string& path) const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  std::fprintf(f,
               "id\tparent\tname\tlabel\ttag\tthread\tstart_ns\tend_ns\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%zu\t%u\t%s\t%s\t%llu\t%u\t%lld\t%lld\n", i + 1,
                 s.parent, names_[s.name].c_str(), names_[s.label].c_str(),
                 static_cast<unsigned long long>(s.tag), s.thread,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  std::fclose(f);
}

}  // namespace perfbench
