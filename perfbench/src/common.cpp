#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace perfbench {

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = std::clamp(q, 0.0, 1.0) *
                     static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double peak_rss_mib() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}


std::uint32_t SpanLog::intern(const std::string& name) {
  auto [it, inserted] =
      ids_.try_emplace(name, static_cast<std::uint32_t>(names_.size()));
  if (inserted) names_.push_back(name);
  return it->second;
}

std::uint32_t SpanLog::begin(const std::string& name, std::uint64_t trace,
                             std::uint32_t parent) {
  const std::int64_t t = now_ns();
  return add(name, trace, parent, t, t);
}

std::uint32_t SpanLog::add(const std::string& name, std::uint64_t trace,
                           std::uint32_t parent, std::int64_t start_ns,
                           std::int64_t end_ns) {
  spans_.push_back(Span{intern(name), parent, trace, start_ns, end_ns});
  return static_cast<std::uint32_t>(spans_.size() - 1);
}

void SpanLog::merge(const SpanLog& other) {
  const auto base = static_cast<std::uint32_t>(spans_.size());
  for (const Span& s : other.spans_) {
    add(other.names_[s.name], s.trace,
        s.parent == kNoParent ? kNoParent : s.parent + base, s.start_ns,
        s.end_ns);
  }
}

std::map<std::string, SpanLog::Totals> SpanLog::totals() const {
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (const Span& s : spans_)
    if (s.parent != kNoParent)
      child_ns[s.parent] += static_cast<double>(s.end_ns - s.start_ns);
  std::map<std::string, Totals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const auto dur = static_cast<double>(s.end_ns - s.start_ns);
    Totals& t = out[names_[s.name]];
    ++t.count;
    t.total_ns += dur;
    t.self_ns += dur - child_ns[i];
    t.duration_samples_ns.push_back(dur);
  }
  return out;
}

void SpanLog::write_csv(const std::filesystem::path& path) const {
  std::ofstream out(path);
  out << "name,trace,id,parent,start_ns,end_ns\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << names_[s.name] << ',' << s.trace << ',' << i << ','
        << (s.parent == kNoParent ? -1 : static_cast<long long>(s.parent))
        << ',' << s.start_ns << ',' << s.end_ns << '\n';
  }
  if (!out) throw std::runtime_error("cannot write " + path.string());
}

std::string fmt(const char* format, ...) {
  char buf[1024];
  va_list ap;
  va_start(ap, format);
  std::vsnprintf(buf, sizeof buf, format, ap);
  va_end(ap);
  return buf;
}

}  // namespace perfbench
