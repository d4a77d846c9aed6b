// Shared pieces of the end-to-end benchmark: clocks, exact-sample
// statistics, the in-memory span log of the traced runs, and the
// per-workload outcome every workload fills in.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Linear-interpolated quantile of exact samples (q in [0, 1]); 0 when
/// empty. Sorts a copy.
[[nodiscard]] double quantile(std::vector<double> samples, double q);
[[nodiscard]] inline double median(std::vector<double> samples) {
  return quantile(std::move(samples), 0.5);
}

/// Peak resident set size of this process so far, MiB (getrusage).
[[nodiscard]] double peak_rss_mib();

/// Spans of a traced run, kept in memory and written out at the end. A
/// span's self time is its duration minus its direct children's
/// durations. A child may be a "shadow" call: the same work timed on a
/// separate instance of the layer, because the program offers no hook
/// inside the parent call (e.g. the WAL append inside
/// DurableReplica::on_update). Spans of one update or one swarm run share
/// a trace id.
class SpanLog {
 public:
  static constexpr std::uint32_t kNoParent = 0xffffffffu;

  struct Span {
    std::uint32_t name = 0;
    std::uint32_t parent = kNoParent;
    std::uint64_t trace = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  /// Opens a span now; returns its id.
  std::uint32_t begin(const std::string& name, std::uint64_t trace,
                      std::uint32_t parent = kNoParent);
  void end(std::uint32_t id) { spans_[id].end_ns = now_ns(); }
  /// Records a finished span with explicit times.
  std::uint32_t add(const std::string& name, std::uint64_t trace,
                    std::uint32_t parent, std::int64_t start_ns,
                    std::int64_t end_ns);
  /// Appends another log's spans (their parents are re-based).
  void merge(const SpanLog& other);

  /// Per span name: count, summed duration and summed self time (ns),
  /// and every duration (ns) for percentiles.
  struct Totals {
    std::size_t count = 0;
    double total_ns = 0.0;
    double self_ns = 0.0;
    std::vector<double> duration_samples_ns;
  };
  [[nodiscard]] std::map<std::string, Totals> totals() const;

  /// Writes one CSV row per span: name,trace,id,parent,start_ns,end_ns.
  void write_csv(const std::filesystem::path& path) const;

 private:
  std::uint32_t intern(const std::string& name);
  std::vector<Span> spans_;
  std::vector<std::string> names_;
  std::map<std::string, std::uint32_t> ids_;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one workload invocation reports.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Output-check failures; any entry makes the run incorrect.
  std::vector<std::string> errors;
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  /// Human-readable report, printed before the result line.
  std::vector<std::string> lines;

  void line(const std::string& s) { lines.push_back(s); }
  void error(const std::string& s) { errors.push_back(s); }
};

/// How a workload is invoked.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::filesystem::path scratch;  ///< data dirs + span dumps live here
  unsigned nproc = 1;
  double rate = 0.0;  ///< phase-1 rate override, updates/s (0 = the workload's)
};

/// printf-style formatting into a std::string.
[[nodiscard]] std::string fmt(const char* format, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace perfbench
