// rcm_perfbench — the one benchmark of the replicated alert pipeline and
// the swarm oracle.
//
//   rcm_perfbench --workload <ingest_sparse|alert_fanout|swarm_oracle>
//                 --seed <n> --seconds <s> --trace <0|1> --scratch <dir>
//                 [--rate <updates/s>]
//
// Prints a human-readable report, then as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics of the traced run with --trace 1.
// A per-layer metric of a layer the workload never calls reads 0. Exits 1
// when an output check fails, 3 when it refuses to measure (see below).
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/args.hpp"
#include "workloads.hpp"

// What was compiled, read from the compiler rather than from how the
// build was configured.
#if defined(__SANITIZE_ADDRESS__)
#define PERFBENCH_SANITIZER "address"
#elif defined(__SANITIZE_THREAD__)
#define PERFBENCH_SANITIZER "thread"
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define PERFBENCH_SANITIZER "address"
#elif __has_feature(thread_sanitizer)
#define PERFBENCH_SANITIZER "thread"
#elif __has_feature(memory_sanitizer)
#define PERFBENCH_SANITIZER "memory"
#elif __has_feature(undefined_behavior_sanitizer)
#define PERFBENCH_SANITIZER "undefined"
#endif
#endif
#ifndef PERFBENCH_SANITIZER
#define PERFBENCH_SANITIZER ""
#endif

#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

#ifdef __clang__
constexpr const char* kCompiler = __VERSION__;  // names Clang itself
#else
constexpr const char* kCompiler = "g++ " __VERSION__;
#endif

namespace {

using perfbench::fmt;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json (perfbench/run.py checks every result line).
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"latency_p50_ms", "ms"},
    {"latency_p90_ms", "ms"},
    {"throughput_per_s", "1/s"},
    {"peak_rss_mb", "MiB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"gen.late_p99_ms", "ms"},
    {"gen.offered_per_s", "1/s"},
    {"net.udp_send_us", "us"},
    {"net.sub_bytes_per_alert", "bytes"},
    {"wire.decode_update_us", "us"},
    {"wire.decode_session_record_us", "us"},
    {"store.wal_append_p50_us", "us"},
    {"store.wal_append_p99_us", "us"},
    {"store.checkpoint_ms", "ms"},
    {"store.checkpoints", "count"},
    {"store.wal_append_live_p99_us", "us"},
    {"core.evaluate_us", "us"},
    {"core.alerts_per_update", "ratio"},
    {"core.ad_filter_us", "us"},
    {"core.ad_pass_ratio", "ratio"},
    {"service.replica_self_us", "us"},
    {"service.publish_us", "us"},
    {"service.session_lag_p99", "count"},
    {"service.fanout_live_p99_us", "us"},
    {"service.accept_ratio", "ratio"},
    {"service.wait_p50_ms", "ms"},
    {"service.drain_ms", "ms"},
    {"swarm.sample_ms", "ms"},
    {"swarm.materialize_ms", "ms"},
    {"swarm.reexec_ms", "ms"},
    {"swarm.digest_ms", "ms"},
    {"sim.execute_ms", "ms"},
    {"sim.events", "count"},
    {"check.ordered_ms", "ms"},
    {"check.complete_ms", "ms"},
    {"check.consistent_ms", "ms"},
    {"check.ordered_p99_ms", "ms"},
    {"check.complete_p99_ms", "ms"},
    {"check.consistent_p99_ms", "ms"},
    {"check.share", "ratio"},
    {"check.complete_undecided", "count"},
    {"obs.trace_overhead_frac", "ratio"},
};

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  return "unknown";
}

/// Why this build must not be measured, or "" when it may.
std::string refusal(const std::string& workload, unsigned nproc) {
  if (!kOptimized)
    return "unoptimized (Debug) build: a different program";
  if (*PERFBENCH_SANITIZER)
    return std::string("sanitizer build (") + PERFBENCH_SANITIZER +
           "): instrumented code is a different program";
  if (!RCM_METRICS_ENABLED)
    return "RCM_NO_METRICS build: the registry rows would be empty";
  if (!RCM_TRACING_ENABLED)
    return "RCM_NO_TRACING build: the service's own spans are compiled out, "
           "a different program";
  if (workload != "swarm_oracle") {
    const unsigned load = perfbench::service_load(workload);
    if (load > nproc)
      return fmt("%s needs %u generator threads plus subscriber "
                 "connections but the host has %u processors",
                 workload.c_str(), load, nproc);
  }
  return "";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  return fmt("%.17g", v);
}

void print_result(const perfbench::Outcome& out, bool trace) {
  std::string metrics;
  auto emit = [&](const MetricSpec& m, double value) {
    if (!metrics.empty()) metrics += ", ";
    metrics += fmt("\"%s\": {\"value\": %s, \"unit\": \"%s\"}", m.name,
                   json_number(value).c_str(), m.unit);
  };
  if (trace) {
    for (const MetricSpec& m : kPerLayer) {
      const auto it = out.per_layer.find(m.name);
      emit(m, it == out.per_layer.end() ? 0.0 : it->second.value);
    }
  } else {
    for (const MetricSpec& m : kEndToEnd) emit(m, out.end_to_end.at(m.name).value);
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              out.errors.empty() ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed), metrics.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  rcm::util::Args args;
  args.add_flag("workload", "", "ingest_sparse | alert_fanout | swarm_oracle");
  args.add_flag("seed", "1", "input seed");
  args.add_flag("seconds", "10", "measured seconds per run");
  args.add_flag("trace", "0", "1 = traced run, per-layer metrics");
  args.add_flag("scratch", "", "directory for data dirs and span dumps");
  args.add_flag("commit", "unknown", "source revision, recorded");
  args.add_flag("rate", "0",
                "phase-1 rate of a service workload, updates/s, for rate "
                "ladders (0 = the workload's own)");
  if (!args.parse(argc, argv)) {
    std::cerr << args.error() << "\n" << args.usage("rcm_perfbench");
    return 2;
  }
  if (args.help_requested()) {
    std::cout << args.usage("rcm_perfbench");
    return 0;
  }

  perfbench::RunConfig cfg;
  cfg.workload = args.get("workload");
  cfg.seed = static_cast<std::uint64_t>(args.get_int("seed"));
  cfg.seconds = args.get_double("seconds");
  cfg.trace = args.get_int("trace") != 0;
  cfg.scratch = args.get("scratch");
  cfg.rate = args.get_double("rate");
  cfg.nproc = std::max(1u, std::thread::hardware_concurrency());
  if (cfg.workload != "ingest_sparse" && cfg.workload != "alert_fanout" &&
      cfg.workload != "swarm_oracle") {
    std::cerr << "unknown --workload '" << cfg.workload << "'\n";
    return 2;
  }
  if (cfg.scratch.empty() || !(cfg.seconds > 0.0)) {
    std::cerr << "--scratch and a positive --seconds are required\n";
    return 2;
  }
  std::filesystem::create_directories(cfg.scratch);

  std::printf("meta: {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %s, "
              "\"trace\": %d, \"nproc\": %u, \"cpu\": \"%s\", "
              "\"compiler\": \"%s\", \"build_type\": \"%s\", "
              "\"optimized\": %s, \"sanitizer\": \"%s\", \"metrics\": %s, "
              "\"tracing\": %s, \"commit\": \"%s\"}\n",
              cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
              json_number(cfg.seconds).c_str(), cfg.trace ? 1 : 0, cfg.nproc,
              cpu_model().c_str(), kCompiler, PERFBENCH_BUILD_TYPE,
              kOptimized ? "true" : "false", PERFBENCH_SANITIZER,
              RCM_METRICS_ENABLED ? "true" : "false",
              RCM_TRACING_ENABLED ? "true" : "false",
              args.get("commit").c_str());
  const std::string refused = refusal(cfg.workload, cfg.nproc);
  if (!refused.empty()) {
    std::fflush(stdout);
    std::cerr << "refusing to measure: " << refused << "\n";
    return 3;
  }

  perfbench::Outcome out;
  try {
    out = cfg.workload == "swarm_oracle"
              ? perfbench::run_swarm_oracle(cfg)
              : perfbench::run_service_workload(cfg);
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::cerr << cfg.workload << ": " << e.what() << "\n";
    return 2;
  }
  if (!cfg.trace)
    for (const MetricSpec& m : kEndToEnd) {
      const auto it = out.end_to_end.find(m.name);
      if (it == out.end_to_end.end() || !(it->second.value > 0.0) ||
          !std::isfinite(it->second.value))
        out.error(fmt("end-to-end metric %s missing or not positive", m.name));
    }

  for (const std::string& l : out.lines) std::printf("%s\n", l.c_str());
  for (const std::string& e : out.errors)
    std::printf("CHECK FAILED: %s\n", e.c_str());
  if (!cfg.trace && out.end_to_end.size() < std::size(kEndToEnd)) {
    std::fflush(stdout);
    return 1;  // no complete result to print
  }
  print_result(out, cfg.trace);
  return out.errors.empty() ? 0 : 1;
}
