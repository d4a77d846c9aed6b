// Health overhead bench: time-series sampler on vs off over the swarm
// workload.
//
// Runs the same fixed-seed swarm batch twice — once with no time-series
// sampler thread (the library default) and once with the process
// sampler running at a service-like 250ms interval — times both, and
// cross-checks that the two batches produced bit-identical per-run
// digests: the sampler only *reads* the registry's relaxed atomics and
// must observe the pipeline, never participate in it. The overhead is
// recorded against the issue's 5% throughput target.
//
// Exit status is 0 iff the digests match. The overhead percentage is
// reported but not gated: single-core CI boxes are noisy, and the
// digest check is the correctness claim.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/timeseries.hpp"
#include "swarm/swarm.hpp"
#include "util/args.hpp"

namespace {

struct BatchResult {
  rcm::swarm::SwarmReport report;
  std::vector<std::uint64_t> digests;
  double seconds = 0.0;
  std::uint64_t samples = 0;  ///< sampler snapshots taken during the batch
};

BatchResult run_batch(const rcm::swarm::SwarmOptions& options, bool health) {
  rcm::obs::TimeSeriesSampler::Options sopts;
  sopts.interval = std::chrono::milliseconds{250};
  rcm::obs::TimeSeriesSampler sampler{sopts};
  if (health) sampler.start();

  BatchResult out;
  out.digests.reserve(options.runs);
  const auto start = std::chrono::steady_clock::now();
  out.report = rcm::swarm::run_swarm(
      options, [&](std::uint64_t, const rcm::swarm::RunCheck& check) {
        out.digests.push_back(check.digest);
        return true;
      });
  out.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  sampler.stop();
  out.samples = sampler.samples_taken();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  rcm::util::Args args;
  args.add_flag("runs", "120", "swarm runs per batch");
  args.add_flag("seed", "1", "swarm master seed");
  args.add_flag("jobs", "1",
                "worker threads (1 = serial; keep 1 for stable timing)");
  args.add_flag("out", "BENCH_health_overhead.json",
                "path for the JSON artifact ('' = skip writing)");
  if (!args.parse(argc, argv)) {
    std::cerr << args.error() << "\n" << args.usage("health_overhead");
    return 2;
  }
  if (args.help_requested()) {
    std::cout << args.usage("health_overhead");
    return 0;
  }

  rcm::swarm::SwarmOptions options;
  options.runs = static_cast<std::size_t>(args.get_int("runs"));
  options.seed = static_cast<std::uint64_t>(args.get_int("seed"));
  options.jobs = static_cast<std::size_t>(args.get_int("jobs"));

  std::cout << "health_overhead: " << options.runs << " runs, seed "
            << options.seed << ", jobs " << options.jobs << "\n";

  // Warm-up batch (untimed): touch the allocator, page in the code.
  {
    rcm::swarm::SwarmOptions warm = options;
    warm.runs = std::min<std::size_t>(warm.runs, 10);
    run_batch(warm, false);
  }

  const BatchResult off = run_batch(options, false);
  std::cout << "  sampler off: " << off.seconds << " s  ("
            << off.report.runs_executed / off.seconds << " runs/s)\n";

  const BatchResult on = run_batch(options, true);
  std::cout << "  sampler on:  " << on.seconds << " s  ("
            << on.report.runs_executed / on.seconds << " runs/s), "
            << on.samples << " samples taken\n";

  const bool digests_match = off.digests == on.digests;
  const double overhead_pct =
      off.seconds > 0.0 ? (on.seconds - off.seconds) / off.seconds * 100.0
                        : 0.0;

  std::cout << "  overhead:    " << overhead_pct << "% (target <= 5%)\n"
            << "  digests "
            << (digests_match ? "MATCH" : "DIFFER (sampler perturbed a run)")
            << "\n";

  const std::string out_path = args.get("out");
  if (!out_path.empty()) {
    std::ostringstream json;
    json << "{\n"
         << "  \"bench\": \"health_overhead\",\n"
         << "  \"runs\": " << options.runs << ",\n"
         << "  \"seed\": " << options.seed << ",\n"
         << "  \"jobs\": " << options.jobs << ",\n"
         << "  \"off_seconds\": " << off.seconds << ",\n"
         << "  \"on_seconds\": " << on.seconds << ",\n"
         << "  \"off_runs_per_sec\": "
         << off.report.runs_executed / off.seconds << ",\n"
         << "  \"on_runs_per_sec\": " << on.report.runs_executed / on.seconds
         << ",\n"
         << "  \"overhead_pct\": " << overhead_pct << ",\n"
         << "  \"overhead_target_pct\": 5.0,\n"
         << "  \"samples_taken\": " << on.samples << ",\n"
         << "  \"digests_match\": " << (digests_match ? "true" : "false")
         << "\n"
         << "}\n";
    std::ofstream out(out_path);
    out << json.str();
    if (!out) {
      std::cerr << "failed to write " << out_path << "\n";
      return 2;
    }
    std::cout << "  wrote " << out_path << "\n";
  }

  return digests_match ? 0 : 1;
}
