// rcm_swarm — randomized simulation-testing CLI (see docs/SWARM.md).
//
//   rcm_swarm --runs 500 --seed 1            # fuzz 500 configurations
//   rcm_swarm --runs 0 --time-budget 60      # fuzz until the budget ends
//   rcm_swarm --filter ad-2-broken --save .  # catch the planted bug
//   rcm_swarm --replay swarm-ce-17.bin       # re-execute a counterexample
//   rcm_swarm --service-fuzz --runs 200      # kill/restart fuzz against
//                                            # the real AlertService
//   rcm_swarm --upgrade-fuzz --runs 100      # mixed-version restarting
//                                            # fuzz across the v1/v2
//                                            # durable-format boundary
//
// Exit codes: 0 = no violations (or replay reproduced), 1 = violations
// found (or replay did not reproduce), 2 = usage/IO error.
#include <cstdio>
#include <exception>
#include <string>

#include "swarm/service_fuzz.hpp"
#include "swarm/swarm.hpp"
#include "util/args.hpp"

namespace {

int replay_file(const std::string& path) {
  using namespace rcm;
  const swarm::CounterexampleRecord record = swarm::load_record(path);
  std::printf("replaying %s: %s, %zu updates, %u CEs, %zu workload "
              "unit(s), seed %llu\n",
              path.c_str(),
              std::string(filter_kind_name(record.spec.base.filter)).c_str(),
              record.spec.total_updates(), record.spec.base.num_ces,
              record.spec.units.size(),
              static_cast<unsigned long long>(record.spec.base.seed));
  for (const swarm::WorkloadSpec& unit : record.spec.units)
    std::printf("  workload: %s\n",
                std::string(swarm::workload_kind_name(unit.kind)).c_str());
  for (swarm::ViolationKind k : record.violation_kinds)
    std::printf("  recorded violation: %s\n",
                std::string(swarm::violation_kind_name(k)).c_str());

  const swarm::ReplayResult result = swarm::replay(record);
  std::printf("  digest match: %s\n", result.digest_matched ? "yes" : "NO");
  std::printf("  violations reproduced: %s\n",
              result.violations_matched ? "yes" : "NO");
  for (const std::string& v : result.check.violations)
    std::printf("  observed: %s\n", v.c_str());
  std::printf(result.reproduced
                  ? "REPRODUCED bit-for-bit\n"
                  : "replay DID NOT reproduce the recording\n");
  return result.reproduced ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rcm;

  util::Args args;
  args.add_flag("seed", "1", "master seed for the batch");
  args.add_flag("runs", "100",
                "number of fuzzed runs (0 = unlimited, use --time-budget)");
  args.add_flag("time-budget", "0",
                "wall-clock budget in seconds (0 = none)");
  args.add_flag("jobs", "0",
                "worker threads (0 = hardware concurrency, 1 = serial); "
                "any value yields bit-identical digests and verdicts");
  args.add_flag("replay", "", "replay a counterexample record and exit");
  args.add_flag("save", "",
                "directory to write counterexample records into");
  args.add_flag("filter", "",
                "restrict every run to one filter (AD-1..AD-6, ad-2-broken)");
  args.add_flag("workload", "",
                "give every run exactly one workload unit of this kind "
                "(flash-crowd, slow-replica, partition, clock-skew, "
                "cheap-fleet, adaptive-holdback)");
  args.add_flag("min-workloads", "0",
                "guarantee at least this many workload units per run");
  args.add_flag("max-workloads", "3",
                "cap on workload units per run (0 = plain base specs)");
  args.add_flag("no-shrink", "false", "record failures without minimizing");
  args.add_flag("no-determinism", "false",
                "skip the re-execution determinism check (halves the cost)");
  args.add_flag("service-fuzz", "false",
                "crash-recovery fuzz of the real AlertService instead of "
                "simulator runs (uses --runs, --seed, --scratch-dir)");
  args.add_flag("upgrade-fuzz", "false",
                "mixed-version restarting fuzz: recover v1-transcoded "
                "durable state with the current binary under kills and "
                "duplicate resends (uses --runs, --seed, --scratch-dir)");
  args.add_flag("scratch-dir", "",
                "service-fuzz scratch root (default: system temp)");
  args.add_flag("sharded-fraction", "0.3",
                "service-fuzz: fraction of runs against a sharded cluster "
                "(2-3 shards + merge tier, mid-run reshard events)");
  args.add_flag("verbose", "false", "print a line per run");

  if (!args.parse(argc, argv)) {
    std::fprintf(stderr, "%s\n%s", args.error().c_str(),
                 args.usage(argv[0]).c_str());
    return 2;
  }
  if (args.help_requested()) {
    std::printf("%s", args.usage(argv[0]).c_str());
    return 0;
  }

  try {
    if (!args.get("replay").empty()) return replay_file(args.get("replay"));

    const bool crash = args.get_bool("service-fuzz");
    if (crash || args.get_bool("upgrade-fuzz")) {
      swarm::ServiceFuzzOptions options;
      if (!crash) options.mode = swarm::ServiceFuzzMode::kUpgrade;
      options.seed = static_cast<std::uint64_t>(args.get_int("seed"));
      options.runs = static_cast<std::size_t>(args.get_int("runs"));
      options.scratch_dir = args.get("scratch-dir");
      options.sharded_fraction = args.get_double("sharded-fraction");
      options.verbose = args.get_bool("verbose");
      const swarm::ServiceFuzzReport report =
          swarm::run_service_fuzz(options);
      std::printf("%s: %zu runs (%zu with kills, %zu with alerts), %zu "
                  "kill(s), %zu restart(s), ",
                  crash ? "service-fuzz" : "upgrade-fuzz",
                  report.runs_executed, report.runs_with_kills,
                  report.runs_with_alerts, report.total_kills,
                  report.total_restarts);
      if (!crash)
        std::printf("%zu file(s) transcoded to v1, %zu torn tail(s), %zu "
                    "stale WAL record(s), %zu duplicate resend(s), ",
                    report.transcoded_files, report.torn_tails_injected,
                    report.stale_wal_records, report.duplicate_resends);
      std::printf("%zu violation(s)\n", report.violations.size());
      if (crash) {
        std::printf("  sessions: %zu run(s) with subscribers, %zu welcomed "
                    "conn(s), %zu subscriber kill(s), %zu truncation(s), "
                    "%zu eviction(s), %zu bad cursor(s), %zu lag alert(s), "
                    "%zu reopen leg(s)\n",
                    report.runs_with_subscribers, report.subscriber_conns,
                    report.subscriber_kills, report.session_truncations,
                    report.session_evictions, report.session_bad_cursors,
                    report.session_lag_alerts, report.service_reopens);
        std::printf("  sharding: %zu sharded run(s) (%zu cross-shard), "
                    "%zu reshard(s), %zu shard kill(s)\n",
                    report.sharded_runs, report.cross_shard_runs,
                    report.shard_reshards, report.shard_kills);
        std::printf("  health: %zu scrape(s), %zu kill(s) confirmed "
                    "degraded\n",
                    report.health_scrapes, report.health_degraded_seen);
      }
      for (const swarm::ServiceFuzzViolation& v : report.violations)
        std::printf("  run %zu (seed %llu): %s\n    state kept: %s\n",
                    v.run_index,
                    static_cast<unsigned long long>(v.seed),
                    v.description.c_str(), v.data_dir.string().c_str());
      return report.failed() ? 1 : 0;
    }

    swarm::SwarmOptions options;
    options.seed = static_cast<std::uint64_t>(args.get_int("seed"));
    options.runs = static_cast<std::size_t>(args.get_int("runs"));
    options.time_budget_seconds = args.get_double("time-budget");
    if (options.runs == 0) {
      if (options.time_budget_seconds <= 0.0) {
        std::fprintf(stderr, "--runs 0 requires --time-budget\n");
        return 2;
      }
      options.runs = static_cast<std::size_t>(-1);  // budget-bounded
    }
    options.jobs = static_cast<std::size_t>(args.get_int("jobs"));
    options.do_shrink = !args.get_bool("no-shrink");
    options.check.check_determinism = !args.get_bool("no-determinism");
    if (!args.get("filter").empty())
      options.fuzz.force_filter = parse_filter_kind(args.get("filter"));
    if (!args.get("workload").empty())
      options.fuzz.force_workload =
          swarm::parse_workload_kind(args.get("workload"));
    options.fuzz.min_workloads =
        static_cast<std::size_t>(args.get_int("min-workloads"));
    options.fuzz.max_workloads =
        static_cast<std::size_t>(args.get_int("max-workloads"));

    const bool verbose = args.get_bool("verbose");
    const swarm::SwarmReport report = swarm::run_swarm(
        options, [&](std::uint64_t i, const swarm::RunCheck& chk) {
          if (verbose)
            std::printf("run %llu: %zu displayed / %zu raised, digest "
                        "%016llx%s\n",
                        static_cast<unsigned long long>(i), chk.displayed,
                        chk.raised, static_cast<unsigned long long>(chk.digest),
                        chk.failed() ? "  ** VIOLATION **" : "");
          return true;
        });

    std::printf(
        "swarm: %zu runs (%zu with alerts), %zu violation(s), %zu "
        "undecided%s\n",
        report.runs_executed, report.runs_with_alerts, report.failures,
        report.undecided,
        report.time_budget_exhausted ? ", time budget exhausted" : "");
    for (const auto& [cell, n] : report.cell_runs)
      std::printf("  %-30s %zu runs\n", cell.c_str(), n);

    const std::string save_dir = args.get("save");
    for (const swarm::Counterexample& ce : report.counterexamples) {
      std::printf("\n%s\n", swarm::describe_counterexample(ce).c_str());
      if (!save_dir.empty()) {
        const std::string path = save_dir + "/swarm-ce-" +
                                 std::to_string(ce.run_index) + ".bin";
        swarm::save_record(path, ce.record);
        std::printf("  saved: %s  (replay with --replay)\n", path.c_str());
      }
    }
    return report.failures == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rcm_swarm: %s\n", e.what());
    return 2;
  }
}
