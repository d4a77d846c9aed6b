#include "swarm/swarm.hpp"

#include <algorithm>
#include <chrono>
#include <optional>
#include <sstream>
#include <vector>

#include "obs/metrics.hpp"
#include "runtime/thread_pool.hpp"

namespace rcm::swarm {
namespace {

/// What one executed run contributes to the report, before aggregation.
struct RunOutcome {
  ComposedSpec spec;
  RunCheck check;
};

/// Executes run `index` in isolation. Pure function of (options, index):
/// the spec comes from the stateless per-run stream derivation and the
/// simulation touches no shared state, so outcomes are identical no
/// matter which thread runs them, in what order.
RunOutcome run_one(const SwarmOptions& options, std::uint64_t index) {
  RunOutcome out;
  out.spec = sample_composed(options.seed, index, options.fuzz);
  out.check = execute_and_check(out.spec, options.check);
  return out;
}

/// Folds one outcome into the report, in run-index order, on the calling
/// thread — shrinking included, so minimization is identical under any
/// jobs count. Returns false when the progress callback stops the batch.
bool aggregate_run(const SwarmOptions& options, std::uint64_t index,
                   RunOutcome outcome, SwarmReport& report,
                   const ProgressFn& progress) {
  const ComposedSpec& spec = outcome.spec;
  const RunCheck& chk = outcome.check;

  RCM_COUNT("swarm.runs");
  ++report.runs_executed;
  if (chk.had_alerts) ++report.runs_with_alerts;
  if (chk.undecided()) {
    RCM_COUNT("swarm.undecided");
    ++report.undecided;
  }
  {
    const std::string cell = std::string(filter_kind_name(spec.base.filter)) +
                             " / " +
                             exp::scenario_name(classify_scenario(spec));
    ++report.cell_runs[cell];
  }

  if (chk.failed()) {
    RCM_COUNT("swarm.violations");
    ++report.failures;
    if (report.counterexamples.size() < SwarmReport::kMaxRecorded) {
      Counterexample ce;
      ce.run_index = index;
      ce.original = spec;
      ce.violations = chk.violations;

      ComposedSpec minimal = spec;
      RunCheck minimal_chk = chk;
      if (options.do_shrink) {
        const ShrinkResult shrunk =
            shrink(spec, chk.violation_kinds.front(), options.check,
                   options.shrink_attempts);
        RCM_COUNT_N("swarm.shrink_attempts", shrunk.attempts);
        ce.shrink_attempts = shrunk.attempts;
        minimal = shrunk.spec;
        minimal_chk = execute_and_check(minimal, options.check);
      }
      ce.record = make_record(minimal, minimal_chk);
      report.counterexamples.push_back(std::move(ce));
    }
  }

  return !progress || progress(index, chk);
}

bool budget_exhausted(const SwarmOptions& options,
                      std::chrono::steady_clock::time_point started) {
  if (options.time_budget_seconds <= 0.0) return false;
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - started;
  return elapsed.count() >= options.time_budget_seconds;
}

SwarmReport run_swarm_serial(const SwarmOptions& options,
                             const ProgressFn& progress) {
  SwarmReport report;
  const auto started = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < options.runs; ++i) {
    if (budget_exhausted(options, started)) {
      report.time_budget_exhausted = true;
      break;
    }
    if (!aggregate_run(options, i, run_one(options, i), report, progress)) {
      report.time_budget_exhausted = true;
      break;
    }
  }
  return report;
}

SwarmReport run_swarm_parallel(const SwarmOptions& options, std::size_t jobs,
                               const ProgressFn& progress) {
  SwarmReport report;
  const auto started = std::chrono::steady_clock::now();

  runtime::ThreadPool pool(jobs, /*queue_capacity=*/jobs * 8);
  // Blocks bound the buffered results (a budget-bounded batch can name
  // 2^64 runs) while keeping every worker busy within a block. Outcomes
  // land in their run-index slot and are aggregated in order, so the
  // report is bit-for-bit the serial one.
  const std::uint64_t block =
      static_cast<std::uint64_t>(std::max<std::size_t>(jobs * 4, 1));
  std::vector<std::optional<RunOutcome>> slots;

  for (std::uint64_t base = 0; base < options.runs; base += block) {
    if (budget_exhausted(options, started)) {
      report.time_budget_exhausted = true;
      break;
    }
    const std::uint64_t n = std::min<std::uint64_t>(block,
                                                    options.runs - base);
    slots.assign(static_cast<std::size_t>(n), std::nullopt);
    for (std::uint64_t i = 0; i < n; ++i) {
      pool.submit([&options, &slots, base, i] {
        slots[static_cast<std::size_t>(i)] = run_one(options, base + i);
      });
    }
    pool.wait();  // barrier; rethrows the first task exception
    for (std::uint64_t i = 0; i < n; ++i) {
      if (!aggregate_run(options, base + i,
                         std::move(*slots[static_cast<std::size_t>(i)]),
                         report, progress)) {
        report.time_budget_exhausted = true;
        return report;
      }
    }
  }
  return report;
}

}  // namespace

SwarmReport run_swarm(const SwarmOptions& options, const ProgressFn& progress) {
  const std::size_t jobs = runtime::ThreadPool::resolve_jobs(options.jobs);
  return jobs <= 1 ? run_swarm_serial(options, progress)
                   : run_swarm_parallel(options, jobs, progress);
}

std::string describe_counterexample(const Counterexample& ce) {
  std::ostringstream out;
  const ComposedSpec& c = ce.record.spec;
  const SwarmSpec& s = c.base;
  out << "run #" << ce.run_index << ": "
      << filter_kind_name(s.filter) << " / "
      << exp::scenario_name(classify_scenario(c)) << "\n";
  for (const std::string& v : ce.violations) out << "  - " << v << "\n";
  out << "  original: " << ce.original.total_updates() << " updates, "
      << ce.original.base.num_ces << " CEs, " << ce.original.units.size()
      << " workload units (size " << ce.original.size() << ")\n";
  out << "  shrunk:   " << c.total_updates() << " updates, " << s.num_ces
      << " CEs, " << c.units.size() << " workload units (size " << c.size()
      << "; " << ce.shrink_attempts << " shrink executions)\n";
  if (!c.units.empty()) {
    out << "  workloads:";
    for (const WorkloadSpec& unit : c.units)
      out << ' ' << workload_kind_name(unit.kind);
    out << '\n';
  }
  out << "  traces:";
  for (const auto& trace : s.traces) {
    out << " [";
    for (std::size_t i = 0; i < trace.size(); ++i) {
      if (i) out << ' ';
      out << trace[i].update.seqno << '('
          << trace[i].update.value << ')';
    }
    out << ']';
  }
  out << "\n  digest: 0x" << std::hex << ce.record.digest << std::dec;
  return out.str();
}

}  // namespace rcm::swarm
