// Meta-properties of the checkers themselves, verified across
// randomized runs:
//
//  - consistency is SUBSET-CLOSED: every subsequence of a consistent
//    displayed sequence is consistent (fewer alerts = fewer demands);
//  - completeness is NOT subset-closed (dropping a required alert breaks
//    the Phi-equality) — witnessed;
//  - orderedness is subsequence-closed;
//  - multi-variable completeness (the grid-path decision) agrees with
//    the brute-force oracle on thousands of small 2- and 3-variable runs,
//    decides runs with many distinct displayed keys, and answers kUnknown
//    only when the grid is larger than the budget.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <set>

#include "check/completeness.hpp"
#include "check/consistency.hpp"
#include "check/oracle.hpp"
#include "check/properties.hpp"
#include "core/builtin_conditions.hpp"
#include "core/evaluator.hpp"
#include "exp/scenarios.hpp"
#include "sim/system.hpp"
#include "util/rng.hpp"

namespace rcm::check {
namespace {

class CheckerMeta : public ::testing::TestWithParam<std::uint64_t> {};

SystemRun random_run(std::uint64_t seed, FilterKind filter) {
  const auto spec =
      exp::single_var_scenario(exp::Scenario::kLossyAggressive);
  util::Rng trial{seed};
  sim::SystemConfig config;
  config.condition = spec.condition;
  config.dm_traces = spec.make_traces(30, trial);
  config.front.loss = spec.front_loss;
  config.front.delay_max = 0.8;
  config.back.delay_max = 0.8;
  config.filter = filter;
  config.seed = seed * 31;
  return sim::run_system(config).as_system_run(spec.condition);
}

TEST_P(CheckerMeta, ConsistencyIsSubsetClosed) {
  util::Rng rng{GetParam()};
  SystemRun run = random_run(GetParam(), FilterKind::kAd3);
  ASSERT_TRUE(check_consistent(run).consistent);
  // Random subsequences stay consistent.
  for (int trial = 0; trial < 5; ++trial) {
    SystemRun sub = run;
    sub.displayed.clear();
    for (const Alert& a : run.displayed)
      if (rng.bernoulli(0.6)) sub.displayed.push_back(a);
    EXPECT_TRUE(check_consistent(sub).consistent);
  }
}

TEST_P(CheckerMeta, OrderednessIsSubsequenceClosed) {
  util::Rng rng{GetParam() + 100};
  const SystemRun run = random_run(GetParam(), FilterKind::kAd2);
  const auto& vars = run.condition->variables();
  ASSERT_TRUE(check_ordered(run.displayed, vars));
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<Alert> sub;
    for (const Alert& a : run.displayed)
      if (rng.bernoulli(0.6)) sub.push_back(a);
    EXPECT_TRUE(check_ordered(sub, vars));
  }
}

TEST_P(CheckerMeta, CompletenessBreaksWhenAnAlertIsDropped) {
  const SystemRun run =
      random_run(GetParam(), FilterKind::kPassAll);
  // PassAll over a non-historical... this run uses the aggressive
  // condition; completeness may or may not hold, so force the complete
  // baseline: a single replica's own trace is complete w.r.t. itself.
  SystemRun solo;
  solo.condition = run.condition;
  solo.ce_inputs = {run.ce_inputs[0]};
  solo.displayed = evaluate_trace(run.condition, run.ce_inputs[0]);
  if (solo.displayed.empty()) return;  // nothing to drop this seed
  ASSERT_EQ(check_complete(solo), Verdict::kHolds);
  solo.displayed.erase(solo.displayed.begin());
  EXPECT_EQ(check_complete(solo), Verdict::kViolated);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CheckerMeta,
                         ::testing::Range<std::uint64_t>(1, 11));

std::set<AlertKey> key_set(const std::vector<Alert>& alerts) {
  std::set<AlertKey> out;
  for (const Alert& a : alerts) out.insert(a.key());
  return out;
}

/// Two-variable run in which every arrival after the first alerts: 79
/// distinct keys.
SystemRun many_keys_run() {
  auto cond = std::make_shared<const AbsDiffCondition>("d", 0, 1, -1.0);
  // delta = -1: |x-y| > -1 always true -> every arrival alerts.
  std::vector<Update> stream;
  for (SeqNo s = 1; s <= 40; ++s) {
    stream.push_back({0, s, 1.0});
    stream.push_back({1, s, 5.0});
  }
  SystemRun run;
  run.condition = cond;
  run.ce_inputs = {stream};
  run.displayed = evaluate_trace(cond, stream);
  return run;
}

TEST(CheckerMeta, ManyDistinctKeysAreDecided) {
  const SystemRun run = many_keys_run();
  ASSERT_GT(run.displayed.size(), 63u);
  std::vector<Update> witness;
  ASSERT_EQ(check_complete(run, 200000, &witness), Verdict::kHolds);
  EXPECT_EQ(key_set(evaluate_trace(run.condition, witness)),
            key_set(run.displayed));
}

TEST(CheckerMeta, GridLargerThanBudgetReportsUnknown) {
  const SystemRun run = many_keys_run();
  // 41 x 41 positions: one cell short of the grid is undecided, the
  // exact grid is decided.
  EXPECT_EQ(check_complete(run, 41 * 41 - 1), Verdict::kUnknown);
  EXPECT_EQ(check_complete(run, 41 * 41), Verdict::kHolds);
}

/// Random multi-variable run small enough for oracle_complete: 2 or 3
/// variables of degree 1 or 2 under a value predicate, at most
/// OracleLimits::max_multi_var_updates updates in all. Two lossy replicas
/// each see a random subset in their own interleaving, so a replica can
/// fire on a gapped window the union fills. The displayed set is one
/// replica's alerts, both replicas' alerts, or the alerts of a random
/// interleaving of the full unions, with one alert dropped or one extra
/// alert added.
SystemRun random_oracle_run(util::Rng& rng) {
  const VarId k = static_cast<VarId>(rng.uniform_int(2, 3));
  std::vector<std::pair<VarId, int>> degrees;
  for (VarId v = 0; v < k; ++v)
    degrees.emplace_back(v, static_cast<int>(rng.uniform_int(1, 2)));
  const double delta = rng.uniform(0.0, 40.0);
  auto cond = std::make_shared<const PredicateCondition>(
      "p", degrees, Triggering::kAggressive,
      [degrees, delta](const HistorySet& h) {
        double lo = 1e9, hi = -1e9, rise = 0.0;
        for (const auto& [v, d] : degrees) {
          const double x = h.of(v).at(0).value;
          lo = std::min(lo, x);
          hi = std::max(hi, x);
          if (d == 2) rise += x - h.of(v).at(-1).value;
        }
        return hi - lo + rise > delta;
      });

  const std::size_t per_var = k == 2 ? 5 : 3;
  std::vector<std::vector<Update>> streams(k);
  for (VarId v = 0; v < k; ++v) {
    const auto n = static_cast<std::size_t>(
        rng.uniform_int(1, static_cast<std::int64_t>(per_var)));
    for (std::size_t i = 0; i < n; ++i)  // coarse values: ties and near-misses
      streams[v].push_back({v, static_cast<SeqNo>(i + 1),
                            std::floor(rng.uniform(0.0, 6.0)) * 10.0});
  }
  // A random interleaving of `parts`, keeping each part's order.
  auto interleave = [&](std::vector<std::vector<Update>> parts) {
    std::vector<Update> out;
    std::vector<std::size_t> at(parts.size(), 0);
    for (;;) {
      std::vector<std::size_t> open;
      for (std::size_t i = 0; i < parts.size(); ++i)
        if (at[i] < parts[i].size()) open.push_back(i);
      if (open.empty()) return out;
      const std::size_t i = open[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(open.size()) - 1))];
      out.push_back(parts[i][at[i]++]);
    }
  };

  SystemRun run;
  run.condition = cond;
  std::vector<Alert> raised;
  for (int ce = 0; ce < 2; ++ce) {
    std::vector<std::vector<Update>> seen(k);
    for (VarId v = 0; v < k; ++v)
      for (const Update& u : streams[v])
        if (!rng.bernoulli(0.3)) seen[v].push_back(u);
    run.ce_inputs.push_back(interleave(seen));
    for (Alert& a : evaluate_trace(cond, run.ce_inputs.back()))
      raised.push_back(std::move(a));
  }
  std::vector<std::vector<Update>> unions;
  for (auto& [var, seq] : combined_inputs(run.ce_inputs))
    unions.push_back(std::move(seq));

  switch (rng.uniform_int(0, 2)) {
    case 0: run.displayed = evaluate_trace(cond, run.ce_inputs[0]); break;
    case 1: run.displayed = raised; break;
    default: run.displayed = evaluate_trace(cond, interleave(unions));
  }
  const std::int64_t edit = rng.uniform_int(0, 2);
  if (edit == 1 && !run.displayed.empty())
    run.displayed.erase(run.displayed.begin() +
                        rng.uniform_int(0, static_cast<std::int64_t>(
                                               run.displayed.size()) - 1));
  if (edit == 2) {
    const std::vector<Alert> other = evaluate_trace(cond, interleave(unions));
    if (!other.empty())
      run.displayed.push_back(other[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(other.size()) - 1))]);
  }
  return run;
}

TEST(CheckerMeta, GridDecisionMatchesBruteForce) {
  util::Rng rng{2024};
  std::size_t holds = 0, violated = 0;
  for (int trial = 0; trial < 2400; ++trial) {
    const SystemRun run = random_oracle_run(rng);
    const std::optional<bool> oracle = oracle_complete(run);
    ASSERT_TRUE(oracle.has_value()) << "trial " << trial;
    std::vector<Update> witness;
    const Verdict v = check_complete(run, 200000, &witness);
    ASSERT_NE(v, Verdict::kUnknown) << "trial " << trial;
    EXPECT_EQ(v == Verdict::kHolds, *oracle) << "trial " << trial;
    if (v == Verdict::kHolds) {
      ++holds;
      EXPECT_EQ(key_set(evaluate_trace(run.condition, witness)),
                key_set(run.displayed))
          << "trial " << trial;
    } else {
      ++violated;
    }
  }
  // Both verdicts must be well represented for the agreement to mean
  // anything.
  EXPECT_GT(holds, 400u);
  EXPECT_GT(violated, 400u);
}

}  // namespace
}  // namespace rcm::check
