// Cross-cutting integration tests:
//  - substrate agreement: the simulator and the live alert service
//    display the same alert key set for the same lossless workload (the
//    simulator's conclusions transfer);
//  - a soak run: a large simulated system exercising every filter on
//    one big workload, with every invariant the library promises
//    checked at the end;
//  - the guarantees matrix: for each filter, the property its algorithm
//    guarantees holds across a randomized sweep regardless of scenario.
#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "check/consistency.hpp"
#include "check/properties.hpp"
#include "core/rcm.hpp"
#include "core/sequence.hpp"
#include "service/run_trace.hpp"
#include "sim/system.hpp"
#include "trace/generators.hpp"

namespace rcm {
namespace {

constexpr VarId kX = 0;

std::set<AlertKey> key_set(const std::vector<Alert>& alerts) {
  std::set<AlertKey> out;
  for (const Alert& a : alerts) out.insert(a.key());
  return out;
}

TEST(SubstrateAgreement, LosslessRunsDisplayIdenticalKeySets) {
  auto condition =
      std::make_shared<const ThresholdCondition>("hot", kX, 55.0);
  util::Rng rng{31};
  trace::UniformParams p;
  p.base.var = kX;
  p.base.count = 400;
  p.lo = 0.0;
  p.hi = 100.0;
  const auto trace = trace::uniform_trace(p, rng);

  sim::SystemConfig sc;
  sc.condition = condition;
  sc.dm_traces = {trace};
  sc.num_ces = 2;
  sc.filter = FilterKind::kAd1;
  sc.seed = 31;
  const auto sim_keys = key_set(sim::run_system(sc).displayed);

  service::ServiceConfig svc;
  svc.condition = condition;
  svc.num_replicas = 2;
  svc.filter = FilterKind::kAd1;
  const sim::RunResult r = service::run_trace(svc, {trace}, 0.0, 31);
  // A lossless run: the comparison is only meaningful if every replica
  // journaled exactly the sent stream.
  ASSERT_EQ(r.ce_inputs.size(), 2u);
  for (const auto& journal : r.ce_inputs)
    ASSERT_EQ(journal, trace::updates_of(trace));

  EXPECT_EQ(sim_keys, key_set(r.displayed));
  EXPECT_FALSE(sim_keys.empty());
}

TEST(Soak, LargeSimulatedSystemUpholdsEveryInvariant) {
  // 10k updates, 4 replicas, heavy loss, aggressive condition: the most
  // anomaly-prone configuration, one large deterministic run per filter.
  auto condition = std::make_shared<const RiseCondition>(
      "rise", kX, 25.0, Triggering::kAggressive);
  util::Rng rng{77};
  trace::UniformParams p;
  p.base.var = kX;
  p.base.count = 10000;
  p.lo = 0.0;
  p.hi = 100.0;
  const auto trace = trace::uniform_trace(p, rng);

  for (FilterKind filter : {FilterKind::kAd1, FilterKind::kAd2,
                            FilterKind::kAd3, FilterKind::kAd4}) {
    sim::SystemConfig config;
    config.condition = condition;
    config.dm_traces = {trace};
    config.num_ces = 4;
    config.front.loss = 0.3;
    config.front.delay_max = 0.8;
    config.back.delay_max = 0.8;
    config.filter = filter;
    config.seed = 77;
    const auto r = sim::run_system(config);
    const auto label = std::string(filter_kind_name(filter));

    // Structural invariants.
    ASSERT_EQ(r.display_times.size(), r.displayed.size()) << label;
    for (std::size_t i = 1; i < r.display_times.size(); ++i)
      EXPECT_LE(r.display_times[i - 1], r.display_times[i]) << label;
    const auto emitted = project(std::span<const Update>{r.dm_emitted[0]}, kX);
    for (const auto& input : r.ce_inputs) {
      const auto seqs = project(std::span<const Update>{input}, kX);
      EXPECT_TRUE(is_subsequence(seqs, emitted)) << label;
    }
    EXPECT_LE(r.displayed.size(), r.arrived.size()) << label;

    // Algorithmic guarantees (checked exactly, at scale).
    if (filter == FilterKind::kAd2 || filter == FilterKind::kAd4) {
      EXPECT_TRUE(check::check_ordered(r.displayed, {kX})) << label;
    }
    if (filter == FilterKind::kAd3 || filter == FilterKind::kAd4) {
      EXPECT_TRUE(
          check::check_consistent(r.as_system_run(condition)).consistent)
          << label;
    }
  }
}

TEST(GuaranteeMatrix, EachAlgorithmsPropertyHoldsInEveryScenario) {
  // Whatever the scenario, AD-2/AD-4 outputs must be ordered and
  // AD-3/AD-4 outputs consistent — the unconditional halves of the
  // paper's tables, swept across all conditions and seeds at once.
  struct Case {
    ConditionPtr condition;
  };
  const std::vector<Case> cases = {
      {std::make_shared<const ThresholdCondition>("t", kX, 50.0)},
      {std::make_shared<const RiseCondition>("rc", kX, 15.0,
                                             Triggering::kConservative)},
      {std::make_shared<const RiseCondition>("ra", kX, 15.0,
                                             Triggering::kAggressive)},
  };
  for (const auto& c : cases) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      util::Rng rng{seed * 19};
      trace::UniformParams p;
      p.base.var = kX;
      p.base.count = 50;
      p.lo = 0.0;
      p.hi = 100.0;
      sim::SystemConfig config;
      config.condition = c.condition;
      config.dm_traces = {trace::uniform_trace(p, rng)};
      config.num_ces = 3;
      config.front.loss = 0.25;
      config.front.delay_max = 1.5;
      config.back.delay_max = 1.5;
      config.seed = seed * 23;

      config.filter = FilterKind::kAd2;
      EXPECT_TRUE(check::check_ordered(sim::run_system(config).displayed,
                                       {kX}))
          << c.condition->name() << " seed " << seed;

      config.filter = FilterKind::kAd3;
      {
        const auto r = sim::run_system(config);
        EXPECT_TRUE(check::check_consistent(r.as_system_run(c.condition))
                        .consistent)
            << c.condition->name() << " seed " << seed;
      }

      config.filter = FilterKind::kAd4;
      {
        const auto r = sim::run_system(config);
        EXPECT_TRUE(check::check_ordered(r.displayed, {kX}));
        EXPECT_TRUE(check::check_consistent(r.as_system_run(c.condition))
                        .consistent)
            << c.condition->name() << " seed " << seed;
      }
    }
  }
}

}  // namespace
}  // namespace rcm
