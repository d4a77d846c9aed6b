// The service-fuzz oracle (swarm::check_service_run) must be able to
// fail: a clean hand-built run yields no violation, and each doctored
// observable yields the violation of the invariant it breaks. Without
// these, an oracle that always returned {} would pass every fuzz leg.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/evaluator.hpp"
#include "swarm/fuzz_plan.hpp"
#include "swarm/spec.hpp"

namespace rcm::swarm {
namespace {

/// One replica, AD-1, threshold 60 on one variable, lossless: seqnos 1,
/// 3 and 4 raise alerts, seqno 2 does not.
struct CleanRun {
  RunPlan plan;
  std::vector<std::vector<Update>> journals;
  std::vector<Alert> displayed;
  std::vector<AlertProvenance> provenance;

  CleanRun() {
    plan.choice = {ConditionKind::kThreshold, 60.0,
                   exp::Scenario::kLossyNonHistorical};
    plan.replicas = 1;
    plan.filter = FilterKind::kAd1;
    plan.feed = {Update{0, 1, 70.0}, Update{0, 2, 50.0}, Update{0, 3, 80.0},
                 Update{0, 4, 65.0}};
    journals = {plan.feed};
    displayed = evaluate_trace(condition(), plan.feed);
    for (std::size_t k = 0; k < displayed.size(); ++k)
      provenance.push_back(record_for(k, displayed[k]));
  }

  [[nodiscard]] ConditionPtr condition() const {
    return build_condition(plan.choice.kind, plan.choice.param);
  }

  [[nodiscard]] AlertProvenance record_for(std::size_t k,
                                           const Alert& a) const {
    AlertProvenance p;
    p.arrival_index = k;
    p.cond = a.cond;
    for (const auto& [var, seqs] : a.key().signature)
      for (const SeqNo s : seqs) p.triggers.emplace_back(var, s);
    p.filter = std::string(filter_kind_name(plan.filter));
    p.displayed = true;
    p.reason = "accepted";
    return p;
  }

  [[nodiscard]] std::vector<std::string> check(
      std::vector<std::size_t> epochs = {}) const {
    return check_service_run(plan, plan.feed, journals, displayed,
                             provenance, 0, std::move(epochs));
  }
};

bool has_violation(const std::vector<std::string>& violations,
                   const std::string& needle) {
  return std::any_of(violations.begin(), violations.end(),
                     [&](const std::string& v) {
                       return v.find(needle) != std::string::npos;
                     });
}

TEST(FuzzOracle, CleanRunHasNoViolation) {
  const CleanRun run;
  ASSERT_EQ(run.displayed.size(), 3u);
  EXPECT_TRUE(run.check().empty());
  EXPECT_TRUE(run.check({run.displayed.size()}).empty());
}

TEST(FuzzOracle, JournalUpdateThatWasNeverSent) {
  CleanRun run;
  run.journals[0][1].value = 51.0;  // (var 0, seq 2) was sent as 50.0
  EXPECT_TRUE(has_violation(run.check(), "that was never sent"));
}

TEST(FuzzOracle, JournalNotStrictlyIncreasing) {
  CleanRun run;
  run.journals[0].push_back(run.plan.feed[1]);  // seq 2 again after 4
  EXPECT_TRUE(has_violation(run.check(), "not strictly increasing"));
}

TEST(FuzzOracle, DisplayedAlertNoReplicaRaised) {
  CleanRun run;
  // Seq 2 carried 50.0, so no replica raised an alert for it.
  const std::vector<Update> lie{Update{0, 2, 90.0}};
  const std::vector<Alert> forged = evaluate_trace(run.condition(), lie);
  ASSERT_EQ(forged.size(), 1u);
  run.displayed.push_back(forged[0]);
  run.provenance.push_back(run.record_for(run.displayed.size() - 1,
                                          forged[0]));
  EXPECT_TRUE(has_violation(run.check(), "displayed alert no replica raised"));
}

TEST(FuzzOracle, ProvenanceDisplayedCountDiffers) {
  CleanRun run;
  run.provenance.back().displayed = false;
  EXPECT_TRUE(has_violation(run.check(), "provenance shows 2 displayed"));
}

TEST(FuzzOracle, DisplayerEpochsDoNotPartitionDisplayed) {
  const CleanRun run;
  EXPECT_TRUE(has_violation(run.check({1, 1}),
                            "displayer epochs do not partition"));
}

}  // namespace
}  // namespace rcm::swarm
