// Workload library tests: purity of unit traffic under composition and
// reordering, materialization invariants, serialization (including the
// unknown-kind and legacy-record paths), the shrinker's ability to drop
// an irrelevant unit — and one meta-test per workload kind proving that a
// planted violation of that unit's guarantee slice is caught by that
// unit's own checker (kBrokenAd2 style: the oracle is only trusted once
// it has been seen to fire).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "swarm/fuzzer.hpp"
#include "swarm/record.hpp"
#include "swarm/runner.hpp"
#include "swarm/shrink.hpp"
#include "swarm/workload.hpp"
#include "wire/buffer.hpp"

namespace rcm::swarm {
namespace {

/// A lossless, single-variable, AD-1 base: the strictest cell of the
/// guarantee tables, so every per-unit checker's gate is open.
SwarmSpec benign_base() {
  SwarmSpec s;
  s.cond_kind = ConditionKind::kThreshold;
  s.cond_param = 60.0;
  s.num_ces = 2;
  s.filter = FilterKind::kAd1;
  s.seed = 5;
  trace::Trace t;
  for (int i = 1; i <= 8; ++i)
    t.push_back({0.4 * i, Update{0, i, i % 2 ? 30.0 : 75.0}});
  s.traces.push_back(std::move(t));
  return s;
}

struct Ran {
  ComposedSpec spec;
  MaterializedRun mat;
  Execution exec;
};

Ran run_unit(const WorkloadSpec& unit) {
  Ran r;
  r.spec = ComposedSpec{benign_base(), {unit}};
  r.mat = materialize(r.spec);
  r.exec = execute(r.spec);
  return r;
}

/// Asserts the benign run satisfies the unit's checker, then returns the
/// pieces for the test to corrupt.
Ran run_clean(const WorkloadSpec& unit) {
  Ran r = run_unit(unit);
  EXPECT_EQ(check_workload(r.spec, r.mat, r.exec.result, 0), "");
  return r;
}

WorkloadSpec flash_crowd() {
  WorkloadSpec u;
  u.kind = WorkloadKind::kFlashCrowd;
  u.salt = 3;
  u.count = 6;
  u.start = 0.5;
  u.duration = 2.0;
  u.magnitude = 80.0;
  return u;
}

// ---- purity / composition ----------------------------------------------

TEST(Workload, SamplingIsAPureFunctionOfSeedAndIndex) {
  FuzzOptions fuzz;
  fuzz.min_workloads = 3;
  for (std::uint64_t i = 0; i < 5; ++i) {
    const ComposedSpec a = sample_composed(17, i, fuzz);
    const ComposedSpec b = sample_composed(17, i, fuzz);
    EXPECT_TRUE(a == b) << "run " << i;
    EXPECT_GE(a.units.size(), 3u);
  }
}

TEST(Workload, ComposedBaseMatchesPlainSampling) {
  // Workload draws happen strictly after the base's, so composing must
  // never perturb the base spec a seed produces.
  FuzzOptions fuzz;
  fuzz.min_workloads = 2;
  for (std::uint64_t i = 0; i < 5; ++i)
    EXPECT_TRUE(sample_composed(17, i, fuzz).base == sample_spec(17, i, fuzz));
}

TEST(Workload, ReorderingUnitsChangesNoUnitsTraffic) {
  // Rng::derive stream independence: each unit's sampled traffic is a
  // function of the unit alone. Reversing the unit list must leave every
  // unit's generated updates and its materialized (time, value) slice
  // bit-identical; only the owner indices relabel.
  std::vector<WorkloadSpec> units;
  {
    WorkloadSpec u = flash_crowd();
    units.push_back(u);
    u.kind = WorkloadKind::kClockSkew;
    u.salt = 9;
    u.count = 5;
    u.magnitude = 0.7;
    units.push_back(u);
    u.kind = WorkloadKind::kAdaptiveHoldback;
    u.salt = 12;
    u.count = 7;
    u.magnitude = 0.3;
    units.push_back(u);
  }
  std::vector<WorkloadSpec> reversed{units.rbegin(), units.rend()};
  for (std::size_t i = 0; i < units.size(); ++i) {
    const trace::Trace a = workload_traffic(units[i]);
    const trace::Trace b = workload_traffic(reversed[units.size() - 1 - i]);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t j = 0; j < a.size(); ++j) {
      EXPECT_EQ(a[j].time, b[j].time);
      EXPECT_EQ(a[j].update.value, b[j].update.value);
    }
  }

  const MaterializedRun fwd = materialize({benign_base(), units});
  const MaterializedRun rev = materialize({benign_base(), reversed});
  ASSERT_EQ(fwd.owner.size(), rev.owner.size());
  for (std::size_t i = 0; i < units.size(); ++i) {
    const std::uint32_t fwd_idx = static_cast<std::uint32_t>(i);
    const std::uint32_t rev_idx =
        static_cast<std::uint32_t>(units.size() - 1 - i);
    std::vector<std::pair<double, double>> a, b;
    for (std::size_t k = 0; k < fwd.owner.size(); ++k) {
      if (fwd.owner[k] == fwd_idx)
        a.emplace_back(fwd.spec.traces[0][k].time,
                       fwd.spec.traces[0][k].update.value);
      if (rev.owner[k] == rev_idx)
        b.emplace_back(rev.spec.traces[0][k].time,
                       rev.spec.traces[0][k].update.value);
    }
    EXPECT_EQ(a, b) << "unit " << i << " slice moved with its position";
  }
}

TEST(Workload, MaterializeRenumbersSeqnosAndAssignsOwners) {
  const ComposedSpec spec{benign_base(), {flash_crowd()}};
  const MaterializedRun mat = materialize(spec);
  const trace::Trace& primary = mat.spec.traces[0];
  ASSERT_EQ(mat.owner.size(), primary.size());
  ASSERT_EQ(primary.size(), benign_base().traces[0].size() + 6);
  std::size_t unit_owned = 0;
  for (std::size_t k = 0; k < primary.size(); ++k) {
    EXPECT_EQ(primary[k].update.seqno, static_cast<SeqNo>(k) + 1);
    if (k) {
      EXPECT_LE(primary[k - 1].time, primary[k].time);
    }
    if (mat.owner[k] != kBaseTraffic) {
      EXPECT_LT(mat.owner[k], spec.units.size());
      ++unit_owned;
    }
  }
  EXPECT_EQ(unit_owned, 6u);
}

TEST(Workload, MaterializeWithoutTrafficUnitsLeavesTracesUntouched) {
  WorkloadSpec fault;
  fault.kind = WorkloadKind::kPartition;
  fault.replica = 1;
  fault.start = 1.0;
  fault.duration = 2.0;
  const ComposedSpec spec{benign_base(), {fault}};
  const MaterializedRun mat = materialize(spec);
  const std::vector<trace::Trace> base = benign_base().traces;
  ASSERT_EQ(mat.spec.traces.size(), base.size());
  for (std::size_t v = 0; v < base.size(); ++v) {
    ASSERT_EQ(mat.spec.traces[v].size(), base[v].size());
    for (std::size_t k = 0; k < base[v].size(); ++k) {
      EXPECT_EQ(mat.spec.traces[v][k].time, base[v][k].time);
      EXPECT_EQ(mat.spec.traces[v][k].update.seqno, base[v][k].update.seqno);
      EXPECT_EQ(mat.spec.traces[v][k].update.value, base[v][k].update.value);
    }
  }
  ASSERT_EQ(mat.front_shaping.size(), 2u);
  ASSERT_EQ(mat.front_shaping[1].outages.size(), 1u);
  EXPECT_TRUE(mat.front_shaping[1].cuts(1.5));
  EXPECT_FALSE(mat.front_shaping[1].cuts(3.5));
}

// ---- per-unit meta-tests: planted violations must be caught ------------

TEST(WorkloadMeta, FlashCrowdCatchesSuppressedSliceAlert) {
  Ran r = run_clean(flash_crowd());
  // Suppress every displayed alert triggered by a unit-owned update: the
  // unit's slice of completeness is now violated.
  std::vector<Alert> kept;
  for (const Alert& a : r.exec.result.displayed) {
    const SeqNo s = a.seqno(0);
    if (s >= 1 && static_cast<std::size_t>(s) <= r.mat.owner.size() &&
        r.mat.owner[static_cast<std::size_t>(s) - 1] == 0)
      continue;
    kept.push_back(a);
  }
  ASSERT_LT(kept.size(), r.exec.result.displayed.size())
      << "the flash crowd produced no displayed alerts to suppress";
  r.exec.result.displayed = std::move(kept);
  const std::string msg = check_workload(r.spec, r.mat, r.exec.result, 0);
  EXPECT_NE(msg.find("flash-crowd"), std::string::npos) << msg;
  EXPECT_NE(msg.find("slice incompleteness"), std::string::npos) << msg;
}

TEST(WorkloadMeta, SlowReplicaCatchesALostUpdate) {
  WorkloadSpec u;
  u.kind = WorkloadKind::kSlowReplica;
  u.replica = 1;
  u.magnitude = 0.8;
  Ran r = run_clean(u);
  auto& inputs = r.exec.result.ce_inputs[1];
  ASSERT_FALSE(inputs.empty());
  inputs.erase(inputs.begin() + static_cast<std::ptrdiff_t>(inputs.size() / 2));
  const std::string msg = check_workload(r.spec, r.mat, r.exec.result, 0);
  EXPECT_NE(msg.find("slow-replica"), std::string::npos) << msg;
  EXPECT_NE(msg.find("delayed replica"), std::string::npos) << msg;
}

TEST(WorkloadMeta, PartitionCatchesAnInWindowDelivery) {
  WorkloadSpec u;
  u.kind = WorkloadKind::kPartition;
  u.replica = 1;
  u.start = 1.0;
  u.duration = 2.0;
  Ran r = run_clean(u);
  // Deliver an update that was emitted inside the outage window (the
  // base trace has updates at t = 0.4 * i, several of which fall in
  // [1, 3)) straight into the partitioned replica's input log.
  const trace::Trace& primary = r.mat.spec.traces[0];
  const auto it = std::find_if(
      primary.begin(), primary.end(),
      [](const trace::TimedUpdate& tu) {
        return tu.time >= 1.0 && tu.time < 3.0;
      });
  ASSERT_NE(it, primary.end());
  r.exec.result.ce_inputs[1].push_back(it->update);
  const std::string msg = check_workload(r.spec, r.mat, r.exec.result, 0);
  EXPECT_NE(msg.find("partition"), std::string::npos) << msg;
  EXPECT_NE(msg.find("inside the outage"), std::string::npos) << msg;
}

TEST(WorkloadMeta, ClockSkewCatchesARewrittenValue) {
  WorkloadSpec u;
  u.kind = WorkloadKind::kClockSkew;
  u.salt = 9;
  u.count = 5;
  u.duration = 3.0;
  u.magnitude = 0.7;
  Ran r = run_clean(u);
  // Corrupt one materialized update the unit owns: the merge no longer
  // matches the unit's generated stream.
  for (std::size_t k = 0; k < r.mat.owner.size(); ++k) {
    if (r.mat.owner[k] != 0) continue;
    r.mat.spec.traces[0][k].update.value += 13.0;
    break;
  }
  const std::string msg = check_workload(r.spec, r.mat, r.exec.result, 0);
  EXPECT_NE(msg.find("clock-skew"), std::string::npos) << msg;
  EXPECT_NE(msg.find("diverges"), std::string::npos) << msg;
}

TEST(WorkloadMeta, CheapFleetCatchesAStaleAcceptedUpdate) {
  WorkloadSpec u;
  u.kind = WorkloadKind::kCheapFleet;
  u.salt = 4;
  u.count = 256;
  u.updates = 8;
  u.duration = 3.0;
  Ran r = run_clean(u);
  auto& inputs = r.exec.result.ce_inputs[0];
  ASSERT_FALSE(inputs.empty());
  inputs.push_back(Update{0, 1, 99.0});  // seq 1 again: stale re-acceptance
  const std::string msg = check_workload(r.spec, r.mat, r.exec.result, 0);
  EXPECT_NE(msg.find("cheap-fleet"), std::string::npos) << msg;
  EXPECT_NE(msg.find("stale"), std::string::npos) << msg;
}

TEST(WorkloadMeta, AdaptiveHoldbackCatchesALostArrival) {
  WorkloadSpec u;
  u.kind = WorkloadKind::kAdaptiveHoldback;
  u.salt = 6;
  u.count = 10;
  u.duration = 2.0;
  u.magnitude = 0.4;
  Ran r = run_clean(u);
  auto& arrived = r.exec.result.arrived;
  ASSERT_FALSE(arrived.empty());
  arrived.pop_back();
  const std::string msg = check_workload(r.spec, r.mat, r.exec.result, 0);
  EXPECT_NE(msg.find("adaptive-holdback"), std::string::npos) << msg;
  EXPECT_NE(msg.find("never arrived"), std::string::npos) << msg;
}

// ---- end-to-end: composed run through the real checker ------------------

TEST(Workload, BenignCompositionPassesTheFullChecker) {
  WorkloadSpec skew;
  skew.kind = WorkloadKind::kClockSkew;
  skew.salt = 9;
  skew.count = 5;
  skew.duration = 3.0;
  skew.magnitude = 0.7;
  WorkloadSpec slow;
  slow.kind = WorkloadKind::kSlowReplica;
  slow.replica = 1;
  slow.magnitude = 0.8;
  const ComposedSpec spec{benign_base(), {flash_crowd(), skew, slow}};
  const RunCheck chk = execute_and_check(spec);
  EXPECT_FALSE(chk.failed())
      << (chk.violations.empty() ? std::string{} : chk.violations[0]);
}

TEST(Workload, ShrinkerDropsAnIrrelevantUnit) {
  // Find a base spec that trips the planted AD-2 bug, then compose an
  // inert unit onto it (zero extra delay changes nothing about the run).
  // The shrinker's unit pass must eliminate it.
  FuzzOptions fuzz;
  fuzz.force_filter = FilterKind::kBrokenAd2;
  fuzz.max_workloads = 0;
  for (std::uint64_t i = 0; i < 50; ++i) {
    const SwarmSpec base = sample_spec(7, i, fuzz);
    const RunCheck chk = execute_and_check(base);
    if (!chk.failed()) continue;

    WorkloadSpec inert;
    inert.kind = WorkloadKind::kSlowReplica;
    inert.replica = 0;
    inert.magnitude = 0.0;
    const ComposedSpec composed{base, {inert}};
    const RunCheck composed_chk = execute_and_check(composed);
    ASSERT_TRUE(composed_chk.failed())
        << "an inert unit must not heal the violation";
    const ViolationKind kind = composed_chk.violation_kinds.front();

    const ShrinkResult result = shrink(composed, kind);
    EXPECT_TRUE(result.spec.units.empty())
        << "the shrinker kept a unit irrelevant to the failure";
    const RunCheck minimal = execute_and_check(result.spec);
    EXPECT_TRUE(minimal.has_kind(kind));
    return;
  }
  FAIL() << "seed 7 no longer trips the broken filter";
}

// ---- serialization ------------------------------------------------------

TEST(Workload, EveryKindRoundTripsThroughTheWire) {
  std::uint64_t salt = 2;
  for (WorkloadKind kind : kAllWorkloadKinds) {
    WorkloadSpec u;
    u.kind = kind;
    u.salt = salt++;
    u.replica = 1;
    u.count = 12;
    u.updates = 7;
    u.start = 0.25;
    u.duration = 1.5;
    u.magnitude = kind == WorkloadKind::kClockSkew ? -0.5 : 0.75;
    wire::Writer w;
    encode_workload(w, u);
    wire::Reader r{w.bytes()};
    const WorkloadSpec back = decode_workload(r);
    EXPECT_TRUE(back == u) << workload_kind_name(kind);
  }
}

TEST(Workload, UnknownKindIsRejected) {
  wire::Writer w;
  WorkloadSpec u = flash_crowd();
  encode_workload(w, u);
  std::vector<std::uint8_t> bytes = w.take();
  bytes[0] = 6;  // one past kAdaptiveHoldback
  wire::Reader r{bytes};
  EXPECT_THROW((void)decode_workload(r), wire::DecodeError);
}

TEST(Workload, ParseKindRejectsUnknownNames) {
  for (WorkloadKind kind : kAllWorkloadKinds)
    EXPECT_EQ(parse_workload_kind(workload_kind_name(kind)), kind);
  EXPECT_THROW((void)parse_workload_kind("thundering-herd"),
               std::invalid_argument);
}

TEST(Workload, ComposedRecordRoundTripsAndReplays) {
  FuzzOptions fuzz;
  fuzz.min_workloads = 2;
  const ComposedSpec spec = sample_composed(21, 0, fuzz);
  ASSERT_GE(spec.units.size(), 2u);
  const RunCheck chk = execute_and_check(spec);
  const CounterexampleRecord record = make_record(spec, chk);
  const std::vector<std::uint8_t> bytes = encode_record(record);
  const CounterexampleRecord back = decode_record(bytes);
  EXPECT_TRUE(back.spec == record.spec);
  EXPECT_TRUE(replay(back).reproduced);
}

}  // namespace
}  // namespace rcm::swarm
