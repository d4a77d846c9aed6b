// Run recording: byte-level round trips, file round trips, verdict
// stability across save/load (an audit must reach the same conclusions
// as the live checker), robustness against corrupted record files, and
// the streaming run digest: it must equal the hash of the encoded bytes
// and move when any one recorded field moves.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <string>

#include "check/consistency.hpp"
#include "check/properties.hpp"
#include "check/run_record.hpp"
#include "core/builtin_conditions.hpp"
#include "exp/scenarios.hpp"
#include "sim/system.hpp"
#include "swarm/fuzzer.hpp"
#include "swarm/runner.hpp"
#include "wire/buffer.hpp"

namespace rcm::check {
namespace {

namespace fs = std::filesystem;

class TempPath {
 public:
  explicit TempPath(const std::string& stem) {
    static int counter = 0;
    path_ = fs::temp_directory_path() /
            (stem + "." + std::to_string(::getpid()) + "." +
             std::to_string(counter++));
    fs::remove(path_);
  }
  ~TempPath() { fs::remove(path_); }
  [[nodiscard]] const fs::path& get() const noexcept { return path_; }

 private:
  fs::path path_;
};

SystemRun sample_run(std::uint64_t seed) {
  const auto spec =
      exp::single_var_scenario(exp::Scenario::kLossyAggressive);
  util::Rng trial{seed};
  sim::SystemConfig config;
  config.condition = spec.condition;
  config.dm_traces = spec.make_traces(30, trial);
  config.front.loss = spec.front_loss;
  config.filter = FilterKind::kAd1;
  config.seed = seed * 3;
  return sim::run_system(config).as_system_run(spec.condition);
}

TEST(RunRecord, BytesRoundTrip) {
  const SystemRun original = sample_run(1);
  const auto bytes = encode_system_run(original);
  const SystemRun loaded = decode_system_run(bytes, original.condition);
  EXPECT_EQ(loaded.ce_inputs, original.ce_inputs);
  ASSERT_EQ(loaded.displayed.size(), original.displayed.size());
  for (std::size_t i = 0; i < loaded.displayed.size(); ++i)
    EXPECT_EQ(loaded.displayed[i].key(), original.displayed[i].key());
}

TEST(RunRecord, FileRoundTripPreservesVerdicts) {
  TempPath path{"rcm_run"};
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const SystemRun original = sample_run(seed);
    save_run(path.get(), original);
    const SystemRun loaded = load_run(path.get(), original.condition);

    const auto live = check_run(original);
    const auto audited = check_run(loaded);
    EXPECT_EQ(live.ordered, audited.ordered) << seed;
    EXPECT_EQ(live.complete, audited.complete) << seed;
    EXPECT_EQ(live.consistent, audited.consistent) << seed;
  }
}

TEST(RunRecord, EmptyRunRoundTrips) {
  SystemRun run;
  run.condition = std::make_shared<const ThresholdCondition>("t", 0, 1.0);
  const auto loaded =
      decode_system_run(encode_system_run(run), run.condition);
  EXPECT_TRUE(loaded.ce_inputs.empty());
  EXPECT_TRUE(loaded.displayed.empty());
}

TEST(RunRecord, RejectsGarbageBytes) {
  auto cond = std::make_shared<const ThresholdCondition>("t", 0, 1.0);
  const std::vector<std::uint8_t> garbage{1, 2, 3};
  EXPECT_THROW((void)decode_system_run(garbage, cond), wire::DecodeError);
}

TEST(RunRecord, CorruptedFileIsRejectedNotMisread) {
  TempPath path{"rcm_run"};
  const SystemRun original = sample_run(2);
  save_run(path.get(), original);
  // Flip a byte in the middle: the frame CRC must catch it.
  std::fstream f{path.get(),
                 std::ios::binary | std::ios::in | std::ios::out};
  const auto size = static_cast<std::streamoff>(fs::file_size(path.get()));
  char byte;
  f.seekg(size / 2);
  f.get(byte);
  f.seekp(size / 2);
  f.put(static_cast<char>(byte ^ 0x40));
  f.close();
  EXPECT_THROW((void)load_run(path.get(), original.condition),
               wire::DecodeError);
}

TEST(RunRecord, MissingFileThrows) {
  auto cond = std::make_shared<const ThresholdCondition>("t", 0, 1.0);
  EXPECT_THROW((void)load_run("/nonexistent/run.rcmrun", cond),
               std::runtime_error);
}

// The digest the swarm used before it streamed: encode, then hash.
std::uint64_t buffered_digest(const SystemRun& run) {
  return fnv1a(encode_system_run(run));
}

std::uint64_t streamed_digest(const SystemRun& run) {
  return run_digest(run.ce_inputs, run.displayed);
}

Alert make_alert(std::string cond,
                 std::map<VarId, std::vector<Update>> histories) {
  Alert a;
  a.cond = std::move(cond);
  a.histories = std::move(histories);
  return a;
}

TEST(RunDigest, StreamingEqualsBufferedOnSwarmRuns) {
  std::size_t with_alerts = 0;
  std::size_t multi_var = 0;
  for (std::uint64_t i = 0; i < 500; ++i) {
    const swarm::Execution exec =
        swarm::execute(swarm::sample_composed(21, i));
    SystemRun run;
    run.ce_inputs = exec.result.ce_inputs;
    run.displayed = exec.result.displayed;
    ASSERT_EQ(streamed_digest(run), buffered_digest(run)) << "run " << i;
    if (!run.displayed.empty()) ++with_alerts;
    if (!run.displayed.empty() && run.displayed.front().histories.size() > 1)
      ++multi_var;
  }
  // The batch must exercise the alert layout, multi-variable ones too.
  EXPECT_GT(with_alerts, 250u);
  EXPECT_GT(multi_var, 50u);
}

TEST(RunDigest, StreamingEqualsBufferedOnHandBuiltRuns) {
  std::vector<SystemRun> runs(6);
  // 0: no replicas at all. 1: replicas that received nothing.
  runs[1].ce_inputs = {{}, {}, {}};
  // 2: multi-variable histories, variable ids past one varint byte,
  // negative and large seqnos, odd values.
  runs[2].ce_inputs = {
      {{0, 1, 1.5}, {300, -7, -0.0}, {0, 2, 1e300}},
      {{300, 1ll << 40, std::numeric_limits<double>::quiet_NaN()}}};
  runs[2].displayed = {
      make_alert("pair", {{0, {{0, 1, 1.5}, {0, 2, 1e300}}},
                          {300, {{300, -7, -0.0}}}}),
      make_alert("pair", {{0, {{0, 2, 1e300}}}, {300, {}}})};
  // 3: a window whose seqnos step down, so the delta encoding writes
  // negative svarints.
  runs[3].ce_inputs = {{{4, 9, 2.0}, {4, 3, 1.0}}};
  runs[3].displayed = {
      make_alert("down", {{4, {{4, 9, 2.0}, {4, 3, 1.0}, {4, -5, 0.5}}}})};
  // 4: a condition name longer than one length-prefix byte.
  runs[4].displayed = {
      make_alert(std::string(300, 'c'), {{1, {{1, 1, 3.0}}}})};
  // 5: many updates, so length prefixes and counts take two varint bytes.
  runs[5].ce_inputs.resize(1);
  for (SeqNo s = 1; s <= 200; ++s) runs[5].ce_inputs[0].push_back({7, s, 0.25});
  for (std::size_t i = 0; i < runs.size(); ++i)
    EXPECT_EQ(streamed_digest(runs[i]), buffered_digest(runs[i])) << i;
}

TEST(RunDigest, EveryRecordedFieldMovesTheExecutionDigest) {
  // Stands in for a planted nondeterministic run: execute_and_check
  // compares two executions by execution_digest, so a single differing
  // field between them must change it.
  std::size_t checked = 0;
  for (std::uint64_t i = 0; checked < 20 && i < 200; ++i) {
    const swarm::ComposedSpec spec = swarm::sample_composed(23, i);
    const swarm::Execution exec = swarm::execute(spec);
    const sim::RunResult& r = exec.result;
    if (r.displayed.empty() || r.ce_inputs.empty() || r.ce_inputs[0].empty())
      continue;
    ++checked;
    const ConditionPtr cond =
        swarm::build_condition(spec.base.cond_kind, spec.base.cond_param);
    const std::uint64_t base = swarm::execution_digest(exec, cond);
    const std::size_t k = r.ce_inputs[0].size() / 2;
    const std::size_t j = r.displayed.size() / 2;

    swarm::Execution changed = exec;
    Update& u = changed.result.ce_inputs[0][k];
    u.value = std::nextafter(u.value, std::numeric_limits<double>::infinity());
    EXPECT_NE(swarm::execution_digest(changed, cond), base) << "value " << i;

    changed = exec;
    changed.result.ce_inputs[0][k].seqno += 1;
    EXPECT_NE(swarm::execution_digest(changed, cond), base) << "seqno " << i;

    changed = exec;
    Update& h = changed.result.displayed[j].histories.begin()->second.front();
    h.value = std::nextafter(h.value, -std::numeric_limits<double>::infinity());
    EXPECT_NE(swarm::execution_digest(changed, cond), base)
        << "history value " << i;

    changed = exec;
    changed.result.displayed.erase(changed.result.displayed.begin() + j);
    changed.display_times.erase(changed.display_times.begin() + j);
    EXPECT_NE(swarm::execution_digest(changed, cond), base) << "drop " << i;

    changed = exec;
    double& t = changed.display_times[j];
    t = std::nextafter(t, std::numeric_limits<double>::infinity());
    EXPECT_NE(swarm::execution_digest(changed, cond), base) << "time " << i;

    EXPECT_EQ(swarm::execution_digest(exec, cond), base);
  }
  EXPECT_EQ(checked, 20u);
}

}  // namespace
}  // namespace rcm::check
