// Tests for the discrete-event simulator: event ordering, the link model
// (in-order delivery, Bernoulli loss, delay bounds), node behaviour,
// whole-system runs, determinism and crash injection.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "core/builtin_conditions.hpp"
#include "core/sequence.hpp"
#include "sim/link.hpp"
#include "sim/simulator.hpp"
#include "sim/system.hpp"
#include "trace/scripted.hpp"

namespace rcm::sim {
namespace {

constexpr VarId kX = 0;

ConditionPtr overheat(double t = 3000.0) {
  return std::make_shared<const ThresholdCondition>("hot", kX, t);
}

TEST(Simulator, ExecutesInTimestampOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(3.0, [&] { order.push_back(3); });
  sim.schedule_at(1.0, [&] { order.push_back(1); });
  sim.schedule_at(2.0, [&] { order.push_back(2); });
  EXPECT_EQ(sim.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, TiesBreakFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i)
    sim.schedule_at(1.0, [&order, i] { order.push_back(i); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, EventsMayScheduleEvents) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(1.0, [&] {
    ++fired;
    sim.schedule_after(1.0, [&] { ++fired; });
  });
  EXPECT_EQ(sim.run(), 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
}

TEST(Simulator, EventsScheduledDuringDispatchKeepTimeThenFifoOrder) {
  // One action schedules hundreds of events while it runs, so the event
  // heap grows (and reallocates) under the dispatch loop. Each event
  // carries a heap-allocated payload that must arrive intact, and all run
  // in (time, scheduling order), interleaved with events queued before.
  Simulator sim;
  constexpr int kEvents = 600;
  std::vector<int> order;
  struct Expected {
    double time;
    int id;
  };
  std::vector<Expected> expected;  // in scheduling order
  auto schedule = [&](double at, int id) {
    std::vector<int> payload(static_cast<std::size_t>(id % 9 + 2), id);
    expected.push_back({at, id});
    sim.schedule_at(at, [&order, id, payload = std::move(payload)] {
      for (int v : payload) EXPECT_EQ(v, id);
      order.push_back(id);
    });
  };
  schedule(1.5, -1);
  schedule(2.0, -2);
  sim.schedule_at(1.0, [&] {
    for (int i = 0; i < kEvents; ++i) schedule(1.0 + (i * 7 % 5) * 0.25, i);
  });
  EXPECT_EQ(sim.run(), kEvents + 3u);
  std::stable_sort(expected.begin(), expected.end(),
                   [](const Expected& a, const Expected& b) {
                     return a.time < b.time;
                   });
  ASSERT_EQ(order.size(), expected.size());
  for (std::size_t k = 0; k < order.size(); ++k)
    EXPECT_EQ(order[k], expected[k].id) << "position " << k;
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
}

TEST(Simulator, PastSchedulingClampsToNow) {
  Simulator sim;
  double when = -1.0;
  sim.schedule_at(5.0, [&] {
    sim.schedule_at(1.0, [&] { when = sim.now(); });  // in the past
  });
  sim.run();
  EXPECT_DOUBLE_EQ(when, 5.0);
}

TEST(Simulator, PastSchedulingDoesNotJumpTheNowQueue) {
  // A clamped action lands at now() but keeps its insertion order: actions
  // already queued at now() (and anything THEY chain at now()) run first.
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(5.0, [&] {
    sim.schedule_at(5.0, [&] { order.push_back(1); });  // already "at now"
    sim.schedule_at(0.0, [&] {                          // past -> clamped
      order.push_back(2);
      sim.schedule_at(2.0, [&] { order.push_back(3); });  // past again
    });
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);  // clamping never rewinds time
}

TEST(Simulator, RunUntilLeavesFutureEventsQueued) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(1.0, [&] { ++fired; });
  sim.schedule_at(10.0, [&] { ++fired; });
  EXPECT_EQ(sim.run_until(5.0), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.pending(), 1u);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Link, RejectsBadParameters) {
  Simulator sim;
  util::Rng rng{1};
  auto sink = [](const int&) {};
  EXPECT_THROW((Link<int>{sim, {0.1, 0.05, 0.0}, rng, sink}),
               std::invalid_argument);
  EXPECT_THROW((Link<int>{sim, {0.0, 0.1, 1.5}, rng, sink}),
               std::invalid_argument);
  EXPECT_THROW((Link<int>{sim, {0.0, 0.1, 0.0}, rng, nullptr}),
               std::invalid_argument);
}

TEST(Link, DeliversInOrderDespiteRandomDelays) {
  Simulator sim;
  std::vector<int> received;
  Link<int> link{sim,
                 {0.0, 10.0, 0.0},  // huge delay spread
                 util::Rng{7},
                 [&](const int& v) { received.push_back(v); }};
  for (int i = 0; i < 50; ++i)
    sim.schedule_at(0.01 * i, [&link, i] { link.send(i); });
  sim.run();
  ASSERT_EQ(received.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(received[i], i);
  EXPECT_EQ(link.delivered(), 50u);
  EXPECT_EQ(link.dropped(), 0u);
}

TEST(Link, LossRateIsRespected) {
  Simulator sim;
  std::size_t received = 0;
  Link<int> link{sim,
                 {0.0, 0.1, 0.3},
                 util::Rng{11},
                 [&](const int&) { ++received; }};
  const int n = 20000;
  for (int i = 0; i < n; ++i) sim.schedule_at(0.0, [&link, i] { link.send(i); });
  sim.run();
  EXPECT_EQ(link.sent(), static_cast<std::size_t>(n));
  EXPECT_EQ(link.dropped() + link.delivered(), static_cast<std::size_t>(n));
  EXPECT_NEAR(static_cast<double>(link.dropped()) / n, 0.3, 0.02);
  EXPECT_EQ(received, link.delivered());
}

TEST(Link, LosslessDeliversEverything) {
  Simulator sim;
  std::size_t received = 0;
  Link<int> link{sim, {0.0, 0.1, 0.0}, util::Rng{3},
                 [&](const int&) { ++received; }};
  for (int i = 0; i < 1000; ++i)
    sim.schedule_at(0.0, [&link, i] { link.send(i); });
  sim.run();
  EXPECT_EQ(received, 1000u);
}

// A link message that counts how often it is copied: every copy of one
// message shares (and bumps) the same counter.
struct CountedMessage {
  explicit CountedMessage(int i) : id(i) {}
  CountedMessage(const CountedMessage& o) : id(o.id), copies(o.copies) {
    ++*copies;
  }
  CountedMessage(CountedMessage&&) noexcept = default;
  CountedMessage& operator=(const CountedMessage& o) {
    id = o.id;
    copies = o.copies;
    ++*copies;
    return *this;
  }
  CountedMessage& operator=(CountedMessage&&) noexcept = default;

  int id = 0;
  std::shared_ptr<int> copies = std::make_shared<int>(0);
};

TEST(Link, InFlightMessagesAreNotCopiedAndKeepOrderAndTimes) {
  // A sent lvalue is copied once (into the link), an rvalue never; the
  // delivery order and times are the link model's, recomputed here from
  // the same RNG stream: per send, a Bernoulli loss draw, then a uniform
  // delay, then no earlier than 1e-9 s after the previous delivery.
  const LinkParams params{0.0, 0.05, 0.25};
  constexpr int kSends = 400;
  auto send_time = [](int i) { return 0.002 * (i / 3); };  // ties in threes

  Simulator sim;
  struct Delivery {
    int id;
    double time;
    int copies;
  };
  std::vector<Delivery> got;
  Link<CountedMessage> link{sim, params, util::Rng{17},
                            [&](const CountedMessage& m) {
                              got.push_back({m.id, sim.now(), *m.copies});
                            }};
  for (int i = 0; i < kSends; ++i) {
    sim.schedule_at(send_time(i), [&link, i] {
      if (i % 2 == 0) {
        const CountedMessage m{i};
        link.send(m);
      } else {
        link.send(CountedMessage{i});
      }
    });
  }
  sim.run();

  util::Rng model{17};
  double last = 0.0;
  std::vector<Delivery> want;
  for (int i = 0; i < kSends; ++i) {
    if (model.bernoulli(params.loss)) continue;
    const double at = std::max(
        send_time(i) + model.uniform(params.delay_min, params.delay_max),
        last + 1e-9);
    last = at;
    want.push_back({i, at, i % 2 == 0 ? 1 : 0});
  }
  ASSERT_GT(want.size(), 200u);
  ASSERT_LT(want.size(), 380u);  // the lossy path ran
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t k = 0; k < got.size(); ++k) {
    EXPECT_EQ(got[k].id, want[k].id) << k;
    EXPECT_EQ(got[k].time, want[k].time) << k;
    EXPECT_EQ(got[k].copies, want[k].copies) << "message " << got[k].id;
  }
  EXPECT_EQ(link.delivered(), want.size());
  EXPECT_EQ(link.dropped(), kSends - want.size());
}

// ------------------------------------------------------- whole system ----

SystemConfig base_config(ConditionPtr cond, double loss,
                         std::size_t num_ces = 2, std::uint64_t seed = 5) {
  SystemConfig config;
  config.condition = std::move(cond);
  config.dm_traces = {trace::scripted(
      kX, {{1, 2900.0}, {2, 3100.0}, {3, 2950.0}, {4, 3200.0}, {5, 3050.0}})};
  config.num_ces = num_ces;
  config.front.loss = loss;
  config.filter = FilterKind::kAd1;
  config.seed = seed;
  return config;
}

TEST(RunSystem, ValidatesConfig) {
  EXPECT_THROW((void)run_system(SystemConfig{}), std::invalid_argument);

  auto config = base_config(overheat(), 0.0);
  config.num_ces = 0;
  EXPECT_THROW((void)run_system(config), std::invalid_argument);

  config = base_config(overheat(), 0.0);
  config.back.loss = 0.1;
  EXPECT_THROW((void)run_system(config), std::invalid_argument);

  config = base_config(overheat(), 0.0);
  config.dm_traces.clear();
  EXPECT_THROW((void)run_system(config), std::invalid_argument);
}

TEST(RunSystem, LosslessNonReplicatedMatchesReferenceT) {
  auto config = base_config(overheat(), 0.0, /*num_ces=*/1);
  config.filter = FilterKind::kPassAll;
  const RunResult r = run_system(config);
  ASSERT_EQ(r.ce_inputs.size(), 1u);
  EXPECT_EQ(r.ce_inputs[0].size(), 5u);  // nothing lost
  const auto ref = evaluate_trace(config.condition, r.ce_inputs[0]);
  ASSERT_EQ(r.displayed.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i)
    EXPECT_EQ(r.displayed[i].key(), ref[i].key());
  EXPECT_EQ(r.displayed.size(), 3u);  // updates 2, 4, 5 are over 3000
}

TEST(RunSystem, ReplicatedLosslessDisplaysEachAlertOnce) {
  const RunResult r = run_system(base_config(overheat(), 0.0));
  EXPECT_EQ(r.arrived.size(), 6u);    // 3 alerts from each CE
  EXPECT_EQ(r.displayed.size(), 3u);  // AD-1 dedups the copies
}

TEST(RunSystem, SameSeedSameResult) {
  const RunResult a = run_system(base_config(overheat(), 0.3, 2, 99));
  const RunResult b = run_system(base_config(overheat(), 0.3, 2, 99));
  ASSERT_EQ(a.displayed.size(), b.displayed.size());
  for (std::size_t i = 0; i < a.displayed.size(); ++i)
    EXPECT_EQ(a.displayed[i].key(), b.displayed[i].key());
  EXPECT_EQ(a.ce_inputs, b.ce_inputs);
  EXPECT_EQ(a.front_messages_dropped, b.front_messages_dropped);
}

TEST(RunSystem, DifferentSeedsDiffer) {
  std::size_t distinct = 0;
  const RunResult a = run_system(base_config(overheat(), 0.4, 2, 1));
  for (std::uint64_t seed = 2; seed < 8; ++seed) {
    const RunResult b = run_system(base_config(overheat(), 0.4, 2, seed));
    if (a.ce_inputs != b.ce_inputs) ++distinct;
  }
  EXPECT_GT(distinct, 0u);
}

TEST(RunSystem, LossActuallyDropsUpdates) {
  auto config = base_config(overheat(), 0.5, 2, 17);
  config.dm_traces = {trace::scripted(kX, [] {
                        std::vector<std::pair<SeqNo, double>> pts;
                        for (SeqNo s = 1; s <= 100; ++s)
                          pts.emplace_back(s, 2000.0);
                        return pts;
                      }())};
  const RunResult r = run_system(config);
  EXPECT_GT(r.front_messages_dropped, 50u);
  EXPECT_LT(r.ce_inputs[0].size(), 100u);
  EXPECT_LT(r.ce_inputs[1].size(), 100u);
}

TEST(RunSystem, CeInputsAreSubsequencesOfEmitted) {
  const RunResult r = run_system(base_config(overheat(), 0.4, 3, 23));
  const auto emitted = project(
      std::span<const Update>{r.dm_emitted[0]}, kX);
  for (const auto& input : r.ce_inputs) {
    const auto seqs = project(std::span<const Update>{input}, kX);
    EXPECT_TRUE(is_subsequence(seqs, emitted));
  }
}

TEST(RunSystem, CrashWindowLosesUpdates) {
  auto config = base_config(overheat(), 0.0, 2);
  // CE1 down between t=1.5 and t=3.5: misses updates 2 and 3.
  config.ce_crashes = {{CrashWindow{1.5, 3.5, true}}};
  const RunResult r = run_system(config);
  ASSERT_EQ(r.ce_inputs.size(), 2u);
  const auto seqs0 = project(std::span<const Update>{r.ce_inputs[0]}, kX);
  EXPECT_EQ(seqs0, (std::vector<SeqNo>{1, 4, 5}));
  const auto seqs1 = project(std::span<const Update>{r.ce_inputs[1]}, kX);
  EXPECT_EQ(seqs1, (std::vector<SeqNo>{1, 2, 3, 4, 5}));
}

TEST(RunSystem, NonReplicatedCrashMissesAlerts) {
  // The availability motivation: with one CE crashed during the alert
  // window, the user gets nothing; with two CEs the alert still arrives.
  auto single = base_config(overheat(), 0.0, 1);
  single.ce_crashes = {{CrashWindow{0.5, 10.0, true}}};
  EXPECT_TRUE(run_system(single).displayed.empty());

  auto replicated = base_config(overheat(), 0.0, 2);
  replicated.ce_crashes = {{CrashWindow{0.5, 10.0, true}}};
  EXPECT_FALSE(run_system(replicated).displayed.empty());
}

TEST(RunSystem, MultiDmSystemRuns) {
  auto cm = std::make_shared<const AbsDiffCondition>("cm", 0, 1, 100.0);
  SystemConfig config;
  config.condition = cm;
  config.dm_traces = {trace::theorem10_ux(0), trace::theorem10_uy(1)};
  config.num_ces = 2;
  config.filter = FilterKind::kAd5;
  config.seed = 3;
  const RunResult r = run_system(config);
  EXPECT_EQ(r.dm_emitted.size(), 2u);
  // Whatever happened, AD-5 output must be ordered in both variables.
  EXPECT_TRUE(check::check_ordered(r.displayed, {0, 1}));
}

TEST(RunResult, AsSystemRunPackagesFields) {
  const auto config = base_config(overheat(), 0.2);
  const RunResult r = run_system(config);
  const check::SystemRun run = r.as_system_run(config.condition);
  EXPECT_EQ(run.ce_inputs, r.ce_inputs);
  EXPECT_EQ(run.displayed.size(), r.displayed.size());
  EXPECT_EQ(run.condition, config.condition);
}

}  // namespace
}  // namespace rcm::sim
