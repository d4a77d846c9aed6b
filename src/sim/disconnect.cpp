#include "sim/disconnect.hpp"

#include <memory>
#include <set>
#include <stdexcept>
#include <string>

namespace rcm::sim {
namespace {

/// One CE replica with a durable store-and-forward outbox.
class StoredEvaluatorNode {
 public:
  StoredEvaluatorNode(Simulator& sim, ConditionPtr condition, std::string id,
                      store::AlertOutbox::SendFn send)
      : sim_(sim),
        ce_(std::move(condition), std::move(id)),
        outbox_(std::move(send)) {}

  void inject_crashes(const std::vector<CrashWindow>& windows) {
    for (const CrashWindow& w : windows) {
      if (w.up_at < w.down_at)
        throw std::invalid_argument("CrashWindow: up_at before down_at");
      sim_.schedule_at(w.down_at, [this, lose = w.lose_state] {
        down_ = true;
        if (lose) ce_.crash_reset();  // volatile state dies; the log lives
      });
      sim_.schedule_at(w.up_at, [this] { down_ = false; });
    }
  }

  void on_update(const Update& u) {
    if (down_) return;
    if (auto alert = ce_.on_update(u)) outbox_.submit(*alert);
  }

  [[nodiscard]] const ConditionEvaluator& evaluator() const noexcept {
    return ce_;
  }
  [[nodiscard]] store::AlertOutbox& outbox() noexcept { return outbox_; }

 private:
  Simulator& sim_;
  ConditionEvaluator ce_;
  store::AlertOutbox outbox_;
  bool down_ = false;
};

/// Message on the back links: a log entry from one replica.
struct BackMsg {
  std::size_t replica;
  store::AlertLog::Index index;
  Alert alert;
};

}  // namespace

DisconnectResult run_disconnectable_system(const DisconnectConfig& config) {
  const SystemConfig& base = config.base;
  if (!base.condition)
    throw std::invalid_argument("run_disconnectable_system: null condition");
  if (base.num_ces == 0)
    throw std::invalid_argument("run_disconnectable_system: need a CE");
  if (base.back.loss != 0.0)
    throw std::invalid_argument(
        "run_disconnectable_system: back links are lossless");
  double prev_end = 0.0;
  for (const auto& [from, to] : config.ad_offline) {
    if (from < prev_end || to < from)
      throw std::invalid_argument(
          "run_disconnectable_system: offline windows must be "
          "non-overlapping and ascending");
    prev_end = to;
  }

  Simulator sim;
  util::Rng master{base.seed};

  DisconnectResult result;

  // --- the AD gate -------------------------------------------------------
  AlertDisplayer displayer{
      make_filter(base.filter, base.condition->variables())};
  bool ad_online = true;
  std::vector<std::set<store::AlertLog::Index>> delivered_index(base.num_ces);

  // Outboxes are created below; the ack path needs to reach them.
  std::vector<std::unique_ptr<StoredEvaluatorNode>> ces;

  auto deliver_to_ad = [&](const BackMsg& msg) {
    if (!ad_online) {
      ++result.offline_drops;  // sender will retransmit after reconnect
      return;
    }
    // Acknowledge (cumulatively) whether or not it is a duplicate.
    sim.schedule_after(config.ack_delay,
                       [&ces, replica = msg.replica, index = msg.index] {
                         ces[replica]->outbox().on_ack(index);
                       });
    if (!delivered_index[msg.replica].insert(msg.index).second) {
      ++result.duplicate_deliveries;
      return;
    }
    if (displayer.on_alert(msg.alert))
      result.display_times.push_back(sim.now());
  };

  // --- links and nodes ---------------------------------------------------
  std::vector<std::unique_ptr<Link<BackMsg>>> back_links;
  std::uint64_t salt = 0;
  for (std::size_t c = 0; c < base.num_ces; ++c) {
    back_links.push_back(std::make_unique<Link<BackMsg>>(
        sim, base.back, master.fork(0x9000 + ++salt), deliver_to_ad));
  }

  for (std::size_t c = 0; c < base.num_ces; ++c) {
    Link<BackMsg>* link = back_links[c].get();
    ces.push_back(std::make_unique<StoredEvaluatorNode>(
        sim, base.condition, "CE" + std::to_string(c + 1),
        [link, c](store::AlertLog::Index index, const Alert& a) {
          link->send(BackMsg{c, index, a});
        }));
    if (c < base.ce_crashes.size())
      ces.back()->inject_crashes(base.ce_crashes[c]);
    ces.back()->outbox().set_connected(true);  // AD starts online
  }

  std::vector<std::unique_ptr<DataMonitorNode>> dms;
  for (const auto& trace : base.dm_traces)
    dms.push_back(std::make_unique<DataMonitorNode>(sim, trace));

  std::vector<std::unique_ptr<Link<Update>>> front_links;
  for (auto& dm : dms) {
    for (std::size_t c = 0; c < ces.size(); ++c) {
      StoredEvaluatorNode* target = ces[c].get();
      const LinkShaping shaping = c < base.front_shaping.size()
                                      ? base.front_shaping[c]
                                      : LinkShaping{};
      front_links.push_back(std::make_unique<Link<Update>>(
          sim, base.front, master.fork(++salt),
          [target](const Update& u) { target->on_update(u); }, shaping));
      dm->attach(front_links.back().get());
    }
  }

  // --- offline schedule --------------------------------------------------
  for (const auto& [from, to] : config.ad_offline) {
    sim.schedule_at(from, [&] {
      ad_online = false;
      for (auto& ce : ces) ce->outbox().set_connected(false);
    });
    sim.schedule_at(to, [&] {
      ad_online = true;
      for (auto& ce : ces) ce->outbox().set_connected(true);
    });
  }

  for (auto& dm : dms) dm->start();
  result.run.events_executed = sim.run();

  // If the trace ended inside an offline window, bring the AD back once
  // more so the logged tail drains (the paper's "sends it later").
  if (!ad_online) {
    ad_online = true;
    for (auto& ce : ces) ce->outbox().set_connected(true);
    result.run.events_executed += sim.run();
  }

  result.run.displayed = displayer.displayed();
  result.run.arrived = displayer.arrived();
  for (const auto& ce : ces) {
    result.run.ce_inputs.push_back(ce->evaluator().received());
    result.run.ce_outputs.push_back(ce->evaluator().emitted());
    result.retransmissions += ce->outbox().retransmissions();
  }
  for (const auto& dm : dms) result.run.dm_emitted.push_back(dm->emitted());
  for (const auto& link : front_links)
    result.run.front_messages_dropped += link->dropped();
  return result;
}

}  // namespace rcm::sim
