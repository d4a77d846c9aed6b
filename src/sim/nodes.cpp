#include "sim/nodes.hpp"

#include <stdexcept>

namespace rcm::sim {

DataMonitorNode::DataMonitorNode(Simulator& sim, trace::Trace trace)
    : sim_(sim), trace_(std::move(trace)) {}

void DataMonitorNode::attach(Link<Update>* front_link) {
  if (!front_link) throw std::invalid_argument("DataMonitorNode: null link");
  links_.push_back(front_link);
}

void DataMonitorNode::start() {
  // The event captures the trace index, not the update, so it fits in
  // the action's small buffer (trace_ outlives the run).
  for (std::size_t i = 0; i < trace_.size(); ++i) {
    sim_.schedule_at(trace_[i].time, [this, i] {
      for (Link<Update>* link : links_) link->send(trace_[i].update);
    });
  }
}

std::vector<Update> DataMonitorNode::emitted() const {
  return trace::updates_of(trace_);
}

EvaluatorNode::EvaluatorNode(Simulator& sim, ConditionPtr condition,
                             std::string id)
    : sim_(sim), ce_(std::move(condition), std::move(id)) {}

void EvaluatorNode::inject_crashes(const std::vector<CrashWindow>& windows) {
  for (const CrashWindow& w : windows) {
    if (w.up_at < w.down_at)
      throw std::invalid_argument("CrashWindow: up_at before down_at");
    sim_.schedule_at(w.down_at, [this, lose = w.lose_state] {
      down_ = true;
      if (lose) ce_.crash_reset();
    });
    sim_.schedule_at(w.up_at, [this] { down_ = false; });
  }
}

void EvaluatorNode::on_update(const Update& u) {
  if (down_) return;  // a crashed CE misses updates entirely
  if (auto alert = ce_.on_update(u)) {
    if (back_) back_->send(std::move(*alert));
  }
}

DisplayerNode::DisplayerNode(FilterPtr filter,
                             std::function<void(const Alert&)> sink)
    : ad_(std::move(filter), std::move(sink)) {}

}  // namespace rcm::sim
