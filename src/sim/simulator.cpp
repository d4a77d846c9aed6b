#include "sim/simulator.hpp"

#include <algorithm>
#include <utility>

#include "obs/metrics.hpp"

namespace rcm::sim {

void Simulator::schedule_at(double at, Action action) {
  queue_.push_back(Event{std::max(at, now_), next_seq_++, std::move(action)});
  std::push_heap(queue_.begin(), queue_.end(), Later{});
}

void Simulator::schedule_after(double delay, Action action) {
  schedule_at(now_ + std::max(delay, 0.0), std::move(action));
}

void Simulator::dispatch_next() {
  std::pop_heap(queue_.begin(), queue_.end(), Later{});
  Event ev = std::move(queue_.back());
  queue_.pop_back();
  now_ = ev.time;
  ev.action();
}

std::size_t Simulator::run() {
  std::size_t executed = 0;
  for (; !queue_.empty(); ++executed) dispatch_next();
  // One amortized increment per run, not per event — the dispatch loop
  // itself stays untouched.
  RCM_COUNT_N("sim.events_dispatched", executed);
  return executed;
}

std::size_t Simulator::run_until(double until) {
  std::size_t executed = 0;
  for (; !queue_.empty() && queue_.front().time <= until; ++executed)
    dispatch_next();
  now_ = std::max(now_, until);
  RCM_COUNT_N("sim.events_dispatched", executed);
  return executed;
}

}  // namespace rcm::sim
