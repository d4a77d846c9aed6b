// Deterministic discrete-event simulator.
//
// Single-threaded: events execute strictly in timestamp order, ties broken
// by insertion order, so a run is a pure function of (configuration, seed).
// Every experiment in bench/ is therefore reproducible bit-for-bit, and the
// property checkers can be applied to exact, replayable interleavings.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

namespace rcm::sim {

/// Event-queue simulator with a virtual clock. Events sit in a binary
/// heap ordered by (time, scheduling order); dispatch moves each event
/// out of the heap before running it, so an action's captures are never
/// copied and the action may schedule further events while it runs.
class Simulator {
 public:
  using Action = std::function<void()>;

  /// Schedules `action` at absolute virtual time `at`. Scheduling in the
  /// past (before now()) clamps to now(): the action runs at the current
  /// time, but AFTER any actions already queued at now() — ties are broken
  /// first-scheduled-first-run, and clamping does not jump that queue.
  void schedule_at(double at, Action action);

  /// Schedules `action` `delay` seconds after the current virtual time.
  void schedule_after(double delay, Action action);

  /// Runs until the event queue is empty. Returns the number of events
  /// executed.
  std::size_t run();

  /// Runs events with time <= `until` (events scheduled beyond stay
  /// queued). Returns the number of events executed.
  std::size_t run_until(double until);

  /// Current virtual time: the timestamp of the last executed event.
  [[nodiscard]] double now() const noexcept { return now_; }

  /// Events currently queued.
  [[nodiscard]] std::size_t pending() const noexcept { return queue_.size(); }

 private:
  struct Event {
    double time;
    std::uint64_t seq;  // tie-break: FIFO among equal timestamps
    Action action;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const noexcept {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  /// Moves the earliest event out of the heap and runs it.
  void dispatch_next();

  std::vector<Event> queue_;  ///< a heap under Later
  double now_ = 0.0;
  std::uint64_t next_seq_ = 0;
};

}  // namespace rcm::sim
