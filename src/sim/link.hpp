// Simulated communication links (paper §2.1).
//
// Both front links (DM -> CE) and back links (CE -> AD) deliver messages
// *in order*: the paper obtains this with per-link sender sequence numbers
// and receiver-side discard of out-of-order arrivals; we model the result
// directly by never scheduling a delivery before the previously scheduled
// one on the same link.
//
// Front links are *potentially lossy* (UDP-like datagrams from cheap
// multicast sensors); back links are lossless (TCP-like, low traffic,
// alerts too important to drop). Loss is i.i.d. Bernoulli per message;
// delay is uniform in [delay_min, delay_max]. Each link owns a forked RNG
// stream so experiments stay deterministic under reconfiguration.
#pragma once

#include <algorithm>
#include <cstddef>
#include <deque>
#include <functional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace rcm::sim {

/// Loss / delay parameters of one link.
struct LinkParams {
  double delay_min = 0.005;  ///< seconds
  double delay_max = 0.050;  ///< seconds
  double loss = 0.0;         ///< per-message drop probability
};

/// Degradations layered on top of LinkParams by fault-injecting
/// workloads: a constant extra delay (a slow / lagging receiver) and
/// send-time outage windows during which every message is dropped (an
/// asymmetric partition of this link only). Kept out of LinkParams so a
/// shaped link consumes exactly the same RNG stream as an unshaped one
/// outside the outage windows: outage drops are decided before any
/// random draw, and the extra delay is deterministic.
struct LinkShaping {
  double extra_delay = 0.0;  ///< seconds, added to every delivery
  /// Messages *sent* at time t with from <= t < to are dropped.
  std::vector<std::pair<double, double>> outages;

  [[nodiscard]] bool cuts(double at) const noexcept {
    for (const auto& [from, to] : outages)
      if (at >= from && at < to) return true;
    return false;
  }
};

/// In-order, optionally lossy, unidirectional message channel carrying
/// messages of type M. Delivery happens via the callback passed at
/// construction; the Link must outlive the simulation run.
///
/// In-flight messages wait in a per-link FIFO, and a delivery event
/// captures only the link. That is exact because of the order argument
/// above: each delivery is scheduled strictly after the previous one on
/// this link (ties, should the epsilon vanish in rounding, fall back to
/// the simulator's FIFO tie-break), so the link's delivery events run in
/// send order and each one pops the message it was scheduled for. A sent
/// message is copied once, into the FIFO (not at all when sent as an
/// rvalue), and moved out to the callback.
template <typename M>
class Link {
 public:
  using Deliver = std::function<void(const M&)>;

  Link(Simulator& sim, LinkParams params, util::Rng rng, Deliver deliver,
       LinkShaping shaping = {})
      : sim_(sim),
        params_(params),
        shaping_(std::move(shaping)),
        rng_(rng),
        deliver_(std::move(deliver)) {
    if (params_.delay_min < 0 || params_.delay_max < params_.delay_min)
      throw std::invalid_argument("Link: bad delay range");
    if (params_.loss < 0.0 || params_.loss > 1.0)
      throw std::invalid_argument("Link: loss must be in [0,1]");
    if (shaping_.extra_delay < 0.0)
      throw std::invalid_argument("Link: extra delay must be >= 0");
    for (const auto& [from, to] : shaping_.outages)
      if (!(from >= 0.0) || !(to >= from))
        throw std::invalid_argument("Link: bad outage window");
    if (!deliver_) throw std::invalid_argument("Link: null deliver callback");
  }

  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  /// Submits a message. It is either dropped (with probability
  /// params.loss) or scheduled for delivery after a random delay, no
  /// earlier than the previously scheduled delivery (FIFO order).
  void send(M message) {
    ++sent_;
    // Outage drops come first and consume no randomness, so the loss and
    // delay pattern outside the windows is the same as without shaping.
    if (shaping_.cuts(sim_.now())) {
      ++dropped_;
      return;
    }
    if (rng_.bernoulli(params_.loss)) {
      ++dropped_;
      return;
    }
    const double delay = shaping_.extra_delay +
                         rng_.uniform(params_.delay_min, params_.delay_max);
    double at = sim_.now() + delay;
    // Enforce in-order delivery: never before the last scheduled arrival.
    at = std::max(at, last_delivery_ + kOrderingEpsilon);
    last_delivery_ = at;
    in_flight_.push_back(std::move(message));
    sim_.schedule_at(at, [this] { deliver_next(); });
  }

  [[nodiscard]] std::size_t sent() const noexcept { return sent_; }
  [[nodiscard]] std::size_t dropped() const noexcept { return dropped_; }
  [[nodiscard]] std::size_t delivered() const noexcept { return delivered_; }

 private:
  static constexpr double kOrderingEpsilon = 1e-9;

  void deliver_next() {
    // Moved out first: the callback may send on this link again.
    const M message = std::move(in_flight_.front());
    in_flight_.pop_front();
    ++delivered_;
    deliver_(message);
  }

  Simulator& sim_;
  LinkParams params_;
  LinkShaping shaping_;
  util::Rng rng_;
  Deliver deliver_;
  std::deque<M> in_flight_;  ///< scheduled, not yet delivered; send order
  double last_delivery_ = 0.0;
  std::size_t sent_ = 0;
  std::size_t dropped_ = 0;
  std::size_t delivered_ = 0;
};

}  // namespace rcm::sim
