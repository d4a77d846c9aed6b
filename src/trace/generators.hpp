// Workload generators: synthetic stand-ins for the paper's data sources.
//
// The paper's evaluation model only depends on the (varname, seqno, value)
// streams the Data Monitors emit, so these generators reproduce the three
// motivating domains as parameterized stochastic processes:
//
//   - reactor_trace:  mean-reverting temperature random walk with
//                     occasional excursions above the alarm threshold
//                     (the c1/c2/c3 family of examples);
//   - stock_trace:    multiplicative price walk with occasional sharp
//                     drops (the §1 "twenty percent drop" example);
//   - event_trace:    mostly-zero variable with Bernoulli spikes (the
//                     missile-firing example: each spike is one firing);
//   - uniform_trace:  i.i.d. uniform values, used by the property sweeps
//                     where trigger probability should be controllable.
//
// Each update carries a timestamp (the DM's emission time); the
// discrete-event simulator schedules from it; the alert service replays
// the updates in order at full speed (service/run_trace.hpp).
#pragma once

#include <vector>

#include "core/types.hpp"
#include "util/rng.hpp"

namespace rcm::trace {

/// One update together with its emission time at the Data Monitor.
struct TimedUpdate {
  double time = 0.0;
  Update update;
};

using Trace = std::vector<TimedUpdate>;

/// Common shape parameters for all generators.
struct TraceParams {
  VarId var = 0;
  std::size_t count = 100;       ///< number of updates to generate
  double period = 1.0;           ///< mean inter-update interval (seconds)
  double jitter = 0.1;           ///< +/- uniform jitter fraction on period
  SeqNo first_seqno = 1;         ///< DM counters start at 1 in the paper
};

/// Mean-reverting temperature walk. Values hover around `baseline` and,
/// with probability `excursion_prob` per step, jump upward by a uniform
/// amount in [excursion_min, excursion_max] before decaying back.
struct ReactorParams {
  TraceParams base;
  double baseline = 2500.0;
  double stddev = 80.0;           ///< per-step Gaussian wiggle
  double reversion = 0.2;         ///< pull-back fraction toward baseline
  double excursion_prob = 0.05;
  double excursion_min = 300.0;
  double excursion_max = 900.0;
};
[[nodiscard]] Trace reactor_trace(const ReactorParams& p, util::Rng& rng);

/// Multiplicative price walk: each step multiplies by exp(N(drift, vol)),
/// and with probability `crash_prob` the price instead drops by a uniform
/// fraction in [crash_min, crash_max] — the "sharp drop" events.
struct StockParams {
  TraceParams base;
  double initial = 100.0;
  double drift = 0.0;
  double volatility = 0.02;
  double crash_prob = 0.03;
  double crash_min = 0.15;
  double crash_max = 0.45;
};
[[nodiscard]] Trace stock_trace(const StockParams& p, util::Rng& rng);

/// Spike process: value is 0, except with probability `event_prob` per
/// step when it is 1 (an event, e.g. "missile fired").
struct EventParams {
  TraceParams base;
  double event_prob = 0.1;
};
[[nodiscard]] Trace event_trace(const EventParams& p, util::Rng& rng);

/// i.i.d. uniform values in [lo, hi]. With a threshold condition
/// "v[0] > t" the per-update trigger probability is exactly
/// (hi - t) / (hi - lo), which the property sweeps exploit.
struct UniformParams {
  TraceParams base;
  double lo = 0.0;
  double hi = 1.0;
};
[[nodiscard]] Trace uniform_trace(const UniformParams& p, util::Rng& rng);

/// Strips timestamps; handy when feeding reference evaluators.
[[nodiscard]] std::vector<Update> updates_of(const Trace& t);

}  // namespace rcm::trace
