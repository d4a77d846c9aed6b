#include "exp/scenarios.hpp"

#include <memory>
#include <stdexcept>

#include "core/builtin_conditions.hpp"

namespace rcm::exp {
namespace {

// Fixed variable ids for the synthetic scenarios. The experiment
// harnesses are self-contained, so hard ids (not registry-interned names)
// keep the specs copyable and seed-stable.
constexpr VarId kX = 0;
constexpr VarId kY = 1;

ConditionPtr single_nonhistorical() {
  return std::make_shared<const ThresholdCondition>("over60", kX, 60.0);
}

ConditionPtr single_rise(Triggering trig) {
  const char* name =
      trig == Triggering::kConservative ? "rise20.cons" : "rise20.aggr";
  return std::make_shared<const RiseCondition>(name, kX, 20.0, trig);
}

ConditionPtr multi_nonhistorical() {
  return std::make_shared<const AbsDiffCondition>("diff30", kX, kY, 30.0);
}

// Lemma 6's incompleteness argument needs a condition that is satisfied
// only by specific update pairs, so that a displayed pair forces an
// undisplayed intermediate pair into every witness interleaving. A
// narrow band condition has exactly that structure; a plain threshold
// condition rarely does, and with lossless links the completeness check
// almost always finds a witness for it.
ConditionPtr multi_band() {
  return std::make_shared<const PredicateCondition>(
      "band", std::vector<std::pair<VarId, int>>{{kX, 1}, {kY, 1}},
      Triggering::kAggressive, [](const HistorySet& h) {
        const double d =
            std::abs(h.of(kX).at(0).value - h.of(kY).at(0).value);
        return d > 30.0 && d < 55.0;
      });
}

ConditionPtr multi_rise(Triggering trig) {
  // (x0 - x(-1)) + (y0 - y(-1)) > 25, degree 2 in both variables.
  const char* name =
      trig == Triggering::kConservative ? "rise2d.cons" : "rise2d.aggr";
  return std::make_shared<const PredicateCondition>(
      name, std::vector<std::pair<VarId, int>>{{kX, 2}, {kY, 2}}, trig,
      [](const HistorySet& h) {
        const double dx = h.of(kX).at(0).value - h.of(kX).at(-1).value;
        const double dy = h.of(kY).at(0).value - h.of(kY).at(-1).value;
        return dx + dy > 25.0;
      });
}

}  // namespace

std::string scenario_name(Scenario s) {
  switch (s) {
    case Scenario::kLossless: return "Lossless";
    case Scenario::kLossyNonHistorical: return "Lossy Non-his.";
    case Scenario::kLossyConservative: return "Lossy His. Cons.";
    case Scenario::kLossyAggressive: return "Lossy His. Aggr.";
  }
  return "?";
}

Scenario lossy_scenario(bool historical, Triggering triggering) {
  if (!historical) return Scenario::kLossyNonHistorical;
  return triggering == Triggering::kConservative
             ? Scenario::kLossyConservative
             : Scenario::kLossyAggressive;
}

std::vector<trace::Trace> ScenarioSpec::make_traces(
    std::size_t updates_per_var, util::Rng& rng) const {
  std::vector<trace::Trace> traces;
  traces.reserve(variables.size());
  bool first = true;
  for (VarId v : variables) {
    if (first || !slow_secondary_vars) {
      trace::UniformParams p;
      p.base.var = v;
      p.base.count = updates_per_var;
      p.base.period = 1.0;
      p.base.jitter = 0.4;  // desynchronize the DMs' emission times
      p.lo = 0.0;
      p.hi = 100.0;
      traces.push_back(trace::uniform_trace(p, rng));
    } else {
      trace::ReactorParams p;  // slow drift around mid-range
      p.base.var = v;
      p.base.count = updates_per_var;
      p.base.period = 1.0;
      p.base.jitter = 0.4;
      p.baseline = 50.0;
      p.stddev = 3.0;
      p.reversion = 0.1;
      p.excursion_prob = 0.0;
      traces.push_back(trace::reactor_trace(p, rng));
    }
    first = false;
  }
  return traces;
}

ScenarioSpec single_var_scenario(Scenario s, double loss) {
  ScenarioSpec spec;
  spec.scenario = s;
  spec.variables = {kX};
  switch (s) {
    case Scenario::kLossless:
      spec.condition = single_rise(Triggering::kAggressive);
      spec.front_loss = 0.0;
      break;
    case Scenario::kLossyNonHistorical:
      spec.condition = single_nonhistorical();
      spec.front_loss = loss;
      break;
    case Scenario::kLossyConservative:
      spec.condition = single_rise(Triggering::kConservative);
      spec.front_loss = loss;
      break;
    case Scenario::kLossyAggressive:
      spec.condition = single_rise(Triggering::kAggressive);
      spec.front_loss = loss;
      break;
  }
  return spec;
}

ScenarioSpec multi_var_scenario(Scenario s, double loss) {
  ScenarioSpec spec;
  spec.scenario = s;
  spec.variables = {kX, kY};
  spec.slow_secondary_vars = true;
  switch (s) {
    case Scenario::kLossless:
      spec.condition = multi_band();
      spec.front_loss = 0.0;
      break;
    case Scenario::kLossyNonHistorical:
      spec.condition = multi_nonhistorical();
      spec.front_loss = loss;
      break;
    case Scenario::kLossyConservative:
      spec.condition = multi_rise(Triggering::kConservative);
      spec.front_loss = loss;
      break;
    case Scenario::kLossyAggressive:
      spec.condition = multi_rise(Triggering::kAggressive);
      spec.front_loss = loss;
      break;
  }
  return spec;
}

}  // namespace rcm::exp
