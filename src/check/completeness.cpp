#include "check/completeness.hpp"

#include <algorithm>
#include <cstdint>
#include <set>

#include "core/evaluator.hpp"
#include "core/history.hpp"
#include "core/sequence.hpp"

namespace rcm::check {
namespace {

std::set<AlertKey> key_set(std::span<const Alert> alerts) {
  std::set<AlertKey> out;
  for (const Alert& a : alerts) out.insert(a.key());
  return out;
}

Verdict check_single_var(const SystemRun& run,
                         const std::vector<Update>& union_seq) {
  const std::vector<Alert> ref = evaluate_trace(run.condition, union_seq);
  return key_set(run.displayed) == key_set(ref) ? Verdict::kHolds
                                                : Verdict::kViolated;
}

/// Multi-variable completeness as a monotone path through the grid of
/// per-variable union positions; see header.
Verdict check_multi_var(
    const SystemRun& run,
    std::vector<std::pair<VarId, std::vector<Update>>> unions,
    std::size_t budget, std::vector<Update>* witness) {
  const Condition& cond = *run.condition;
  const auto& vars = cond.variables();
  const std::size_t k = vars.size();
  std::vector<std::vector<Update>> u(k);  // u[i]: union of vars[i]
  for (auto& [v, seq] : unions)
    if (auto it = std::find(vars.begin(), vars.end(), v); it != vars.end())
      u[static_cast<std::size_t>(it - vars.begin())] = std::move(seq);
  // Cell index = sum of pos[i] * stride[i]; predecessors have lower ones.
  std::vector<std::size_t> stride(k), deg(k), pos(k);
  std::size_t cells = 1;
  for (std::size_t i = k; i-- > 0;) {
    if (cells > budget / (u[i].size() + 1)) return Verdict::kUnknown;
    stride[i] = cells;
    cells *= u[i].size() + 1;
    deg[i] = static_cast<std::size_t>(cond.degree(vars[i]));
    // Distinct cells raise distinct keys only for strictly ascending unions.
    for (std::size_t j = 1; j < u[i].size(); ++j)
      if (u[i][j].seqno <= u[i][j - 1].seqno) return Verdict::kUnknown;
  }
  auto coord = [&](std::size_t c, std::size_t i) {
    return c / stride[i] % (u[i].size() + 1);
  };

  // A displayed key's one cell is where its windows end in the unions.
  std::vector<std::uint8_t> target(cells, 0);
  for (const Alert& a : run.displayed) {
    if (a.cond != cond.name() || a.histories.size() != k)
      return Verdict::kViolated;
    std::size_t c = 0, i = 0;
    for (const auto& [v, w] : a.histories) {  // ascending by var, as V is
      const auto at = std::search(
          u[i].begin(), u[i].end(), w.begin(), w.end(),
          [](const Update& x, const Update& y) { return x.seqno == y.seqno; });
      if (v != vars[i] || w.size() != deg[i] || at == u[i].end())
        return Verdict::kViolated;
      c += (static_cast<std::size_t>(at - u[i].begin()) + deg[i]) * stride[i];
      ++i;
    }
    target[c] = 1;
  }

  // cnt[c] = targets t <= c. A path that passes a target without visiting
  // it can never come back, so c extends a reached predecessor p iff
  // exactly the targets <= c other than c itself are <= p.
  std::vector<std::uint32_t> cnt(target.begin(), target.end());
  for (std::size_t i = 0; i < k; ++i)
    for (std::size_t c = 0; c < cells; ++c)
      if (coord(c, i) > 0) cnt[c] += cnt[c - stride[i]];

  std::vector<std::size_t> from(cells, k);  // last step's var, k: unreached
  from[0] = 0;
  HistorySet h = cond.make_history_set();
  for (std::size_t c = 0; c < cells; ++c) {
    bool fires = true;  // evaluated once every history is defined
    for (std::size_t i = 0; i < k; ++i) {
      pos[i] = coord(c, i);
      fires = fires && pos[i] >= deg[i];
    }
    for (std::size_t i = 0; i < k && fires; ++i)
      for (std::size_t j = pos[i] - deg[i]; j < pos[i]; ++j) h.push(u[i][j]);
    fires = fires && cond.evaluate(h);
    if (!fires && target[c]) return Verdict::kViolated;  // never raised
    if (fires && !target[c]) continue;  // raises an undisplayed key
    const std::uint32_t need = cnt[c] - target[c];
    for (std::size_t i = 0; i < k && from[c] == k; ++i)
      if (pos[i] > 0 && from[c - stride[i]] < k && cnt[c - stride[i]] == need)
        from[c] = i;
  }
  if (from[cells - 1] == k) return Verdict::kViolated;
  if (witness) {
    witness->clear();
    for (std::size_t c = cells - 1; c > 0; c -= stride[from[c]])
      witness->push_back(u[from[c]][coord(c, from[c]) - 1]);
    std::reverse(witness->begin(), witness->end());
  }
  return Verdict::kHolds;
}

}  // namespace

Verdict check_complete(const SystemRun& run, std::size_t interleaving_budget,
                       std::vector<Update>* witness) {
  auto unions = combined_inputs(run.ce_inputs);
  const auto& vars = run.condition->variables();

  if (vars.size() == 1) {
    // There may be zero updates of the variable at all.
    for (const auto& [var, seq] : unions)
      if (var == vars[0]) {
        const Verdict v = check_single_var(run, seq);
        if (v == Verdict::kHolds && witness) *witness = seq;
        return v;
      }
    const Verdict v = check_single_var(run, {});
    if (v == Verdict::kHolds && witness) witness->clear();
    return v;
  }

  return check_multi_var(run, std::move(unions), interleaving_budget, witness);
}

}  // namespace rcm::check
