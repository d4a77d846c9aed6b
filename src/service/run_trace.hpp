// service::run_trace — replays DM traces through a live AlertService and
// returns the run in the simulator's vocabulary, so the property
// checkers apply unchanged to a run over real threads and real sockets.
//
//   - one sender thread per DM sends every update, framed and carrying
//     its source-side trace context (obs::trace::derive_trace_id), to
//     every replica port; each copy is dropped with probability
//     `front_loss` at the sender (the paper's lossy datagram front link —
//     loopback UDP itself does not drop);
//   - the DMs' END markers are re-sent until the service has seen all of
//     them; once every sent datagram has been ingested the service is
//     drained;
//   - ce_inputs are the replicas' accepted-update journals and ce_outputs
//     T(journal), computed with a fresh evaluator.
#pragma once

#include <cstdint>
#include <vector>

#include "service/alert_service.hpp"
#include "sim/system.hpp"
#include "trace/generators.hpp"

namespace rcm::service {

/// Runs `dm_traces` (one per DM; a variable may be produced by one DM
/// only) through an AlertService built from `config`, with
/// record_journal forced on and data_dir replaced by a fresh temporary
/// directory that is removed afterwards. Throws std::invalid_argument on
/// malformed input and std::runtime_error if the service never
/// acknowledges the END markers.
[[nodiscard]] sim::RunResult run_trace(
    ServiceConfig config, const std::vector<trace::Trace>& dm_traces,
    double front_loss, std::uint64_t seed);

}  // namespace rcm::service
