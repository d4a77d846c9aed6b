// The benchmark's workloads. Each fills an Outcome: end-to-end metrics
// (untraced run) or per-layer metrics (traced run), output-check errors,
// and a human-readable report.
#pragma once

#include "common.hpp"

namespace perfbench {

/// Load a live service workload puts on the host: its generator threads
/// (one, or one per replica port when it saturates) plus its
/// durable-session subscriber connections. rcm_perfbench refuses a
/// workload whose load exceeds the host's processor count.
[[nodiscard]] unsigned service_load(const std::string& workload);

/// ingest_sparse and alert_fanout: a live in-process AlertService driven
/// through its UDP ingest ports and durable-session subscribers.
[[nodiscard]] Outcome run_service_workload(const RunConfig& cfg);

/// swarm_oracle: swarm::run_swarm, serial, over a fixed batch.
[[nodiscard]] Outcome run_swarm_oracle(const RunConfig& cfg);

}  // namespace perfbench
