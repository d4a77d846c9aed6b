// Versioned instance-health document — what an instance-scoped admin
// `health` request returns, and the unit the health aggregator merges.
//
// One InstanceHealth describes one service process-instance: its role in
// the cluster, per-replica liveness + heartbeat ages, windowed ingest/
// WAL/fan-out rates from the time-series sampler, session lag, and a
// typed list of active degradations from the stall watchdog. The
// aggregator merges many of these into the cluster health JSON document;
// the wire form stays compact and versioned so mixed-version clusters
// can exchange it (same contract as every other PR 7 format: majors
// gate, minors add skippable extension tags).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "wire/version.hpp"

namespace rcm::wire {

inline constexpr VersionHeader kHealthVersion{1, 0};
inline constexpr std::uint8_t kHealthMinMajor = 1;
inline constexpr std::uint8_t kHealthMaxMajor = 1;

/// Stable on-wire degradation kinds the stall watchdog emits. Append
/// only — values are frozen in the v1 corpus.
enum class DegradationKind : std::uint8_t {
  kReplicaDown = 0,        // replica worker not running
  kHeartbeatMissed = 1,    // replica worker heartbeat older than budget
  kWalFlushSlow = 2,       // WAL append p99 above budget
  kEventLoopStalled = 3,   // session event loop tick overdue
  kSessionLagExceeded = 4, // a session's replay lag above budget
  kAdStalled = 5,          // decode-only: written by services that ran
                           // the AD on its own thread behind a queue
  kUnreachable = 6,        // decode-only: written by the retired
                           // cluster-health aggregator for a failed
                           // instance scrape
};

/// Names the enum value for documents and logs ("replica_down", ...).
[[nodiscard]] const char* degradation_kind_name(DegradationKind k) noexcept;

/// One active degradation: a typed kind, a bounded human-readable
/// detail, and a kind-specific magnitude (heartbeat age ns, lag in
/// alerts, latency in ns — whatever makes the kind quantitative).
struct Degradation {
  DegradationKind kind = DegradationKind::kReplicaDown;
  std::string detail;
  std::uint64_t value = 0;

  friend bool operator==(const Degradation&, const Degradation&) = default;
};

/// Per-replica liveness as seen by the instance's own monitor.
struct ReplicaHealth {
  std::uint32_t replica = 0;
  bool up = false;
  std::uint64_t incarnations = 0;
  std::uint64_t heartbeat_age_ns = 0;
  std::uint64_t accepted = 0;
  std::uint64_t wal_records = 0;

  friend bool operator==(const ReplicaHealth&, const ReplicaHealth&) = default;
};

/// One named windowed rate (events/sec over 10s / 1m / 5m) from the
/// time-series sampler.
struct RateSample {
  std::string name;
  double rate_10s = 0.0;
  double rate_1m = 0.0;
  double rate_5m = 0.0;

  friend bool operator==(const RateSample&, const RateSample&) = default;
};

/// The instance's place in the topology. A current service always
/// reports kStandalone; kShard/kMerge were written by the retired shard
/// tier and still decode, so older documents stay readable.
enum class InstanceRole : std::uint8_t {
  kStandalone = 0,
  kShard = 1,
  kMerge = 2,
};

struct InstanceHealth {
  InstanceRole role = InstanceRole::kStandalone;
  std::uint32_t shard_id = 0;  // meaningful for kShard/kMerge only
  std::uint64_t epoch = 0;     // shard-map epoch; 0 for kStandalone
  bool healthy = true;
  std::uint64_t uptime_ns = 0;
  std::uint64_t sessions = 0;
  std::uint64_t max_session_lag = 0;
  /// Reserved slot: a current service always reports 0 (its AD has no
  /// queue). Kept so documents from older services decode and re-encode
  /// byte for byte.
  std::uint64_t alert_queue_depth = 0;
  std::vector<ReplicaHealth> replicas;
  std::vector<RateSample> rates;
  std::vector<Degradation> degradations;

  friend bool operator==(const InstanceHealth&,
                         const InstanceHealth&) = default;
};

/// Tag byte | version header | fields | extension section.
[[nodiscard]] std::vector<std::uint8_t> encode_instance_health(
    const InstanceHealth& h);

/// Throws UnsupportedVersion for unknown majors, DecodeError on corrupt
/// or hostile input (oversized lists, trailing bytes).
[[nodiscard]] InstanceHealth decode_instance_health(
    std::span<const std::uint8_t> bytes);

}  // namespace rcm::wire
