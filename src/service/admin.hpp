// Framed admin protocol for the alert service: status, replica
// kill/restart, checkpoint trigger, drain, and telemetry (metrics, trace
// dump, sessions, health).
//
// One TCP connection carries any number of request/response exchanges;
// each message is one CRC frame (wire/frame.hpp) holding:
//
//   request  := cmd:u8 | varint(replica)          (replica is 0 unless
//              | [extension section]               the command targets one)
//   response := status:u8 ('O' ok / 'E' error)
//               | string(error)                    (empty when ok)
//               | u8(has_status)
//               | service-status                   (when has_status = 1)
//               | u8(has_body)
//               | string(body)                     (when has_body = 1)
//               | [extension section]              (only when non-empty)
//
// `body` carries bulk payloads: the live metrics snapshot (kMetrics),
// the Chrome trace JSON (kTraceDump), the session list (kSessions), the
// binary health document (kHealth) and the Prometheus text
// (kMetricsProm).
//
// The codec is symmetric and exhaustive so rcm_service_client, the
// tests, and the fuzz harness all speak exactly the same bytes.
//
// Mixed-version stance (docs/SERVICE.md, "Format versioning & rolling
// upgrades"): a rolling fleet upgrade briefly runs two versions side by
// side, so "unknown command = decode error" is no longer acceptable.
// Requests since v2 carry the sender's protocol version as a skippable
// extension (kAdminVersionExtTag). A server receiving an unknown
// command from a peer that declared a compatible major answers with a
// structured `unsupported` reply naming its own version range and
// highest known command — the connection survives and the caller can
// downgrade its request. Version-less requests (v1 peers) keep the
// legacy contract: unknown commands are decode errors, answered as an
// error reply by the dispatcher. A declared major outside the supported
// range raises wire::UnsupportedVersion.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "wire/version.hpp"

namespace rcm::service {

/// Admin protocol version spoken by this binary; v1 is the pre-extension
/// protocol (no version tag on requests, no response extensions). 2.1
/// added kSessions and the per-session status response extension; 2.2
/// added kShardMap and the shard identity status extension, both since
/// retired with the shard tier (see AdminCommand); 2.3 added
/// kHealth/kMetricsProm and the request scope extension.
inline constexpr wire::VersionHeader kAdminVersion{2, 3};
inline constexpr std::uint8_t kAdminMinMajor = 1;
inline constexpr std::uint8_t kAdminMaxMajor = 2;

/// Extension tags used by the admin codec.
inline constexpr std::uint8_t kAdminVersionExtTag = 0x56;      // 'V'
inline constexpr std::uint8_t kAdminUnsupportedExtTag = 0x55;  // 'U'
inline constexpr std::uint8_t kAdminSessionsExtTag = 0x53;     // 'S'
inline constexpr std::uint8_t kAdminScopeExtTag = 0x43;        // 'C'
// 0x48 ('H') carried the retired shard identity status extension; a
// status response from an older sharded server still decodes because
// the tag is skipped as unknown. Never reuse it.

/// Admin commands, in wire order. Byte 8 was kShardMap (2.2–2.3), retired
/// with the shard tier: a version-declaring peer that sends it gets the
/// structured `unsupported` reply, like any command this binary does not
/// know. Never reuse it.
enum class AdminCommand : std::uint8_t {
  kStatus = 0,      ///< report ServiceStatus
  kKill = 1,        ///< crash replica `replica` (loses volatile state)
  kRestart = 2,     ///< restart replica `replica` now, skipping backoff
  kCheckpoint = 3,  ///< ask replica `replica` to checkpoint (async)
  kDrain = 4,       ///< request graceful shutdown of the whole service
  kMetrics = 5,     ///< live obs::registry().snapshot_json() in `body`
  kTraceDump = 6,   ///< Chrome trace_event JSON export in `body`
  kSessions = 7,    ///< per-session cursor/lag/backlog JSON in `body`
  kHealth = 9,      ///< binary wire::InstanceHealth in `body` (see scope)
  kMetricsProm = 10, ///< Prometheus text exposition in `body`
};

/// Scope of a kHealth request. An instance-scoped request returns the
/// serving instance's binary wire::InstanceHealth document. kCluster,
/// the wire default, asked for an aggregate JSON document and retired
/// with the shard tier: it still decodes, and the server answers it
/// with an error reply naming the instance scope.
enum class HealthScope : std::uint8_t {
  kCluster = 0,
  kInstance = 1,
};

/// One admin request.
struct AdminRequest {
  AdminCommand command = AdminCommand::kStatus;
  std::uint64_t replica = 0;  ///< target for kKill/kRestart/kCheckpoint
  /// False when the wire held a command this binary does not know but
  /// the peer declared a compatible version; `raw_command` then holds
  /// the wire byte and `command` is meaningless.
  bool known = true;
  std::uint8_t raw_command = 0;  ///< the command byte as received/sent
  /// The sender's declared protocol version; {1, 0} when the request
  /// carried no version extension (a v1 peer).
  wire::VersionHeader version{1, 0};
  /// kHealth scope; rides a skippable extension (2.3+), sent only when
  /// it is not the default.
  HealthScope scope = HealthScope::kCluster;
};

/// Lifecycle state of one replica slot.
enum class ReplicaState : std::uint8_t {
  kRunning = 0,
  kDown = 1,  ///< killed/crashed; supervisor restart may be pending
};

/// Per-replica slice of a status report.
struct ReplicaStatus {
  ReplicaState state = ReplicaState::kRunning;
  std::uint16_t port = 0;          ///< UDP ingest port (stable across restarts)
  std::uint64_t incarnation = 0;   ///< 1-based; incarnation-1 = restarts
  std::uint64_t accepted = 0;      ///< updates accepted by live incarnation
  std::uint64_t wal_records = 0;   ///< WAL records since last checkpoint
  std::uint64_t checkpoints = 0;   ///< checkpoints taken by live incarnation
  std::uint64_t recovered_wal = 0; ///< WAL records replayed at last recovery
};

/// Per-session slice of a status report (rides a skippable response
/// extension so v1/v2.0 clients keep decoding plain status responses).
struct SessionStatus {
  std::string id;
  std::uint64_t acked = 0;    ///< durable cursor: entries [0, acked) acked
  std::uint64_t framed = 0;   ///< entries fully written to a peer socket
  std::uint64_t lag = 0;      ///< alert-log end − acked
  std::uint64_t backlog = 0;  ///< entries not yet handed to the kernel
  bool connected = false;
  bool evicted = false;
};

/// Whole-service status report.
struct ServiceStatus {
  std::uint64_t ingested_datagrams = 0;
  std::uint64_t displayed = 0;    ///< alerts passed by the AD filter
  std::uint64_t subscribers = 0;  ///< live alert subscriber connections
  std::uint64_t dm_ends = 0;      ///< distinct DM END markers seen
  // The wire slot after dm_ends is reserved: always encoded as 0 and
  // skipped on decode, so the status layout stays what older peers read.
  std::vector<ReplicaStatus> replicas;
  /// Per-session cursors (2.1+ servers; empty from older ones). The
  /// extension payload is bounded, so a huge fleet is truncated to the
  /// `total_sessions` highest-lag entries that fit — never silently:
  /// total_sessions always reports the real count.
  std::vector<SessionStatus> sessions;
  std::uint64_t total_sessions = 0;
};

/// Structured "I don't speak that" reply block: the server's version
/// and the envelope of what it accepts, so a newer client can downgrade
/// instead of treating the error as fatal.
struct AdminUnsupported {
  std::uint8_t command = 0;  ///< the rejected command byte
  wire::VersionHeader server_version{1, 0};
  std::uint8_t min_major = 1;    ///< majors the server accepts
  std::uint8_t max_major = 1;
  /// Highest command byte the server knows. An upper bound, not a
  /// range: bytes below it can be holes (8 is retired), so a client
  /// still has to handle an `unsupported` reply for those.
  std::uint8_t max_command = 0;
};

/// One admin response. `status` is present for kStatus requests; `body`
/// for kMetrics (JSON metrics snapshot) and kTraceDump (Chrome trace
/// JSON); `unsupported` when the server rejected the command or version.
struct AdminResponse {
  bool ok = true;
  std::string error;  ///< non-empty iff !ok
  std::optional<ServiceStatus> status;
  std::optional<std::string> body;
  std::optional<AdminUnsupported> unsupported;
};

/// Encodes a request at kAdminVersion (the version rides as a skippable
/// extension, so v1 servers reject it cleanly and v2+ servers can tell
/// a versioned peer from a legacy one).
[[nodiscard]] std::vector<std::uint8_t> encode_admin_request(
    const AdminRequest& req);
/// Decodes a request. An unknown command from a version-declaring peer
/// with a compatible major yields `known == false` (no throw); a
/// declared major outside [kAdminMinMajor, kAdminMaxMajor] throws
/// wire::UnsupportedVersion; an unknown command from a version-less
/// (v1) peer throws wire::DecodeError, as v1 always did.
[[nodiscard]] AdminRequest decode_admin_request(
    std::span<const std::uint8_t> payload);

/// Encodes a response. Responses without extension content are
/// byte-identical to v1 so legacy clients keep decoding them.
[[nodiscard]] std::vector<std::uint8_t> encode_admin_response(
    const AdminResponse& resp);
/// Throws wire::DecodeError on malformed input; skips unknown response
/// extensions.
[[nodiscard]] AdminResponse decode_admin_response(
    std::span<const std::uint8_t> payload);

}  // namespace rcm::service
