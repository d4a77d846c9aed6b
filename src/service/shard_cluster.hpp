// rcm::service::ShardedCluster — N AlertService shard instances behind a
// consistent-hash ring, plus a merge tier for cross-shard conditions.
//
// Topology (one process; each box is a full AlertService):
//
//   feeders ──UDP──▶ shard 0..N-1 (PartialCondition over owned vars)
//   (route by map)        │ on_accept: forward accepted updates
//                         ▼
//                    merge tier (full condition + the real AD filter)
//                         │
//   subscribers ◀────TCP──┘  (single-variable conditions skip the merge
//                             tier: the owning shard evaluates directly)
//
// Division of labour (docs/SERVICE.md, "Sharding & resharding"):
//
//   * The ring (ShardRing) partitions VarId-space; the versioned
//     wire::ShardMap (admin v2.2 `shardmap`) tells feeders which replica
//     ports serve which shard. Epochs order layouts.
//   * Shards ADMIT: their PartialCondition accepts exactly the owned
//     variables (journaled + checkpointed through DurableReplica) and
//     never evaluates the global predicate. Accepted updates are
//     forwarded to the merge tier with a skippable origin extension.
//   * The merge tier EVALUATES: a plain AlertService holding the full
//     condition and the real filter. Its CE's per-variable watermarks
//     are the cross-shard holdback — duplicate forwards from R shard
//     replicas, handoff overlap, and stale-owner races all collapse
//     under the paper's out-of-order discard rule. Because the merge
//     tier survives resharding untouched, the AD-5/AD-6 ledgers (and
//     their cross-alert guarantees) span shard moves.
//   * Resharding is targeted crash-recovery: the affected shard stops
//     gracefully (final checkpoint), its per-variable windows +
//     watermarks are extracted into versioned HandoffPackets, receivers
//     rewrite their WAL from retained + received windows (checkpoint
//     deleted — the snapshot codec pins the variable set), and the
//     rebuilt instance cold-recovers through the normal checkpoint+WAL
//     path to exactly the departing CE's state.
//
// Thread-safety: the public interface serializes cluster mutations
// (add/remove shard, drain) behind one mutex; endpoint/oracle accessors
// take the same lock. Per-shard replica kills/restarts go through the
// underlying AlertService, which is thread-safe itself.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "service/alert_service.hpp"
#include "service/shard_ring.hpp"
#include "wire/shard.hpp"

namespace rcm::service {

/// Configuration of a sharded deployment.
struct ShardClusterConfig {
  ConditionPtr condition;  ///< required: the global condition
  FilterKind filter = FilterKind::kAd1;
  std::size_t num_shards = 2;          ///< initial shard count (ids 0..N-1)
  std::size_t replicas_per_shard = 1;
  std::size_t merge_replicas = 1;      ///< cross-shard conditions only
  unsigned vnodes = kDefaultVnodes;
  std::filesystem::path data_dir;      ///< required; created if missing

  std::size_t checkpoint_every = 256;
  bool record_journal = false;
  bool auto_restart = true;
  BackoffPolicy backoff;
  std::chrono::milliseconds poll_interval{20};
  /// Propagated to every instance (shards + merge tier).
  WatchdogOptions watchdog;
};

/// Shard id the merge tier reports in its status (not on the ring).
inline constexpr std::uint32_t kMergeShardId = 0xffffffffu;

class ShardedCluster {
 public:
  explicit ShardedCluster(ShardClusterConfig config);
  ~ShardedCluster();
  ShardedCluster(const ShardedCluster&) = delete;
  ShardedCluster& operator=(const ShardedCluster&) = delete;

  /// True when the condition spans more than one variable — the merge
  /// tier exists exactly in this case.
  [[nodiscard]] bool cross_shard() const noexcept;

  // ---- layout ----------------------------------------------------------
  [[nodiscard]] std::uint64_t epoch() const;
  [[nodiscard]] std::vector<std::uint32_t> shard_ids() const;
  [[nodiscard]] wire::ShardMap shard_map() const;
  /// Owner shard of `var` under the current ring.
  [[nodiscard]] std::uint32_t owner(VarId var) const;

  /// The live service instance of shard `shard_id` (throws on unknown).
  [[nodiscard]] AlertService& shard(std::uint32_t shard_id);
  /// The merge tier; nullptr for single-variable conditions.
  [[nodiscard]] AlertService* merge();
  /// The instance whose AD filter produces the displayed stream: the
  /// merge tier when cross-shard, else the owner of the single variable.
  [[nodiscard]] AlertService& evaluating_service();

  // ---- resharding ------------------------------------------------------
  /// Adds a shard: bumps the epoch, rebuilds every shard whose owned
  /// set changed, handing durable per-variable state to the new owners.
  void add_shard(std::uint32_t shard_id);
  /// Removes a shard (its variables hand off to the survivors). Throws
  /// std::invalid_argument when it is the last shard or unknown.
  void remove_shard(std::uint32_t shard_id);

  // ---- lifecycle -------------------------------------------------------
  /// Graceful shutdown of every instance: shards first (their final
  /// forwards land), then the merge tier. Idempotent.
  void drain();
  /// True once any instance received an admin kDrain request.
  [[nodiscard]] bool drain_requested() const;
  /// Waits until every live instance reports an idle window.
  bool await_idle(std::chrono::milliseconds idle,
                  std::chrono::milliseconds timeout);

  // ---- oracle-facing instrumentation -----------------------------------
  /// Displayed alerts across all displayer incarnations, in epoch order
  /// (retired evaluating instances first, then the live one).
  [[nodiscard]] std::vector<Alert> displayed() const;
  [[nodiscard]] std::vector<AlertProvenance> provenance() const;
  /// Prefix lengths partitioning displayed() into displayer
  /// incarnations (see swarm::check_service_run).
  [[nodiscard]] std::vector<std::size_t> displayer_epochs() const;
  /// Every journal across the cluster: all replicas of every shard dir
  /// the cluster ever used (including removed shards — their files
  /// survive) plus the merge tier's (requires record_journal).
  [[nodiscard]] std::vector<std::vector<Update>> journals() const;

  [[nodiscard]] const ShardClusterConfig& config() const noexcept {
    return config_;
  }

 private:
  struct ShardSlot {
    std::uint32_t shard_id = 0;
    std::filesystem::path dir;
    std::vector<std::uint16_t> ports;  ///< stable across rebuilds
    std::unique_ptr<AlertService> service;
  };

  [[nodiscard]] ConditionPtr condition_for_locked(
      std::uint32_t shard_id) const;
  [[nodiscard]] FilterKind filter_for_locked(std::uint32_t shard_id) const;
  void build_shard_locked(ShardSlot& slot);
  /// Stops `slot`'s service, folding its displayed/provenance stream
  /// into the retired accumulators when it was the evaluating instance.
  void retire_shard_locked(ShardSlot& slot, bool evaluating);
  void reshard_locked(const ShardRing& new_ring, std::uint64_t new_epoch);
  [[nodiscard]] wire::ShardMap shard_map_locked() const;
  /// Publishes the current layout to the cache admin threads read.
  void refresh_map_locked();
  [[nodiscard]] AlertService& evaluating_service_locked();
  [[nodiscard]] const AlertService& evaluating_service_locked() const;

  ShardClusterConfig config_;

  mutable std::mutex mutex_;
  ShardRing ring_;
  std::uint64_t epoch_ = 1;
  std::map<std::uint32_t, ShardSlot> shards_;   // live shards, by id
  std::unique_ptr<AlertService> merge_;
  std::unique_ptr<net::UdpSocket> forward_socket_;
  std::vector<std::uint16_t> merge_ports_;

  /// Copy of the current map served to admin `shardmap` requests. Its
  /// own lock: shard admin threads read it while a reshard (holding
  /// mutex_) joins those very threads — routing them through mutex_
  /// would deadlock.
  mutable std::mutex map_mutex_;
  wire::ShardMap cached_map_;
  /// Admin ports of every live instance (shards + merge tier), refreshed
  /// with the map; served to instances as their health_endpoints_provider
  /// so any one of them can aggregate cluster health.
  std::vector<std::uint16_t> cached_health_endpoints_;

  /// Dirs of every shard that ever existed (journals outlive removal):
  /// shard id → data dir.
  std::map<std::uint32_t, std::filesystem::path> all_shard_dirs_;

  /// Displayed/provenance streams of retired evaluating instances, with
  /// per-incarnation prefix lengths.
  std::vector<Alert> retired_displayed_;
  std::vector<AlertProvenance> retired_provenance_;
  std::vector<std::size_t> retired_epochs_;

  bool drained_ = false;
};

}  // namespace rcm::service
