#include "service/shard_cluster.hpp"

#include <algorithm>
#include <set>
#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "store/file_log.hpp"
#include "wire/frame.hpp"

namespace rcm::service {

namespace {

// Per-(shard, replica) durable state pulled out of a stopped instance:
// exactly what a HandoffPacket carries, for every owned variable.
struct ExtractedState {
  std::map<VarId, wire::HandoffEntry> vars;
};

// Offline crash-recovery of a stopped replica, then per-variable window
// extraction. The DurableReplica constructor does the heavy lifting
// (checkpoint + WAL replay, torn-tail tolerant); we only read the
// recovered evaluator state back out. `condition` must be the condition
// the files were written under — the snapshot codec pins its variable
// set and degrees.
ExtractedState extract_state(const ConditionPtr& condition,
                             const std::filesystem::path& dir,
                             std::size_t replica, std::size_t checkpoint_every,
                             bool record_journal) {
  DurabilityOptions opts;
  opts.dir = dir;
  opts.checkpoint_every = checkpoint_every;
  opts.record_journal = record_journal;
  DurableReplica rep{condition, replica, opts};

  ExtractedState out;
  const ConditionEvaluator& ce = rep.evaluator();
  for (VarId v : condition->variables()) {
    wire::HandoffEntry entry;
    entry.var = v;
    if (ce.histories().contains(v)) {
      const History& h = ce.histories().of(v);
      for (int i = -(static_cast<int>(h.size()) - 1); i <= 0; ++i)
        entry.window.push_back(h.at(i));  // oldest first
    }
    const auto wm = ce.last_seen().find(v);
    entry.watermark = wm != ce.last_seen().end() ? wm->second : kNoSeqNo;
    if (entry.watermark == kNoSeqNo && entry.window.empty()) continue;
    out.vars.emplace(v, std::move(entry));
  }
  return out;
}

// Rebuilds replica `replica`'s durable files in `dir` from per-variable
// windows: delete the checkpoint (its variable set no longer matches the
// condition the next incarnation runs), truncate the WAL, and write the
// windows var-by-var. Cold recovery (no checkpoint + WAL replay) then
// reconstructs histories and watermarks exactly — replaying a window
// after the journal's stale prefix is idempotent by the paper's
// out-of-order discard rule. Received windows additionally append to the
// never-truncated journal (minus what it already holds), keeping
// T(journal) aligned with the live state the new incarnation starts from.
void rewrite_replica_state(const std::filesystem::path& dir,
                           std::size_t replica,
                           const std::vector<wire::HandoffEntry>& retained,
                           const std::vector<wire::HandoffEntry>& received,
                           bool record_journal) {
  std::error_code ec;
  std::filesystem::remove(DurableReplica::checkpoint_path(dir, replica), ec);

  store::FileUpdateLog wal{DurableReplica::wal_path(dir, replica)};
  wal.truncate();
  for (const auto* group : {&retained, &received})
    for (const wire::HandoffEntry& e : *group)
      for (const Update& u : e.window) wal.append(u);

  if (!record_journal || received.empty()) return;
  std::map<VarId, SeqNo> journaled;
  for (const Update& u : DurableReplica::read_journal(dir, replica))
    journaled[u.var] = std::max(journaled[u.var], u.seqno);
  store::FileUpdateLog journal{DurableReplica::journal_path(dir, replica)};
  for (const wire::HandoffEntry& e : received) {
    const auto it = journaled.find(e.var);
    const SeqNo floor = it != journaled.end() ? it->second : kNoSeqNo;
    for (const Update& u : e.window)
      if (u.seqno > floor) journal.append(u);
  }
}

}  // namespace

ShardedCluster::ShardedCluster(ShardClusterConfig config)
    : config_(std::move(config)), ring_(config_.vnodes) {
  if (!config_.condition)
    throw std::invalid_argument("ShardedCluster: condition required");
  if (config_.num_shards == 0)
    throw std::invalid_argument("ShardedCluster: num_shards == 0");
  if (config_.data_dir.empty())
    throw std::invalid_argument("ShardedCluster: data_dir required");
  std::filesystem::create_directories(config_.data_dir);

  for (std::uint32_t id = 0; id < config_.num_shards; ++id)
    ring_.add_shard(id);

  if (cross_shard()) {
    ServiceConfig mc;
    mc.condition = config_.condition;
    mc.num_replicas = config_.merge_replicas;
    mc.filter = config_.filter;
    mc.data_dir = config_.data_dir / "merge";
    mc.checkpoint_every = config_.checkpoint_every;
    mc.record_journal = config_.record_journal;
    mc.auto_restart = config_.auto_restart;
    mc.backoff = config_.backoff;
    mc.poll_interval = config_.poll_interval;
    mc.watchdog = config_.watchdog;
    mc.shard = ShardIdentity{kMergeShardId, epoch_};
    mc.health_endpoints_provider = [this] {
      std::lock_guard g{map_mutex_};
      return cached_health_endpoints_;
    };
    merge_ = std::make_unique<AlertService>(std::move(mc));
    merge_ports_ = merge_->replica_ports();
    forward_socket_ = std::make_unique<net::UdpSocket>();
  }

  std::lock_guard g{mutex_};
  for (std::uint32_t id = 0; id < config_.num_shards; ++id) {
    ShardSlot slot;
    slot.shard_id = id;
    slot.dir = config_.data_dir / ("shard-" + std::to_string(id));
    all_shard_dirs_.emplace(id, slot.dir);
    build_shard_locked(slot);
    shards_.emplace(id, std::move(slot));
  }
  refresh_map_locked();
}

ShardedCluster::~ShardedCluster() {
  try {
    drain();
  } catch (...) {
  }
}

bool ShardedCluster::cross_shard() const noexcept {
  return config_.condition->variables().size() > 1;
}

ConditionPtr ShardedCluster::condition_for_locked(
    std::uint32_t shard_id) const {
  if (!cross_shard()) {
    // Single-variable condition: the owning shard evaluates for real;
    // everyone else admits nothing.
    const VarId v = config_.condition->variables().front();
    if (ring_.owner(v) == shard_id) return config_.condition;
    return std::make_shared<PartialCondition>(config_.condition,
                                              std::vector<VarId>{});
  }
  return std::make_shared<PartialCondition>(
      config_.condition, owned_variables(ring_, *config_.condition, shard_id));
}

FilterKind ShardedCluster::filter_for_locked(std::uint32_t shard_id) const {
  if (!cross_shard()) {
    const VarId v = config_.condition->variables().front();
    if (ring_.owner(v) == shard_id) return config_.filter;
  }
  // Partial shards never raise (PartialCondition::evaluate is false);
  // kPassAll keeps their displayer a no-op without requiring the
  // single-variable shape AD-2/AD-4 insist on.
  return FilterKind::kPassAll;
}

void ShardedCluster::build_shard_locked(ShardSlot& slot) {
  ServiceConfig sc;
  sc.condition = condition_for_locked(slot.shard_id);
  sc.num_replicas = config_.replicas_per_shard;
  sc.filter = filter_for_locked(slot.shard_id);
  sc.data_dir = slot.dir;
  sc.checkpoint_every = config_.checkpoint_every;
  sc.record_journal = config_.record_journal;
  sc.auto_restart = config_.auto_restart;
  sc.backoff = config_.backoff;
  sc.poll_interval = config_.poll_interval;
  sc.watchdog = config_.watchdog;
  sc.shard = ShardIdentity{slot.shard_id, epoch_};
  sc.shard_map_provider = [this] {
    std::lock_guard g{map_mutex_};
    return cached_map_;
  };
  sc.health_endpoints_provider = [this] {
    std::lock_guard g{map_mutex_};
    return cached_health_endpoints_;
  };
  if (cross_shard()) {
    // Forward every accepted update to the merge tier, tagged with the
    // origin shard + epoch. Runs on the replica worker thread; send
    // failures are the lossy link the merge CE already tolerates.
    const std::uint32_t id = slot.shard_id;
    const std::uint64_t epoch = epoch_;
    sc.on_accept = [this, id, epoch](const Update& u) {
      // The outbound half of the cross-shard hop; the merge tier's
      // worker records the matching merge.ingest span.
      RCM_SCOPED_TIMER(timer, "service.shard.forward.seconds");
      RCM_TRACE_SPAN(span, "shard.forward");
      span.var(u.var).seq(static_cast<std::int64_t>(u.seqno));
      const auto bytes = wire::encode_update_from_shard(u, id, epoch);
      const auto framed = wire::frame(bytes);
      for (const std::uint16_t port : merge_ports_) {
        try {
          forward_socket_->send_to(port, framed);
        } catch (...) {
        }
      }
    };
  }
  slot.service = std::make_unique<AlertService>(std::move(sc));
  slot.ports = slot.service->replica_ports();
}

void ShardedCluster::retire_shard_locked(ShardSlot& slot, bool evaluating) {
  if (!slot.service) return;
  slot.service->drain();
  if (evaluating) {
    const std::vector<Alert> d = slot.service->displayed();
    const std::vector<AlertProvenance> p = slot.service->provenance();
    retired_epochs_.push_back(d.size());
    retired_displayed_.insert(retired_displayed_.end(), d.begin(), d.end());
    retired_provenance_.insert(retired_provenance_.end(), p.begin(), p.end());
  }
  slot.service.reset();
}

void ShardedCluster::reshard_locked(const ShardRing& new_ring,
                                    std::uint64_t new_epoch) {
  const std::vector<VarId>& vars = config_.condition->variables();

  // Which variables move, and which shards are touched.
  std::map<VarId, std::pair<std::uint32_t, std::uint32_t>> moves;  // old, new
  std::set<std::uint32_t> affected;
  for (VarId v : vars) {
    const std::uint32_t before = ring_.owner(v);
    const std::uint32_t after = new_ring.owner(v);
    if (before == after) continue;
    moves.emplace(v, std::make_pair(before, after));
    affected.insert(before);
    affected.insert(after);
  }
  for (std::uint32_t id : new_ring.shards())
    if (!ring_.contains(id)) affected.insert(id);  // brand-new shard
  for (std::uint32_t id : ring_.shards())
    if (!new_ring.contains(id)) affected.insert(id);  // departing shard

  // Phase 1: stop every affected live instance (graceful — final
  // checkpoint, WAL compacted) so its durable state is quiescent. The
  // evaluating shard (single-variable clusters) is identified up front:
  // retiring it closes a displayer epoch.
  std::optional<std::uint32_t> evaluating_id;
  if (!cross_shard()) evaluating_id = ring_.owner(vars.front());
  for (std::uint32_t id : affected) {
    const auto it = shards_.find(id);
    if (it != shards_.end())
      retire_shard_locked(it->second, evaluating_id == id);
  }

  // Phase 2: offline-extract the full per-variable state of every shard
  // that owns a moving variable or keeps variables on a rebuilt
  // instance. Keyed by (shard, replica).
  std::map<std::pair<std::uint32_t, std::size_t>, ExtractedState> extracted;
  for (std::uint32_t id : affected) {
    const auto dir_it = all_shard_dirs_.find(id);
    if (dir_it == all_shard_dirs_.end()) continue;  // brand-new shard
    const ConditionPtr old_condition = condition_for_locked(id);
    if (old_condition->variables().empty()) continue;
    for (std::size_t r = 0; r < config_.replicas_per_shard; ++r)
      extracted.emplace(
          std::make_pair(id, r),
          extract_state(old_condition, dir_it->second, r,
                        config_.checkpoint_every, config_.record_journal));
  }

  // Phase 3: build one HandoffPacket per (from, to, replica) and
  // round-trip it through the versioned codec — the wire format is the
  // handoff, not an afterthought of it.
  std::map<std::pair<std::uint32_t, std::size_t>,
           std::vector<wire::HandoffEntry>>
      received;  // keyed by (to, replica)
  for (std::size_t r = 0; r < config_.replicas_per_shard; ++r) {
    std::map<std::pair<std::uint32_t, std::uint32_t>,
             wire::HandoffPacket>
        packets;  // keyed by (from, to)
    for (const auto& [v, fromto] : moves) {
      const auto ext = extracted.find({fromto.first, r});
      if (ext == extracted.end()) continue;
      const auto entry = ext->second.vars.find(v);
      if (entry == ext->second.vars.end()) continue;  // nothing accepted
      wire::HandoffPacket& pkt = packets[fromto];
      pkt.epoch = new_epoch;
      pkt.from = fromto.first;
      pkt.to = fromto.second;
      pkt.replica = static_cast<std::uint32_t>(r);
      pkt.entries.push_back(entry->second);
    }
    for (auto& [fromto, pkt] : packets) {
      const wire::HandoffPacket decoded =
          wire::decode_handoff(wire::encode_handoff(pkt));
      auto& sink = received[{decoded.to, decoded.replica}];
      sink.insert(sink.end(), decoded.entries.begin(), decoded.entries.end());
    }
  }

  // Phase 4: adopt the new layout.
  ring_ = new_ring;
  epoch_ = new_epoch;
  for (auto it = shards_.begin(); it != shards_.end();) {
    if (!ring_.contains(it->first))
      it = shards_.erase(it);  // dir + journals stay (all_shard_dirs_)
    else
      ++it;
  }

  // Phase 5: rewrite durable state and rebuild every affected shard that
  // survives into the new layout.
  for (std::uint32_t id : affected) {
    if (!ring_.contains(id)) continue;
    auto slot_it = shards_.find(id);
    if (slot_it == shards_.end()) {
      ShardSlot slot;
      slot.shard_id = id;
      slot.dir = config_.data_dir / ("shard-" + std::to_string(id));
      all_shard_dirs_.emplace(id, slot.dir);
      slot_it = shards_.emplace(id, std::move(slot)).first;
    }
    ShardSlot& slot = slot_it->second;
    const ConditionPtr new_condition = condition_for_locked(id);
    std::set<VarId> keeps(new_condition->variables().begin(),
                          new_condition->variables().end());
    for (std::size_t r = 0; r < config_.replicas_per_shard; ++r) {
      std::vector<wire::HandoffEntry> retained;
      const auto ext = extracted.find({id, r});
      if (ext != extracted.end())
        for (const auto& [v, entry] : ext->second.vars)
          if (keeps.contains(v)) retained.push_back(entry);
      std::vector<wire::HandoffEntry> incoming;
      const auto rcv = received.find({id, r});
      if (rcv != received.end()) incoming = rcv->second;
      std::filesystem::create_directories(slot.dir);
      rewrite_replica_state(slot.dir, r, retained, incoming,
                            config_.record_journal);
    }
    build_shard_locked(slot);
  }
  refresh_map_locked();
}

void ShardedCluster::add_shard(std::uint32_t shard_id) {
  std::lock_guard g{mutex_};
  if (ring_.contains(shard_id))
    throw std::invalid_argument("add_shard: id already present");
  ShardRing next = ring_;
  next.add_shard(shard_id);
  reshard_locked(next, epoch_ + 1);
}

void ShardedCluster::remove_shard(std::uint32_t shard_id) {
  std::lock_guard g{mutex_};
  if (!ring_.contains(shard_id))
    throw std::invalid_argument("remove_shard: unknown shard");
  if (ring_.shard_count() == 1)
    throw std::invalid_argument("remove_shard: last shard");
  ShardRing next = ring_;
  next.remove_shard(shard_id);
  reshard_locked(next, epoch_ + 1);
}

std::uint64_t ShardedCluster::epoch() const {
  std::lock_guard g{mutex_};
  return epoch_;
}

std::vector<std::uint32_t> ShardedCluster::shard_ids() const {
  std::lock_guard g{mutex_};
  return ring_.shards();
}

wire::ShardMap ShardedCluster::shard_map_locked() const {
  wire::ShardMap map;
  map.epoch = epoch_;
  for (const auto& [id, slot] : shards_) {
    wire::ShardMapEntry entry;
    entry.shard_id = id;
    entry.vnodes = ring_.vnodes();
    entry.replica_ports = slot.ports;
    map.shards.push_back(std::move(entry));
  }
  return map;
}

void ShardedCluster::refresh_map_locked() {
  wire::ShardMap map = shard_map_locked();
  std::vector<std::uint16_t> endpoints;
  for (const auto& [id, slot] : shards_)
    if (slot.service) endpoints.push_back(slot.service->admin_port());
  if (merge_) endpoints.push_back(merge_->admin_port());
  std::lock_guard g{map_mutex_};
  cached_map_ = std::move(map);
  cached_health_endpoints_ = std::move(endpoints);
}

wire::ShardMap ShardedCluster::shard_map() const {
  std::lock_guard g{mutex_};
  return shard_map_locked();
}

std::uint32_t ShardedCluster::owner(VarId var) const {
  std::lock_guard g{mutex_};
  return ring_.owner(var);
}

AlertService& ShardedCluster::shard(std::uint32_t shard_id) {
  std::lock_guard g{mutex_};
  const auto it = shards_.find(shard_id);
  if (it == shards_.end() || !it->second.service)
    throw std::invalid_argument("shard: unknown shard id");
  return *it->second.service;
}

AlertService* ShardedCluster::merge() { return merge_.get(); }

AlertService& ShardedCluster::evaluating_service_locked() {
  if (merge_) return *merge_;
  const VarId v = config_.condition->variables().front();
  return *shards_.at(ring_.owner(v)).service;
}

const AlertService& ShardedCluster::evaluating_service_locked() const {
  if (merge_) return *merge_;
  const VarId v = config_.condition->variables().front();
  return *shards_.at(ring_.owner(v)).service;
}

AlertService& ShardedCluster::evaluating_service() {
  std::lock_guard g{mutex_};
  return evaluating_service_locked();
}

void ShardedCluster::drain() {
  std::lock_guard g{mutex_};
  if (drained_) return;
  // Shards first so their final accepted updates are forwarded while the
  // merge tier still ingests; then the merge tier itself.
  for (auto& [id, slot] : shards_)
    if (slot.service) slot.service->drain();
  if (merge_) merge_->drain();
  drained_ = true;
}

bool ShardedCluster::drain_requested() const {
  std::lock_guard g{mutex_};
  for (const auto& [id, slot] : shards_)
    if (slot.service && slot.service->drain_requested()) return true;
  return merge_ && merge_->drain_requested();
}

bool ShardedCluster::await_idle(std::chrono::milliseconds idle,
                                std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  const auto remaining = [&] {
    return std::max(std::chrono::milliseconds{1},
                    std::chrono::duration_cast<std::chrono::milliseconds>(
                        deadline - std::chrono::steady_clock::now()));
  };
  std::lock_guard g{mutex_};
  for (auto& [id, slot] : shards_)
    if (slot.service && !slot.service->await_idle(idle, remaining()))
      return false;
  return !merge_ || merge_->await_idle(idle, remaining());
}

std::vector<Alert> ShardedCluster::displayed() const {
  std::lock_guard g{mutex_};
  std::vector<Alert> out = retired_displayed_;
  const std::vector<Alert> live = evaluating_service_locked().displayed();
  out.insert(out.end(), live.begin(), live.end());
  return out;
}

std::vector<AlertProvenance> ShardedCluster::provenance() const {
  std::lock_guard g{mutex_};
  std::vector<AlertProvenance> out = retired_provenance_;
  const std::vector<AlertProvenance> live =
      evaluating_service_locked().provenance();
  out.insert(out.end(), live.begin(), live.end());
  return out;
}

std::vector<std::size_t> ShardedCluster::displayer_epochs() const {
  std::lock_guard g{mutex_};
  std::vector<std::size_t> epochs = retired_epochs_;
  epochs.push_back(evaluating_service_locked().displayed().size());
  return epochs;
}

std::vector<std::vector<Update>> ShardedCluster::journals() const {
  std::lock_guard g{mutex_};
  std::vector<std::vector<Update>> out;
  for (const auto& [id, dir] : all_shard_dirs_)
    for (std::size_t r = 0; r < config_.replicas_per_shard; ++r)
      out.push_back(DurableReplica::read_journal(dir, r));
  if (merge_)
    for (std::size_t r = 0; r < config_.merge_replicas; ++r)
      out.push_back(
          DurableReplica::read_journal(config_.data_dir / "merge", r));
  return out;
}

}  // namespace rcm::service
