#include "service/admin.hpp"

#include <algorithm>

#include "wire/buffer.hpp"

namespace rcm::service {
namespace {

constexpr std::uint8_t kOk = 0x4f;     // 'O'
constexpr std::uint8_t kError = 0x45;  // 'E'

// Bulk response bodies (metrics snapshots, trace dumps) must still fit
// in one CRC frame (wire::kMaxFramePayload, 1 MiB) together with the
// response envelope.
constexpr std::size_t kMaxBodyBytes = 1u << 20;

void encode_status(wire::Writer& w, const ServiceStatus& s) {
  w.varint(s.ingested_datagrams);
  w.varint(s.displayed);
  w.varint(s.subscribers);
  w.varint(s.dm_ends);
  w.varint(0);  // reserved slot, see ServiceStatus
  w.varint(s.replicas.size());
  for (const ReplicaStatus& r : s.replicas) {
    w.u8(static_cast<std::uint8_t>(r.state));
    w.varint(r.port);
    w.varint(r.incarnation);
    w.varint(r.accepted);
    w.varint(r.wal_records);
    w.varint(r.checkpoints);
    w.varint(r.recovered_wal);
  }
}

ServiceStatus decode_status(wire::Reader& r) {
  ServiceStatus s;
  s.ingested_datagrams = r.varint();
  s.displayed = r.varint();
  s.subscribers = r.varint();
  s.dm_ends = r.varint();
  (void)r.varint();  // reserved slot, see ServiceStatus
  const std::uint64_t n = r.varint();
  if (n > 4096) throw wire::DecodeError("admin status: replica count");
  s.replicas.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    ReplicaStatus rs;
    const std::uint8_t state = r.u8();
    if (state > static_cast<std::uint8_t>(ReplicaState::kDown))
      throw wire::DecodeError("admin status: replica state");
    rs.state = static_cast<ReplicaState>(state);
    const std::uint64_t port = r.varint();
    if (port > 0xffff) throw wire::DecodeError("admin status: port");
    rs.port = static_cast<std::uint16_t>(port);
    rs.incarnation = r.varint();
    rs.accepted = r.varint();
    rs.wal_records = r.varint();
    rs.checkpoints = r.varint();
    rs.recovered_wal = r.varint();
    s.replicas.push_back(rs);
  }
  return s;
}

// Session entries ride one extension payload
// (wire::kMaxExtensionPayloadBytes); leave headroom for the count
// prefix so encoding never produces an undecodable section.
constexpr std::size_t kSessionExtBudget = 3900;

std::vector<std::uint8_t> encode_sessions_ext(const ServiceStatus& s) {
  wire::Writer w;
  w.varint(s.total_sessions != 0 ? s.total_sessions : s.sessions.size());
  wire::Writer entries;
  std::uint64_t count = 0;
  for (const SessionStatus& e : s.sessions) {
    wire::Writer one;
    one.string(e.id);
    one.varint(e.acked);
    one.varint(e.framed);
    one.varint(e.lag);
    one.varint(e.backlog);
    one.u8(static_cast<std::uint8_t>((e.connected ? 1 : 0) |
                                     (e.evicted ? 2 : 0)));
    if (entries.size() + one.size() > kSessionExtBudget) break;
    entries.raw(one.bytes());
    ++count;
  }
  w.varint(count);
  w.raw(entries.bytes());
  return w.take();
}

void decode_sessions_ext(std::span<const std::uint8_t> payload,
                         ServiceStatus& s) {
  wire::Reader r{payload};
  s.total_sessions = r.varint();
  const std::uint64_t count = r.varint();
  if (count > 4096) throw wire::DecodeError("admin sessions: count");
  s.sessions.clear();
  s.sessions.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    SessionStatus e;
    e.id = r.string();
    e.acked = r.varint();
    e.framed = r.varint();
    e.lag = r.varint();
    e.backlog = r.varint();
    const std::uint8_t flags = r.u8();
    if (flags > 3) throw wire::DecodeError("admin sessions: flags");
    e.connected = (flags & 1) != 0;
    e.evicted = (flags & 2) != 0;
    s.sessions.push_back(std::move(e));
  }
  r.expect_done();
}

// Owned-variable lists ride the same bounded-extension scheme as
// sessions: cap the encoded list, always report the true total.
constexpr std::size_t kShardExtMaxOwned = 512;

std::vector<std::uint8_t> encode_shard_ext(const ShardStatus& s) {
  wire::Writer w;
  w.varint(s.shard_id);
  w.varint(s.epoch);
  w.varint(s.total_owned != 0 ? s.total_owned : s.owned.size());
  const std::size_t count = std::min(s.owned.size(), kShardExtMaxOwned);
  w.varint(count);
  for (std::size_t i = 0; i < count; ++i) w.varint(s.owned[i]);
  return w.take();
}

void decode_shard_ext(std::span<const std::uint8_t> payload,
                      ServiceStatus& s) {
  wire::Reader r{payload};
  ShardStatus st;
  st.shard_id = static_cast<std::uint32_t>(r.varint());
  st.epoch = r.varint();
  st.total_owned = r.varint();
  const std::uint64_t count = r.varint();
  if (count > kShardExtMaxOwned)
    throw wire::DecodeError("admin shard: owned count");
  st.owned.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i)
    st.owned.push_back(static_cast<VarId>(r.varint()));
  r.expect_done();
  s.shard = std::move(st);
}

wire::VersionHeader parse_version_ext(std::span<const std::uint8_t> payload,
                                      const char* format) {
  wire::Reader vr{payload};
  const wire::VersionHeader v =
      wire::decode_version(vr, format, kAdminMinMajor, kAdminMaxMajor);
  vr.expect_done();
  return v;
}

}  // namespace

std::vector<std::uint8_t> encode_admin_request(const AdminRequest& req) {
  wire::Writer w;
  w.u8(req.known ? static_cast<std::uint8_t>(req.command) : req.raw_command);
  w.varint(req.replica);
  wire::Extension version_ext;
  version_ext.tag = kAdminVersionExtTag;
  {
    wire::Writer vw;
    wire::encode_version(vw, kAdminVersion);
    version_ext.payload = vw.take();
  }
  std::vector<wire::Extension> exts;
  exts.push_back(std::move(version_ext));
  if (req.scope != HealthScope::kCluster) {
    // Non-default scope rides its own skippable tag; default-scope
    // requests stay byte-identical to 2.2 encodings.
    wire::Extension scope_ext;
    scope_ext.tag = kAdminScopeExtTag;
    scope_ext.payload = {static_cast<std::uint8_t>(req.scope)};
    exts.push_back(std::move(scope_ext));
  }
  wire::encode_extension_section(w, exts);
  return w.take();
}

AdminRequest decode_admin_request(std::span<const std::uint8_t> payload) {
  wire::Reader r{payload};
  AdminRequest req;
  const std::uint8_t cmd = r.u8();
  req.raw_command = cmd;
  req.replica = r.varint();
  bool has_version = false;
  if (!r.done()) {
    // v2+ peer: an extension section follows the fixed fields.
    (void)wire::decode_extension_section(
        r, [&](std::uint8_t tag, std::span<const std::uint8_t> ext) {
          if (tag == kAdminScopeExtTag) {
            wire::Reader sr{ext};
            const std::uint8_t scope = sr.u8();
            sr.expect_done();
            if (scope > static_cast<std::uint8_t>(HealthScope::kInstance))
              throw wire::DecodeError("admin request: bad scope");
            req.scope = static_cast<HealthScope>(scope);
            return;
          }
          if (tag != kAdminVersionExtTag) return;  // skip unknown tags
          req.version = parse_version_ext(ext, "admin request");
          has_version = true;
        });
    r.expect_done();
  }
  if (cmd > static_cast<std::uint8_t>(AdminCommand::kMetricsProm)) {
    // A version-declaring peer with a compatible major gets a structured
    // unsupported reply from the dispatcher; a legacy (version-less)
    // peer keeps the v1 contract.
    if (!has_version)
      throw wire::DecodeError("admin request: unknown command");
    req.known = false;
    return req;
  }
  req.command = static_cast<AdminCommand>(cmd);
  return req;
}

std::vector<std::uint8_t> encode_admin_response(const AdminResponse& resp) {
  wire::Writer w;
  w.u8(resp.ok ? kOk : kError);
  w.string(resp.error);
  w.u8(resp.status.has_value() ? 1 : 0);
  if (resp.status) encode_status(w, *resp.status);
  w.u8(resp.body.has_value() ? 1 : 0);
  if (resp.body) w.string(*resp.body);
  // The extension section appears only when there is something to say:
  // plain responses stay byte-identical to v1, which is what lets a v1
  // client keep talking to this server during a rolling upgrade.
  std::vector<wire::Extension> exts;
  if (resp.unsupported) {
    wire::Extension ext;
    ext.tag = kAdminUnsupportedExtTag;
    wire::Writer ew;
    ew.u8(resp.unsupported->command);
    wire::encode_version(ew, resp.unsupported->server_version);
    ew.u8(resp.unsupported->min_major);
    ew.u8(resp.unsupported->max_major);
    ew.u8(resp.unsupported->max_command);
    ext.payload = ew.take();
    exts.push_back(std::move(ext));
  }
  if (resp.status &&
      (!resp.status->sessions.empty() || resp.status->total_sessions != 0)) {
    wire::Extension ext;
    ext.tag = kAdminSessionsExtTag;
    ext.payload = encode_sessions_ext(*resp.status);
    exts.push_back(std::move(ext));
  }
  if (resp.status && resp.status->shard) {
    wire::Extension ext;
    ext.tag = kAdminShardExtTag;
    ext.payload = encode_shard_ext(*resp.status->shard);
    exts.push_back(std::move(ext));
  }
  if (!exts.empty()) wire::encode_extension_section(w, exts);
  return w.take();
}

AdminResponse decode_admin_response(std::span<const std::uint8_t> payload) {
  wire::Reader r{payload};
  AdminResponse resp;
  const std::uint8_t status = r.u8();
  if (status == kOk) {
    resp.ok = true;
  } else if (status == kError) {
    resp.ok = false;
  } else {
    throw wire::DecodeError("admin response: bad status byte");
  }
  resp.error = r.string();
  const std::uint8_t has_status = r.u8();
  if (has_status > 1)
    throw wire::DecodeError("admin response: bad status flag");
  if (has_status == 1) resp.status = decode_status(r);
  const std::uint8_t has_body = r.u8();
  if (has_body > 1) throw wire::DecodeError("admin response: bad body flag");
  if (has_body == 1) resp.body = r.string(kMaxBodyBytes);
  if (!r.done()) {
    (void)wire::decode_extension_section(
        r, [&](std::uint8_t tag, std::span<const std::uint8_t> ext) {
          if (tag == kAdminSessionsExtTag) {
            // Session entries attach to the status block; a session
            // extension without one has nothing to attach to.
            if (resp.status) decode_sessions_ext(ext, *resp.status);
            return;
          }
          if (tag == kAdminShardExtTag) {
            // Shard identity attaches to the status block too.
            if (resp.status) decode_shard_ext(ext, *resp.status);
            return;
          }
          if (tag != kAdminUnsupportedExtTag) return;  // skip unknown tags
          wire::Reader er{ext};
          AdminUnsupported u;
          u.command = er.u8();
          u.server_version.major = er.u8();
          u.server_version.minor = er.u8();
          u.min_major = er.u8();
          u.max_major = er.u8();
          u.max_command = er.u8();
          er.expect_done();
          resp.unsupported = u;
        });
  }
  r.expect_done();
  return resp;
}

}  // namespace rcm::service
