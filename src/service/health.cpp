#include "service/health.hpp"

#include <iomanip>
#include <sstream>

#include "core/expr/expression_condition.hpp"
#include "obs/metrics.hpp"
#include "service/admin.hpp"
#include "wire/frame.hpp"

namespace rcm::service {
namespace {

constexpr std::chrono::milliseconds kPromAcceptPoll{50};
constexpr std::chrono::milliseconds kPromReadPoll{200};

std::string json_num(double x) {
  std::ostringstream out;
  out.precision(12);
  out << x;
  return out.str();
}

const char* role_name(wire::InstanceRole role) {
  switch (role) {
    case wire::InstanceRole::kStandalone: return "standalone";
    case wire::InstanceRole::kShard: return "shard";
    case wire::InstanceRole::kMerge: return "merge";
  }
  return "unknown";
}

std::string threshold_source(const std::string& var, double threshold) {
  std::ostringstream out;
  out << var << "[0] > " << std::setprecision(17) << threshold;
  return out.str();
}

}  // namespace

// ---- SelfAlarm ---------------------------------------------------------

SelfAlarm::SelfAlarm(std::string cond, const std::string& var,
                     double threshold)
    : var_(vars_.intern(var)),
      ce_(expr::compile_condition(std::move(cond),
                                  threshold_source(var, threshold), vars_),
          "self") {}

std::optional<Alert> SelfAlarm::feed(double value) {
  std::lock_guard g{mutex_};
  return ce_.on_update(Update{var_, ++seq_, value});
}

std::vector<Alert> SelfAlarm::emitted() const {
  std::lock_guard g{mutex_};
  return ce_.emitted();
}

// ---- scraping -----------------------------------------------------------

std::optional<wire::InstanceHealth> scrape_instance_health(
    std::uint16_t admin_port, std::chrono::milliseconds timeout) {
  try {
    net::TcpStream conn = net::TcpStream::connect(admin_port);
    AdminRequest req;
    req.command = AdminCommand::kHealth;
    req.scope = HealthScope::kInstance;
    conn.write_all(wire::frame(encode_admin_request(req)));
    wire::FrameCursor cursor;
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    while (std::chrono::steady_clock::now() < deadline) {
      auto bytes = conn.read_some(std::chrono::milliseconds{20});
      if (!bytes) continue;
      if (bytes->empty()) return std::nullopt;  // EOF before a response
      cursor.feed(*bytes);
      if (auto payload = cursor.next()) {
        const AdminResponse resp = decode_admin_response(*payload);
        if (!resp.ok || !resp.body) return std::nullopt;
        return wire::decode_instance_health(std::span{
            reinterpret_cast<const std::uint8_t*>(resp.body->data()),
            resp.body->size()});
      }
    }
  } catch (const std::exception&) {
    // connect refused / reset / corrupt bytes: all mean "unreachable".
  }
  return std::nullopt;
}

// ---- JSON rendering -----------------------------------------------------

std::string instance_health_json(const wire::InstanceHealth& h) {
  std::string out = "{\"role\": \"";
  out += role_name(h.role);
  out += std::string{"\", \"healthy\": "} + (h.healthy ? "true" : "false") +
         ", \"uptime_seconds\": " +
         json_num(static_cast<double>(h.uptime_ns) * 1e-9) +
         ", \"sessions\": " + std::to_string(h.sessions) +
         ", \"max_session_lag\": " + std::to_string(h.max_session_lag) +
         ", \"replicas\": [";
  bool first = true;
  for (const wire::ReplicaHealth& r : h.replicas) {
    if (!first) out += ", ";
    first = false;
    out += "{\"replica\": " + std::to_string(r.replica) +
           ", \"up\": " + (r.up ? "true" : "false") +
           ", \"incarnations\": " + std::to_string(r.incarnations) +
           ", \"heartbeat_age_ms\": " +
           json_num(static_cast<double>(r.heartbeat_age_ns) * 1e-6) +
           ", \"accepted\": " + std::to_string(r.accepted) +
           ", \"wal_records\": " + std::to_string(r.wal_records) + "}";
  }
  out += "], \"rates\": {";
  first = true;
  for (const wire::RateSample& r : h.rates) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + obs::json_escape(r.name) +
           "\": {\"rate_10s\": " + json_num(r.rate_10s) +
           ", \"rate_1m\": " + json_num(r.rate_1m) +
           ", \"rate_5m\": " + json_num(r.rate_5m) + "}";
  }
  out += "}, \"degradations\": [";
  first = true;
  for (const wire::Degradation& d : h.degradations) {
    if (!first) out += ", ";
    first = false;
    out += std::string{"{\"kind\": \""} +
           wire::degradation_kind_name(d.kind) + "\", \"detail\": \"" +
           obs::json_escape(d.detail) +
           "\", \"value\": " + std::to_string(d.value) + "}";
  }
  out += "]}";
  return out;
}

// ---- PromExporter -------------------------------------------------------

PromExporter::PromExporter(std::uint16_t port) : listener_(port) {}

PromExporter::~PromExporter() { stop(); }

void PromExporter::start() {
  std::lock_guard g{lifecycle_mutex_};
  if (running_) return;
  stopping_.store(false, std::memory_order_release);
  thread_ = std::thread(&PromExporter::serve, this);
  running_ = true;
}

void PromExporter::stop() {
  std::lock_guard g{lifecycle_mutex_};
  if (!running_) return;
  stopping_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
  running_ = false;
}

void PromExporter::serve() {
  while (!stopping_.load(std::memory_order_acquire)) {
    auto conn = listener_.accept(kPromAcceptPoll);
    if (!conn) continue;
    try {
      // Read until the end of the request head (or give up quietly): the
      // request content is irrelevant — every path serves the registry.
      std::string head;
      for (int i = 0; i < 5 && head.find("\r\n\r\n") == std::string::npos;
           ++i) {
        auto bytes = conn->read_some(kPromReadPoll);
        if (!bytes || bytes->empty()) break;
        head.append(reinterpret_cast<const char*>(bytes->data()),
                    bytes->size());
      }
      const std::string body = obs::registry().snapshot_prometheus();
      std::string resp =
          "HTTP/1.0 200 OK\r\n"
          "Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"
          "Content-Length: " +
          std::to_string(body.size()) +
          "\r\n"
          "Connection: close\r\n\r\n" +
          body;
      conn->write_all(std::span{
          reinterpret_cast<const std::uint8_t*>(resp.data()), resp.size()});
      conn->shutdown_write();
    } catch (const std::exception&) {
      // Peer went away mid-request; keep serving.
    }
  }
}

}  // namespace rcm::service
