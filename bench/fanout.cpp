// Fan-out bench: alerts/sec through the durable session layer vs
// subscriber count.
//
// For each subscriber count N in the sweep, builds a SessionManager on a
// scratch directory, connects N durable-session subscribers — a mixed
// population where a `--slow-fraction` share never reads a byte during
// the measurement (stalled peers) — publishes `--alerts` alerts from one
// thread, and measures two things:
//
//   publish rate  — alerts/sec through SessionManager::publish(), i.e.
//                   the cost the AD pays on the replica worker that
//                   raised the alert (durable append + window push +
//                   wake). This rate should not depend on stalled peers:
//                   publish() never touches a socket.
//   delivery rate — alerts/sec until every FAST subscriber has received
//                   the complete, gap-free alert sequence.
//
// Exit status is 1 if any fast subscriber failed to receive every alert
// in order (the bench doubles as an end-to-end fan-out correctness
// check). Emits a JSON artifact (BENCH_fanout.json) with one row per
// sweep point; `ctest -L bench_smoke` runs a tiny sweep.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/alert.hpp"
#include "net/socket.hpp"
#include "service/session.hpp"
#include "util/args.hpp"
#include "wire/frame.hpp"
#include "wire/session.hpp"

namespace {

using namespace rcm;
using Clock = std::chrono::steady_clock;

struct SweepRow {
  std::size_t subscribers = 0;
  std::size_t slow = 0;
  double publish_seconds = 0.0;
  double delivery_seconds = 0.0;
  std::size_t evictions = 0;
  bool complete = false;  ///< every fast subscriber got every alert in order
};

std::vector<std::size_t> parse_counts(const std::string& csv) {
  std::vector<std::size_t> out;
  std::stringstream ss{csv};
  std::string item;
  while (std::getline(ss, item, ','))
    if (!item.empty()) out.push_back(std::stoul(item));
  return out;
}

/// One fast subscriber's receive state, drained round-robin by the
/// reader thread.
struct FastClient {
  net::TcpStream stream;
  wire::FrameCursor frames;
  std::uint64_t next_expected = 0;
  bool ordered = true;
  bool eof = false;

  explicit FastClient(net::TcpStream s) : stream(std::move(s)) {}
};

SweepRow run_sweep_point(std::size_t subscribers, double slow_fraction,
                         std::size_t alerts,
                         const std::filesystem::path& scratch) {
  namespace fs = std::filesystem;

  SweepRow row;
  row.subscribers = subscribers;
  row.slow = static_cast<std::size_t>(
      static_cast<double>(subscribers) * slow_fraction);
  if (row.slow >= subscribers && subscribers > 0) row.slow = subscribers - 1;
  const std::size_t fast = subscribers - row.slow;

  const fs::path dir = scratch / ("n" + std::to_string(subscribers));
  fs::remove_all(dir);
  fs::create_directories(dir);

  service::SessionLimits limits;
  limits.max_backlog = alerts + 1;  // stalled peers stay (measured, not
  limits.retention = alerts + 1;    // evicted) unless the sweep overrides
  limits.lag_alert_budget = 0;
  service::SessionManager manager{dir, wire::AlertEncoding::kFullHistories,
                                  limits};

  net::TcpListener listener;
  std::vector<FastClient> fast_clients;
  fast_clients.reserve(fast);
  std::vector<net::TcpStream> slow_clients;
  slow_clients.reserve(row.slow);

  for (std::size_t i = 0; i < subscribers; ++i) {
    net::TcpStream client = net::TcpStream::connect(listener.port());
    auto accepted = listener.accept(std::chrono::milliseconds{1000});
    if (!accepted) throw std::runtime_error("accept timed out");
    manager.adopt(std::move(*accepted));
    wire::SessionHello hello;
    hello.session_id = "sub-" + std::to_string(i);
    hello.from = 0;
    client.write_all(wire::frame(wire::encode_session_hello(hello)));
    if (i < fast) {
      client.set_nonblocking(true);
      fast_clients.emplace_back(std::move(client));
    } else {
      slow_clients.push_back(std::move(client));  // never read: stalled
    }
  }

  // Barrier: every hello processed before the clock starts.
  const auto setup_deadline = Clock::now() + std::chrono::seconds{30};
  while (manager.sessions().size() < subscribers &&
         Clock::now() < setup_deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds{1});

  // Reader thread: drain every fast client until each has the full
  // gap-free sequence (or EOF/deadline).
  std::atomic<bool> reader_stop{false};
  std::atomic<std::size_t> done_count{0};
  std::thread reader{[&] {
    while (!reader_stop.load(std::memory_order_acquire)) {
      bool any = false;
      std::size_t done = 0;
      for (FastClient& c : fast_clients) {
        if (c.eof || c.next_expected >= alerts) {
          ++done;
          continue;
        }
        const auto chunk = c.stream.read_available();
        if (!chunk) continue;
        if (chunk->empty()) {
          c.eof = true;
          continue;
        }
        any = true;
        c.frames.feed(*chunk);
        while (auto payload = c.frames.next()) {
          if (payload->empty() ||
              (*payload)[0] != wire::kSessionAlertTag)
            continue;  // welcome / evicted notices are not alerts
          const wire::SessionRecord rec =
              wire::decode_session_record(*payload);
          if (rec.index != c.next_expected) c.ordered = false;
          c.next_expected = rec.index + 1;
        }
      }
      done_count.store(done, std::memory_order_release);
      if (done == fast_clients.size()) return;
      if (!any) std::this_thread::sleep_for(std::chrono::microseconds{100});
    }
  }};

  // The measured section: publish() from one thread, as one replica
  // worker running the AD would.
  Alert alert;
  alert.cond = "bench.fanout";
  alert.histories[0] = {Update{0, 1, 42.0}};
  const auto publish_start = Clock::now();
  for (std::size_t i = 0; i < alerts; ++i) {
    alert.histories[0][0].seqno = static_cast<SeqNo>(i + 1);
    manager.publish(alert);
  }
  row.publish_seconds =
      std::chrono::duration<double>(Clock::now() - publish_start).count();

  const auto delivery_deadline = Clock::now() + std::chrono::seconds{60};
  while (done_count.load(std::memory_order_acquire) < fast_clients.size() &&
         Clock::now() < delivery_deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds{1});
  row.delivery_seconds =
      std::chrono::duration<double>(Clock::now() - publish_start).count();
  reader_stop.store(true, std::memory_order_release);
  reader.join();

  row.complete = true;
  for (const FastClient& c : fast_clients)
    if (!c.ordered || c.next_expected != alerts) row.complete = false;
  for (const service::SessionInfo& info : manager.sessions())
    if (info.evicted) ++row.evictions;

  manager.stop(std::chrono::milliseconds{100});
  fast_clients.clear();
  slow_clients.clear();
  std::error_code ec;
  fs::remove_all(dir, ec);
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  rcm::util::Args args;
  args.add_flag("subscribers", "1,4,16,64,256,1024,4096",
                "comma-separated subscriber counts to sweep");
  args.add_flag("alerts", "1000", "alerts published per sweep point");
  args.add_flag("slow-fraction", "0.1",
                "share of subscribers that never read (stalled peers)");
  args.add_flag("scratch", "", "scratch dir (default: system temp)");
  args.add_flag("out", "BENCH_fanout.json",
                "path for the JSON artifact ('' = skip writing)");
  if (!args.parse(argc, argv)) {
    std::cerr << args.error() << "\n" << args.usage("fanout");
    return 2;
  }
  if (args.help_requested()) {
    std::cout << args.usage("fanout");
    return 0;
  }

  const std::vector<std::size_t> counts = parse_counts(args.get("subscribers"));
  const auto alerts = static_cast<std::size_t>(args.get_int("alerts"));
  const double slow_fraction = args.get_double("slow-fraction");
  const std::filesystem::path scratch =
      args.get("scratch").empty()
          ? std::filesystem::temp_directory_path() / "rcm_bench_fanout"
          : std::filesystem::path{args.get("scratch")};
  std::filesystem::create_directories(scratch);

  std::cout << "fanout: " << alerts << " alerts per point, slow fraction "
            << slow_fraction << "\n"
            << "  subs   slow   publish k-alerts/s   delivery k-alerts/s"
            << "   complete\n";

  std::vector<SweepRow> rows;
  bool all_complete = true;
  for (const std::size_t n : counts) {
    if (n == 0) continue;
    const SweepRow row = run_sweep_point(n, slow_fraction, alerts, scratch);
    rows.push_back(row);
    all_complete = all_complete && row.complete;
    std::printf("  %5zu  %5zu   %18.1f   %19.1f   %s\n", row.subscribers,
                row.slow,
                row.publish_seconds > 0
                    ? static_cast<double>(alerts) / row.publish_seconds / 1e3
                    : 0.0,
                row.delivery_seconds > 0
                    ? static_cast<double>(alerts) / row.delivery_seconds / 1e3
                    : 0.0,
                row.complete ? "yes" : "NO");
  }

  const std::string out_path = args.get("out");
  if (!out_path.empty()) {
    std::ostringstream json;
    json << "{\n"
         << "  \"bench\": \"fanout\",\n"
         << "  \"alerts\": " << alerts << ",\n"
         << "  \"slow_fraction\": " << slow_fraction << ",\n"
         << "  \"rows\": [";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const SweepRow& r = rows[i];
      json << (i == 0 ? "\n" : ",\n")
           << "    {\"subscribers\": " << r.subscribers
           << ", \"slow\": " << r.slow
           << ", \"publish_seconds\": " << r.publish_seconds
           << ", \"publish_alerts_per_sec\": "
           << (r.publish_seconds > 0
                   ? static_cast<double>(alerts) / r.publish_seconds
                   : 0.0)
           << ", \"delivery_seconds\": " << r.delivery_seconds
           << ", \"delivery_alerts_per_sec\": "
           << (r.delivery_seconds > 0
                   ? static_cast<double>(alerts) / r.delivery_seconds
                   : 0.0)
           << ", \"evictions\": " << r.evictions
           << ", \"complete\": " << (r.complete ? "true" : "false") << "}";
    }
    json << "\n  ]\n}\n";
    std::ofstream out(out_path);
    out << json.str();
    if (!out) {
      std::cerr << "failed to write " << out_path << "\n";
      return 2;
    }
    std::cout << "  wrote " << out_path << "\n";
  }

  return all_complete ? 0 : 1;
}
