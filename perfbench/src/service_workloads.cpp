// The live workloads: an in-process AlertService fed by an open-loop
// generator that talks to it only through its UDP ingest ports and its
// durable-session TCP subscribers.
//
//   ingest_sparse  one DM, uniform values against a ThresholdCondition
//                  (~3% alert); defaults: 2 replicas, AD-1,
//                  checkpoint_every 256, watchdog + sampler on; one
//                  subscriber. Phase 1 open loop at a fixed rate, phase 2
//                  saturation (the generator offers more than the
//                  service takes; UDP ingest drops the excess).
//   alert_fanout   one DM, a rising random walk against a degree-2
//                  conservative RiseCondition (~90% alert); 2 replicas,
//                  AD-4, full-history alert encoding; three subscribers
//                  reading and acking continuously. Open loop at a fixed
//                  rate below the latency knee; no saturation phase.
//
// Alert latency is measured from the *scheduled* send time of the
// triggering update (the newest seqno in the alert's history) to the
// subscriber's decode_session_record, one exact sample per (alert,
// subscriber). Deliveries are checked against a reference: the
// non-replicated system (one ConditionEvaluator plus the workload's
// filter) run over the generated stream.
//
// The traced run repeats the live run with spans around generator sends
// and subscriber decodes, then replays the fixed-rate stream on this
// thread through each layer's public function in pipeline order (decode,
// DurableReplica::on_update with shadow WAL-append and evaluator calls on
// their own instances, checkpoint, AD filter, session publish).
#include <poll.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "common.hpp"
#include "core/builtin_conditions.hpp"
#include "core/displayer.hpp"
#include "core/evaluator.hpp"
#include "core/filters.hpp"
#include "net/socket.hpp"
#include "obs/metrics.hpp"
#include "service/alert_service.hpp"
#include "service/durable_replica.hpp"
#include "service/session.hpp"
#include "store/file_log.hpp"
#include "util/rng.hpp"
#include "wire/codec.hpp"
#include "wire/frame.hpp"
#include "wire/session.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace rcm;
namespace fs = std::filesystem;

constexpr VarId kVar = 0;

// Validity guards of a fixed-rate phase: a generator that ran this late
// at p99, or a backlog that took this long to drain after the last
// scheduled send, means the run did not measure the stated load. (Host
// stalls alone put the p99 at up to ~30 ms on a shared 4-vCPU VM; a
// generator that cannot keep the rate falls seconds behind.)
constexpr double kMaxLateP99Ms = 100.0;
constexpr double kMaxDrainMs = 250.0;
constexpr std::int64_t kDrainDeadlineNs = 3'000'000'000;

struct Shape {
  std::string name;
  FilterKind filter = FilterKind::kAd1;
  std::size_t subscribers = 1;
  double rate = 0.0;            ///< fixed-rate phase, updates/s
  double fixed_share = 0.0;     ///< share of --seconds at the fixed rate
  /// Saturation work per --second: updates the slower replica accepts
  /// in phase 2 (0 = no saturation phase).
  double saturate_per_second = 0.0;
  bool rising = false;          ///< random walk (fanout) vs uniform (sparse)
};

Shape shape_of(const std::string& name) {
  Shape s;
  s.name = name;
  if (name == "ingest_sparse") {
    s.filter = FilterKind::kAd1;
    s.subscribers = 1;
    s.rate = 50000.0;
    s.fixed_share = 0.3;
    s.saturate_per_second = 75000.0;
  } else if (name == "alert_fanout") {
    s.filter = FilterKind::kAd4;
    s.subscribers = 3;
    s.rate = 4000.0;
    s.fixed_share = 0.8;
    s.rising = true;
  } else {
    throw std::invalid_argument("not a service workload: " + name);
  }
  return s;
}

ConditionPtr make_condition(const Shape& s) {
  if (s.rising)
    return std::make_shared<RiseCondition>("bench.rise", kVar, 0.1,
                                           Triggering::kConservative);
  return std::make_shared<ThresholdCondition>("bench.threshold", kVar, 0.97);
}

/// Update i of the uniform stream: a pure function of (seed, i), so the
/// saturation senders generate it on the fly and the reference can
/// regenerate it.
Update uniform_update(std::uint64_t seed, std::size_t i) {
  return Update{kVar, static_cast<SeqNo>(i + 1),
                util::Rng::derive(seed, i).uniform()};
}

/// The generated DM stream: update i carries seqno i + 1.
class Stream {
 public:
  Stream(const Shape& s, std::uint64_t seed) : rising_(s.rising), seed_(seed) {}

  Update at(std::size_t i) {
    if (!rising_) return uniform_update(seed_, i);
    // A rising random walk: steps uniform in [0, 1), so ~90% of them
    // exceed the RiseCondition's 0.1.
    while (walk_.size() <= i) {
      const double prev = walk_.empty() ? 0.0 : walk_.back();
      walk_.push_back(prev + util::Rng::derive(seed_, walk_.size()).uniform());
    }
    return Update{kVar, static_cast<SeqNo>(i + 1), walk_[i]};
  }

  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

 private:
  bool rising_;
  std::uint64_t seed_;
  std::vector<double> walk_;
};

/// Identity of a delivered alert: (oldest, newest) seqno of its history.
struct AlertId {
  SeqNo oldest = 0;
  SeqNo newest = 0;
  friend bool operator==(const AlertId&, const AlertId&) = default;
};

AlertId id_of(const Alert& a) {
  const auto it = a.histories.find(kVar);
  if (it == a.histories.end() || it->second.empty()) return {};
  return {it->second.front().seqno, it->second.back().seqno};
}

/// The non-replicated system: one CE plus the workload's filter.
std::vector<AlertId> reference(const Shape& s, const ConditionPtr& cond,
                               Stream& stream, std::size_t n) {
  ConditionEvaluator ce{cond};
  AlertDisplayer ad{make_filter(s.filter, cond->variables())};
  std::vector<AlertId> out;
  for (std::size_t i = 0; i < n; ++i)
    if (auto a = ce.on_update(stream.at(i)))
      if (ad.on_alert(*a)) out.push_back(id_of(*a));
  return out;
}

struct Delivery {
  std::uint64_t index = 0;
  AlertId id;
  std::int64_t t_ns = 0;  ///< right after decode_session_record
};

/// One durable-session subscriber connection.
struct Subscriber {
  net::TcpStream stream;
  wire::FrameCursor frames;
  std::uint64_t next_index = 0;
  std::uint64_t acked = 0;
  std::uint64_t bytes = 0;
  bool gap = false;
  bool evicted = false;
  bool eof = false;
  std::vector<Delivery> got;
  std::atomic<std::uint64_t> count{0};
  std::atomic<std::int64_t> last_ns{0};

  explicit Subscriber(net::TcpStream s) : stream(std::move(s)) {}
};

/// Connects, says hello (session "sub-<k>", from 0) and waits for the
/// welcome. Throws if the service does not welcome the session.
std::unique_ptr<Subscriber> subscribe(std::uint16_t port, std::size_t k) {
  auto sub =
      std::make_unique<Subscriber>(net::TcpStream::connect(port));
  wire::SessionHello hello;
  hello.session_id = "sub-" + std::to_string(k);
  hello.from = 0;
  sub->stream.write_all(wire::frame(wire::encode_session_hello(hello)));
  const std::int64_t deadline = now_ns() + 5'000'000'000;
  while (now_ns() < deadline) {
    auto chunk = sub->stream.read_some(std::chrono::milliseconds{100});
    if (!chunk) continue;
    if (chunk->empty()) throw std::runtime_error("subscriber: EOF before welcome");
    sub->frames.feed(*chunk);
    if (auto payload = sub->frames.next()) {
      const wire::SessionWelcome w = wire::decode_session_welcome(*payload);
      if (w.status != wire::SessionWelcomeStatus::kOk || w.start_index != 0)
        throw std::runtime_error("subscriber: session not welcomed at 0");
      sub->stream.set_nonblocking(true);
      return sub;
    }
  }
  throw std::runtime_error("subscriber: no welcome within 5 s");
}

void send_ack(Subscriber& sub) {
  const auto bytes = wire::frame(wire::encode_session_ack(sub.next_index));
  std::size_t off = 0;
  while (off < bytes.size())
    off += sub.stream.write_some(
        std::span<const std::uint8_t>(bytes).subspan(off));
  sub.acked = sub.next_index;
}

/// Reads every subscriber until `stop`, decoding, checking index
/// continuity and acking every 64 records (and whenever it goes idle).
void reader_loop(std::vector<std::unique_ptr<Subscriber>>& subs,
                 const std::atomic<bool>& stop, SpanLog* spans) {
  std::vector<pollfd> fds;
  for (const auto& s : subs) fds.push_back({s->stream.native_handle(), POLLIN, 0});
  while (!stop.load(std::memory_order_acquire)) {
    const int ready = ::poll(fds.data(), fds.size(), 1);
    for (std::size_t k = 0; k < subs.size(); ++k) {
      Subscriber& sub = *subs[k];
      if (ready > 0 && (fds[k].revents & (POLLIN | POLLHUP | POLLERR)) &&
          !sub.eof) {
        auto chunk = sub.stream.read_available();
        if (chunk && chunk->empty()) {
          sub.eof = true;
          fds[k].fd = -1;
        } else if (chunk) {
          sub.bytes += chunk->size();
          sub.frames.feed(*chunk);
          while (auto payload = sub.frames.next()) {
            const std::int64_t t0 = now_ns();
            const wire::SessionRecord rec =
                wire::decode_session_record(*payload);
            const std::int64_t t1 = now_ns();
            if (rec.kind == wire::SessionRecord::Kind::kEvicted) {
              sub.evicted = true;
              continue;
            }
            const AlertId id = id_of(rec.alert.alert);
            if (spans)
              spans->add("wire.decode_session_record",
                         static_cast<std::uint64_t>(id.newest),
                         SpanLog::kNoParent, t0, t1);
            if (rec.index != sub.next_index) sub.gap = true;
            sub.next_index = rec.index + 1;
            sub.got.push_back(Delivery{rec.index, id, t1});
            sub.last_ns.store(t1, std::memory_order_relaxed);
            sub.count.store(sub.got.size(), std::memory_order_release);
          }
        }
      }
      if (!sub.eof && (sub.next_index - sub.acked >= 64 ||
                       (ready == 0 && sub.acked < sub.next_index)))
        send_ack(sub);
    }
  }
}

/// Everything one live run observed.
struct LiveRun {
  std::vector<double> setup_s;
  std::size_t n_fixed = 0;
  std::size_t sent_total = 0;
  std::int64_t sched0_ns = 0;  ///< fixed-phase update i is due at
  std::int64_t period_ns = 0;  ///< sched0_ns + i * period_ns
  std::vector<double> late_ms;
  double drain_ms = 0.0;
  bool drained = false;
  double accept_ratio = 0.0;
  std::vector<double> saturated_windows;  ///< updates/s, slower replica
  double offered_per_s = 0.0;
  std::uint64_t send_errors = 0;
  std::vector<std::unique_ptr<Subscriber>> subs;
  SpanLog spans;
  // Registry readings after the run (4x-wide buckets; cross-checks only).
  double wal_live_p99_us = 0.0;
  double session_lag_p99 = 0.0;
  double fanout_live_p99_us = 0.0;
  double peak_rss_mib = 0.0;  ///< set-up through the fixed-rate phase
  std::string reader_error;   ///< a subscriber stream that failed to decode

  [[nodiscard]] std::int64_t sched_of(std::size_t i) const {
    return sched0_ns + static_cast<std::int64_t>(i) * period_ns;
  }
};

service::ServiceConfig service_config(const Shape& s, const ConditionPtr& cond,
                                      const fs::path& dir) {
  service::ServiceConfig c;
  c.condition = cond;
  c.num_replicas = 2;
  c.filter = s.filter;
  c.data_dir = dir;
  c.subscriber_encoding = wire::AlertEncoding::kFullHistories;
  return c;
}

void send_update(net::UdpSocket& udp, const std::vector<std::uint16_t>& ports,
                 std::span<const std::uint8_t> bytes, std::uint64_t trace,
                 SpanLog* spans, std::uint64_t& errors) {
  for (const std::uint16_t port : ports) {
    const std::int64_t t0 = spans ? now_ns() : 0;
    try {
      udp.send_to(port, bytes);
    } catch (const std::system_error&) {
      ++errors;  // ECONNREFUSED echo of an earlier drop: the lossy link
    }
    if (spans) spans->add("net.udp_send", trace, SpanLog::kNoParent, t0, now_ns());
  }
}

LiveRun live_run(const Shape& s, const ConditionPtr& cond, Stream& stream,
                 const RunConfig& cfg, double fixed_s,
                 std::size_t saturate_target, int setups, bool traced,
                 const std::string& tag) {
  LiveRun run;
  run.n_fixed = static_cast<std::size_t>(s.rate * fixed_s);

  // Set-up: empty data dir → AlertService → every subscriber welcomed.
  // Repeated; only the last service is driven.
  std::unique_ptr<service::AlertService> svc;
  for (int k = 0; k < setups; ++k) {
    run.subs.clear();
    svc.reset();
    const fs::path dir = cfg.scratch / (tag + "-data-" + std::to_string(k));
    fs::remove_all(dir);
    const std::int64_t t0 = now_ns();
    svc = std::make_unique<service::AlertService>(service_config(s, cond, dir));
    for (std::size_t j = 0; j < s.subscribers; ++j)
      run.subs.push_back(subscribe(svc->subscriber_port(), j));
    run.setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  obs::registry().reset();

  SpanLog reader_spans;
  std::atomic<bool> stop{false};
  std::thread reader{[&] {
    try {
      reader_loop(run.subs, stop, traced ? &reader_spans : nullptr);
    } catch (const std::exception& e) {
      run.reader_error = e.what();  // read after join
    }
  }};
  SpanLog* gen_spans = traced ? &run.spans : nullptr;

  try {
    net::UdpSocket udp;
    const std::vector<std::uint16_t> ports = svc->replica_ports();

    // ---- phase 1: open loop at the fixed rate ---------------------------
    run.period_ns = static_cast<std::int64_t>(1e9 / s.rate);
    run.sched0_ns = now_ns() + 5'000'000;
    run.late_ms.reserve(run.n_fixed);
    for (std::size_t i = 0; i < run.n_fixed; ++i) {
      const std::int64_t sched = run.sched_of(i);
      // Encoded one at a time, before the wait, so neither a datagram
      // store nor the encoding sits in the measured memory or latency.
      const auto datagram = wire::frame(wire::encode_update(stream.at(i)));
      // Sleep (never spin) until the update is due; whatever came due
      // meanwhile goes out back to back, each timed from its own schedule.
      std::int64_t now = now_ns();
      if (now < sched) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(sched - now));
        now = now_ns();
      }
      run.late_ms.push_back(static_cast<double>(now - sched) / 1e6);
      send_update(udp, ports, datagram, i + 1, gen_spans, run.send_errors);
    }
    const std::int64_t last_sched =
        run.sched_of(run.n_fixed ? run.n_fixed - 1 : 0);

    // Drain: every subscriber holds the fixed phase's reference alerts.
    const std::size_t expected = reference(s, cond, stream, run.n_fixed).size();
    const std::int64_t deadline = last_sched + kDrainDeadlineNs;
    while (now_ns() < deadline) {
      bool all = true;
      for (const auto& sub : run.subs)
        all = all && sub->count.load(std::memory_order_acquire) >= expected;
      if (all) {
        run.drained = true;
        break;
      }
      std::this_thread::sleep_for(std::chrono::microseconds{200});
    }
    std::int64_t last_delivery = last_sched;
    for (const auto& sub : run.subs)
      last_delivery = std::max(last_delivery, sub->last_ns.load());
    run.drain_ms = static_cast<double>(last_delivery - last_sched) / 1e6;

    // Updates after the last alert may still be in a replica's socket
    // buffer; give them a moment before reading the accepted counters.
    std::uint64_t accepted_min = 0;
    for (const std::int64_t until = now_ns() + 500'000'000;;) {
      accepted_min = ~0ull;
      for (const auto& r : svc->status().replicas)
        accepted_min = std::min<std::uint64_t>(accepted_min, r.accepted);
      if (accepted_min >= run.n_fixed || now_ns() > until) break;
      std::this_thread::sleep_for(std::chrono::milliseconds{1});
    }
    run.accept_ratio = run.n_fixed ? static_cast<double>(accepted_min) /
                                         static_cast<double>(run.n_fixed)
                                   : 1.0;
    // Memory while serving the fixed-rate load: a fixed amount of work.
    // (Saturation memory follows how much the replicas managed to take.)
    run.peak_rss_mib = peak_rss_mib();

    // ---- phase 2: saturation ---------------------------------------------
    // One sender thread per replica port, each offering the same in-order
    // stream as fast as it can through the one UDP socket; UDP ingest
    // drops what a replica cannot take, so the slower replica's accepted
    // counter is its capacity. Runs until that replica has accepted
    // `saturate_target` updates, in 250 ms windows.
    std::size_t sent_total = run.n_fixed;
    if (saturate_target > 0) {
      constexpr std::int64_t kWindowNs = 250'000'000;
      constexpr std::int64_t kMaxNs = 20'000'000'000;
      const std::uint64_t seed = stream.seed();
      std::atomic<bool> sat_stop{false};
      std::vector<std::size_t> sent(ports.size(), run.n_fixed);
      std::vector<std::uint64_t> errors(ports.size(), 0);
      std::vector<std::string> failures(ports.size());
      std::vector<std::uint64_t> base;
      for (const auto& r : svc->status().replicas) base.push_back(r.accepted);
      const std::int64_t start = now_ns();
      std::vector<std::thread> senders;
      auto stop_senders = [&] {
        sat_stop.store(true, std::memory_order_release);
        for (std::thread& t : senders) t.join();
        senders.clear();
      };
      try {
        for (std::size_t r = 0; r < ports.size(); ++r)
          senders.emplace_back([&, r] {
            std::size_t j = run.n_fixed;
            try {
              while (!sat_stop.load(std::memory_order_acquire)) {
                for (int b = 0; b < 64; ++b, ++j) {
                  const auto bytes = wire::frame(
                      wire::encode_update(uniform_update(seed, j)));
                  try {
                    udp.send_to(ports[r], bytes);
                  } catch (const std::system_error&) {
                    ++errors[r];
                  }
                }
              }
            } catch (const std::exception& e) {
              failures[r] = e.what();  // read after join
            }
            sent[r] = j;
          });
        std::vector<std::uint64_t> prev = base;
        std::int64_t prev_t = start;
        bool warm = false;  // the first window fills the socket buffers
        for (;;) {
          std::this_thread::sleep_for(std::chrono::nanoseconds(kWindowNs));
          const auto reps = svc->status().replicas;
          const std::int64_t t = now_ns();
          double slowest = 1e300;
          std::uint64_t done = ~0ull;
          for (std::size_t r = 0; r < reps.size(); ++r) {
            slowest = std::min(
                slowest, static_cast<double>(reps[r].accepted - prev[r]));
            done = std::min<std::uint64_t>(done, reps[r].accepted - base[r]);
            prev[r] = reps[r].accepted;
          }
          if (warm)
            run.saturated_windows.push_back(
                slowest / (static_cast<double>(t - prev_t) / 1e9));
          warm = true;
          prev_t = t;
          if (done >= saturate_target || t - start > kMaxNs) break;
        }
        stop_senders();
      } catch (...) {
        stop_senders();
        throw;
      }
      for (const std::string& f : failures)
        if (!f.empty()) throw std::runtime_error("saturation sender: " + f);
      const double secs = static_cast<double>(now_ns() - start) / 1e9;
      run.offered_per_s = 1e300;
      for (std::size_t r = 0; r < sent.size(); ++r) {
        run.offered_per_s = std::min(
            run.offered_per_s, static_cast<double>(sent[r] - run.n_fixed) / secs);
        sent_total = std::max(sent_total, sent[r]);
        run.send_errors += errors[r];
      }
      (void)svc->await_idle(std::chrono::milliseconds{100},
                            std::chrono::seconds{5});
    }
    run.sent_total = sent_total;

    // Let the last deliveries land: no new record for 100 ms.
    std::uint64_t seen = 0;
    for (int quiet = 0; quiet < 100;) {
      std::uint64_t now_seen = 0;
      for (const auto& sub : run.subs) now_seen += sub->count.load();
      quiet = now_seen == seen ? quiet + 1 : 0;
      seen = now_seen;
      std::this_thread::sleep_for(std::chrono::milliseconds{1});
    }
  } catch (...) {
    stop.store(true, std::memory_order_release);
    reader.join();
    throw;
  }
  stop.store(true, std::memory_order_release);
  reader.join();
  run.spans.merge(reader_spans);

  auto& reg = obs::registry();
  run.wal_live_p99_us =
      reg.histogram("service.wal.append.seconds").percentile(0.99) * 1e6;
  run.session_lag_p99 = reg.histogram("service.session.lag").percentile(0.99);
  run.fanout_live_p99_us =
      reg.histogram("service.fanout.seconds").percentile(0.99) * 1e6;
  svc->drain();
  svc.reset();
  for (int k = 0; k < setups; ++k) {
    std::error_code ec;
    fs::remove_all(cfg.scratch / (tag + "-data-" + std::to_string(k)), ec);
  }
  return run;
}

/// Exact fixed-phase latency samples (ms), all together and per 1-second
/// window of scheduled send time (the per-window view shows stalls).
struct Latency {
  std::vector<double> all;
  std::vector<std::vector<double>> windows;
};

/// Checks one live run's deliveries against the reference; returns the
/// fixed-phase latency samples and fills attempted/failed/errors.
Latency check_run(const Shape& s, const ConditionPtr& cond, Stream& stream,
                  const LiveRun& run, Outcome& out, const std::string& tag) {
  const std::vector<AlertId> ref_all =
      reference(s, cond, stream, run.sent_total);
  const auto fixed_end = static_cast<SeqNo>(run.n_fixed);
  std::size_t ref_fixed = 0;
  while (ref_fixed < ref_all.size() && ref_all[ref_fixed].newest <= fixed_end)
    ++ref_fixed;

  // With every fixed-phase update accepted, that phase's deliveries must
  // equal the reference. Otherwise (and in saturation, where UDP drops
  // by design) deliveries must be a subset of the reference: in order
  // for an ordered filter (AD-4), duplicate-free for AD-1, which does not
  // promise order when the replicas' losses differ.
  const bool lossless = run.accept_ratio >= 1.0;
  const bool ordered = s.filter != FilterKind::kAd1;
  std::map<std::pair<SeqNo, SeqNo>, std::size_t> position;
  for (std::size_t r = 0; r < ref_all.size(); ++r)
    position[{ref_all[r].oldest, ref_all[r].newest}] = r;
  Latency latency;
  std::uint64_t missing = 0, extra = 0;
  if (!run.reader_error.empty())
    out.error(tag + ": subscriber stream: " + run.reader_error);
  for (std::size_t k = 0; k < run.subs.size(); ++k) {
    const Subscriber& sub = *run.subs[k];
    if (sub.gap) out.error(fmt("%s sub-%zu: session indexes not gap-free", tag.c_str(), k));
    if (sub.evicted) out.error(fmt("%s sub-%zu: evicted", tag.c_str(), k));
    std::vector<bool> seen(ref_all.size(), false);
    std::size_t matched_fixed = 0, in_order_fixed = 0;
    std::size_t last = 0;
    bool first = true;
    for (const Delivery& d : sub.got) {
      const auto it = position.find({d.id.oldest, d.id.newest});
      if (it == position.end() || seen[it->second] ||
          (ordered && !first && it->second <= last)) {
        ++extra;
        continue;
      }
      seen[it->second] = true;
      if (it->second == in_order_fixed) ++in_order_fixed;
      first = false;
      last = it->second;
      if (d.id.newest <= fixed_end) {
        ++matched_fixed;
        const std::int64_t sched = run.sched_of(d.id.newest - 1);
        const double ms = static_cast<double>(d.t_ns - sched) / 1e6;
        const auto w = static_cast<std::size_t>((sched - run.sched0_ns) /
                                                1'000'000'000);
        if (latency.windows.size() <= w) latency.windows.resize(w + 1);
        latency.windows[w].push_back(ms);
        latency.all.push_back(ms);
      }
    }
    missing += ref_fixed - std::min(ref_fixed, matched_fixed);
    if (lossless && (matched_fixed != ref_fixed || in_order_fixed < ref_fixed))
      out.error(fmt("%s sub-%zu: fixed phase delivered %zu of %zu reference "
                    "alerts (%zu in reference order) with every update "
                    "accepted",
                    tag.c_str(), k, matched_fixed, ref_fixed, in_order_fixed));
  }
  if (extra)
    out.error(fmt("%s: %llu deliveries duplicated, out of order or absent "
                  "from the reference",
                  tag.c_str(), static_cast<unsigned long long>(extra)));
  const std::uint64_t attempted = ref_fixed * run.subs.size();
  std::uint64_t failed = missing + extra;

  // Validity guards: a late generator or a growing backlog voids the
  // fixed-rate measurement; it counts as failed, never silently kept.
  const double late_p99 = quantile(run.late_ms, 0.99);
  if (late_p99 > kMaxLateP99Ms || !run.drained || run.drain_ms > kMaxDrainMs) {
    out.line(fmt("%s: INVALID fixed-rate phase (gen.late_p99_ms %.3f, "
                 "drained %s in %.1f ms); counted as failed",
                 tag.c_str(), late_p99, run.drained ? "yes" : "no",
                 run.drain_ms));
    failed = attempted;
  }
  out.attempted += attempted;
  out.failed += std::min(failed, attempted);
  return latency;
}

struct Replay {
  SpanLog spans;
  std::size_t updates = 0;
  std::size_t alerts = 0;
  std::size_t arrivals = 0;
  std::size_t displayed = 0;
  std::size_t checkpoints = 0;
};

/// Replays the fixed-rate stream through each layer's public function.
Replay replay(const Shape& s, const ConditionPtr& cond, Stream& stream,
              std::size_t n, const fs::path& dir) {
  fs::remove_all(dir);
  fs::create_directories(dir / "sessions");
  Replay rp;
  service::DurabilityOptions opts;
  opts.dir = dir;
  opts.checkpoint_every = 0;  // taken explicitly below, every 256 accepted
  service::DurableReplica replica{cond, 0, opts};
  store::FileUpdateLog wal{dir / "shadow.wal"};
  ConditionEvaluator ce{cond};
  AlertDisplayer ad{make_filter(s.filter, cond->variables())};
  service::SessionManager sessions{dir / "sessions",
                                   wire::AlertEncoding::kFullHistories, {}};
  wire::FrameCursor cursor;
  SpanLog& log = rp.spans;
  std::size_t accepted = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const auto bytes = wire::frame(wire::encode_update(stream.at(i)));
    const std::uint64_t tr = i + 1;
    const std::uint32_t root = log.begin("update", tr);

    std::uint32_t sp = log.begin("wire.decode_update", tr, root);
    cursor.feed(bytes);
    const auto payload = cursor.next();
    const wire::UpdateMessage msg = wire::decode_update_message(*payload);
    log.end(sp);

    const std::uint32_t rep = log.begin("service.replica", tr, root);
    const std::optional<Alert> alert = replica.on_update(msg.update);
    log.end(rep);
    // Shadow children: the WAL append and evaluator transition that
    // on_update performs, timed on their own instances.
    sp = log.begin("store.wal_append", tr, rep);
    wal.append(msg.update);
    log.end(sp);
    sp = log.begin("core.evaluate", tr, rep);
    (void)ce.on_update(msg.update);
    log.end(sp);

    if (++accepted % 256 == 0) {
      sp = log.begin("store.checkpoint", tr, root);
      replica.checkpoint();
      log.end(sp);
      ++rp.checkpoints;
    }
    if (alert) {
      ++rp.alerts;
      // Two replicas raise it: the first arrival is displayed and
      // published, the duplicate is filtered.
      for (int arrival = 0; arrival < 2; ++arrival) {
        sp = log.begin("core.ad_filter", tr, root);
        const bool shown = ad.on_alert(*alert);
        log.end(sp);
        ++rp.arrivals;
        if (!shown) continue;
        ++rp.displayed;
        sp = log.begin("service.publish", tr, root);
        sessions.publish(*alert);
        log.end(sp);
      }
    }
    log.end(root);
    ++rp.updates;
  }
  sessions.stop(std::chrono::milliseconds{100});
  return rp;
}

double mean_us(const std::map<std::string, SpanLog::Totals>& t,
               const std::string& name, bool self = false) {
  const auto it = t.find(name);
  if (it == t.end() || it->second.count == 0) return 0.0;
  return (self ? it->second.self_ns : it->second.total_ns) / 1e3 /
         static_cast<double>(it->second.count);
}

}  // namespace

unsigned service_load(const std::string& workload) {
  const Shape s = shape_of(workload);
  const unsigned senders = s.saturate_per_second > 0.0 ? 2u : 1u;
  return senders + static_cast<unsigned>(s.subscribers);
}

Outcome run_service_workload(const RunConfig& cfg) {
  Shape s = shape_of(cfg.workload);
  if (cfg.rate > 0.0) s.rate = cfg.rate;
  const ConditionPtr cond = make_condition(s);
  Outcome out;
  // The run is split into sub-runs, each on a fresh service with its own
  // input stream (seeded from --seed and the sub-run index), so one
  // unlucky thread placement or host stall moves one sub-run, not the
  // reported median.
  // The traced run measures one sub-run of the same size, untraced and
  // then traced.
  const int split = cfg.seconds < 5.0 ? 1 : 5;
  const int subruns = cfg.trace ? 1 : split;
  const double fixed_s = s.fixed_share * cfg.seconds / split;
  const auto saturate_target = static_cast<std::size_t>(
      s.saturate_per_second * cfg.seconds / split);
  out.line(fmt("%s: 2 replicas, %s, %zu subscriber(s), fixed rate %.0f "
               "updates/s for %.2f s x %d sub-runs, seed %llu",
               s.name.c_str(), s.filter == FilterKind::kAd1 ? "AD-1" : "AD-4",
               s.subscribers, s.rate, fixed_s, subruns,
               static_cast<unsigned long long>(cfg.seed)));

  std::vector<double> setups, p50s, p90s, p99s, lates, drains, accepts,
      windows, offered, delivered_per_s;
  double rss = 0.0;  // peak through sub-run 0: a fresh process, fixed work
  std::size_t samples = 0;
  LiveRun run;  // the last sub-run; the traced run compares against it
  for (int k = 0; k < subruns; ++k) {
    Stream stream{s, util::Rng::derive(cfg.seed, k)()};
    run = LiveRun{};
    run = live_run(s, cond, stream, cfg, fixed_s, saturate_target,
                   cfg.trace ? 1 : 5, false, s.name);
    if (k == 0) rss = run.peak_rss_mib;
    const Latency lat = check_run(s, cond, stream, run, out, s.name);
    setups.insert(setups.end(), run.setup_s.begin(), run.setup_s.end());
    p50s.push_back(quantile(lat.all, 0.5));
    p90s.push_back(quantile(lat.all, 0.9));
    p99s.push_back(quantile(lat.all, 0.99));
    samples += lat.all.size();
    lates.push_back(quantile(run.late_ms, 0.99));
    drains.push_back(run.drain_ms);
    accepts.push_back(run.accept_ratio);
    windows.insert(windows.end(), run.saturated_windows.begin(),
                   run.saturated_windows.end());
    offered.push_back(run.offered_per_s);
    delivered_per_s.push_back(
        static_cast<double>(lat.all.size()) /
        (static_cast<double>(run.n_fixed) / s.rate + run.drain_ms / 1e3));
    std::string per_window;
    for (const auto& w : lat.windows)
      per_window += fmt(" %.3f/%.3f", quantile(w, 0.5), quantile(w, 0.99));
    std::string sat;
    for (const double w : run.saturated_windows) sat += fmt(" %.0f", w / 1e3);
    out.line(fmt("  sub-run %d: n=%zu p50/p90/p99 %.4f/%.4f/%.4f ms, max %.3f; "
                 "late p99 %.3f ms, drain %.2f ms, accept %.5f, send "
                 "errors %llu; 1-s windows p50/p99:%s; saturated k/s:%s",
                 k, lat.all.size(), p50s.back(), p90s.back(), p99s.back(),
                 quantile(lat.all, 1.0), lates.back(), drains.back(),
                 accepts.back(),
                 static_cast<unsigned long long>(run.send_errors),
                 per_window.c_str(), sat.c_str()));
  }
  const double setup = median(setups);
  const double p50 = median(p50s), p90 = median(p90s), p99 = median(p99s);
  const double late_p99 = *std::max_element(lates.begin(), lates.end());
  // Capacity is the p90 over windows, not the median: the host's cores
  // flip between a fast and a ~35% slower mode every few seconds, and the
  // median would follow one run's mode mix.
  const double saturated = quantile(windows, 0.9);
  const double offered_min = *std::min_element(offered.begin(), offered.end());
  // Work completed per second: saturated ingest where there is a
  // saturation phase, otherwise alert deliveries per second sustained
  // over the fixed-rate phase and its drain. The latter is goodput, not
  // capacity: while the service keeps up it equals the offered alert
  // rate, and it falls only when deliveries are lost or the drain grows.
  const double throughput = s.saturate_per_second > 0.0
                                ? saturated
                                : median(delivered_per_s);

  std::string setup_list;
  for (const double v : setups) setup_list += fmt(" %.2f", v * 1e3);
  out.line(fmt("  setup_s                 %10.4f s        (median of %zu: "
               "AlertService on an empty dir until %zu subscriber(s) "
               "welcomed; ms:%s)",
               setup, setups.size(), s.subscribers, setup_list.c_str()));
  out.line(fmt("  alert_latency_p50_ms    %10.4f ms       (median of %d "
               "sub-runs' exact p50; n=%zu alert x subscriber samples)",
               p50, subruns, samples));
  out.line(fmt("  alert_latency_p90_ms    %10.4f ms       (same samples)", p90));
  out.line(fmt("  alert_latency_p99_ms    %10.4f ms       (same samples; "
               "printed, not gated: host stalls make it unsteady)",
               p99));
  if (s.saturate_per_second > 0.0) {
    std::string per_window;
    for (const double w : windows) per_window += fmt(" %.0f", w / 1e3);
    out.line(fmt("  saturated_updates_per_s %10.1f updates/s (p90 of %zu "
                 "250-ms windows, slower replica; offered >= %.1f/s; k/s:%s)",
                 saturated, windows.size(), offered_min, per_window.c_str()));
    if (!(offered_min > saturated))
      out.error(fmt("saturation did not saturate: offered %.1f/s <= accepted "
                    "%.1f/s (the number would measure the generator)",
                    offered_min, saturated));
  } else {
    out.line(fmt("  delivered_alerts_per_s  %10.1f 1/s      (fixed phase + "
                 "drain, median of sub-runs; a goodput guard: it equals "
                 "the offered alert rate while the service keeps up)",
                 throughput));
  }
  out.line(fmt("  failed_frac             %10.4f ratio    (%llu / %llu "
               "expected deliveries)",
               out.attempted ? static_cast<double>(out.failed) /
                                   static_cast<double>(out.attempted)
                             : 0.0,
               static_cast<unsigned long long>(out.failed),
               static_cast<unsigned long long>(out.attempted)));
  out.line(fmt("  guards: gen.late_p99_ms %.3f (worst sub-run; limit %.1f), "
               "service.drain_ms %.2f (worst; limit %.0f), accept_ratio %.5f "
               "(worst)",
               late_p99, kMaxLateP99Ms,
               *std::max_element(drains.begin(), drains.end()), kMaxDrainMs,
               *std::min_element(accepts.begin(), accepts.end())));

  if (!cfg.trace) {
    out.end_to_end["setup_s"] = {setup, "s"};
    out.end_to_end["latency_p50_ms"] = {p50, "ms"};
    out.end_to_end["latency_p90_ms"] = {p90, "ms"};
    out.end_to_end["throughput_per_s"] = {throughput, "1/s"};
    out.end_to_end["peak_rss_mb"] = {rss, "MiB"};
    return out;
  }

  // ---- traced run ------------------------------------------------------
  Stream stream{s, util::Rng::derive(cfg.seed, 0)()};
  LiveRun traced = live_run(s, cond, stream, cfg, fixed_s, saturate_target, 1,
                            true, s.name + "-traced");
  const Latency tlat =
      check_run(s, cond, stream, traced, out, s.name + " traced");
  const double tp50 = quantile(tlat.all, 0.5);
  const Replay rp = replay(s, cond, stream, run.n_fixed,
                           cfg.scratch / (s.name + "-replay"));
  SpanLog all = traced.spans;
  all.merge(rp.spans);
  all.write_csv(cfg.scratch / ("spans-" + s.name + ".csv"));
  fs::remove_all(cfg.scratch / (s.name + "-replay"));

  const auto live = traced.spans.totals();
  const auto t = rp.spans.totals();
  std::size_t tdelivered = 0;
  std::uint64_t tbytes = 0;
  for (const auto& sub : traced.subs) {
    tdelivered += sub->got.size();
    tbytes += sub->bytes;
  }
  auto dur_q = [&](const std::string& name, double q) {
    const auto it = t.find(name);
    return it == t.end() ? 0.0
                         : quantile(it->second.duration_samples_ns, q) / 1e3;
  };

  // The alert path, one hop per layer: these self times plus the wait
  // (queueing in socket buffers, alert_queue_ and the session loop) make
  // up the traced end-to-end p50.
  const std::vector<std::pair<std::string, double>> path = {
      {"net.udp_send", mean_us(live, "net.udp_send")},
      {"wire.decode_update", mean_us(t, "wire.decode_update")},
      {"store.wal_append", mean_us(t, "store.wal_append")},
      {"core.evaluate", mean_us(t, "core.evaluate")},
      {"service.replica (self)", mean_us(t, "service.replica", true)},
      {"core.ad_filter", mean_us(t, "core.ad_filter")},
      {"service.publish", mean_us(t, "service.publish")},
      {"wire.decode_session_record", mean_us(live, "wire.decode_session_record")},
  };
  double hops_us = 0.0;
  for (const auto& [name, us] : path) hops_us += us;
  const double total_us = tp50 * 1e3;
  const double wait_us = total_us - hops_us;
  out.line(fmt("traced run: alert latency p50 %.4f ms (untraced %.4f ms), "
               "n=%zu; replay of %zu updates",
               tp50, p50, tlat.all.size(), rp.updates));
  out.line("  alert path hop               self us   share of traced p50");
  for (const auto& [name, us] : path)
    out.line(fmt("  %-28s %8.3f   %5.1f%%", name.c_str(), us,
                 100.0 * us / total_us));
  out.line(fmt("  %-28s %8.3f   %5.1f%%  (queueing, handoffs, kernel)",
               "wait", wait_us, 100.0 * wait_us / total_us));
  out.line(fmt("  %-28s %8.3f   100.0%%", "traced end-to-end p50", total_us));
  const double ckpt_per_update_us =
      rp.updates ? mean_us(t, "store.checkpoint") *
                       static_cast<double>(rp.checkpoints) /
                       static_cast<double>(rp.updates)
                 : 0.0;
  const double ingest_us = mean_us(t, "wire.decode_update") +
                           mean_us(t, "service.replica") + ckpt_per_update_us;
  out.line(fmt("  ingest work per update: decode + replica + checkpoint "
               "share = %.3f us (one replica thread: <= %.0f updates/s)",
               ingest_us, ingest_us > 0 ? 1e6 / ingest_us : 0.0));

  auto& L = out.per_layer;
  L["gen.late_p99_ms"] = {late_p99, "ms"};
  L["gen.offered_per_s"] = {run.offered_per_s, "1/s"};
  L["net.udp_send_us"] = {mean_us(live, "net.udp_send"), "us"};
  L["net.sub_bytes_per_alert"] = {
      tdelivered ? static_cast<double>(tbytes) / static_cast<double>(tdelivered)
                 : 0.0,
      "bytes"};
  L["wire.decode_update_us"] = {mean_us(t, "wire.decode_update"), "us"};
  L["wire.decode_session_record_us"] = {
      mean_us(live, "wire.decode_session_record"), "us"};
  L["store.wal_append_p50_us"] = {dur_q("store.wal_append", 0.5), "us"};
  L["store.wal_append_p99_us"] = {dur_q("store.wal_append", 0.99), "us"};
  L["store.checkpoint_ms"] = {mean_us(t, "store.checkpoint") / 1e3, "ms"};
  L["store.checkpoints"] = {static_cast<double>(rp.checkpoints), "count"};
  L["store.wal_append_live_p99_us"] = {run.wal_live_p99_us, "us"};
  L["core.evaluate_us"] = {mean_us(t, "core.evaluate"), "us"};
  L["core.alerts_per_update"] = {
      rp.updates ? static_cast<double>(rp.alerts) / static_cast<double>(rp.updates)
                 : 0.0,
      "ratio"};
  L["core.ad_filter_us"] = {mean_us(t, "core.ad_filter"), "us"};
  L["core.ad_pass_ratio"] = {
      rp.arrivals ? static_cast<double>(rp.displayed) /
                        static_cast<double>(rp.arrivals)
                  : 0.0,
      "ratio"};
  L["service.replica_self_us"] = {mean_us(t, "service.replica", true), "us"};
  L["service.publish_us"] = {mean_us(t, "service.publish"), "us"};
  L["service.session_lag_p99"] = {run.session_lag_p99, "count"};
  L["service.fanout_live_p99_us"] = {run.fanout_live_p99_us, "us"};
  L["service.accept_ratio"] = {run.accept_ratio, "ratio"};
  L["service.wait_p50_ms"] = {wait_us / 1e3, "ms"};
  L["service.drain_ms"] = {run.drain_ms, "ms"};
  L["obs.trace_overhead_frac"] = {p50 > 0 ? tp50 / p50 - 1.0 : 0.0, "ratio"};
  out.line(fmt("  core.alerts_per_update %.4f (%zu alerts / %zu updates), "
               "core.ad_pass_ratio %.4f (%zu / %zu arrivals), "
               "store.checkpoints %zu",
               L["core.alerts_per_update"].value, rp.alerts, rp.updates,
               L["core.ad_pass_ratio"].value, rp.displayed, rp.arrivals,
               rp.checkpoints));
  return out;
}

}  // namespace perfbench
