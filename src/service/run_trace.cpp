#include "service/run_trace.hpp"

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <set>
#include <stdexcept>
#include <string>
#include <system_error>
#include <thread>

#include "core/evaluator.hpp"
#include "net/socket.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"
#include "wire/codec.hpp"
#include "wire/frame.hpp"

namespace rcm::service {
namespace {

using namespace std::chrono_literals;

/// Removes a run-private data directory once the service is gone.
struct ScratchDir {
  std::filesystem::path path;
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

std::filesystem::path fresh_scratch_dir() {
  static std::atomic<std::uint64_t> next{0};
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() /
      ("rcm_run_trace_" + std::to_string(::getpid()) + "_" +
       std::to_string(next++));
  // A crashed process with the same pid may have left state behind; the
  // service would recover it.
  std::filesystem::remove_all(path);
  return path;
}

}  // namespace

sim::RunResult run_trace(ServiceConfig config,
                         const std::vector<trace::Trace>& dm_traces,
                         double front_loss, std::uint64_t seed) {
  if (dm_traces.empty())
    throw std::invalid_argument("run_trace: need at least one DM");
  // One DM per variable (paper §2): two sources minting seqnos for the
  // same variable would break the per-variable counter model.
  {
    std::set<VarId> produced;
    for (const auto& trace : dm_traces) {
      std::set<VarId> in_this_trace;
      for (const auto& tu : trace) in_this_trace.insert(tu.update.var);
      for (VarId v : in_this_trace)
        if (!produced.insert(v).second)
          throw std::invalid_argument(
              "run_trace: variable " + std::to_string(v) +
              " is produced by more than one DM trace");
    }
  }

  ScratchDir scratch{fresh_scratch_dir()};
  config.data_dir = scratch.path;
  config.record_journal = true;
  const ConditionPtr condition = config.condition;
  AlertService svc{std::move(config)};
  const std::vector<std::uint16_t> ports = svc.replica_ports();

  // Fork every DM's loss stream up front: Rng::fork mutates the parent,
  // so it must not be called concurrently from the DM threads.
  util::Rng master{seed};
  std::vector<util::Rng> dm_rngs;
  for (std::size_t d = 0; d < dm_traces.size(); ++d)
    dm_rngs.push_back(master.fork(0xD0 + d));

  std::atomic<std::uint64_t> sent{0};
  std::atomic<std::size_t> dropped{0};
  std::vector<std::thread> dm_threads;
  for (std::size_t d = 0; d < dm_traces.size(); ++d) {
    dm_threads.emplace_back([&, d] {
      net::UdpSocket sender;
      util::Rng& rng = dm_rngs[d];
      for (const trace::TimedUpdate& tu : dm_traces[d]) {
        const obs::trace::TraceContext ctx{
            obs::trace::derive_trace_id(tu.update.var, tu.update.seqno), 0};
        const auto framed = wire::frame(wire::encode_update(tu.update, ctx));
        for (const std::uint16_t port : ports) {
          if (rng.bernoulli(front_loss)) {
            ++dropped;
            continue;
          }
          if (sender.try_send_to(port, framed)) ++sent;
        }
      }
    });
  }
  for (auto& t : dm_threads) t.join();

  net::UdpSocket sender;
  bool ended = false;
  for (int attempt = 0; attempt < 50 && !ended; ++attempt) {
    for (std::size_t d = 0; d < dm_traces.size(); ++d) {
      const auto end = wire::frame(wire::encode_end_marker(d));
      for (const std::uint16_t port : ports)
        if (sender.try_send_to(port, end)) ++sent;
    }
    ended = svc.await_dm_ends(dm_traces.size(), 100ms);
  }
  if (!ended)
    throw std::runtime_error("run_trace: END markers never acknowledged");

  // A worker counts a datagram as ingested before it processes it, and
  // checks its stop flag only between datagrams: once every sent
  // datagram is counted, drain() loses none of them. A datagram the
  // kernel dropped would never be counted, so stop waiting after a
  // second without progress and let the journals show the loss.
  std::uint64_t ingested = 0;
  auto last_progress = std::chrono::steady_clock::now();
  while (ingested < sent.load() &&
         std::chrono::steady_clock::now() - last_progress < 1s) {
    std::this_thread::sleep_for(1ms);
    const std::uint64_t now_ingested = svc.status().ingested_datagrams;
    if (now_ingested != ingested) {
      ingested = now_ingested;
      last_progress = std::chrono::steady_clock::now();
    }
  }
  svc.drain();

  sim::RunResult result;
  result.displayed = svc.displayed();
  result.arrived = svc.arrived();
  for (std::size_t i = 0; i < ports.size(); ++i) {
    result.ce_inputs.push_back(svc.replica_journal(i));
    result.ce_outputs.push_back(
        evaluate_trace(condition, result.ce_inputs.back()));
  }
  for (const auto& trace : dm_traces)
    result.dm_emitted.push_back(trace::updates_of(trace));
  result.front_messages_dropped = dropped.load();
  return result;
}

}  // namespace rcm::service
