// Open-loop load generator for the session gateway (docs/TRANSPORT.md "Session
// gateway"): deploys one Basil shard (f=1, 6 replicas) plus ONE gateway node
// carrying N logical sessions — each a full BasilClient — over `lanes` pooled
// TCP connections per replica, then offers transactions at a fixed arrival
// rate (Poisson or fixed-interval) regardless of completions. Latency is
// measured from the *scheduled* arrival, so queueing delay above the
// saturation knee is charged to the system, not hidden by closed-loop
// self-throttling.
//
//   basil_loadgen [--smoke] [--sessions N] [--lanes K] [--rates R1,R2,...]
//                 [--arrivals poisson|fixed] [--duration-ms D] [--keys K]
//                 [--workers W] [--seed S] [--out PATH]
//
// --smoke (CI, ctest `openloop_smoke`): one sub-saturation rate for ~2s with
// the full 10k-session table; exits nonzero unless transactions committed,
// latency was recorded at every rate, no session was dropped by backpressure
// (gw.dropped_sessions == 0), and no runtime shed an outbox frame
// (rt.writer.dropped_frames == 0).
//
// Every run writes a "basil-bench-v1" artifact (default
// BENCH_gateway_openloop.json): one row per offered rate with achieved tps and
// client-observed commit latency (p50/p95/p99), plus offered rate, abort rate,
// and backlog peak as params — the throughput-vs-latency knee curve.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "src/basil/client.h"
#include "src/basil/replica.h"
#include "src/harness/report.h"
#include "src/net/gateway.h"
#include "src/net/tcp_runtime.h"
#include "src/obs/metrics.h"
#include "src/runtime/task.h"
#include "src/sim/topology.h"

namespace basil {
namespace {

struct LoadgenOptions {
  bool smoke = false;
  uint32_t sessions = 10000;
  uint32_t lanes = 8;
  uint32_t workers = 2;
  uint32_t keys = 512;
  uint64_t duration_ms = 3000;
  uint64_t drain_ms = 10000;  // Post-schedule grace for in-flight txns.
  bool poisson = true;
  std::string rates = "100,250,500,1000,2000";
  uint64_t seed = 4242;
  std::string out = "BENCH_gateway_openloop.json";
};

// All mutable state is confined to the gateway's event-loop thread: the pump
// timer, the driver coroutines, and the snapshot closure all run there.
struct OpenLoop {
  std::vector<std::unique_ptr<BasilClient>>* clients = nullptr;
  TcpRuntime* rt = nullptr;
  obs::MetricsRegistry* reg = nullptr;
  obs::MetricId commit_span = obs::kInvalidMetric;
  std::unique_ptr<obs::Histogram> lat;  // Per-rate commit latency (ns).
  uint32_t keyspace = 64;
  std::mt19937_64 rng{4242};
  bool poisson = true;
  double rate_tps = 0;

  uint64_t start_ns = 0;
  uint64_t next_ns = 0;  // Next scheduled arrival.
  uint64_t stop_ns = 0;  // No arrivals scheduled past this.
  bool scheduling_done = false;

  std::vector<uint32_t> idle;      // Session indices with no txn in flight.
  std::deque<uint64_t> backlog;    // Scheduled arrivals awaiting a session.
  uint64_t backlog_peak = 0;

  uint64_t launched = 0;
  uint64_t completed = 0;
  uint64_t committed = 0;
  uint64_t aborted = 0;
};

uint64_t NextGapNs(OpenLoop* ol) {
  if (ol->poisson) {
    std::exponential_distribution<double> gap(ol->rate_tps);
    return static_cast<uint64_t>(gap(ol->rng) * 1e9) + 1;
  }
  return static_cast<uint64_t>(1e9 / ol->rate_tps);
}

// One offered transaction: a read-modify-write with NO retry — an abort counts
// into the abort rate and the session moves on, because in an open-loop model
// the next arrival is already due regardless of this one's fate. On completion
// the session pulls the oldest backlogged arrival (its queueing delay stays in
// the latency number) or returns to the idle pool.
Task<void> RunOne(BasilClient* client, OpenLoop* ol, uint32_t idx,
                  uint64_t sched_ns) {
  for (;;) {
    const Key key = "k" + std::to_string(ol->rng() % ol->keyspace);
    TxnSession& s = client->BeginTxn();
    std::optional<Value> v = co_await s.Get(key);
    const uint64_t counter =
        v.has_value() ? std::strtoull(v->c_str(), nullptr, 10) + 1 : 1;
    s.Put(key, std::to_string(counter));
    const TxnOutcome out = co_await s.Commit();
    ol->completed += 1;
    if (out.committed) {
      ol->committed += 1;
      const uint64_t now = ol->rt->now();
      const uint64_t lat_ns = now > sched_ns ? now - sched_ns : 0;
      if (ol->lat != nullptr) {
        ol->lat->Record(lat_ns);
      }
      ol->reg->Observe(ol->commit_span, lat_ns);
    } else {
      ol->aborted += 1;
    }
    if (!ol->backlog.empty()) {
      sched_ns = ol->backlog.front();
      ol->backlog.pop_front();
      ol->launched += 1;
      continue;
    }
    ol->idle.push_back(idx);
    co_return;
  }
}

void Arrive(OpenLoop* ol, uint64_t sched_ns) {
  if (ol->idle.empty()) {
    ol->backlog.push_back(sched_ns);
    ol->backlog_peak = std::max<uint64_t>(ol->backlog_peak, ol->backlog.size());
    return;
  }
  const uint32_t idx = ol->idle.back();
  ol->idle.pop_back();
  ol->launched += 1;
  Spawn(RunOne((*ol->clients)[idx].get(), ol, idx, sched_ns));
}

// Timer-driven arrival pump: dispatches every arrival whose scheduled time has
// passed, then re-arms for the next one.
void Pump(OpenLoop* ol) {
  const uint64_t now = ol->rt->now();
  while (!ol->scheduling_done && ol->next_ns <= now) {
    Arrive(ol, ol->next_ns);
    ol->next_ns += NextGapNs(ol);
    if (ol->next_ns > ol->stop_ns) {
      ol->scheduling_done = true;
    }
  }
  if (!ol->scheduling_done) {
    ol->rt->SetTimer(ol->next_ns - now, [ol]() { Pump(ol); });
  }
}

struct RateRow {
  double offered = 0;
  double achieved = 0;
  double mean_ms = 0;
  double p50_ms = 0;
  double p95_ms = 0;
  double p99_ms = 0;
  uint64_t committed = 0;
  uint64_t completed = 0;
  uint64_t aborted = 0;
  uint64_t backlog_peak = 0;
  bool drained = false;
};

// Runs one offered rate to completion (schedule + drain) and snapshots the
// results on the loop thread so nothing races the drivers.
RateRow RunRate(OpenLoop* ol, const LoadgenOptions& opt, double rate) {
  std::atomic<bool> ready{false};
  ol->rt->Execute([ol, rate, &opt, &ready]() {
    ol->rate_tps = rate;
    ol->lat = std::make_unique<obs::Histogram>();
    ol->launched = ol->completed = ol->committed = ol->aborted = 0;
    ol->backlog.clear();
    ol->backlog_peak = 0;
    ol->scheduling_done = false;
    ol->start_ns = ol->rt->now();
    ol->stop_ns = ol->start_ns + opt.duration_ms * 1'000'000ull;
    ol->next_ns = ol->start_ns + NextGapNs(ol);
    Pump(ol);
    ready.store(true);
  });
  while (!ready.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  const uint64_t wait_ns = (opt.duration_ms + opt.drain_ms) * 1'000'000ull;
  const bool drained = ol->rt->WaitUntil(
      [ol]() {
        return ol->scheduling_done && ol->backlog.empty() &&
               ol->completed == ol->launched;
      },
      wait_ns);

  RateRow row;
  std::atomic<bool> got{false};
  ol->rt->Execute([ol, rate, drained, &row, &got]() {
    const double secs =
        static_cast<double>(ol->rt->now() - ol->start_ns) / 1e9;
    row.offered = rate;
    row.achieved = secs > 0 ? static_cast<double>(ol->committed) / secs : 0;
    row.mean_ms = ol->lat->Mean() / 1e6;
    row.p50_ms = ol->lat->Quantile(0.50) / 1e6;
    row.p95_ms = ol->lat->Quantile(0.95) / 1e6;
    row.p99_ms = ol->lat->Quantile(0.99) / 1e6;
    row.committed = ol->committed;
    row.completed = ol->completed;
    row.aborted = ol->aborted;
    row.backlog_peak = ol->backlog_peak;
    row.drained = drained;
    got.store(true);
  });
  while (!got.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return row;
}

int Main(int argc, char** argv) {
  LoadgenOptions opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (arg == "--smoke") {
      opt.smoke = true;
      opt.rates = "60";
      opt.duration_ms = 2000;
    } else if (arg == "--sessions") {
      if (const char* v = next()) opt.sessions = std::strtoul(v, nullptr, 10);
    } else if (arg == "--lanes") {
      if (const char* v = next()) opt.lanes = std::strtoul(v, nullptr, 10);
    } else if (arg == "--workers") {
      if (const char* v = next()) opt.workers = std::strtoul(v, nullptr, 10);
    } else if (arg == "--keys") {
      if (const char* v = next()) opt.keys = std::strtoul(v, nullptr, 10);
    } else if (arg == "--duration-ms") {
      if (const char* v = next()) opt.duration_ms = std::strtoull(v, nullptr, 10);
    } else if (arg == "--drain-ms") {
      if (const char* v = next()) opt.drain_ms = std::strtoull(v, nullptr, 10);
    } else if (arg == "--rates") {
      if (const char* v = next()) opt.rates = v;
    } else if (arg == "--arrivals") {
      const char* v = next();
      if (v != nullptr && std::strcmp(v, "fixed") == 0) {
        opt.poisson = false;
      } else if (v == nullptr || std::strcmp(v, "poisson") != 0) {
        std::fprintf(stderr, "--arrivals must be poisson or fixed\n");
        return 1;
      }
    } else if (arg == "--seed") {
      if (const char* v = next()) opt.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--out") {
      if (const char* v = next()) opt.out = v;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return 1;
    }
  }
  if (opt.sessions == 0 || opt.lanes == 0) {
    std::fprintf(stderr, "--sessions and --lanes must be positive\n");
    return 1;
  }

  std::vector<double> rates;
  for (size_t pos = 0; pos < opt.rates.size();) {
    const size_t comma = opt.rates.find(',', pos);
    const size_t end = comma == std::string::npos ? opt.rates.size() : comma;
    const double r = std::strtod(opt.rates.substr(pos, end - pos).c_str(), nullptr);
    if (r <= 0) {
      std::fprintf(stderr, "bad --rates entry in '%s'\n", opt.rates.c_str());
      return 1;
    }
    rates.push_back(r);
    pos = end + 1;
  }

  BasilConfig basil;  // f=1, 1 shard, signatures + batching on (defaults).
  Topology topo;
  topo.num_shards = 1;
  topo.replicas_per_shard = basil.n();
  topo.num_clients = 1;  // The gateway is the deployment's single client node.
  const uint32_t num_nodes = basil.n() + 1;
  const NodeId gw_id = basil.n();

  // Socket budget: `lanes` outbound connections per replica plus each replica's
  // one reply connection back to the gateway.
  const uint32_t gw_sockets = opt.lanes * basil.n() + basil.n();
  if (gw_sockets > 64) {
    std::fprintf(stderr,
                 "lanes=%u needs %u gateway sockets (budget is 64); lower --lanes\n",
                 opt.lanes, gw_sockets);
    return 1;
  }

  const uint16_t port_base =
      static_cast<uint16_t>(23000 + (::getpid() * 37 + 11) % 30000);
  std::vector<PeerAddr> peers;
  peers.reserve(num_nodes);
  for (uint32_t i = 0; i < num_nodes; ++i) {
    peers.push_back({"127.0.0.1", static_cast<uint16_t>(port_base + i)});
  }
  const KeyRegistry keys(num_nodes, /*seed=*/4242, /*enabled=*/true);

  std::printf(
      "basil_loadgen: 1 shard (f=1, 6 replicas), %u logical sessions over %u "
      "lanes (%u gateway sockets), %s arrivals, %llu ms per rate\n",
      opt.sessions, opt.lanes, gw_sockets, opt.poisson ? "poisson" : "fixed",
      static_cast<unsigned long long>(opt.duration_ms));

  std::vector<std::unique_ptr<TcpRuntime>> replica_rts;
  std::vector<std::unique_ptr<BasilReplica>> replicas;
  for (uint32_t i = 0; i < basil.n(); ++i) {
    auto rt = std::make_unique<TcpRuntime>(i, peers, opt.workers);
    if (!rt->Start()) {
      std::fprintf(stderr, "FAIL: replica %u could not bind port %u\n", i,
                   port_base + i);
      return 1;
    }
    replicas.push_back(
        std::make_unique<BasilReplica>(rt.get(), &basil, &topo, &keys));
    replica_rts.push_back(std::move(rt));
  }

  GatewayConfig gcfg;
  gcfg.lanes = opt.lanes;
  auto gw_rt = std::make_unique<TcpRuntime>(
      gw_id, SessionMux::ExtendPeers(peers, basil.n(), opt.lanes), opt.workers);
  if (!gw_rt->Start()) {
    std::fprintf(stderr, "FAIL: gateway could not bind port %u\n",
                 port_base + gw_id);
    for (auto& rt : replica_rts) {
      rt->Stop();
    }
    return 1;
  }
  SessionMux mux(gw_rt.get(), basil.n(), gcfg);
  std::vector<std::unique_ptr<BasilClient>> clients;
  clients.reserve(opt.sessions);
  for (uint32_t s = 0; s < opt.sessions; ++s) {
    SessionRuntime* srt = mux.CreateSession();
    if (srt == nullptr) {
      std::fprintf(stderr, "FAIL: session space exhausted at %u\n", s);
      return 1;
    }
    clients.push_back(std::make_unique<BasilClient>(
        srt, /*client_id=*/srt->id(), &basil, &topo, &keys,
        Rng(opt.seed * 7919 + s)));
  }

  OpenLoop ol;
  ol.clients = &clients;
  ol.rt = gw_rt.get();
  ol.reg = &gw_rt->metrics();
  ol.commit_span = ol.reg->RegisterHistogram("span.openloop_commit_ns");
  ol.keyspace = opt.keys;
  ol.rng.seed(opt.seed);
  ol.poisson = opt.poisson;
  ol.idle.reserve(opt.sessions);
  for (uint32_t s = 0; s < opt.sessions; ++s) {
    ol.idle.push_back(s);
  }

  BenchJson artifact("gateway_openloop");
  artifact.AddParam("smoke", static_cast<uint64_t>(opt.smoke ? 1 : 0));
  artifact.AddParam("sessions", static_cast<uint64_t>(opt.sessions));
  artifact.AddParam("lanes", static_cast<uint64_t>(opt.lanes));
  artifact.AddParam("gateway_sockets", static_cast<uint64_t>(gw_sockets));
  artifact.AddParam("workers", static_cast<uint64_t>(opt.workers));
  artifact.AddParam("keys", static_cast<uint64_t>(opt.keys));
  artifact.AddParam("duration_ms", opt.duration_ms);
  artifact.AddParam("arrivals", std::string(opt.poisson ? "poisson" : "fixed"));
  artifact.AddParam("seed", opt.seed);

  std::printf("  %-12s %12s %10s %10s %10s %10s %10s %12s\n", "offered_tps",
              "achieved_tps", "p50_ms", "p95_ms", "p99_ms", "commits", "aborts",
              "backlog_peak");

  std::vector<RateRow> rows;
  for (size_t i = 0; i < rates.size(); ++i) {
    const RateRow row = RunRate(&ol, opt, rates[i]);
    std::printf("  %-12.1f %12.1f %10.2f %10.2f %10.2f %10llu %10llu %12llu%s\n",
                row.offered, row.achieved, row.p50_ms, row.p95_ms, row.p99_ms,
                static_cast<unsigned long long>(row.committed),
                static_cast<unsigned long long>(row.aborted),
                static_cast<unsigned long long>(row.backlog_peak),
                row.drained ? "" : "  (drain timed out)");
    std::fflush(stdout);

    RunResult rr;
    rr.tput_tps = row.achieved;
    rr.mean_ms = row.mean_ms;
    rr.p50_ms = row.p50_ms;
    rr.p99_ms = row.p99_ms;
    rr.committed = row.committed;
    rr.attempts = row.completed;
    rr.user_aborts = row.aborted;
    rr.commit_rate = row.completed > 0 ? static_cast<double>(row.committed) /
                                             static_cast<double>(row.completed)
                                       : 0;
    char label[64];
    std::snprintf(label, sizeof(label), "offered=%g", row.offered);
    artifact.AddRow(label, rr);
    const std::string suffix = "_r" + std::to_string(i);
    artifact.AddParam("offered" + suffix, row.offered);
    artifact.AddParam("p95_ms" + suffix, row.p95_ms);
    artifact.AddParam("abort_rate" + suffix,
                      row.completed > 0 ? static_cast<double>(row.aborted) /
                                              static_cast<double>(row.completed)
                                        : 0);
    artifact.AddParam("backlog_peak" + suffix, row.backlog_peak);
    artifact.AddParam("drained" + suffix,
                      static_cast<uint64_t>(row.drained ? 1 : 0));
    rows.push_back(row);
  }

  // Gateway accounting for the artifact + the shed guards.
  artifact.AddParam("envelopes_tx", mux.envelopes_tx());
  artifact.AddParam("envelopes_rx", mux.envelopes_rx());
  artifact.AddParam("park_events", mux.park_events());
  artifact.AddParam("dropped_sessions", mux.dropped_sessions());
  uint64_t dropped_frames = gw_rt->dropped_frames();
  for (auto& rt : replica_rts) {
    dropped_frames += rt->dropped_frames();
  }
  artifact.AddParam("dropped_frames", dropped_frames);

  gw_rt->PublishMetrics();
  artifact.AddStages(gw_rt->metrics());
  for (auto& rt : replica_rts) {
    rt->PublishMetrics();
    artifact.AddStages(rt->metrics());
  }
  if (!opt.out.empty()) {
    artifact.WriteFile(opt.out);
    std::printf("  wrote %s\n", opt.out.c_str());
  }

  gw_rt->Stop();
  for (auto& rt : replica_rts) {
    rt->Stop();
  }

  // Shed guards (ISSUE satellites, mirrored from PR 8's benches): open-loop
  // load must flow without losing sessions or frames, and latency must have
  // been recorded at every rate — zero p99 means the row is lying.
  int rc = 0;
  for (size_t i = 0; i < rows.size(); ++i) {
    if (rows[i].committed == 0) {
      std::fprintf(stderr, "FAIL: offered=%g committed nothing\n", rows[i].offered);
      rc = 1;
    } else if (rows[i].p99_ms <= 0) {
      std::fprintf(stderr, "FAIL: offered=%g recorded no commit latency\n",
                   rows[i].offered);
      rc = 1;
    }
  }
  if (mux.dropped_sessions() != 0) {
    std::fprintf(stderr, "FAIL: gateway dropped %llu session(s) under backpressure\n",
                 static_cast<unsigned long long>(mux.dropped_sessions()));
    rc = 1;
  }
  if (dropped_frames != 0) {
    std::fprintf(stderr, "FAIL: %llu outbox frame(s) shed across the deployment\n",
                 static_cast<unsigned long long>(dropped_frames));
    rc = 1;
  }
  if (mux.sessions() != opt.sessions) {
    std::fprintf(stderr, "FAIL: built %zu sessions, wanted %u\n", mux.sessions(),
                 opt.sessions);
    rc = 1;
  }
  return rc;
}

}  // namespace
}  // namespace basil

int main(int argc, char** argv) { return basil::Main(argc, argv); }
