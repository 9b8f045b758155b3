// perfbench load process: one session gateway (src/net/gateway, one lane, so one
// connection per replica) carrying closed-loop BasilClient sessions against a
// running 6-replica basil_node shard. perfbench/run.py starts the replicas and
// this process; see perfbench/README.md for the workloads and metrics.
//
//   perfbench_load --config CFG --workload W --seed S --seconds T --trace 0|1
//                  --replica-pids P0,..,P5 --snap-dir DIR
//                  [--plant lost_update|wrong_read]
//   perfbench_load --calibrate      # host calibration line (HOST ...)
//   perfbench_load --selftest       # the output checks against planted faults
//
// Protocol on stdout: "LOADED <keys>" once the keyspace is committed, then one
// "RESULT {...}" JSON line. A listen-port collision prints "BIND_FAILED" and
// exits with code 3 so the caller can retry on fresh ports.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <dirent.h>
#include <sys/types.h>
#include <unistd.h>

#include "src/basil/client.h"
#include "src/crypto/sha256.h"
#include "src/crypto/signer.h"
#include "src/net/gateway.h"
#include "src/net/peer_config.h"
#include "src/net/tcp_runtime.h"
#include "src/obs/json.h"
#include "src/obs/metrics.h"
#include "src/runtime/task.h"

namespace basil {
namespace {

// ---- Workload shape (README "Inputs") ----
constexpr uint32_t kSessions = 8;
constexpr uint32_t kReadbackSessions = 32;  // Idle until the measured window has closed.
constexpr uint32_t kKeys = 8192;           // Loaded keys: k0 .. k8191.
constexpr uint32_t kZipfKeys = 10'000'000;  // ycsb_zipf draws from the paper's 10M keys.
constexpr uint32_t kRmwPairs = 2;
constexpr uint32_t kReadOnlyReads = 8;
constexpr double kZipfTheta = 0.9;
// Blind writes per load transaction. Kept small because every read reply
// carries the body of the transaction that wrote the version it returns.
constexpr uint32_t kLoadBatch = 8;
constexpr uint32_t kReadbackBatch = 16;  // Reads per verification transaction.
constexpr uint32_t kMaxAttempts = 100;   // A logical txn failing this often counts as failed.
// A read-back batch failing this often fails the run's checks: at the 64 ms
// backoff cap that is about 20 s of retries, inside the 60 s read-back wait.
constexpr uint32_t kReadbackAttempts = 400;
constexpr double kWarmupS = 1.0;
// replica_rss_mb is sampled once this many transactions have committed after the
// load phase, so memory compares at equal work rather than equal time.
constexpr uint64_t kRssAtTxns = 2500;
constexpr int kMaxBackoffShift = 8;  // 64 ms, as in basil_node's client driver.
constexpr uint64_t kSecond = 1'000'000'000ull;

enum class Kind { kUniform, kZipf, kReadOnly };

// 64-byte values (the paper's YCSB value size): a 16-digit counter + filler.
Value EncodeValue(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llu", static_cast<unsigned long long>(v));
  return Value(buf) + std::string(48, 'x');
}

std::optional<uint64_t> DecodeValue(const Value& v) {
  if (v.size() != 64) {
    return std::nullopt;
  }
  uint64_t out = 0;
  for (size_t i = 0; i < 16; ++i) {
    if (v[i] < '0' || v[i] > '9') {
      return std::nullopt;
    }
    out = out * 10 + static_cast<uint64_t>(v[i] - '0');
  }
  return out;
}

Key KeyName(uint32_t k) { return "k" + std::to_string(k); }

// ---- Output checks (exercised against planted faults by --selftest) ----

// True when a read of loaded key `k` returned the value the load phase wrote.
bool ReadIsCorrect(const std::vector<uint64_t>& loaded, uint32_t k,
                   const std::optional<Value>& got) {
  if (!got.has_value()) {
    return false;
  }
  const std::optional<uint64_t> v = DecodeValue(*got);
  return v.has_value() && *v == loaded[k];
}

// The counter a read returned: a key beyond the loaded ones that was never
// written reads as "not found", which counts as 0. Null when the value is not
// a counter, or a loaded key is missing.
std::optional<uint64_t> Counter(uint32_t k, const std::optional<Value>& got) {
  if (!got.has_value()) {
    return k >= kKeys ? std::optional<uint64_t>(0) : std::nullopt;
  }
  return DecodeValue(*got);
}

// No lost update: every key's final value, read back through the protocol,
// equals its loaded value (0 beyond the loaded keys) plus the committed
// increments counted by the load process. `final_values` holds every key read
// back (null when the read-back returned no counter). Returns the keys that
// disagree.
std::vector<uint32_t> LostUpdateKeys(
    const std::vector<uint64_t>& loaded, const std::map<uint32_t, uint64_t>& increments,
    const std::map<uint32_t, std::optional<uint64_t>>& final_values) {
  std::vector<uint32_t> bad;
  for (const auto& [k, got] : final_values) {
    const auto inc = increments.find(k);
    const uint64_t want = (k < loaded.size() ? loaded[k] : 0) +
                          (inc != increments.end() ? inc->second : 0);
    if (!got.has_value() || *got != want) bad.push_back(k);
  }
  for (const auto& [k, inc] : increments) {
    if (inc > 0 && !final_values.contains(k)) bad.push_back(k);  // Never read back.
  }
  return bad;
}

// ---- /proc readers (the replicas are separate processes) ----

struct ProcSample {
  double cpu_s = 0;          // user + sys of all threads.
  uint64_t hwm_kb = 0;       // VmHWM: peak RSS.
  uint64_t threads = 0;
  uint64_t ctx_switches = 0; // Voluntary + involuntary, summed over threads.
};

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

uint64_t StatusField(const std::string& status, const std::string& field) {
  const size_t pos = status.find(field + ":");
  return pos == std::string::npos
             ? 0
             : std::strtoull(status.c_str() + pos + field.size() + 1, nullptr, 10);
}

ProcSample SampleProc(pid_t pid, bool with_ctx_switches) {
  ProcSample s;
  const std::string base = "/proc/" + std::to_string(pid);
  const std::string stat = ReadFile(base + "/stat");
  // Fields after the parenthesised comm: state is field 3, utime 14, stime 15.
  const size_t rp = stat.rfind(')');
  if (rp != std::string::npos) {
    std::istringstream ss(stat.substr(rp + 2));
    std::string tok;
    uint64_t utime = 0;
    uint64_t stime = 0;
    for (int field = 3; field <= 15 && (ss >> tok); ++field) {
      if (field == 14) utime = std::strtoull(tok.c_str(), nullptr, 10);
      if (field == 15) stime = std::strtoull(tok.c_str(), nullptr, 10);
    }
    s.cpu_s = static_cast<double>(utime + stime) / static_cast<double>(sysconf(_SC_CLK_TCK));
  }
  const std::string status = ReadFile(base + "/status");
  s.hwm_kb = StatusField(status, "VmHWM");
  s.threads = StatusField(status, "Threads");
  if (with_ctx_switches) {
    if (DIR* d = opendir((base + "/task").c_str())) {
      while (dirent* e = readdir(d)) {
        if (e->d_name[0] == '.') continue;
        const std::string ts = ReadFile(base + "/task/" + e->d_name + "/status");
        s.ctx_switches += StatusField(ts, "voluntary_ctxt_switches") +
                          StatusField(ts, "nonvoluntary_ctxt_switches");
      }
      closedir(d);
    }
  }
  return s;
}

// ---- Replica metric snapshots (basil-metrics-v1, dumped on SIGUSR1) ----

// Asks every replica for a snapshot and waits until each file parses.
bool DumpSnapshots(const std::vector<pid_t>& pids, const std::string& dir,
                   std::vector<obs::JsonValue>* out) {
  out->assign(pids.size(), obs::JsonValue{});
  for (size_t i = 0; i < pids.size(); ++i) {
    const std::string path = dir + "/replica" + std::to_string(i) + ".json";
    std::remove(path.c_str());
    ::kill(pids[i], SIGUSR1);
  }
  for (size_t i = 0; i < pids.size(); ++i) {
    const std::string path = dir + "/replica" + std::to_string(i) + ".json";
    bool ok = false;
    for (int tries = 0; tries < 500 && !ok; ++tries) {
      std::string err;
      ok = ParseJson(ReadFile(path), &(*out)[i], &err);
      if (!ok) std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    if (!ok) {
      std::fprintf(stderr, "no metrics snapshot from replica %zu\n", i);
      return false;
    }
  }
  return true;
}

uint64_t SnapU64(const obs::JsonValue& s, const std::string& section, const std::string& name) {
  const obs::JsonValue* sec = s.Find(section);
  const obs::JsonValue* v = sec != nullptr ? sec->Find(name) : nullptr;
  return v != nullptr ? v->AsU64() : 0;
}

// Sum over replicas of (end - start) for one counter/gauge/proto value.
double SnapDelta(const std::vector<obs::JsonValue>& a, const std::vector<obs::JsonValue>& b,
                 const std::string& section, const std::string& name) {
  double total = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    total += static_cast<double>(SnapU64(b[i], section, name)) -
             static_cast<double>(SnapU64(a[i], section, name));
  }
  return total;
}

// Adds the window histogram, merged over replicas (end buckets minus start
// buckets), into `h`.
void AddHistDelta(const std::vector<obs::JsonValue>& a, const std::vector<obs::JsonValue>& b,
                  const std::string& name, obs::Histogram* h) {
  auto buckets = [&](const obs::JsonValue& s) {
    std::vector<uint64_t> out(obs::Histogram::kBuckets, 0);
    const obs::JsonValue* hs = s.Find("histograms");
    const obs::JsonValue* hv = hs != nullptr ? hs->Find(name) : nullptr;
    const obs::JsonValue* bv = hv != nullptr ? hv->Find("buckets") : nullptr;
    if (bv != nullptr) {
      for (const obs::JsonValue& pair : bv->arr) {
        if (pair.arr.size() == 2 && pair.arr[0].AsU64() < out.size()) {
          out[pair.arr[0].AsU64()] += pair.arr[1].AsU64();
        }
      }
    }
    return out;
  };
  for (size_t i = 0; i < a.size(); ++i) {
    const std::vector<uint64_t> start = buckets(a[i]);
    const std::vector<uint64_t> end = buckets(b[i]);
    for (uint32_t k = 0; k < obs::Histogram::kBuckets; ++k) {
      if (end[k] > start[k]) h->AddBucket(k, end[k] - start[k]);
    }
  }
}

double HistMedian(const obs::Histogram& h) { return h.Count() > 0 ? h.Quantile(0.5) : 0; }

double DeltaMedian(const std::vector<obs::JsonValue>& a, const std::vector<obs::JsonValue>& b,
                   const std::string& name) {
  obs::Histogram h;
  AddHistDelta(a, b, name, &h);
  return HistMedian(h);
}

// Exact quantile (linear interpolation between order statistics).
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

// ---- Gateway-side reply byte counter (traced windows only) ----
class CountingDemux : public SessionDemux {
 public:
  explicit CountingDemux(SessionMux* mux) : mux_(mux) {}
  void DeliverToSession(NodeId session, NodeId src, MsgPtr msg) override {
    bytes_ += msg->wire_size;
    mux_->DeliverToSession(session, src, std::move(msg));
  }
  uint64_t bytes() const { return bytes_; }

 private:
  SessionMux* const mux_;
  uint64_t bytes_ = 0;  // Loop-confined.
};

// ---- Load-process state: everything below is confined to the gateway loop ----

struct Window {
  bool open = false;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  std::vector<double> commit_latency_ms;  // Logical txn: first attempt -> commit.
  uint64_t committed = 0;
  uint64_t attempts = 0;
  uint64_t failed = 0;
  std::vector<double> get_ms;     // Traced: per Get() call.
  std::vector<double> commit_ms;  // Traced: per Commit() call.
};

struct Bench {
  TcpRuntime* rt = nullptr;
  std::vector<std::unique_ptr<BasilClient>>* clients = nullptr;
  Kind kind = Kind::kUniform;
  std::vector<uint64_t> loaded;      // Per key: the value the load phase wrote.
  std::map<uint32_t, uint64_t> increments;  // Committed increments per key touched.
  std::unique_ptr<ZipfianGenerator> zipf;
  std::vector<Rng> rngs;             // Per session key streams.
  std::vector<Rng> jitter;           // Per session backoff jitter (apart, so keys stay fixed).
  bool stop = false;
  uint32_t running = 0;
  uint32_t loaded_sessions = 0;
  uint64_t wrong_reads = 0;
  std::atomic<uint64_t> committed_total{0};  // Read by the main thread.
  Window* window = nullptr;
  uint64_t rss_kb = 0;  // Main thread only.
  bool traced = false;
  // Read-back results (RMW workloads).
  std::vector<uint32_t> readback_keys;
  std::map<uint32_t, std::optional<uint64_t>> final_values;
  uint32_t readback_sessions = 0;
  uint64_t readback_failures = 0;
};

// Exponential backoff capped at 64 ms, as in basil_node's client driver, with
// the wait drawn from [base/2, base): without jitter, sessions that collided on a
// hot key back off in lockstep and collide again.
uint64_t Backoff(Rng& rng, int shift) {
  const uint64_t base = (1ull << shift) * 250'000;
  return base / 2 + rng.NextUint(base / 2);
}

std::vector<uint32_t> PickKeys(Bench* b, uint32_t s, uint32_t count) {
  std::set<uint32_t> picked;
  Rng& rng = b->rngs[s];
  while (picked.size() < count) {
    picked.insert(static_cast<uint32_t>(b->zipf ? b->zipf->Next(rng)
                                                : rng.NextUint(kKeys)));
  }
  return {picked.begin(), picked.end()};
}

Task<void> LoadSession(Bench* b, uint32_t s) {
  BasilClient* c = (*b->clients)[s].get();
  const uint32_t n = static_cast<uint32_t>(b->loaded.size());
  for (uint32_t first = s * kLoadBatch; first < n; first += kSessions * kLoadBatch) {
    int backoff_shift = 0;
    for (;;) {
      TxnSession& txn = c->BeginTxn();
      for (uint32_t k = first; k < std::min(n, first + kLoadBatch); ++k) {
        txn.Put(KeyName(k), EncodeValue(b->loaded[k]));
      }
      if ((co_await txn.Commit()).committed) break;
      backoff_shift = std::min(backoff_shift + 1, kMaxBackoffShift);
      co_await SleepNs(*c, Backoff(b->jitter[s], backoff_shift));
    }
  }
  ++b->loaded_sessions;
}

// One closed-loop session: each logical transaction is retried on abort with
// backoff (as basil_node's client driver and the paper's clients do) until it
// commits; its latency runs from the first attempt to the commit.
Task<void> RunSession(Bench* b, uint32_t s) {
  BasilClient* c = (*b->clients)[s].get();
  while (!b->stop) {
    const bool read_only = b->kind == Kind::kReadOnly;
    const std::vector<uint32_t> keys = PickKeys(b, s, read_only ? kReadOnlyReads : kRmwPairs);
    const uint64_t t0 = b->rt->now();
    uint32_t attempts = 0;
    bool committed = false;
    int backoff_shift = 0;
    while (attempts < kMaxAttempts) {
      ++attempts;
      Window* w = b->traced ? b->window : nullptr;
      TxnSession& txn = c->BeginTxn();
      bool ok = true;
      for (uint32_t k : keys) {
        const uint64_t read_failures = c->counters().Get("read_failures");
        const uint64_t g0 = b->rt->now();
        std::optional<Value> v = co_await txn.Get(KeyName(k));
        if (w != nullptr) w->get_ms.push_back(static_cast<double>(b->rt->now() - g0) / 1e6);
        if (c->counters().Get("read_failures") != read_failures) {
          ok = false;  // No read quorum: abort and retry.
          break;
        }
        if (read_only && !ReadIsCorrect(b->loaded, k, v)) {
          ++b->wrong_reads;
        }
        if (!read_only) {
          const std::optional<uint64_t> cur = Counter(k, v);
          if (!cur.has_value()) {
            ++b->wrong_reads;  // A loaded key must always hold a counter.
            ok = false;
            break;
          }
          txn.Put(KeyName(k), EncodeValue(*cur + 1));
        }
      }
      if (!ok) {
        co_await txn.Abort();
      } else {
        const uint64_t c0 = b->rt->now();
        const TxnOutcome out = co_await txn.Commit();
        if (w != nullptr) w->commit_ms.push_back(static_cast<double>(b->rt->now() - c0) / 1e6);
        if (out.committed) {
          committed = true;
          break;
        }
      }
      backoff_shift = std::min(backoff_shift + 1, kMaxBackoffShift);
      co_await SleepNs(*c, Backoff(b->jitter[s], backoff_shift));
    }
    if (committed && !read_only) {
      for (uint32_t k : keys) ++b->increments[k];
    } else if (!read_only) {
      for (uint32_t k : keys) b->increments.try_emplace(k, 0);  // Read back all the same.
    }
    if (committed) b->committed_total.fetch_add(1, std::memory_order_relaxed);
    if (Window* w = b->window; w != nullptr && w->open) {
      w->attempts += attempts;
      if (committed) {
        ++w->committed;
        w->commit_latency_ms.push_back(static_cast<double>(b->rt->now() - t0) / 1e6);
      } else {
        ++w->failed;
      }
    }
  }
  --b->running;
}

// Reads every loaded or touched key back through the protocol in committed
// read-only transactions, retried with the measured sessions' backoff. The
// budget rides out a replica the host stalls for a few seconds: while its
// outbox is over the gateway's park threshold, every session's sends park,
// reads to the healthy replicas included, and the reads time out.
Task<void> ReadbackSession(Bench* b, uint32_t s) {
  BasilClient* c = (*b->clients)[kSessions + s].get();
  Rng jitter(s + 1);  // Retry timing only; the keys read back are fixed.
  const std::vector<uint32_t>& keys = b->readback_keys;
  for (size_t first = s * kReadbackBatch; first < keys.size();
       first += kReadbackSessions * kReadbackBatch) {
    const size_t last = std::min(keys.size(), first + kReadbackBatch);
    bool done = false;
    int backoff_shift = 0;
    for (uint32_t attempt = 0; attempt < kReadbackAttempts && !done; ++attempt) {
      TxnSession& txn = c->BeginTxn();
      std::vector<std::optional<uint64_t>> got;
      bool ok = true;
      for (size_t i = first; i < last && ok; ++i) {
        const uint64_t read_failures = c->counters().Get("read_failures");
        got.push_back(Counter(keys[i], co_await txn.Get(KeyName(keys[i]))));
        ok = c->counters().Get("read_failures") == read_failures;
      }
      if (!ok) {
        co_await txn.Abort();
      } else if ((co_await txn.Commit()).committed) {
        for (size_t i = first; i < last; ++i) b->final_values[keys[i]] = got[i - first];
        done = true;
      }
      if (!done) {
        backoff_shift = std::min(backoff_shift + 1, kMaxBackoffShift);
        co_await SleepNs(*c, Backoff(jitter, backoff_shift));
      }
    }
    if (!done) ++b->readback_failures;
  }
  ++b->readback_sessions;
}

// ---- Window bookkeeping seen from the main thread ----

struct EdgeSample {
  std::vector<ProcSample> replicas;
  ProcSample self;
  Counters client;  // Summed over sessions.
  uint64_t envelopes = 0;
  uint64_t msgs = 0;
  uint64_t msgs_rx = 0;  // Replica replies: every message the gateway receives.
  uint64_t bytes_sent = 0;
  uint64_t reply_bytes = 0;
  uint64_t checks = 0;  // Gateway-side signature checks.
  uint64_t pool_misses = 0;
};

// Runs `fn` on the gateway loop and waits for it.
void OnLoop(TcpRuntime& rt, const std::function<void()>& fn) {
  rt.WaitUntil([&]() { fn(); return true; }, 10 * kSecond);
}

struct Deployment {
  TcpRuntime* rt;
  SessionMux* mux;
  CountingDemux* demux;
  std::vector<std::unique_ptr<BasilClient>>* clients;
  std::vector<pid_t> pids;
  std::string snap_dir;
};

EdgeSample SampleEdge(Deployment& d, bool traced) {
  EdgeSample e;
  OnLoop(*d.rt, [&]() {
    for (const auto& c : *d.clients) e.client.Merge(c->counters());
    e.envelopes = d.mux->envelopes_tx() + d.mux->envelopes_rx();
    e.reply_bytes = d.demux->bytes();
  });
  e.msgs_rx = d.rt->messages_received();
  e.msgs = d.rt->messages_sent() + e.msgs_rx;
  e.bytes_sent = d.rt->bytes_sent();
  e.checks = d.rt->inline_checks() + d.rt->offloaded_checks();
  e.pool_misses = d.rt->pool().stats().misses;
  for (pid_t p : d.pids) e.replicas.push_back(SampleProc(p, traced));
  e.self = SampleProc(::getpid(), false);
  return e;
}

uint64_t PeakReplicaRss(const std::vector<pid_t>& pids) {
  uint64_t kb = 0;
  for (pid_t p : pids) kb = std::max(kb, SampleProc(p, false).hwm_kb);
  return kb;
}

// Sleeps for `seconds`, taking the replica RSS sample once kRssAtTxns have
// committed.
void SleepSamplingRss(Bench& bench, const std::vector<pid_t>& pids, double seconds) {
  const auto end = std::chrono::steady_clock::now() + std::chrono::duration<double>(seconds);
  while (std::chrono::steady_clock::now() < end) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    if (bench.rss_kb == 0 && bench.committed_total.load(std::memory_order_relaxed) >= kRssAtTxns) {
      bench.rss_kb = PeakReplicaRss(pids);
    }
  }
}

struct WindowResult {
  double seconds = 0;
  Window w;
  EdgeSample a, b;
  std::vector<obs::JsonValue> snap_a, snap_b;
};

bool MeasureWindow(Deployment& d, Bench& bench, double seconds, bool traced,
                   WindowResult* out) {
  if (traced) {
    OnLoop(*d.rt, [&]() { bench.traced = true; });
    d.rt->SetSessionDemux(d.demux);
    if (!DumpSnapshots(d.pids, d.snap_dir, &out->snap_a)) return false;
  }
  out->a = SampleEdge(d, traced);
  OnLoop(*d.rt, [&]() {
    bench.window = &out->w;
    out->w.open = true;
    out->w.start_ns = d.rt->now();
  });
  SleepSamplingRss(bench, d.pids, seconds);
  OnLoop(*d.rt, [&]() {
    out->w.open = false;
    out->w.end_ns = d.rt->now();
    bench.window = nullptr;
  });
  out->b = SampleEdge(d, traced);
  if (traced) {
    OnLoop(*d.rt, [&]() { bench.traced = false; });
    if (!DumpSnapshots(d.pids, d.snap_dir, &out->snap_b)) return false;
    d.rt->SetSessionDemux(d.mux);
  }
  out->seconds = static_cast<double>(out->w.end_ns - out->w.start_ns) / 1e9;
  return true;
}

// ---- Host calibration: timed calls into src/crypto ----

struct Calibration {
  long nproc = 0;
  double sha256_mb_s = 0;
  double sign_us = 0;
  double verify_us = 0;
};

Calibration Calibrate() {
  using Clock = std::chrono::steady_clock;
  auto secs = [](Clock::time_point a) {
    return std::chrono::duration<double>(Clock::now() - a).count();
  };
  Calibration cal;
  cal.nproc = sysconf(_SC_NPROCESSORS_ONLN);
  std::vector<uint8_t> buf(1024, 0x5a);
  Hash256 h{};
  constexpr int kHashes = 20000;
  auto t = Clock::now();
  for (int i = 0; i < kHashes; ++i) {
    buf[0] = static_cast<uint8_t>(i);
    h = Sha256::Digest(buf);
    buf[1] ^= h[0];
  }
  cal.sha256_mb_s = kHashes * 1024.0 / 1e6 / secs(t);
  const KeyRegistry keys(7, 4242, /*enabled=*/true);
  constexpr int kSigs = 20000;
  std::vector<Signature> sigs;
  sigs.reserve(kSigs);
  t = Clock::now();
  for (int i = 0; i < kSigs; ++i) {
    h[0] = static_cast<uint8_t>(i);
    sigs.push_back(keys.Sign(static_cast<NodeId>(i % 7), h));
  }
  cal.sign_us = secs(t) * 1e6 / kSigs;
  int valid = 0;
  t = Clock::now();
  for (int i = 0; i < kSigs; ++i) {
    h[0] = static_cast<uint8_t>(i);
    valid += keys.Verify(sigs[i], h) ? 1 : 0;
  }
  cal.verify_us = secs(t) * 1e6 / kSigs;
  if (valid != kSigs) cal.verify_us = -1;  // Marks a broken signer.
  return cal;
}

// ---- Self-test of the output checks ----

int SelfTest() {
  int failures = 0;
  auto expect = [&](bool cond, const char* what) {
    std::printf("%s: %s\n", cond ? "ok  " : "FAIL", what);
    failures += cond ? 0 : 1;
  };
  Rng rng(99);
  std::vector<uint64_t> loaded(kKeys);
  std::map<uint32_t, uint64_t> inc;
  std::map<uint32_t, std::optional<uint64_t>> fin;
  for (uint32_t k = 0; k < kKeys; ++k) {
    loaded[k] = rng.NextUint(1'000'000);
    inc[k] = rng.NextUint(5);
    fin[k] = Counter(k, EncodeValue(loaded[k] + inc[k]));
  }
  inc[kKeys + 7] = 3;  // A key beyond the loaded ones: counts from 0.
  fin[kKeys + 7] = Counter(kKeys + 7, EncodeValue(3));
  fin[kKeys + 9] = Counter(kKeys + 9, std::nullopt);  // Touched, never committed.
  expect(LostUpdateKeys(loaded, inc, fin).empty(), "consistent history passes");
  auto lost = fin;
  *lost[17] -= 1;  // One committed increment overwritten.
  expect(LostUpdateKeys(loaded, inc, lost) == std::vector<uint32_t>{17},
         "planted lost update is caught");
  auto beyond = fin;
  beyond[kKeys + 7] = 2;
  expect(LostUpdateKeys(loaded, inc, beyond) == std::vector<uint32_t>{kKeys + 7},
         "lost update beyond the loaded keys is caught");
  auto missing = fin;
  missing[3].reset();
  expect(!LostUpdateKeys(loaded, inc, missing).empty(), "loaded key reading as missing is caught");
  auto unread = fin;
  unread.erase(kKeys + 7);
  expect(!LostUpdateKeys(loaded, inc, unread).empty(), "key never read back is caught");
  expect(ReadIsCorrect(loaded, 5, EncodeValue(loaded[5])), "correct read passes");
  expect(!ReadIsCorrect(loaded, 5, EncodeValue(loaded[5] + 1)),
         "planted wrong read value is caught");
  expect(!ReadIsCorrect(loaded, 5, std::nullopt), "missing read value is caught");
  expect(!ReadIsCorrect(loaded, 5, Value("garbage")), "malformed value is caught");
  return failures == 0 ? 0 : 1;
}

// ---- Main run ----

struct Args {
  std::string config;
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::vector<pid_t> pids;
  std::string snap_dir;
  std::string plant;
};

void AddMetric(obs::JsonWriter& w, const std::string& name, double value, const char* unit) {
  w.Key(name);
  w.BeginObject();
  w.Key("value");
  w.Double(value);
  w.Key("unit");
  w.String(unit);
  w.EndObject();
}

double Cpu(const std::vector<ProcSample>& v) {
  double s = 0;
  for (const ProcSample& p : v) s += p.cpu_s;
  return s;
}

int Run(const Args& a) {
  DeployConfig cfg;
  std::string err;
  if (!DeployConfig::Load(a.config, &cfg, &err)) {
    std::fprintf(stderr, "%s\n", err.c_str());
    return 1;
  }
  Bench bench;
  if (a.workload == "ycsb_uniform" || a.workload == "durable_uniform") {
    bench.kind = Kind::kUniform;
  } else if (a.workload == "ycsb_zipf") {
    bench.kind = Kind::kZipf;
  } else if (a.workload == "read_only") {
    bench.kind = Kind::kReadOnly;
  } else {
    std::fprintf(stderr, "unknown workload: %s\n", a.workload.c_str());
    return 1;
  }
  Rng init(a.seed);
  bench.loaded.resize(kKeys);
  for (uint64_t& v : bench.loaded) v = init.NextUint(1'000'000'000);
  for (uint32_t s = 0; s < kSessions; ++s) {
    bench.rngs.emplace_back(a.seed * 1'000'003 + s + 1);
    bench.jitter.emplace_back(a.seed * 7'777'777 + s + 1);
  }

  const Topology topo = cfg.MakeTopology();
  const KeyRegistry keys(topo.TotalNodes(), cfg.seed, /*enabled=*/true);
  const NodeId gw_id = cfg.num_replicas;  // The config's one client node.
  TcpRuntime rt(gw_id, SessionMux::ExtendPeers(cfg.peers, cfg.num_replicas, 1));
  GatewayConfig gcfg;
  gcfg.lanes = 1;
  SessionMux mux(&rt, cfg.num_replicas, gcfg);
  CountingDemux demux(&mux);
  std::vector<std::unique_ptr<BasilClient>> clients;
  for (uint32_t s = 0; s < kSessions + kReadbackSessions; ++s) {
    SessionRuntime* srt = mux.CreateSession();
    clients.push_back(std::make_unique<BasilClient>(srt, srt->id(), &cfg.basil, &topo, &keys,
                                                    Rng(a.seed * 7919 + s)));
  }
  bench.rt = &rt;
  bench.clients = &clients;
  if (!rt.Start()) {
    std::printf("BIND_FAILED\n");
    std::fflush(stdout);
    return 3;
  }
  Deployment d{&rt, &mux, &demux, &clients, a.pids, a.snap_dir};

  // Load phase: blind writes of every key, split over the sessions.
  OnLoop(rt, [&]() {
    for (uint32_t s = 0; s < kSessions; ++s) Spawn(LoadSession(&bench, s));
  });
  if (!rt.WaitUntil([&]() { return bench.loaded_sessions == kSessions; }, 60 * kSecond)) {
    std::fprintf(stderr, "load phase did not finish\n");
    rt.Stop();
    return 1;
  }
  std::printf("LOADED %u\n", kKeys);
  std::fflush(stdout);
  if (a.plant == "wrong_read") {
    // Every 64th key's real reads are now judged against a value it never held.
    for (uint32_t k = 0; k < kKeys; k += 64) ++bench.loaded[k];
  }

  if (bench.kind == Kind::kZipf) {
    // O(keys) to build, so it is made here rather than inside the timed set-up.
    bench.zipf = std::make_unique<ZipfianGenerator>(kZipfKeys, kZipfTheta);
  }
  OnLoop(rt, [&]() {
    bench.running = kSessions;
    for (uint32_t s = 0; s < kSessions; ++s) Spawn(RunSession(&bench, s));
  });
  SleepSamplingRss(bench, a.pids, kWarmupS);

  // Untraced window; in traced mode, half the time untraced then half traced,
  // so the tracing overhead is the difference between the two.
  WindowResult plain;
  WindowResult traced;
  const double plain_s = a.trace ? a.seconds / 2 : a.seconds;
  bool ok = MeasureWindow(d, bench, plain_s, false, &plain);
  if (ok && a.trace) ok = MeasureWindow(d, bench, a.seconds / 2, true, &traced);

  OnLoop(rt, [&]() { bench.stop = true; });
  const bool drained = rt.WaitUntil([&]() { return bench.running == 0; }, 60 * kSecond);
  bool readback_done = true;
  if (drained && bench.kind != Kind::kReadOnly) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));  // Let writebacks land.
    OnLoop(rt, [&]() {
      for (uint32_t k = 0; k < kKeys; ++k) bench.readback_keys.push_back(k);
      for (const auto& [k, inc] : bench.increments) {
        if (k >= kKeys) bench.readback_keys.push_back(k);
      }
      for (uint32_t s = 0; s < kReadbackSessions; ++s) Spawn(ReadbackSession(&bench, s));
    });
    readback_done = rt.WaitUntil([&]() { return bench.readback_sessions == kReadbackSessions; },
                                 60 * kSecond);
  }
  uint64_t dropped_sessions = 0;
  OnLoop(rt, [&]() { dropped_sessions = mux.dropped_sessions(); });
  rt.Stop();

  // ---- Checks ----
  std::vector<std::string> problems;
  if (!ok) problems.push_back("metric snapshots unavailable");
  if (!drained) problems.push_back("sessions did not drain");
  if (!readback_done || bench.readback_failures > 0) problems.push_back("read-back incomplete");
  if (a.plant == "lost_update") {
    for (auto& [k, inc] : bench.increments) {
      if (inc > 0) {
        --inc;  // Forget one committed increment: the read-back must disagree.
        break;
      }
    }
  }
  if (bench.wrong_reads > 0) {
    problems.push_back(std::to_string(bench.wrong_reads) + " read(s) returned a wrong value");
  }
  if (bench.kind != Kind::kReadOnly && readback_done) {
    const std::vector<uint32_t> bad =
        LostUpdateKeys(bench.loaded, bench.increments, bench.final_values);
    if (!bad.empty()) {
      const uint32_t k = bad.front();
      const std::optional<uint64_t> got = bench.final_values[k];
      problems.push_back(std::to_string(bad.size()) +
                         " key(s) disagree with their counted increments (k" + std::to_string(k) +
                         ": loaded " + std::to_string(k < kKeys ? bench.loaded[k] : 0) + " + " +
                         std::to_string(bench.increments[k]) + " increments, read " +
                         (got ? std::to_string(*got) : "nothing") + ")");
    }
  }
  if (dropped_sessions > 0) problems.push_back("gateway dropped sessions");
  if (rt.dropped_frames() > 0) problems.push_back("gateway shed frames");
  if (rt.decode_failures() > 0) problems.push_back("gateway decode failures");
  if (plain.w.committed == 0) problems.push_back("nothing committed in the window");
  for (const std::string& p : problems) std::fprintf(stderr, "CHECK FAILED: %s\n", p.c_str());

  // ---- Metrics ----
  const Window& w = plain.w;
  const double txns = std::max<double>(1, static_cast<double>(w.committed));
  const double tput = static_cast<double>(w.committed) / plain.seconds;
  const double p50 = Quantile(w.commit_latency_ms, 0.5);
  if (bench.rss_kb == 0) bench.rss_kb = PeakReplicaRss(a.pids);  // Fewer txns than kRssAtTxns.
  std::printf("LATENCY p50_ms=%.3f p90_ms=%.3f p99_ms=%.3f samples=%zu\n", p50,
              Quantile(w.commit_latency_ms, 0.9), Quantile(w.commit_latency_ms, 0.99),
              w.commit_latency_ms.size());

  obs::JsonWriter out;
  out.BeginObject();
  out.Key("correct");
  out.Bool(problems.empty());
  out.Key("attempted");
  out.Uint(w.committed + w.failed);
  out.Key("failed");
  out.Uint(w.failed);
  out.Key("metrics");
  out.BeginObject();
  if (!a.trace) {
    AddMetric(out, "tput_tps", tput, "1/s");
    AddMetric(out, "p50_ms", p50, "ms");
    AddMetric(out, "replica_cpu_ms_per_txn",
              (Cpu(plain.b.replicas) - Cpu(plain.a.replicas)) * 1e3 / txns, "ms");
    AddMetric(out, "client_cpu_ms_per_txn",
              (plain.b.self.cpu_s - plain.a.self.cpu_s) * 1e3 / txns, "ms");
    AddMetric(out, "replica_rss_mb", static_cast<double>(bench.rss_kb) / 1024.0, "MB");
  } else {
    const Window& t = traced.w;
    const EdgeSample& ea = traced.a;
    const EdgeSample& eb = traced.b;
    const std::vector<obs::JsonValue>& sa = traced.snap_a;
    const std::vector<obs::JsonValue>& sb = traced.snap_b;
    const double tt = std::max<double>(1, static_cast<double>(t.committed));
    auto client_delta = [&](const char* name) {
      return static_cast<double>(eb.client.Get(name) - ea.client.Get(name));
    };
    const double fast = client_delta("fastpath_decisions");
    const double slow = client_delta("slowpath_decisions");
    double abort_votes = 0;
    for (const char* r : {"abort_dep_aborted", "abort_dep_missing", "abort_invalid_dep",
                          "abort_read_missed_committed", "abort_read_missed_prepared",
                          "abort_rts", "abort_watermark", "abort_write_invalidates_read"}) {
      abort_votes += SnapDelta(sa, sb, "proto", r);
    }
    obs::Histogram cert;
    AddHistDelta(sa, sb, "span.wb_cert_verify_ns", &cert);
    AddHistDelta(sa, sb, "span.st2_cert_verify_ns", &cert);
    obs::Histogram fsync;
    AddHistDelta(sa, sb, "wal.fsync_ns", &fsync);
    const double batches = SnapDelta(sa, sb, "proto", "batches_flushed");
    double ctx = 0;
    double threads = 0;
    for (size_t i = 0; i < eb.replicas.size(); ++i) {
      ctx += static_cast<double>(eb.replicas[i].ctx_switches - ea.replicas[i].ctx_switches);
      threads += static_cast<double>(eb.replicas[i].threads);
    }
    threads /= std::max<size_t>(1, eb.replicas.size());

    AddMetric(out, "client.get_ms", Quantile(t.get_ms, 0.5), "ms");
    AddMetric(out, "client.commit_ms", Quantile(t.commit_ms, 0.5), "ms");
    AddMetric(out, "client.fast_path_ratio", fast + slow > 0 ? fast / (fast + slow) : 0, "ratio");
    AddMetric(out, "client.attempts_per_txn", static_cast<double>(t.attempts) / tt, "count");
    AddMetric(out, "client.deps_per_txn", client_delta("deps_acquired") / tt, "count");
    AddMetric(out, "client.fallbacks_per_txn", client_delta("fallback_invocations") / tt, "count");
    AddMetric(out, "client.read_retries_per_txn", client_delta("read_retries") / tt, "count");
    AddMetric(out, "replica.abort_votes_per_txn", abort_votes / tt, "count");
    AddMetric(out, "replica.dep_waits_per_txn", SnapDelta(sa, sb, "proto", "dep_waits") / tt,
              "count");
    AddMetric(out, "replica.replies_per_batch",
              batches > 0 ? static_cast<double>(eb.msgs_rx - ea.msgs_rx) / batches : 0, "count");
    AddMetric(out, "replica.st1_to_decision_ms",
              DeltaMedian(sa, sb, "span.st1_to_decision_ns") / 1e6, "ms");
    AddMetric(out, "replica.cert_verify_us", HistMedian(cert) / 1e3, "us");
    AddMetric(out, "net.msgs_per_txn", static_cast<double>(eb.msgs - ea.msgs) / tt, "count");
    AddMetric(out, "net.bytes_per_txn",
              static_cast<double>((eb.bytes_sent - ea.bytes_sent) + (eb.reply_bytes - ea.reply_bytes)) / tt,
              "B");
    AddMetric(out, "net.loop_wait_us",
              DeltaMedian(sa, sb, "rt.loop.queue_wait_ns") / 1e3, "us");
    AddMetric(out, "net.strand_wait_us",
              DeltaMedian(sa, sb, "rt.strand.queue_wait_ns") / 1e3, "us");
    AddMetric(out, "net.crypto_wait_us",
              DeltaMedian(sa, sb, "rt.crypto.queue_wait_ns") / 1e3, "us");
    AddMetric(out, "net.threads_per_replica", threads, "count");
    AddMetric(out, "net.ctx_switches_per_txn", ctx / tt, "count");
    AddMetric(out, "gateway.envelopes_per_txn",
              static_cast<double>(eb.envelopes - ea.envelopes) / tt, "count");
    AddMetric(out, "crypto.verifies_per_txn", static_cast<double>(eb.checks - ea.checks) / tt,
              "count");
    AddMetric(out, "crypto.replica_cert_checks_per_txn", static_cast<double>(cert.Count()) / tt,
              "count");
    const Calibration cal = Calibrate();
    AddMetric(out, "crypto.sign_us", cal.sign_us, "us");
    AddMetric(out, "crypto.verify_us", cal.verify_us, "us");
    AddMetric(out, "crypto.sha256_mb_s", cal.sha256_mb_s, "MB/s");
    AddMetric(out, "store.wal_append_us", DeltaMedian(sa, sb, "wal.append_ns") / 1e3,
              "us");
    AddMetric(out, "store.wal_fsync_ms", HistMedian(fsync) / 1e6, "ms");
    AddMetric(out, "store.wal_fsyncs_per_txn", static_cast<double>(fsync.Count()) / tt, "count");
    AddMetric(out, "common.pool_misses_per_txn",
              (SnapDelta(sa, sb, "gauges", "rt.alloc.pool_misses") +
               static_cast<double>(eb.pool_misses - ea.pool_misses)) / tt,
              "count");
    const double traced_tput = static_cast<double>(t.committed) / traced.seconds;
    AddMetric(out, "trace.overhead_tput_tps", traced_tput - tput, "1/s");
    AddMetric(out, "trace.overhead_p50_ms", Quantile(t.commit_latency_ms, 0.5) - p50, "ms");
  }
  out.EndObject();
  out.EndObject();
  std::printf("RESULT %s\n", out.text().c_str());
  std::fflush(stdout);
  return 0;
}

int Main(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string { return i + 1 < argc ? argv[++i] : ""; };
    if (arg == "--selftest") {
      return SelfTest();
    } else if (arg == "--calibrate") {
      const Calibration c = Calibrate();
      std::printf("HOST nproc=%ld sha256_mb_s=%.1f sign_us=%.3f verify_us=%.3f\n", c.nproc,
                  c.sha256_mb_s, c.sign_us, c.verify_us);
      return c.verify_us > 0 ? 0 : 1;
    } else if (arg == "--config") {
      a.config = next();
    } else if (arg == "--workload") {
      a.workload = next();
    } else if (arg == "--seed") {
      a.seed = std::strtoull(next().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      a.seconds = std::strtod(next().c_str(), nullptr);
    } else if (arg == "--trace") {
      a.trace = next() == "1";
    } else if (arg == "--replica-pids") {
      std::stringstream ss(next());
      std::string tok;
      while (std::getline(ss, tok, ',')) a.pids.push_back(static_cast<pid_t>(std::stol(tok)));
    } else if (arg == "--snap-dir") {
      a.snap_dir = next();
    } else if (arg == "--plant") {
      a.plant = next();
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return 1;
    }
  }
  if (a.config.empty() || a.workload.empty() || a.seconds <= 0 ||
      a.pids.empty() ||
      (!a.plant.empty() && a.plant != "lost_update" && a.plant != "wrong_read")) {
    std::fprintf(stderr, "perfbench_load: missing or bad arguments\n");
    return 1;
  }
  return Run(a);
}

}  // namespace
}  // namespace basil

int main(int argc, char** argv) { return basil::Main(argc, argv); }
