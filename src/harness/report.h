// Plain-text table printers for the benchmark binaries (each bench prints the same
// rows/series its paper figure reports), plus the machine-readable BENCH_*.json
// artifact writer (schema "basil-bench-v1", docs/OBSERVABILITY.md).
#ifndef BASIL_SRC_HARNESS_REPORT_H_
#define BASIL_SRC_HARNESS_REPORT_H_

#include <string>
#include <utility>
#include <vector>

#include "src/harness/driver.h"
#include "src/obs/metrics.h"

namespace basil {

// "== Figure 4a: ... ==" banner.
void PrintBanner(const std::string& title);

// Generic fixed-width table.
class Table {
 public:
  explicit Table(std::vector<std::string> columns);
  void AddRow(std::vector<std::string> cells);
  void Print() const;

 private:
  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;
};

std::string FmtTput(double tps);
std::string FmtMs(double ms);
std::string FmtPct(double fraction);
std::string FmtX(double ratio);  // "3.4x".
std::string FmtKb(double bytes);  // "1.4KB".

// One-line summary of a run (throughput, latency, commit rate, measured wire bytes
// per committed transaction).
std::string Summarize(const RunResult& r);

// Fills a real-socket row's latency and wire fields from a registry merged across
// the deployment's runtimes or snapshots: mean/p50/p99 from the client commit span
// histogram (exact merged buckets, never averaged percentiles), wire_bytes from the
// transport's rt.net.bytes_sent counters, and wire_bytes_per_txn over
// `r->committed`, which the caller sets first. Fields without data stay 0.
void FillFromMergedMetrics(const obs::MetricsRegistry& merged, RunResult* r);

// Accumulates one benchmark's results into a BENCH_*.json artifact
// ("basil-bench-v1"): run parameters, per-row throughput/latency numbers, and
// per-stage latency distributions folded in from runtime metrics registries.
// Percentiles come from obs::Histogram — the same bucketed type the live metrics
// use — so the artifact and a SIGUSR1 snapshot agree on the math.
class BenchJson {
 public:
  explicit BenchJson(std::string bench);

  void AddParam(const std::string& key, const std::string& value);
  void AddParam(const std::string& key, uint64_t value);
  void AddParam(const std::string& key, double value);

  // One result row (a point on the bench's figure).
  void AddRow(const std::string& label, const RunResult& r);

  // Folds `reg`'s metrics into the artifact (mergeable across runtimes: call once
  // per replica/client runtime; histograms add bucket-wise).
  void AddStages(const obs::MetricsRegistry& reg);

  std::string Text() const;
  // Serializes to `path`; prints "BENCH artifact: <path>" on success.
  bool WriteFile(const std::string& path) const;

 private:
  std::string bench_;
  std::vector<std::pair<std::string, std::string>> params_;  // key -> encoded JSON.
  struct Row {
    std::string label;
    RunResult r;
  };
  std::vector<Row> rows_;
  obs::MetricsRegistry stages_;  // Merged runtime metrics across AddStages calls.
};

}  // namespace basil

#endif  // BASIL_SRC_HARNESS_REPORT_H_
