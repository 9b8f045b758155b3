#include "src/harness/report.h"

#include <cinttypes>
#include <cstdio>

#include "src/obs/json.h"

namespace basil {

void PrintBanner(const std::string& title) {
  std::printf("\n== %s ==\n", title.c_str());
}

Table::Table(std::vector<std::string> columns) : columns_(std::move(columns)) {}

void Table::AddRow(std::vector<std::string> cells) { rows_.push_back(std::move(cells)); }

void Table::Print() const {
  std::vector<size_t> widths(columns_.size());
  for (size_t i = 0; i < columns_.size(); ++i) {
    widths[i] = columns_[i].size();
  }
  for (const auto& row : rows_) {
    for (size_t i = 0; i < row.size() && i < widths.size(); ++i) {
      widths[i] = std::max(widths[i], row[i].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    for (size_t i = 0; i < columns_.size(); ++i) {
      const std::string& cell = i < row.size() ? row[i] : std::string();
      std::printf("%-*s  ", static_cast<int>(widths[i]), cell.c_str());
    }
    std::printf("\n");
  };
  print_row(columns_);
  for (const auto& row : rows_) {
    print_row(row);
  }
}

std::string FmtTput(double tps) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.0f", tps);
  return buf;
}

std::string FmtMs(double ms) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.2f", ms);
  return buf;
}

std::string FmtPct(double fraction) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.1f%%", fraction * 100.0);
  return buf;
}

std::string FmtX(double ratio) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.1fx", ratio);
  return buf;
}

std::string FmtKb(double bytes) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.1fKB", bytes / 1024.0);
  return buf;
}

// ---------------------------------------------------------------------------
// BENCH_*.json artifacts ("basil-bench-v1", docs/OBSERVABILITY.md).
// ---------------------------------------------------------------------------

BenchJson::BenchJson(std::string bench) : bench_(std::move(bench)) {}

void BenchJson::AddParam(const std::string& key, const std::string& value) {
  params_.emplace_back(key, "\"" + obs::JsonEscape(value) + "\"");
}

void BenchJson::AddParam(const std::string& key, uint64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, value);
  params_.emplace_back(key, buf);
}

void BenchJson::AddParam(const std::string& key, double value) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  params_.emplace_back(key, buf);
}

void BenchJson::AddRow(const std::string& label, const RunResult& r) {
  rows_.push_back(Row{label, r});
}

void BenchJson::AddStages(const obs::MetricsRegistry& reg) { stages_.MergeFrom(reg); }

std::string BenchJson::Text() const {
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("schema");
  w.String("basil-bench-v1");
  w.Key("bench");
  w.String(bench_);
  w.Key("params");
  w.BeginObject();
  for (const auto& [key, encoded] : params_) {
    w.Key(key);
    w.RawValue(encoded);
  }
  w.EndObject();
  w.Key("rows");
  w.BeginArray();
  for (const Row& row : rows_) {
    const RunResult& r = row.r;
    w.BeginObject();
    w.Key("label");
    w.String(row.label);
    w.Key("tput_tps");
    w.Double(r.tput_tps);
    w.Key("mean_ms");
    w.Double(r.mean_ms);
    w.Key("p50_ms");
    w.Double(r.p50_ms);
    w.Key("p99_ms");
    w.Double(r.p99_ms);
    w.Key("commit_rate");
    w.Double(r.commit_rate);
    w.Key("committed");
    w.Uint(r.committed);
    w.Key("attempts");
    w.Uint(r.attempts);
    w.Key("wire_bytes");
    w.Uint(r.wire_bytes);
    w.Key("wire_bytes_per_txn");
    w.Double(r.wire_bytes_per_txn);
    w.EndObject();
  }
  w.EndArray();
  // Per-stage latency summary: every histogram with samples, keyed by metric name,
  // percentiles straight out of obs::Histogram.
  w.Key("stages");
  w.BeginObject();
  stages_.ForEachMetric([&](const std::string& name, obs::MetricKind kind,
                            obs::MetricId id) {
    if (kind != obs::MetricKind::kHistogram) {
      return;
    }
    const obs::Histogram* h = stages_.histogram(id);
    if (h == nullptr || h->Count() == 0) {
      return;
    }
    w.Key(name);
    w.BeginObject();
    w.Key("count");
    w.Uint(h->Count());
    w.Key("mean");
    w.Double(h->Mean());
    w.Key("p50");
    w.Double(h->Quantile(0.50));
    w.Key("p95");
    w.Double(h->Quantile(0.95));
    w.Key("p99");
    w.Double(h->Quantile(0.99));
    w.Key("max");
    w.Uint(h->Max());
    w.EndObject();
  });
  w.EndObject();
  // Full-fidelity dump (counters, gauges, raw histogram buckets) for downstream
  // tooling that wants to recompute or re-merge.
  w.Key("metrics");
  w.BeginObject();
  stages_.WriteJson(w);
  w.EndObject();
  w.EndObject();
  return w.Take();
}

bool BenchJson::WriteFile(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "BENCH artifact: cannot open %s\n", path.c_str());
    return false;
  }
  const std::string text = Text();
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size() &&
                  std::fputc('\n', f) != EOF;
  std::fclose(f);
  if (ok) {
    std::printf("BENCH artifact: %s\n", path.c_str());
  }
  return ok;
}

void FillFromMergedMetrics(const obs::MetricsRegistry& merged, RunResult* r) {
  if (const obs::Histogram* h = merged.histogram(merged.Find("span.client_commit_ns"));
      h != nullptr && h->Count() > 0) {
    r->mean_ms = h->Mean() / 1e6;
    r->p50_ms = h->Quantile(0.5) / 1e6;
    r->p99_ms = h->Quantile(0.99) / 1e6;
  }
  r->wire_bytes = merged.CounterValue(merged.Find("rt.net.bytes_sent"));
  r->wire_bytes_per_txn = r->committed > 0 ? static_cast<double>(r->wire_bytes) /
                                                 static_cast<double>(r->committed)
                                           : 0;
}

std::string Summarize(const RunResult& r) {
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "tput=%.0f tx/s mean=%.2fms p50=%.2fms p99=%.2fms commit-rate=%.1f%% "
                "(committed=%" PRIu64 ") wire/txn=%s",
                r.tput_tps, r.mean_ms, r.p50_ms, r.p99_ms, r.commit_rate * 100.0,
                r.committed, FmtKb(r.wire_bytes_per_txn).c_str());
  return buf;
}

}  // namespace basil
