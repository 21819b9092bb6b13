// pass_bench: the repository's end-to-end benchmark.
//
//   pass_bench --workload <record|ingest|query|mixed> --seed <n>
//              [--seconds <s>] [--trace <file>]
//
// Runs passes of the workload (see workload.h) one after another, in this
// one process on one thread, as a closed loop with one client, until
// --seconds have elapsed. Untraced, it prints every end-to-end metric. With
// --trace, every pass runs twice on the same inputs, untraced then under
// spans, and it prints every per-layer metric and writes the first traced
// pass as Chrome trace-event JSON to <file>.
//
// Output: one "# metric <name> <value> <unit> <n>" line per metric, the
// per-layer self-time table as "# self <layer> <ns>" lines, and last one
// JSON object {"correct", "attempted", "failed", "metrics"}. The exit code
// is 0 only when every correctness gate passed.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "workload.h"

namespace e2e {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"op_p50_ms", "ms"},
    {"op_p90_ms", "ms"},
    {"ops_per_s", "1/s"},
    {"peak_rss_mb", "MB"},
    {"prov_bytes_per_event", "B"},
    {"prov_space_pct", "%"},
};

// Units of values that repeat exactly per seed: count, B, ratio, sim_*.
constexpr MetricDef kPerLayer[] = {
    // Per-operation wall time and throughput of each timed call kind.
    {"record_mb_per_s", "MB/s"},
    {"ingest_events_per_s", "1/s"},
    {"ingest_round_p50_ms", "ms"},
    {"ingest_round_p99_ms", "ms"},
    {"query_p50_ms", "ms"},
    {"query_p99_ms", "ms"},
    {"refresh_p50_ms", "ms"},
    {"refresh_p90_ms", "ms"},
    {"migrate_p50_ms", "ms"},
    {"audit_p50_ms", "ms"},
    {"recover_p50_ms", "ms"},
    {"failed_op_share", "share"},
    // os / fs
    {"os.vanilla_mb_per_s", "MB/s"},
    {"os.syscall_us", "us"},
    {"os.syscalls", "count"},
    // core / lasagna
    {"lasagna.path_ms_per_job", "ms"},
    {"core.disclose_us", "us"},
    {"core.discloses", "count"},
    {"lasagna.records_logged", "count"},
    {"lasagna.prov_bytes_logged", "B"},
    {"lasagna.txns", "count"},
    // waldo
    {"waldo.drain_ms_per_job", "ms"},
    {"waldo.rows_per_s", "1/s"},
    {"waldo.db_bytes", "B"},
    {"waldo.index_bytes", "B"},
    {"waldo.rows", "count"},
    // cluster ingest / journal
    {"cluster.sync_ms_p50", "ms"},
    {"cluster.sync_ms_p99", "ms"},
    {"ingest.entries_replicated", "count"},
    {"ingest.batches_sent", "count"},
    {"ingest.bytes_sent", "B"},
    {"ingest.group_commits", "count"},
    {"ingest.frames_per_group", "ratio"},
    {"journal.bytes", "B"},
    {"ingest.ack_sim_us_p50", "sim_us"},
    {"ingest.overlap_fraction", "ratio"},
    {"ingest.backpressure_sim_ms", "sim_ms"},
    // pql
    {"pql.parse_us", "us"},
    {"pql.eval_self_ms_p50", "ms"},
    {"pql.eval_self_ms_p99", "ms"},
    {"pql.source_calls_per_query", "ratio"},
    {"pql.rows_examined_per_row_returned", "ratio"},
    // federated / portal
    {"federated.source_ms_p50", "ms"},
    {"federated.remote_ops", "count"},
    {"federated.local_ops", "count"},
    {"federated.remote_bytes", "B"},
    {"federated.cache_hit_ratio", "ratio"},
    {"federated.cache_evictions", "count"},
    {"federated.cache_entries_invalidated", "count"},
    {"portal.query_sim_us_p50", "sim_us"},
    {"portal.query_sim_us_p99", "sim_us"},
    // standing
    {"standing.frontier_entries", "count"},
    {"standing.affected_roots", "count"},
    {"standing.affected_roots_per_frontier_entry", "ratio"},
    {"standing.rows_touched", "count"},
    {"standing.eval_rpcs", "count"},
    {"standing.frontier_rpcs", "count"},
    {"standing.full_evals", "count"},
    {"standing.walk_overflows", "count"},
    // migrate / auditor / recover
    {"migrate.entries_shipped", "count"},
    {"migrate.entries_skipped", "count"},
    {"migrate.bytes", "B"},
    {"audit.bytes_hashed", "B"},
    {"audit.frames_verified", "count"},
    {"audit.mb_per_s", "MB/s"},
    {"recover.journal_records_scanned", "count"},
    {"recover.batches_redelivered", "count"},
    {"recover.entries_reapplied", "count"},
    // sim model outputs
    {"sim.elapsed_s", "sim_s"},
    {"sim.record_overhead_pct", "sim_%"},
    {"sim.disk_seeks", "count"},
    {"sim.disk_bytes_written", "B"},
    {"sim.net_round_trips", "count"},
    {"sim.net_bytes", "B"},
    // self time per layer per traced pass, and the harness
    {"workloads.self_ms", "ms"},
    {"os.self_ms", "ms"},
    {"core.self_ms", "ms"},
    {"waldo.self_ms", "ms"},
    {"cluster.self_ms", "ms"},
    {"portal.self_ms", "ms"},
    {"pql.self_ms", "ms"},
    {"federated.self_ms", "ms"},
    {"standing.self_ms", "ms"},
    {"auditor.self_ms", "ms"},
    {"bench.self_ms", "ms"},
    {"trace.total_ms", "ms"},
    {"trace.overhead_pct", "%"},
};

// Span-name prefixes (the src/ module each timed call enters) in the order
// the self-time table prints them.
constexpr const char* kLayers[] = {"workloads", "os",        "core",
                                   "waldo",     "cluster",   "portal",
                                   "pql",       "federated", "standing",
                                   "auditor",   "bench"};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  std::string trace;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    std::string value;
    size_t eq = flag.find('=');
    if (eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag = flag.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return false;
    }
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') {
        return false;
      }
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(args->seconds > 0)) {
        return false;
      }
    } else if (flag == "--trace") {
      args->trace = value == "0" ? "" : value;
    } else {
      return false;
    }
  }
  return !args->workload.empty();
}

std::unique_ptr<Workload> Make(const std::string& name) {
  if (name == "record") return MakeRecord();
  if (name == "ingest") return MakeIngest();
  if (name == "query") return MakeQuery();
  if (name == "mixed") return MakeMixed();
  return nullptr;
}

double Div(double a, double b) { return b == 0 ? 0 : a / b; }

// Peak RSS is read once this many passes are done, not at exit: a faster
// build runs more passes in the same time, and the maximum over more passes
// would read as a memory regression. record and mixed reach it in a run;
// ingest and query, whose footprints barely vary by seed, read at exit.
constexpr int kRssPasses = 10;

// Everything a run accumulates over its passes. Operation timings are
// summarised per pass and reported as the median over passes, so a burst of
// host contention moves a few passes rather than the run's result.
struct Run {
  std::vector<double> setups_s;
  std::vector<double> pass_p50_ms;
  std::vector<double> pass_p90_ms;
  std::vector<double> pass_ops_per_s;
  size_t ops = 0;
  double rss_mb = 0;
  uint64_t failed = 0;
  int passes = 0;
  int traced_passes = 0;
  std::map<std::string, std::vector<double>> samples;
  std::map<std::string, std::vector<double>> traced_samples;
  std::map<std::string, double> sums;
  std::map<std::string, double> counts;  // the first pass's
  WallNs untraced_timed_ns = 0;  // set-ups + operations, twins only
  WallNs traced_timed_ns = 0;
  std::string error;

  static WallNs TimedNs(const PassResult& r) {
    WallNs total = 0;
    for (WallNs ns : r.setups) total += ns;
    for (WallNs ns : r.ops) total += ns;
    return total;
  }

  void Add(const PassResult& r) {
    for (WallNs ns : r.setups) {
      setups_s.push_back(static_cast<double>(ns) / 1e9);
    }
    std::vector<double> ms;
    WallNs total = 0;
    for (WallNs ns : r.ops) {
      ms.push_back(Ms(ns));
      total += ns;
    }
    if (!ms.empty()) {
      pass_p50_ms.push_back(Quantile(ms, 0.5));
      pass_p90_ms.push_back(Quantile(ms, 0.9));
      pass_ops_per_s.push_back(
          Div(static_cast<double>(ms.size()), total / 1e9));
    }
    ops += ms.size();
    failed += r.failed;
    for (const auto& [key, values] : r.samples) {
      auto& into = samples[key];
      into.insert(into.end(), values.begin(), values.end());
    }
    for (const auto& [key, value] : r.sums) sums[key] += value;
    if (passes == 0) counts = r.counts;
    if (error.empty()) error = r.error;
    if (++passes == kRssPasses) rss_mb = PeakRssMb();
  }

  void AddTraced(const PassResult& twin, const PassResult& r) {
    for (const auto& [key, values] : r.samples) {
      auto& into = traced_samples[key];
      into.insert(into.end(), values.begin(), values.end());
    }
    if (traced_passes == 0) counts.insert(r.counts.begin(), r.counts.end());
    if (r.digest != twin.digest && error.empty()) {
      error = "traced pass produced different outputs than its twin";
    }
    untraced_timed_ns += TimedNs(twin);
    traced_timed_ns += TimedNs(r);
    ++traced_passes;
  }
};

double Get(const std::map<std::string, double>& m, const std::string& key) {
  auto it = m.find(key);
  return it == m.end() ? 0 : it->second;
}

struct Value {
  double value = 0;
  size_t n = 0;
};

std::map<std::string, Value> EndToEnd(const Run& run) {
  std::map<std::string, Value> m;
  m["setup_s"] = {Quantile(run.setups_s, 0.5), run.setups_s.size()};
  m["op_p50_ms"] = {Quantile(run.pass_p50_ms, 0.5), run.ops};
  m["op_p90_ms"] = {Quantile(run.pass_p90_ms, 0.5), run.ops};
  m["ops_per_s"] = {Quantile(run.pass_ops_per_s, 0.5), run.ops};
  m["peak_rss_mb"] = {run.rss_mb > 0 ? run.rss_mb : PeakRssMb(),
                      static_cast<size_t>(std::min(run.passes, kRssPasses))};
  size_t passes = static_cast<size_t>(run.passes);
  m["prov_bytes_per_event"] = {
      Div(Get(run.sums, "e2e.prov_bytes"), Get(run.sums, "e2e.events")),
      passes};
  m["prov_space_pct"] = {Div(Get(run.sums, "e2e.provdb_bytes"),
                             Get(run.sums, "e2e.user_bytes")) *
                             100.0,
                         passes};
  return m;
}

std::map<std::string, Value> PerLayer(const Run& run, const Tracer& tracer) {
  std::map<std::string, Value> m;
  auto q = [&](const char* key, double quantile, bool traced = false) {
    const auto& pool = traced ? run.traced_samples : run.samples;
    auto it = pool.find(key);
    if (it == pool.end()) return Value{};
    return Value{Quantile(it->second, quantile), it->second.size()};
  };
  auto sum = [&](const char* key) { return Get(run.sums, key); };
  auto rate = [&](const char* num, const char* den, double scale) {
    return Value{Div(sum(num), sum(den)) * scale,
                 sum(den) > 0 ? static_cast<size_t>(run.passes) : 0};
  };
  for (const auto& [key, value] : run.counts) {
    m[key] = {value, 1};
  }
  auto count = [&](const char* key) { return Get(run.counts, key); };

  m["record_mb_per_s"] = rate("record.user_bytes", "record.op_ns", 1e3);
  m["ingest_events_per_s"] = rate("ingest.events", "ingest.round_ns", 1e9);
  m["ingest_round_p50_ms"] = q("ingest.round_ms", 0.5);
  m["ingest_round_p99_ms"] = q("ingest.round_ms", 0.99);
  m["query_p50_ms"] = q("query_ms", 0.5);
  m["query_p99_ms"] = q("query_ms", 0.99);
  m["refresh_p50_ms"] = q("standing.refresh_ms", 0.5);
  m["refresh_p90_ms"] = q("standing.refresh_ms", 0.9);
  m["migrate_p50_ms"] = q("cluster.migrate_ms", 0.5);
  m["audit_p50_ms"] = q("auditor.audit_ms", 0.5);
  m["recover_p50_ms"] = q("cluster.recover_ms", 0.5);
  size_t attempted = run.ops;
  m["failed_op_share"] = {
      Div(static_cast<double>(run.failed), static_cast<double>(attempted)),
      attempted};

  m["os.vanilla_mb_per_s"] =
      rate("record.vanilla_bytes", "record.vanilla_ns", 1e3);
  if (sum("record.vanilla_ns") > 0) {
    m["lasagna.path_ms_per_job"] = {
        (sum("record.run_ns") - sum("record.vanilla_ns")) /
            sum("record.jobs") / 1e6,
        static_cast<size_t>(sum("record.jobs"))};
  }
  m["waldo.drain_ms_per_job"] = rate("record.drain_ns", "record.jobs", 1e-6);
  m["waldo.rows_per_s"] = rate("record.rows_drained", "record.drain_ns", 1e9);
  m["cluster.sync_ms_p50"] = q("cluster.sync_ms", 0.5);
  m["cluster.sync_ms_p99"] = q("cluster.sync_ms", 0.99);
  m["pql.eval_self_ms_p50"] = q("pql.eval_self_ms", 0.5, true);
  m["pql.eval_self_ms_p99"] = q("pql.eval_self_ms", 0.99, true);
  m["pql.source_calls_per_query"] = {
      Div(count("pql.source_calls"), count("pql.queries")), 1};
  m["pql.rows_examined_per_row_returned"] = {
      Div(count("pql.rows_examined"), count("pql.rows_returned")), 1};
  m["federated.source_ms_p50"] = q("federated.source_ms", 0.5, true);
  m["audit.mb_per_s"] = rate("audit.bytes_hashed", "audit.ns", 1e3);

  // Span-derived: mean call time and self time per layer per traced pass.
  auto span_mean_us = [&](const std::string& prefix) {
    SpanTotals t;
    for (const auto& [name, totals] : tracer.totals()) {
      if (name.compare(0, prefix.size(), prefix) == 0) {
        t.count += totals.count;
        t.total_ns += totals.total_ns;
      }
    }
    return Value{Div(static_cast<double>(t.total_ns), t.count * 1e3), t.count};
  };
  m["os.syscall_us"] = span_mean_us("os.");
  m["core.disclose_us"] = span_mean_us("core.disclose");
  m["pql.parse_us"] = span_mean_us("pql.parse");
  double traced = run.traced_passes;
  size_t n = static_cast<size_t>(run.traced_passes);
  for (const char* layer : kLayers) {
    std::string prefix = std::string(layer) + ".";
    WallNs self = 0;
    for (const auto& [name, totals] : tracer.totals()) {
      if (name.compare(0, prefix.size(), prefix) == 0) self += totals.self_ns;
    }
    m[prefix + "self_ms"] = {Div(static_cast<double>(self), traced) / 1e6, n};
  }
  m["trace.total_ms"] = {
      Div(static_cast<double>(tracer.root_ns()), traced) / 1e6, n};
  m["trace.overhead_pct"] = {
      (Div(static_cast<double>(run.traced_timed_ns),
           static_cast<double>(run.untraced_timed_ns)) -
       1.0) * 100.0,
      n};
  return m;
}

// The per-layer self-time table in integer nanoseconds. Returns false if a
// span names no known layer or the table does not sum to the traced total.
bool PrintSelfTable(const Tracer& tracer) {
  std::map<std::string, WallNs> by_layer;
  WallNs sum = 0;
  for (const auto& [name, totals] : tracer.totals()) {
    std::string layer = name.substr(0, name.find('.'));
    bool known = false;
    for (const char* l : kLayers) known = known || layer == l;
    if (!known) {
      std::fprintf(stderr, "span %s names no known layer\n", name.c_str());
      return false;
    }
    by_layer[layer] += totals.self_ns;
    sum += totals.self_ns;
  }
  for (const char* layer : kLayers) {
    std::printf("# self %s %lld\n", layer,
                static_cast<long long>(by_layer[layer]));
  }
  std::printf("# self-sum %lld traced-total %lld\n",
              static_cast<long long>(sum),
              static_cast<long long>(tracer.root_ns()));
  return sum == tracer.root_ns();
}

void PrintMetrics(const MetricDef* defs, size_t count,
                  std::map<std::string, Value> values, std::string* json) {
  for (size_t i = 0; i < count; ++i) {
    Value v = values[defs[i].name];
    double value = std::isfinite(v.value) ? v.value : 0;
    std::printf("# metric %s %.17g %s %zu\n", defs[i].name, value,
                defs[i].unit, v.n);
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", defs[i].name, value, defs[i].unit);
    *json += buf;
  }
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: pass_bench --workload <record|ingest|query|mixed> "
                 "--seed <n> [--seconds <s>] [--trace <file>]\n");
    return 2;
  }
  std::unique_ptr<Workload> workload = Make(args.workload);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  bool traced = !args.trace.empty();
  Tracer tracer(/*export_cap=*/50000);
  Run run;
  WallNs budget = static_cast<WallNs>(args.seconds * 1e9);
  WallNs start = Now();
  for (uint64_t pass = 0; run.passes == 0 || Now() - start < budget; ++pass) {
    uint64_t seed = MixSeed(args.seed, pass);
    PassMode plain;
    plain.reference = traced;
    PassResult twin = workload->RunPass(seed, plain);
    run.Add(twin);
    if (traced) {
      PassMode mode;
      mode.tracer = &tracer;
      mode.check = false;
      PassResult r;
      {
        Span root(&tracer, "bench.pass");
        r = workload->RunPass(seed, mode);
      }
      tracer.StopExport();
      run.AddTraced(twin, r);
    }
    if (!run.error.empty()) {
      break;
    }
  }

  std::string json;
  if (traced) {
    if (!PrintSelfTable(tracer) && run.error.empty()) {
      run.error = "self times do not sum to the traced total";
    }
    if (!tracer.WriteChromeTrace(args.trace) && run.error.empty()) {
      run.error = "cannot write " + args.trace;
    }
    PrintMetrics(kPerLayer, std::size(kPerLayer), PerLayer(run, tracer), &json);
  } else {
    PrintMetrics(kEndToEnd, std::size(kEndToEnd), EndToEnd(run), &json);
  }
  if (!run.error.empty()) {
    std::fprintf(stderr, "%s: %s\n", args.workload.c_str(), run.error.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              run.error.empty() ? "true" : "false",
              std::max<size_t>(run.ops, 1),
              static_cast<unsigned long long>(run.failed), json.c_str());
  return run.error.empty() ? 0 : 1;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) { return e2e::Main(argc, argv); }
