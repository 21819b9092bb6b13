#include "cluster_util.h"

#include <set>
#include <utility>

#include "src/pql/parser.h"

namespace e2e {

using pass::cluster::ClusterCoordinator;
using pass::cluster::FederatedStats;
using pass::pql::Node;
using pass::pql::QueryResult;

const char kCrossTaintQuery[] =
    "select P.name from Provenance.process as P P.input* as A "
    "where A.taint = 1";
const char kTaintDescendantQuery[] =
    "select D.name from Provenance.file as T T.~input* as D "
    "where T.taint = 1 and D.type = \"PROC\"";
const char kTaintFileQuery[] =
    "select F.name from Provenance.file as F where F.taint = 1";

std::string LookupQuery(const std::string& path) {
  return "select F.name from Provenance.file as F where F.name = \"" + path +
         "\"";
}

std::string AncestryQuery(const std::string& path) {
  return "select A.name from Provenance.file as F F.input* as A "
         "where F.name = \"" +
         path + "\"";
}

std::string DescendantQuery(const std::string& path) {
  return "select D.name from Provenance.file as T T.~input* as D "
         "where T.name = \"" +
         path + "\"";
}

std::string Canonical(const QueryResult& result) {
  std::set<std::string> rows;
  for (const auto& row : result.rows) {
    std::string line;
    for (const pass::pql::Value& value : row) {
      line += value.ToString();
      line += '|';
    }
    rows.insert(std::move(line));
  }
  std::string out;
  for (const std::string& row : rows) {
    out += row;
    out += '\n';
  }
  return out;
}

// ---- TracedSource -----------------------------------------------------------

void TracedSource::Account(WallNs start, size_t rows) const {
  ns_ += Now() - start;
  ++calls_;
  rows_ += rows;
}

std::vector<Node> TracedSource::RootSet(const std::string& name) const {
  Span span(tracer_, "federated.root_set");
  WallNs start = Now();
  std::vector<Node> out = inner_->RootSet(name);
  Account(start, out.size());
  return out;
}

std::vector<std::vector<Node>> TracedSource::FollowMany(
    const std::vector<Node>& nodes, const std::string& link,
    bool inverse) const {
  Span span(tracer_, "federated.follow_many");
  WallNs start = Now();
  auto out = inner_->FollowMany(nodes, link, inverse);
  size_t rows = 0;
  for (const auto& edges : out) {
    rows += edges.size();
  }
  Account(start, rows);
  return out;
}

std::vector<pass::pql::ValueSet> TracedSource::AttributeMany(
    const std::vector<Node>& nodes, const std::string& attr) const {
  Span span(tracer_, "federated.attribute_many");
  WallNs start = Now();
  auto out = inner_->AttributeMany(nodes, attr);
  size_t rows = 0;
  for (const auto& values : out) {
    rows += values.size();
  }
  Account(start, rows);
  return out;
}

// ---- Portal queries ---------------------------------------------------------

pass::Result<QueryResult> RunPortalQuery(
    ClusterCoordinator& cluster, pass::cluster::PortalSession& session,
    const std::string& text, const pass::pql::QueryOptions& options,
    Tracer* tracer, PassResult* r, WallNs* elapsed) {
  pass::sim::Nanos sim_start = cluster.env().clock().now();
  WallNs start = Now();
  pass::Result<QueryResult> result = pass::InvalidArgument("not run");
  if (tracer == nullptr) {
    result = session.Run(text, options);
  } else {
    Span span(tracer, "portal.query");
    if (options.consistency == pass::pql::Consistency::kFresh) {
      Span repin(tracer, "portal.repin");
      session.RePin();
    }
    {
      Span quiesce(tracer, "cluster.quiesce");
      cluster.Quiesce();
    }
    WallNs parse_ns = 0;
    auto parsed = Timed(tracer, "pql.parse", &parse_ns,
                        [&] { return pass::pql::ParseQuery(text); });
    if (!parsed.ok()) {
      result = parsed.status();
    } else {
      TracedSource source(&session.source(), tracer);
      pass::pql::Engine engine(&source, options);
      WallNs eval_ns = 0;
      result = Timed(tracer, "pql.eval", &eval_ns,
                     [&] { return engine.Evaluate(**parsed, options); });
      r->Sample("pql.eval_self_ms", Ms(eval_ns - source.ns()));
      r->Sample("federated.source_ms", Ms(source.ns()));
      r->counts["pql.source_calls"] += static_cast<double>(source.calls());
      r->counts["pql.rows_examined"] += static_cast<double>(source.rows());
      if (result.ok()) {
        r->counts["pql.rows_returned"] +=
            static_cast<double>(result->rows.size());
      }
    }
  }
  *elapsed = Now() - start;
  r->Sample("query_ms", Ms(*elapsed));
  r->Sample("portal.query_sim_us",
            static_cast<double>(cluster.env().clock().now() - sim_start) /
                1e3);
  r->counts["pql.queries"] += 1;
  r->digest = Fold(r->digest, result.ok() ? Canonical(*result)
                                          : result.status().ToString());
  return result;
}

// ---- Oracle -----------------------------------------------------------------

MergedOracle::MergedOracle(const ClusterCoordinator& cluster) {
  cluster.MergeInto(&db_);
}

const std::string& MergedOracle::Answer(const std::string& text,
                                        std::string* error) {
  auto it = answers_.find(text);
  if (it != answers_.end()) {
    return it->second;
  }
  pass::pql::Engine engine(&source_);
  auto result = engine.Run(text);
  if (!result.ok()) {
    *error = "merged evaluation failed: " + result.status().ToString();
  }
  return answers_[text] = result.ok() ? Canonical(*result) : "";
}

std::string CheckFederatedEqualsMerged(ClusterCoordinator& cluster,
                                       const std::vector<std::string>& texts) {
  MergedOracle oracle(cluster);
  pass::cluster::FederatedSource federated = cluster.Source();
  pass::pql::Engine engine(&federated);
  for (const std::string& text : texts) {
    std::string error;
    const std::string& want = oracle.Answer(text, &error);
    auto got = engine.Run(text);
    if (!error.empty() || !got.ok()) {
      return "evaluation failed: " + text;
    }
    if (Canonical(*got) != want) {
      return "federated != merged: " + text;
    }
  }
  return "";
}

std::string CheckBatchesAcked(ClusterCoordinator& cluster) {
  cluster.Quiesce();
  for (int shard = 0; shard < cluster.shard_count(); ++shard) {
    auto state = cluster.journal(shard).Scan();
    if (!state.ok()) {
      return "journal scan failed on shard " + std::to_string(shard);
    }
    for (const auto& batch : state->batches) {
      if (!batch.applied) {
        return "journaled batch " + std::to_string(batch.id) +
               " never acked on shard " + std::to_string(shard);
      }
    }
  }
  return "";
}

// ---- Counts -----------------------------------------------------------------

void FinishClusterPass(ClusterCoordinator& cluster, const AuditGen& gen,
                       PassResult* r) {
  auto& c = r->counts;
  double provdb_bytes = 0;
  double journal_bytes = 0;
  for (int shard = 0; shard < cluster.shard_count(); ++shard) {
    pass::workloads::Machine& m = cluster.machine(shard);
    c["os.syscalls"] += static_cast<double>(m.kernel().syscall_count());
    const auto& lasagna = m.volume()->lasagna_stats();
    c["lasagna.records_logged"] += static_cast<double>(lasagna.records_logged);
    c["lasagna.prov_bytes_logged"] +=
        static_cast<double>(lasagna.prov_bytes_logged);
    c["lasagna.txns"] += static_cast<double>(lasagna.txns);
    pass::waldo::ProvDbStats db = cluster.shard_db(shard).stats();
    c["waldo.db_bytes"] += static_cast<double>(db.db_bytes);
    c["waldo.index_bytes"] += static_cast<double>(db.index_bytes);
    c["waldo.rows"] += static_cast<double>(db.records + db.edges);
    provdb_bytes += static_cast<double>(db.db_bytes + db.index_bytes);
    journal_bytes +=
        static_cast<double>(cluster.journal(shard).bytes_appended());
    c["sim.disk_seeks"] += static_cast<double>(m.disk().stats().seeks);
    c["sim.disk_bytes_written"] +=
        static_cast<double>(m.disk().stats().bytes_written);
  }
  const pass::cluster::IngestStats& ingest = cluster.ingest_stats();
  c["ingest.entries_replicated"] =
      static_cast<double>(ingest.entries_replicated);
  c["ingest.batches_sent"] = static_cast<double>(ingest.batches_sent);
  c["ingest.bytes_sent"] = static_cast<double>(ingest.bytes_sent);
  c["ingest.group_commits"] = static_cast<double>(ingest.group_commits);
  c["ingest.frames_per_group"] =
      ingest.group_commits == 0
          ? 0
          : static_cast<double>(ingest.group_frames) /
                static_cast<double>(ingest.group_commits);
  c["journal.bytes"] = journal_bytes;
  auto& metrics = cluster.env().obs().metrics();
  c["ingest.ack_sim_us_p50"] =
      metrics.GetHistogram("ingest.ack_ns").Quantile(0.5) / 1e3;
  uint64_t backpressure_ns =
      metrics.GetHistogram("ingest.backpressure_ns").sum();
  c["ingest.backpressure_sim_ms"] = static_cast<double>(backpressure_ns) / 1e6;
  c["ingest.overlap_fraction"] =
      cluster.replication_timeline().stats().overlap_fraction();
  c["core.discloses"] = static_cast<double>(gen.discloses());
  c["sim.elapsed_s"] = cluster.env().clock().seconds();
  const pass::sim::NetStats& net = cluster.network().stats();
  c["sim.net_round_trips"] = static_cast<double>(net.round_trips);
  c["sim.net_bytes"] = static_cast<double>(net.bytes_sent + net.bytes_received);

  r->sums["e2e.provdb_bytes"] += provdb_bytes;
  r->sums["e2e.prov_bytes"] += provdb_bytes + journal_bytes;
  r->sums["e2e.user_bytes"] += static_cast<double>(gen.user_bytes());
  r->sums["e2e.events"] += static_cast<double>(gen.events());
  for (const char* key : {"waldo.rows", "waldo.db_bytes", "journal.bytes",
                          "ingest.entries_replicated", "sim.net_bytes"}) {
    r->digest = Fold(r->digest, std::to_string(c[key]));
  }
}

std::unique_ptr<ClusterCoordinator> NewCluster(uint64_t seed, Tracer* tracer) {
  pass::cluster::ClusterOptions options;
  options.shards = 4;
  options.seed = MixSeed(seed, 1);
  Span span(tracer, "cluster.new");
  return std::make_unique<ClusterCoordinator>(options);
}

std::vector<pass::cluster::PortalHandle> OpenSessions(
    pass::cluster::PortalTier& tier, int count, size_t cache_bytes,
    int tenants, Tracer* tracer, PassResult* r) {
  std::vector<pass::cluster::PortalHandle> sessions;
  for (int i = 0; i < count; ++i) {
    pass::cluster::PortalSessionOptions options;
    options.tenant = "tenant-";
    options.tenant += static_cast<char>('a' + i % tenants);
    options.cache_bytes = cache_bytes;
    Span span(tracer, "portal.open");
    auto handle = tier.Open(options);
    if (!handle.ok()) {
      r->Fail("portal session refused: " + handle.status().ToString());
      break;
    }
    sessions.push_back(std::move(*handle));
  }
  return sessions;
}

std::vector<FederatedStats> FederatedSnapshot(
    std::vector<pass::cluster::PortalHandle>& sessions) {
  std::vector<FederatedStats> stats;
  for (pass::cluster::PortalHandle& session : sessions) {
    stats.push_back(session->source().stats());
  }
  return stats;
}

namespace {

void AddFederatedDelta(const FederatedStats& before,
                       const FederatedStats& after,
                       std::map<std::string, double>* counts) {
  auto& c = *counts;
  c["federated.remote_ops"] +=
      static_cast<double>(after.remote_ops - before.remote_ops);
  c["federated.local_ops"] +=
      static_cast<double>(after.local_ops - before.local_ops);
  c["federated.remote_bytes"] += static_cast<double>(
      (after.remote_request_bytes + after.remote_response_bytes) -
      (before.remote_request_bytes + before.remote_response_bytes));
  c["federated.cache_hits"] +=
      static_cast<double>(after.cache_hits - before.cache_hits);
  c["federated.cache_misses"] +=
      static_cast<double>(after.cache_misses - before.cache_misses);
  c["federated.cache_evictions"] +=
      static_cast<double>(after.cache_evictions - before.cache_evictions);
  c["federated.cache_entries_invalidated"] += static_cast<double>(
      after.cache_entries_invalidated - before.cache_entries_invalidated);
}

}  // namespace

void FederatedCounts(const std::vector<FederatedStats>& before,
                     std::vector<pass::cluster::PortalHandle>& sessions,
                     std::map<std::string, double>* counts) {
  for (size_t i = 0; i < sessions.size(); ++i) {
    AddFederatedDelta(before[i], sessions[i]->source().stats(), counts);
  }
  auto& c = *counts;
  double probes = c["federated.cache_hits"] + c["federated.cache_misses"];
  c["federated.cache_hit_ratio"] =
      probes == 0 ? 0 : c["federated.cache_hits"] / probes;
}

void FinishQueryCounts(PassResult* r) {
  const std::vector<double>& sim_us = r->samples["portal.query_sim_us"];
  r->counts["portal.query_sim_us_p50"] = Quantile(sim_us, 0.5);
  r->counts["portal.query_sim_us_p99"] = Quantile(sim_us, 0.99);
  r->samples.erase("portal.query_sim_us");
}

void DestroyCluster(std::unique_ptr<ClusterCoordinator>* cluster,
                    Tracer* tracer) {
  Span span(tracer, "cluster.destroy");
  cluster->reset();
}

}  // namespace e2e
