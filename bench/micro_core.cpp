// Micro-benchmarks (google-benchmark): analyzer throughput, record codec,
// the byte kernels (MD5, CRC32, the workload name generator), log framing,
// ProvDb's write path and bulk reads, the portal's root sets and attribute
// reads, the standing tier's Refresh, and PQL query latency.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/cluster/federated_source.h"
#include "src/cluster/standing.h"
#include "src/core/analyzer.h"
#include "src/lasagna/log_format.h"
#include "src/pql/eval.h"
#include "src/pql/provdb_source.h"
#include "src/util/crc32.h"
#include "src/util/md5.h"
#include "src/util/rng.h"
#include "src/waldo/provdb.h"
#include "src/workloads/audit_stream.h"

namespace {

using namespace pass;

void BM_AnalyzerAddDependency(benchmark::State& state) {
  core::Analyzer analyzer;
  Rng rng(1);
  auto emit = [](const core::ObjectRef&, const core::Record&) {};
  for (auto _ : state) {
    analyzer.AddDependency(1 + rng.NextBelow(64), 1000 + rng.NextBelow(64),
                           emit);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AnalyzerAddDependency);

void BM_RecordEncodeDecode(benchmark::State& state) {
  core::Record record = core::Record::Input(core::ObjectRef{42, 7});
  for (auto _ : state) {
    std::string buf;
    core::EncodeRecord(&buf, record);
    Decoder in(buf);
    auto decoded = core::DecodeRecord(&in);
    benchmark::DoNotOptimize(decoded);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RecordEncodeDecode);

// `n` bytes drawn from a seeded Rng: run-time data the compiler cannot fold.
std::string RandomBytes(size_t n) {
  Rng rng(3);
  std::string out(n, '\0');
  for (char& ch : out) {
    ch = static_cast<char>(rng.Next());
  }
  return out;
}

void BM_Md5Throughput(benchmark::State& state) {
  std::string data = RandomBytes(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Md5::Hash(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Md5Throughput)->Arg(4096)->Arg(65536);

void BM_Crc32Throughput(benchmark::State& state) {
  std::string data = RandomBytes(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32Throughput)->Arg(4096)->Arg(65536);

// The workload drivers' byte generator: one name character per draw.
void BM_NameFill(benchmark::State& state) {
  Rng rng(4);
  std::string buffer(static_cast<size_t>(state.range(0)), '\0');
  for (auto _ : state) {
    rng.FillName(buffer.data(), buffer.size());
    benchmark::DoNotOptimize(buffer.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_NameFill)->Arg(65536);

void BM_LogFraming(benchmark::State& state) {
  lasagna::LogEntry entry{core::ObjectRef{7, 1},
                          core::Record::Name("/some/path/to/file")};
  for (auto _ : state) {
    std::string buf;
    lasagna::EncodeLogEntry(&buf, entry);
    benchmark::DoNotOptimize(buf);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LogFraming);

// An ingest-shaped stream of `versions` new versions, two per file: each
// gets NAME, TYPE and one or two INPUT rows (a second version also lists
// its first). Every second entry of each 32-version block is offered again
// after the block, as a re-recovered log would.
std::vector<lasagna::LogEntry> IngestStream(int versions) {
  Rng rng(5);
  std::vector<lasagna::LogEntry> stream;
  size_t block_start = 0;
  for (int i = 0; i < versions; ++i) {
    core::PnodeId pnode = 1 + static_cast<core::PnodeId>(i / 2);
    core::ObjectRef subject{pnode, static_cast<core::Version>(i % 2)};
    stream.push_back(
        {subject, core::Record::Name("/data/f" + std::to_string(pnode))});
    stream.push_back({subject, core::Record::Type("FILE")});
    stream.push_back(
        {subject, core::Record::Input({1 + rng.NextBelow(pnode), 0})});
    if (subject.version == 1) {
      stream.push_back({subject, core::Record::Input({pnode, 0})});
    }
    if ((i + 1) % 32 == 0) {
      size_t block_end = stream.size();
      for (size_t j = block_start; j < block_end; j += 2) {
        stream.push_back(stream[j]);
      }
      block_start = stream.size();
    }
  }
  return stream;
}

// ProvDb's write path as the cluster drives it: every recovered row goes
// through InsertUnique, and re-offered rows are found present.
void BM_ProvDbInsertUnique(benchmark::State& state) {
  std::vector<lasagna::LogEntry> stream =
      IngestStream(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto db = std::make_unique<waldo::ProvDb>();
    for (const lasagna::LogEntry& entry : stream) {
      benchmark::DoNotOptimize(db->InsertUnique(entry));
    }
    state.PauseTiming();
    db.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(stream.size()));
}
BENCHMARK(BM_ProvDbInsertUnique)->Arg(4096);

// One batched attribute RPC's shard-side work: the NAME values of every
// version of a 64-node frontier, spread over a 4096-file database.
void BM_ProvDbAttributeValuesMany(benchmark::State& state) {
  waldo::ProvDb db;
  for (const lasagna::LogEntry& entry : IngestStream(8192)) {
    db.Insert(entry);
  }
  std::vector<core::PnodeId> frontier;
  for (core::PnodeId pnode = 1; pnode <= 4096; pnode += 64) {
    frontier.push_back(pnode);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(db.AttributeValuesMany(frontier, "name"));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(frontier.size()));
}
BENCHMARK(BM_ProvDbAttributeValuesMany);

// The portal's side of a name lookup (cluster::FederatedSource): a 4-shard
// cluster holding 512 files striped over the shards, each listing the file
// before it as an input. Names run 200 bytes, so the name entries of the
// 384 remote files (236 cache bytes each, 88 KiB) overflow a 64 KiB portal
// cache and fit a 1 MiB one; the portal shard's own files are never cached.
class PortalFixture {
 public:
  static PortalFixture& Get() {
    static PortalFixture* fixture = new PortalFixture();
    return *fixture;
  }

  cluster::ClusterCoordinator& cluster() { return cluster_; }
  // The 512 files at their latest versions, in pnode order.
  const std::vector<pql::Node>& files() const { return files_; }

 private:
  static cluster::ClusterOptions Options() {
    cluster::ClusterOptions options;
    options.shards = 4;
    return options;
  }

  PortalFixture() : cluster_(Options()) {
    std::string stem = "/" + std::string(195, 'f');
    std::vector<core::ObjectRef> last;
    for (int i = 0; i < 512; ++i) {
      auto ref = cluster_.WriteWithLineage(
          i % 4, stem + std::to_string(1000 + i), "payload", last);
      if (!ref.ok()) {
        std::abort();
      }
      last = {*ref};
    }
    if (!cluster_.Sync().ok()) {
      std::abort();
    }
    files_ = cluster_.Source().RootSet("file");
    if (files_.size() != 512) {
      std::abort();
    }
  }

  cluster::ClusterCoordinator cluster_;
  std::vector<pql::Node> files_;
};

// The scatter-gather of one root set: every shard's owned FILE members at
// their latest versions, gathered in pnode order. Root sets are never
// cached.
void BM_FederatedRootSet(benchmark::State& state) {
  cluster::FederatedSource source = PortalFixture::Get().cluster().Source();
  for (auto _ : state) {
    benchmark::DoNotOptimize(source.RootSet("file"));
  }
  state.SetItemsProcessed(state.iterations() * 512);
}
BENCHMARK(BM_FederatedRootSet);

// One batched name read over the 512 files through a portal cache of
// `range(0)` bytes, warmed by one read first: with 1 MiB every remote node
// hits; with 64 KiB the remote names overflow the cache, so each read
// misses on about a quarter of them, reads those on their owners and
// evicts the least recently used entries (`hit_ratio` reports the share).
void BM_FederatedAttributeMany(benchmark::State& state) {
  PortalFixture& fixture = PortalFixture::Get();
  cluster::FederatedSource source = fixture.cluster().Source(
      /*portal_shard=*/0, static_cast<size_t>(state.range(0)));
  benchmark::DoNotOptimize(source.AttributeMany(fixture.files(), "name"));
  for (auto _ : state) {
    benchmark::DoNotOptimize(source.AttributeMany(fixture.files(), "name"));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(fixture.files().size()));
  const cluster::FederatedStats& stats = source.stats();
  state.counters["hit_ratio"] =
      static_cast<double>(stats.cache_hits) /
      static_cast<double>(std::max<uint64_t>(
          1, stats.cache_hits + stats.cache_misses));
}
BENCHMARK(BM_FederatedAttributeMany)->Arg(1 << 20)->Arg(64 << 10);

// One standing Refresh on a 4-shard cluster fed by fig11's audit stream
// (its stream options at rate 2 and seed 17) with fig11's three-query mix
// registered and seeded. Each iteration streams one round with timing
// paused, then times the Refresh that reads it. The fixed iteration count
// makes every run reach the same history size.
void BM_StandingRefresh(benchmark::State& state) {
  cluster::ClusterOptions options;
  options.shards = 4;
  options.seed = 17;
  options.ingest_batch_records = 16;
  cluster::ClusterCoordinator cluster(options);
  workloads::AuditStreamOptions stream_options;
  stream_options.processes_per_shard = 2;
  stream_options.reads_per_process = 1;
  stream_options.taint_sources = 1;
  stream_options.taint_fraction = 0.4;
  stream_options.cross_shard_fraction = 0.5;
  stream_options.seed = 17;
  workloads::AuditStreamGenerator stream(&cluster, stream_options);
  if (!stream.SeedTaintSources().ok()) {
    std::abort();
  }
  cluster::StandingQueryTier tier(&cluster);
  for (const std::string& text :
       {workloads::AuditStreamGenerator::TaintDescendantQuery(),
        workloads::AuditStreamGenerator::TaintAncestryQuery(),
        std::string("select F.name from Provenance.file as F "
                    "where F.taint = 1")}) {
    if (!tier.Register(text).ok()) {
      std::abort();
    }
  }
  if (!stream.StreamRound().ok() || !tier.Refresh().ok()) {
    std::abort();  // the seed evaluations stay outside the timed loop
  }
  uint64_t calls = tier.stats().source_calls;
  for (auto _ : state) {
    state.PauseTiming();
    if (!stream.StreamRound().ok()) {
      std::abort();
    }
    state.ResumeTiming();
    auto notes = tier.Refresh();
    if (!notes.ok()) {
      std::abort();
    }
    benchmark::DoNotOptimize(notes);
  }
  state.counters["source_calls"] = benchmark::Counter(
      static_cast<double>(tier.stats().source_calls - calls),
      benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_StandingRefresh)->Iterations(48);

void BM_PqlAncestryQuery(benchmark::State& state) {
  // A chain of `range` object versions; query the full closure.
  waldo::ProvDb db;
  int64_t n = state.range(0);
  for (int64_t i = 0; i < n; ++i) {
    db.Insert({{static_cast<core::PnodeId>(i + 1), 0},
               core::Record::Type("FILE")});
    db.Insert({{static_cast<core::PnodeId>(i + 1), 0},
               core::Record::Name("f" + std::to_string(i))});
    if (i > 0) {
      db.Insert({{static_cast<core::PnodeId>(i + 1), 0},
                 core::Record::Input({static_cast<core::PnodeId>(i), 0})});
    }
  }
  pql::ProvDbSource source(&db);
  pql::Engine engine(&source);
  std::string query =
      "select a from Provenance.file as f f.input* as a "
      "where f.name = \"f" +
      std::to_string(n - 1) + "\"";
  for (auto _ : state) {
    auto result = engine.Run(query);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_PqlAncestryQuery)->Arg(64)->Arg(512);

}  // namespace

BENCHMARK_MAIN();
