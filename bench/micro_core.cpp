// Micro-benchmarks (google-benchmark): analyzer throughput, record codec,
// the byte kernels (MD5, CRC32, the workload name generator), log framing,
// KV store, ProvDb's write path and bulk reads, and PQL query latency.

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "src/core/analyzer.h"
#include "src/lasagna/log_format.h"
#include "src/pql/eval.h"
#include "src/pql/provdb_source.h"
#include "src/util/crc32.h"
#include "src/util/md5.h"
#include "src/util/rng.h"
#include "src/waldo/kvstore.h"
#include "src/waldo/provdb.h"

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

void BM_KvStorePut(benchmark::State& state) {
  waldo::KvStore store;
  Rng rng(2);
  for (auto _ : state) {
    store.Put("key/" + std::to_string(rng.NextBelow(100000)), "value-bytes");
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KvStorePut);

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

// One batched attribute RPC's shard-side work: all records of every version
// of a 64-node frontier, spread over a 4096-file database.
void BM_ProvDbRecordsOfAllVersionsMany(benchmark::State& state) {
  waldo::ProvDb db;
  for (const lasagna::LogEntry& entry : IngestStream(8192)) {
    db.Insert(entry);
  }
  std::vector<core::PnodeId> frontier;
  for (core::PnodeId pnode = 1; pnode <= 4096; pnode += 64) {
    frontier.push_back(pnode);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(db.RecordsOfAllVersionsMany(frontier));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(frontier.size()));
}
BENCHMARK(BM_ProvDbRecordsOfAllVersionsMany);

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
