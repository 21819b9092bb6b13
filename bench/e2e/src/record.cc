// record: local PASSv2 recording, the paper's own path (os -> core ->
// lasagna -> waldo) with no cluster and no PQL.
//
// A pass is one job of each of compile, postmark and mercurial, in a seeded
// order. Each job builds a fresh Machine{with_pass=true} (set-up), then
// runs the workload and drains the Lasagna log into the database (the
// timed operation). blast and kepler are left out: they log 45 records or
// fewer and their time is modelled CPU, so they would time the sim clock's
// bookkeeping rather than the recording path.

#include <memory>
#include <string>
#include <utility>

#include "harness.h"
#include "src/workloads/machine.h"
#include "src/workloads/workloads.h"
#include "workload.h"

namespace e2e {
namespace {

using pass::workloads::Machine;
using pass::workloads::MachineOptions;

class RecordWorkload : public Workload {
 public:
  PassResult RunPass(uint64_t seed, const PassMode& mode) override {
    PassResult r;
    Gen gen(seed);
    const char* jobs[] = {"compile", "postmark", "mercurial"};
    for (size_t i = 2; i > 0; --i) {
      std::swap(jobs[i], jobs[gen.Below(i + 1)]);
    }
    double pass_sim_s = 0;
    double vanilla_sim_s = 0;
    for (const char* job : jobs) {
      MachineOptions options;
      options.with_pass = true;
      options.seed = gen.Next();
      RunJob(job, options, mode.tracer, &r, &pass_sim_s);
      if (mode.reference) {
        options.with_pass = false;
        vanilla_sim_s += RunVanilla(job, options, &r);
      }
    }
    if (mode.reference) {
      r.counts["sim.record_overhead_pct"] =
          (pass_sim_s / vanilla_sim_s - 1.0) * 100.0;
    }
    return r;
  }

 private:
  static void RunJob(const char* job, const MachineOptions& options,
                     Tracer* tracer, PassResult* r, double* sim_s) {
    WallNs start = Now();
    std::unique_ptr<Machine> machine;
    {
      Span span(tracer, "workloads.machine");
      machine = std::make_unique<Machine>(options);
    }
    r->setups.push_back(Now() - start);

    WallNs run_ns = 0;
    WallNs drain_ns = 0;
    pass::workloads::WorkloadReport report =
        Timed(tracer, "workloads.run", &run_ns,
              [&] { return pass::workloads::RunWorkload(job, machine.get()); });
    pass::Status drained = Timed(tracer, "waldo.drain", &drain_ns,
                                 [&] { return machine->waldo()->Drain(); });
    r->ops.push_back(run_ns + drain_ns);
    if (!drained.ok()) {
      ++r->failed;
    }

    const pass::waldo::WaldoStats& waldo = machine->waldo()->stats();
    pass::waldo::ProvDbStats db = machine->db()->stats();
    const auto& lasagna = machine->volume()->lasagna_stats();
    if (waldo.orphans_discarded != 0 || waldo.truncated_logs != 0) {
      r->Fail(std::string(job) + ": waldo reported orphans or truncated logs");
    }
    if (waldo.entries_ingested != db.records + db.edges) {
      r->Fail(std::string(job) + ": entries ingested != database rows");
    }
    if (report.data_bytes == 0) {
      r->Fail(std::string(job) + ": no user data written");
    }

    auto& c = r->counts;
    c["os.syscalls"] += static_cast<double>(machine->kernel().syscall_count());
    c["lasagna.records_logged"] += static_cast<double>(lasagna.records_logged);
    c["lasagna.prov_bytes_logged"] +=
        static_cast<double>(lasagna.prov_bytes_logged);
    c["lasagna.txns"] += static_cast<double>(lasagna.txns);
    c["waldo.db_bytes"] += static_cast<double>(db.db_bytes);
    c["waldo.index_bytes"] += static_cast<double>(db.index_bytes);
    c["waldo.rows"] += static_cast<double>(db.records + db.edges);
    c["sim.elapsed_s"] += machine->elapsed_seconds();
    c["sim.disk_seeks"] += static_cast<double>(machine->disk().stats().seeks);
    c["sim.disk_bytes_written"] +=
        static_cast<double>(machine->disk().stats().bytes_written);
    *sim_s += machine->elapsed_seconds();

    double data = static_cast<double>(report.data_bytes);
    double provdb = static_cast<double>(db.db_bytes + db.index_bytes);
    r->sums["record.user_bytes"] += data;
    r->sums["record.op_ns"] += static_cast<double>(run_ns + drain_ns);
    r->sums["record.run_ns"] += static_cast<double>(run_ns);
    r->sums["record.drain_ns"] += static_cast<double>(drain_ns);
    r->sums["record.rows_drained"] +=
        static_cast<double>(waldo.entries_ingested);
    r->sums["record.jobs"] += 1;
    r->sums["e2e.user_bytes"] += data;
    r->sums["e2e.provdb_bytes"] += provdb;
    r->sums["e2e.prov_bytes"] += provdb;
    r->sums["e2e.events"] +=
        static_cast<double>(machine->kernel().syscall_count());
    r->digest = Fold(r->digest, std::to_string(db.records) + "/" +
                                    std::to_string(db.edges) + "/" +
                                    std::to_string(report.data_bytes));

    Span teardown(tracer, "workloads.machine_destroy");
    machine.reset();
  }

  // The same job on a vanilla machine: the reference for the os layer and
  // for the lasagna path's share of a job. Returns its sim seconds.
  static double RunVanilla(const char* job, const MachineOptions& options,
                           PassResult* r) {
    Machine machine(options);
    WallNs start = Now();
    pass::workloads::WorkloadReport report =
        pass::workloads::RunWorkload(job, &machine);
    r->sums["record.vanilla_ns"] += static_cast<double>(Now() - start);
    r->sums["record.vanilla_bytes"] += static_cast<double>(report.data_bytes);
    return machine.elapsed_seconds();
  }
};

}  // namespace

std::unique_ptr<Workload> MakeRecord() {
  return std::make_unique<RecordWorkload>();
}

}  // namespace e2e
