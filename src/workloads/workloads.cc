#include "src/workloads/workloads.h"

#include "src/util/logging.h"

#include "src/kepler/challenge.h"
#include "src/kepler/kepler.h"
#include "src/util/strings.h"

namespace pass::workloads {
namespace {

uint64_t LiveBytes(Machine* machine) {
  return machine->rootfs()->stats().bytes_data;
}

// `bytes` name characters. The generator draws whole 64-character names and
// so also advances past the truncated tail: every later byte depends on it.
std::string Blob(Rng* rng, size_t bytes) {
  std::string out((bytes + 63) / 64 * 64, '\0');
  rng->FillName(out.data(), out.size());
  out.resize(bytes);
  return out;
}

}  // namespace

WorkloadReport RunLinuxCompile(Machine* machine, CompileParams params) {
  os::Kernel& kernel = machine->kernel();
  Rng rng(machine->env().rng().Next());
  os::Pid make = kernel.Spawn("make");

  // Unpack: source tree + shared headers.
  PASS_CHECK(kernel.Mkdir(make, "/usr").ok());
  PASS_CHECK(kernel.Mkdir(make, "/usr/src").ok());
  PASS_CHECK(kernel.Mkdir(make, "/usr/src/linux").ok());
  PASS_CHECK(kernel.Mkdir(make, "/usr/src/linux/include").ok());
  PASS_CHECK(kernel.Mkdir(make, "/usr/src/linux/obj").ok());
  std::vector<std::string> headers;
  for (int i = 0; i < params.headers; ++i) {
    std::string path = StrFormat("/usr/src/linux/include/h%d.h", i);
    PASS_CHECK(kernel.WriteFile(make, path, Blob(&rng, 2048)).ok());
    headers.push_back(path);
  }
  std::vector<std::string> sources;
  for (int i = 0; i < params.source_files; ++i) {
    std::string path = StrFormat("/usr/src/linux/f%04d.c", i);
    PASS_CHECK(
        kernel.WriteFile(make, path, Blob(&rng, params.source_bytes)).ok());
    sources.push_back(path);
  }

  // Build: one cc process per translation unit (fork+exec from make).
  for (int i = 0; i < params.source_files; ++i) {
    auto cc = kernel.Fork(make);
    PASS_CHECK(cc.ok());
    PASS_CHECK(kernel.Exec(*cc, "/usr/bin/cc", {"cc", "-O2", sources[i]}).ok());
    (void)kernel.ReadFile(*cc, sources[i]);
    // Each unit includes a handful of headers.
    for (int h = 0; h < 4; ++h) {
      (void)kernel.ReadFile(*cc, headers[(i + h) % headers.size()]);
    }
    machine->env().ChargeCpu(params.cpu_per_unit);
    std::string object = StrFormat("/usr/src/linux/obj/f%04d.o", i);
    PASS_CHECK(
        kernel.WriteFile(*cc, object, Blob(&rng, params.object_bytes)).ok());
    PASS_CHECK(kernel.Exit(*cc, 0).ok());
  }

  // Link.
  auto ld = kernel.Fork(make);
  PASS_CHECK(ld.ok());
  PASS_CHECK(kernel.Exec(*ld, "/usr/bin/ld", {"ld", "-o", "vmlinux"}).ok());
  std::string image;
  for (int i = 0; i < params.source_files; i += 16) {
    auto object = kernel.ReadFile(
        *ld, StrFormat("/usr/src/linux/obj/f%04d.o", i));
    PASS_CHECK(object.ok());
    image += object->substr(0, 512);
  }
  machine->env().ChargeCpu(params.cpu_per_unit * 10);
  PASS_CHECK(kernel.WriteFile(*ld, "/usr/src/linux/vmlinux", image).ok());
  PASS_CHECK(kernel.Exit(*ld, 0).ok());

  return WorkloadReport{"Linux Compile", machine->elapsed_seconds(),
                        LiveBytes(machine)};
}

WorkloadReport RunPostmark(Machine* machine, PostmarkParams params) {
  os::Kernel& kernel = machine->kernel();
  Rng rng(machine->env().rng().Next());
  os::Pid postmark = kernel.Spawn("postmark");

  std::vector<std::string> files;
  for (int d = 0; d < params.subdirectories; ++d) {
    PASS_CHECK(kernel.Mkdir(postmark, StrFormat("/s%d", d)).ok());
  }
  auto random_size = [&]() {
    return params.min_size +
           rng.NextBelow(params.max_size - params.min_size + 1);
  };
  for (int i = 0; i < params.initial_files; ++i) {
    std::string path = StrFormat("/s%llu/pm%05d",
                                 (unsigned long long)rng.NextBelow(
                                     params.subdirectories),
                                 i);
    PASS_CHECK(
        kernel.WriteFile(postmark, path, Blob(&rng, random_size())).ok());
    files.push_back(path);
  }
  // Transaction mix: create/delete/read/append, equal probability (the
  // postmark default).
  int created = params.initial_files;
  for (int t = 0; t < params.transactions; ++t) {
    switch (rng.NextBelow(4)) {
      case 0: {  // create
        std::string path = StrFormat("/s%llu/pm%05d",
                                     (unsigned long long)rng.NextBelow(
                                         params.subdirectories),
                                     created++);
        PASS_CHECK(
            kernel.WriteFile(postmark, path, Blob(&rng, random_size())).ok());
        files.push_back(path);
        break;
      }
      case 1: {  // delete
        if (files.size() > 4) {
          size_t victim = rng.NextBelow(files.size());
          (void)kernel.Unlink(postmark, files[victim]);
          files.erase(files.begin() + static_cast<long>(victim));
        }
        break;
      }
      case 2: {  // read
        (void)kernel.ReadFile(postmark, files[rng.NextBelow(files.size())]);
        break;
      }
      default: {  // append
        const std::string& path = files[rng.NextBelow(files.size())];
        auto fd = kernel.Open(postmark, path, os::kOpenWrite | os::kOpenAppend);
        if (fd.ok()) {
          (void)kernel.Write(postmark, *fd, Blob(&rng, 4096));
          (void)kernel.Close(postmark, *fd);
        }
        break;
      }
    }
  }
  return WorkloadReport{"Postmark", machine->elapsed_seconds(),
                        LiveBytes(machine)};
}

WorkloadReport RunMercurial(Machine* machine, MercurialParams params) {
  os::Kernel& kernel = machine->kernel();
  Rng rng(machine->env().rng().Next());
  os::Pid hg = kernel.Spawn("hg");

  // A tracked tree plus a patch queue.
  PASS_CHECK(kernel.Mkdir(hg, "/repo").ok());
  PASS_CHECK(kernel.Mkdir(hg, "/patches").ok());
  std::vector<std::string> tracked;
  for (int i = 0; i < params.tracked_files; ++i) {
    std::string path = StrFormat("/repo/src%04d.c", i);
    PASS_CHECK(kernel.WriteFile(hg, path, Blob(&rng, params.file_bytes)).ok());
    tracked.push_back(path);
  }
  for (int p = 0; p < params.patches; ++p) {
    PASS_CHECK(kernel
                   .WriteFile(hg, StrFormat("/patches/%04d.diff", p),
                              Blob(&rng, params.hunk_bytes))
                   .ok());
  }

  // Apply each patch the way patch(1) does: read original + patch, write a
  // merged temporary, rename over the original (§7: "creates a temporary
  // file, merges data ... finally renames").
  for (int p = 0; p < params.patches; ++p) {
    auto patcher = kernel.Fork(hg);
    PASS_CHECK(patcher.ok());
    PASS_CHECK(
        kernel.Exec(*patcher, "/usr/bin/patch", {"patch", "-p1"}).ok());
    const std::string& target = tracked[rng.NextBelow(tracked.size())];
    auto original = kernel.ReadFile(*patcher, target);
    PASS_CHECK(original.ok());
    auto hunk =
        kernel.ReadFile(*patcher, StrFormat("/patches/%04d.diff", p));
    PASS_CHECK(hunk.ok());
    machine->env().ChargeCpu(3 * sim::kMilli);
    std::string merged = *original;
    size_t at = rng.NextBelow(merged.size());
    merged.insert(at, *hunk);
    merged.resize(params.file_bytes);
    std::string tmp = target + ".tmp";
    PASS_CHECK(kernel.WriteFile(*patcher, tmp, merged).ok());
    PASS_CHECK(kernel.Rename(*patcher, tmp, target).ok());
    PASS_CHECK(kernel.Exit(*patcher, 0).ok());
  }
  return WorkloadReport{"Mercurial Activity", machine->elapsed_seconds(),
                        LiveBytes(machine)};
}

WorkloadReport RunBlast(Machine* machine, BlastParams params) {
  os::Kernel& kernel = machine->kernel();
  Rng rng(machine->env().rng().Next());
  os::Pid shell = kernel.Spawn("sh");

  PASS_CHECK(kernel.Mkdir(shell, "/blast").ok());
  PASS_CHECK(kernel
                 .WriteFile(shell, "/blast/speciesA.fasta",
                            Blob(&rng, params.sequence_bytes))
                 .ok());
  PASS_CHECK(kernel
                 .WriteFile(shell, "/blast/speciesB.fasta",
                            Blob(&rng, params.sequence_bytes))
                 .ok());

  // formatdb on both inputs.
  auto formatdb = kernel.Fork(shell);
  PASS_CHECK(formatdb.ok());
  PASS_CHECK(kernel.Exec(*formatdb, "/usr/bin/formatdb", {"formatdb"}).ok());
  auto a = kernel.ReadFile(*formatdb, "/blast/speciesA.fasta");
  auto b = kernel.ReadFile(*formatdb, "/blast/speciesB.fasta");
  PASS_CHECK(a.ok() && b.ok());
  machine->env().ChargeCpu(params.format_cpu);
  PASS_CHECK(kernel.WriteFile(*formatdb, "/blast/db.phr", *a + *b).ok());
  PASS_CHECK(kernel.Exit(*formatdb, 0).ok());

  // blastall: the CPU-dominant stage.
  auto blast = kernel.Fork(shell);
  PASS_CHECK(blast.ok());
  PASS_CHECK(kernel.Exec(*blast, "/usr/bin/blastall", {"blastall", "-p",
                                                       "blastp"}).ok());
  (void)kernel.ReadFile(*blast, "/blast/db.phr");
  machine->env().ChargeCpu(params.blast_cpu);
  PASS_CHECK(kernel
                 .WriteFile(*blast, "/blast/raw.out",
                            Blob(&rng, params.sequence_bytes / 4))
                 .ok());
  PASS_CHECK(kernel.Exit(*blast, 0).ok());

  // Perl massaging through a pipe (blast | perl > final).
  auto perl = kernel.Fork(shell);
  PASS_CHECK(perl.ok());
  PASS_CHECK(kernel.Exec(*perl, "/usr/bin/perl", {"perl", "massage.pl"}).ok());
  auto pipe_fds = kernel.Pipe(*perl);
  PASS_CHECK(pipe_fds.ok());
  auto raw = kernel.ReadFile(*perl, "/blast/raw.out");
  PASS_CHECK(raw.ok());
  (void)kernel.Write(*perl, pipe_fds->second, *raw);
  std::string staged;
  (void)kernel.Read(*perl, pipe_fds->first, raw->size(), &staged);
  machine->env().ChargeCpu(params.perl_cpu);
  PASS_CHECK(kernel.WriteFile(*perl, "/blast/final.out", staged).ok());
  PASS_CHECK(kernel.Exit(*perl, 0).ok());

  return WorkloadReport{"Blast", machine->elapsed_seconds(),
                        LiveBytes(machine)};
}

WorkloadReport RunPaKepler(Machine* machine, KeplerParams params) {
  os::Kernel& kernel = machine->kernel();
  os::Pid pid = kernel.Spawn("kepler");
  machine->env().ChargeCpu(params.startup_cpu);

  std::string table = kepler::MakeTabularData(machine->env().rng().Next(),
                                              params.rows, params.cols);
  PASS_CHECK(kernel.WriteFile(pid, "/table.tsv", table).ok());

  std::unique_ptr<kepler::Recorder> recorder;
  if (machine->with_pass()) {
    recorder = std::make_unique<kepler::PassRecorder>(machine->Lib(pid));
  } else {
    recorder = std::make_unique<kepler::TextRecorder>("/kepler-prov.txt");
  }
  kepler::KeplerEngine engine(&kernel, pid, std::move(recorder));
  kepler::BuildTabularWorkflow(&engine, "/table.tsv", "/reformatted.txt",
                               "%a-%b");
  PASS_CHECK(engine.Run().ok());
  return WorkloadReport{"PA-Kepler", machine->elapsed_seconds(),
                        LiveBytes(machine)};
}

WorkloadReport RunWorkload(const std::string& name, Machine* machine) {
  if (name == "compile") {
    return RunLinuxCompile(machine);
  }
  if (name == "postmark") {
    return RunPostmark(machine);
  }
  if (name == "mercurial") {
    return RunMercurial(machine);
  }
  if (name == "blast") {
    return RunBlast(machine);
  }
  if (name == "kepler") {
    return RunPaKepler(machine);
  }
  PASS_CHECK(false);
  return WorkloadReport{};
}

}  // namespace pass::workloads
