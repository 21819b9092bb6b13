// Tests for src/workloads' job drivers: every byte they write. Table 2's
// elapsed times, file counts and sizes do not see file contents, so each
// driver's output tree is pinned here as one digest over every path and the
// MD5 of its content. A kernel or driver change that moves a literal
// changes the bytes every bench writes.

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "src/kepler/challenge.h"
#include "src/util/md5.h"
#include "src/workloads/machine.h"
#include "src/workloads/workloads.h"

namespace pass::workloads {
namespace {

MachineOptions Vanilla(uint64_t seed) {
  MachineOptions options;
  options.seed = seed;
  return options;
}

// Every file under `dir`, keyed (and so ordered) by path.
void CollectFiles(const fs::MemFs& fs, const std::string& dir,
                  std::map<std::string, std::string>* files) {
  auto names = fs.ListDirRaw(dir);
  ASSERT_TRUE(names.ok()) << dir;
  for (const std::string& name : *names) {
    std::string path = (dir == "/" ? "" : dir) + "/" + name;
    auto data = fs.ReadFileRaw(path);
    if (data.ok()) {
      (*files)[path] = std::move(*data);
    } else {
      CollectFiles(fs, path, files);
    }
  }
}

// MD5 over (path, MD5(content)) for every file under "/", in path order.
std::string TreeDigest(Machine* machine) {
  std::map<std::string, std::string> files;
  CollectFiles(machine->basefs(), "/", &files);
  Md5 tree;
  for (const auto& [path, data] : files) {
    tree.Update(path);
    tree.Update(std::string_view("\0", 1));
    Md5Digest content = Md5::Hash(data);
    tree.Update(content.data(), content.size());
  }
  return Md5ToHex(tree.Finish());
}

// Sizes are deliberately not multiples of 64: the job drivers truncate
// their last name, and kepler rounds its images up to whole names.

TEST(WorkloadBytesTest, LinuxCompile) {
  Machine machine(Vanilla(11));
  CompileParams params;
  params.source_files = 20;
  params.source_bytes = 1000;
  params.object_bytes = 1500;
  params.headers = 6;
  RunLinuxCompile(&machine, params);
  EXPECT_EQ(TreeDigest(&machine), "ae54d9514622d888f9edc1ffd181b09e");
}

TEST(WorkloadBytesTest, Postmark) {
  Machine machine(Vanilla(12));
  PostmarkParams params;
  params.initial_files = 20;
  params.transactions = 60;
  params.subdirectories = 3;
  params.min_size = 100;
  params.max_size = 6000;
  RunPostmark(&machine, params);
  EXPECT_EQ(TreeDigest(&machine), "4861532db8cc1efbe88c9c04a5a48cca");
}

TEST(WorkloadBytesTest, Mercurial) {
  Machine machine(Vanilla(13));
  MercurialParams params;
  params.tracked_files = 10;
  params.file_bytes = 3000;
  params.patches = 12;
  params.hunk_bytes = 200;
  RunMercurial(&machine, params);
  EXPECT_EQ(TreeDigest(&machine), "739cda0ed7f82db468836b55569b1c95");
}

TEST(WorkloadBytesTest, Blast) {
  Machine machine(Vanilla(14));
  BlastParams params;
  params.sequence_bytes = 10001;
  RunBlast(&machine, params);
  EXPECT_EQ(TreeDigest(&machine), "e4454d3e45625b244686224024e1373e");
}

TEST(WorkloadBytesTest, KeplerChallengeInputs) {
  Machine machine(Vanilla(15));
  os::Pid pid = machine.Spawn("seed");
  ASSERT_TRUE(kepler::SeedChallengeInputs(&machine.kernel(), pid,
                                          kepler::ChallengePaths(), 7, 1000)
                  .ok());
  EXPECT_EQ(TreeDigest(&machine), "13cd422ac6db76e0400e405272b28e65");
}

}  // namespace
}  // namespace pass::workloads
