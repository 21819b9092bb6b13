#include "src/kepler/challenge.h"

#include "src/util/md5.h"
#include "src/util/rng.h"
#include "src/util/strings.h"

namespace pass::kepler {
namespace {

// Stage functions: cheap, deterministic stand-ins for the AIR tools. Each
// stage's output encodes its inputs' digests so tests can verify that a
// changed input propagates to the atlas outputs (the §3.1 anomaly case).
std::string StageTag(const std::string& stage, const std::string& payload) {
  return stage + "(" + Md5::HexHash(payload).substr(0, 12) + ")";
}

}  // namespace

std::string ChallengePaths::Anatomy(int i) const {
  return StrFormat("%s/anatomy%d.img", input_dir.c_str(), i + 1);
}
std::string ChallengePaths::AnatomyHeader(int i) const {
  return StrFormat("%s/anatomy%d.hdr", input_dir.c_str(), i + 1);
}
std::string ChallengePaths::Reference() const {
  return input_dir + "/reference.img";
}
std::string ChallengePaths::Atlas(char axis) const {
  return StrFormat("%s/atlas-%c.gif", output_dir.c_str(), axis);
}

Status SeedChallengeInputs(os::Kernel* kernel, os::Pid pid,
                           const ChallengePaths& paths, uint64_t seed,
                           size_t image_bytes) {
  Rng rng(seed);
  PASS_RETURN_IF_ERROR(kernel->Mkdir(pid, paths.input_dir));
  PASS_RETURN_IF_ERROR(kernel->Mkdir(pid, paths.output_dir));
  // Images are whole 64-character names: `image_bytes` rounded up.
  size_t image_size = (image_bytes + 63) / 64 * 64;
  for (int i = 0; i < 4; ++i) {
    PASS_RETURN_IF_ERROR(kernel->WriteFile(pid, paths.Anatomy(i),
                                           rng.NextName(image_size)));
    PASS_RETURN_IF_ERROR(kernel->WriteFile(
        pid, paths.AnatomyHeader(i),
        StrFormat("dims=256x256x128 subject=%d seed=%llu", i,
                  static_cast<unsigned long long>(seed))));
  }
  return kernel->WriteFile(pid, paths.Reference(), rng.NextName(image_size));
}

std::vector<FileSinkOp*> BuildChallengeWorkflow(KeplerEngine* engine,
                                                const ChallengePaths& paths) {
  auto* reference = engine->Add(
      std::make_unique<FileSourceOp>("reference-source", paths.Reference()));

  auto* softmean = engine->Add(std::make_unique<CombineOp>(
      "softmean", "OPERATOR", 4, [](const std::vector<std::string>& in) {
        std::string all;
        for (const std::string& piece : in) {
          all += piece;
        }
        return StageTag("softmean", all);
      }));

  for (int i = 0; i < 4; ++i) {
    auto* anatomy = engine->Add(std::make_unique<FileSourceOp>(
        StrFormat("anatomy%d-source", i + 1), paths.Anatomy(i)));
    auto* header = engine->Add(std::make_unique<FileSourceOp>(
        StrFormat("anatomy%d-header-source", i + 1),
        paths.AnatomyHeader(i)));
    auto* align = engine->Add(std::make_unique<CombineOp>(
        StrFormat("align_warp%d", i + 1), "OPERATOR", 3,
        [](const std::vector<std::string>& in) {
          return StageTag("align_warp", in[0] + in[1] + in[2]);
        }));
    align->SetParam("model", "rigid");
    auto* reslice = engine->Add(std::make_unique<TransformOp>(
        StrFormat("reslice%d", i + 1), "OPERATOR",
        [](const std::string& in) { return StageTag("reslice", in); }));
    engine->Connect(anatomy, "out", align, "in0");
    engine->Connect(header, "out", align, "in1");
    engine->Connect(reference, "out", align, "in2");
    engine->Connect(align, "out", reslice, "in");
    engine->Connect(reslice, "out", softmean, StrFormat("in%d", i));
  }

  std::vector<FileSinkOp*> sinks;
  for (char axis : {'x', 'y', 'z'}) {
    auto* slicer = engine->Add(std::make_unique<TransformOp>(
        StrFormat("slicer-%c", axis), "OPERATOR",
        [axis](const std::string& in) {
          return StageTag(StrFormat("slicer-%c", axis), in);
        }));
    slicer->SetParam("axis", std::string(1, axis));
    auto* convert = engine->Add(std::make_unique<TransformOp>(
        StrFormat("convert-%c", axis), "OPERATOR",
        [](const std::string& in) { return StageTag("convert", in); }));
    auto* sink = engine->Add(std::make_unique<FileSinkOp>(
        StrFormat("atlas-%c-sink", axis), paths.Atlas(axis)));
    engine->Connect(softmean, "out", slicer, "in");
    engine->Connect(slicer, "out", convert, "in");
    engine->Connect(convert, "out", sink, "in");
    sinks.push_back(static_cast<FileSinkOp*>(sink));
  }
  return sinks;
}

std::string MakeTabularData(uint64_t seed, size_t rows, size_t cols) {
  Rng rng(seed);
  std::string out;
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      out += StrFormat("%llu",
                       static_cast<unsigned long long>(rng.NextBelow(10000)));
      out += c + 1 == cols ? "\n" : "\t";
    }
  }
  return out;
}

void BuildTabularWorkflow(KeplerEngine* engine, const std::string& input,
                          const std::string& output,
                          const std::string& expression) {
  auto* source =
      engine->Add(std::make_unique<FileSourceOp>("table-source", input));
  auto* parser = engine->Add(std::make_unique<TransformOp>(
      "line-parser", "OPERATOR",
      [](const std::string& in) { return in; }, /*cpu_ns_per_byte=*/12.0));
  auto* extractor = engine->Add(std::make_unique<TransformOp>(
      "value-extractor", "OPERATOR",
      [](const std::string& in) {
        // Keep the first two columns of each row.
        std::string out;
        for (const std::string& line : Split(in, '\n')) {
          auto cols = Split(line, '\t');
          if (cols.size() >= 2) {
            out += cols[0] + "\t" + cols[1] + "\n";
          }
        }
        return out;
      },
      /*cpu_ns_per_byte=*/18.0));
  auto* reformatter = engine->Add(std::make_unique<TransformOp>(
      "reformatter", "OPERATOR",
      [expression](const std::string& in) {
        // Apply the user expression to each row: %a / %b substitute the
        // first and second column.
        std::string out;
        for (const std::string& line : Split(in, '\n')) {
          auto cols = Split(line, '\t');
          if (cols.size() < 2) {
            continue;
          }
          std::string row = expression;
          size_t pos = row.find("%a");
          if (pos != std::string::npos) {
            row.replace(pos, 2, cols[0]);
          }
          pos = row.find("%b");
          if (pos != std::string::npos) {
            row.replace(pos, 2, cols[1]);
          }
          out += row + "\n";
        }
        return out;
      },
      /*cpu_ns_per_byte=*/25.0));
  reformatter->SetParam("expression", expression);
  auto* sink = engine->Add(std::make_unique<FileSinkOp>("table-sink", output));
  engine->Connect(source, "out", parser, "in");
  engine->Connect(parser, "out", extractor, "in");
  engine->Connect(extractor, "out", reformatter, "in");
  engine->Connect(reformatter, "out", sink, "in");
}

}  // namespace pass::kepler
