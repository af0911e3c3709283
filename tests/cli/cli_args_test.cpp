// The CLI argument contract: tir-profile, trace_inspect, replay_cli and
// tit-convert must reject unknown flags, malformed operands and stray
// positionals with the usage text and exit 2 — a typo must never silently
// replay the wrong scenario (or convert the wrong number of ranks).
// Exercised against the real binaries (paths injected by CMake) through
// std::system.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <string>

#include "support/temp_dir.hpp"
#include "tit/trace.hpp"
#include "titio/writer.hpp"

namespace {

namespace fs = std::filesystem;

/// This process's scratch directory (the fixture trace and every output),
/// removed when the test program ends.
const fs::path& scratch_dir() {
  static const fs::path dir = [] {
    fs::path d = tir::test::unique_temp_dir("cli_args");
    fs::create_directories(d);
    return d;
  }();
  return dir;
}

class RemoveScratchDir : public ::testing::Environment {
 public:
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(scratch_dir(), ec);
  }
};

[[maybe_unused]] ::testing::Environment* const kRemoveScratchDir =
    ::testing::AddGlobalTestEnvironment(new RemoveScratchDir);

int run(const std::string& command) {
  // Quiet: these invocations are EXPECTED to complain on stderr.
  const int status = std::system((command + " >/dev/null 2>&1").c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

std::string titb_fixture() {
  static const std::string path = [] {
    const fs::path p = scratch_dir() / "fixture.titb";
    tir::tit::Trace trace = tir::tit::parse_trace_string(
        "p0 compute 1e7\np0 send p1 1024\np0 recv p1 1024\n"
        "p1 compute 1e7\np1 recv p0 1024\np1 send p0 1024\n",
        2);
    tir::titio::write_binary_trace(trace, p.string());
    return p.string();
  }();
  return path;
}

TEST(CliArgs, TraceInspectRejectsUnknownFlags) {
  const std::string inspect = TIR_TRACE_INSPECT;
  EXPECT_EQ(run(inspect + " --bogus " + titb_fixture()), 2);
  EXPECT_EQ(run(inspect + " -v"), 2);
  EXPECT_EQ(run(inspect), 2);  // no trace at all
}

TEST(CliArgs, TraceInspectRejectsExtraPositionalsAndBadNprocs) {
  const std::string inspect = TIR_TRACE_INSPECT;
  EXPECT_EQ(run(inspect + " " + titb_fixture() + " 4 extra"), 2);
  EXPECT_EQ(run(inspect + " " + titb_fixture() + " banana"), 2);
  EXPECT_EQ(run(inspect + " " + titb_fixture() + " 0"), 2);
}

TEST(CliArgs, TraceInspectAcceptsAValidTrace) {
  EXPECT_EQ(run(std::string(TIR_TRACE_INSPECT) + " " + titb_fixture()), 0);
}

TEST(CliArgs, ProfileRejectsUnknownFlagsAndOperands) {
  const std::string profile = TIR_PROFILE;
  EXPECT_EQ(run(profile + " --bogus " + titb_fixture()), 2);
  EXPECT_EQ(run(profile + " -backend bogus " + titb_fixture()), 2);
  EXPECT_EQ(run(profile + " -np"), 2);  // flag missing its value
  EXPECT_EQ(run(profile + " " + titb_fixture() + " stray.titb"), 2);
  EXPECT_EQ(run(profile), 2);
}

TEST(CliArgs, ProfileRejectsMalformedWindows) {
  const std::string profile = TIR_PROFILE;
  const std::string trace = " " + titb_fixture();
  EXPECT_EQ(run(profile + " -from banana -to 2" + trace), 2);
  EXPECT_EQ(run(profile + " -from 1" + trace), 2);            // -from without -to
  EXPECT_EQ(run(profile + " -from 2 -to 1" + trace), 2);      // inverted
  EXPECT_EQ(run(profile + " -from -1 -to 2" + trace), 2);     // negative
}

TEST(CliArgs, ProfileRunsColdAndWindowed) {
  const fs::path out = scratch_dir() / "profile_out";
  const std::string profile = TIR_PROFILE;
  const std::string tail = " -o " + out.string() + " " + titb_fixture();
  EXPECT_EQ(run(profile + tail), 0);
  // Windowed: records checkpoints on the fly, saves them into the .titb,
  // then a second windowed run adopts them from the file.
  EXPECT_EQ(run(profile + " -from 0 -to 0.001 -save-ckpt" + tail), 0);
  EXPECT_EQ(run(profile + " -from 0 -to 0.001" + tail), 0);
}

TEST(CliArgs, ReplayCliRejectsUnknownFlagsAndOperands) {
  const std::string replay = TIR_REPLAY_CLI;
  const std::string trace = " " + titb_fixture();
  EXPECT_EQ(run(replay + " --bogus" + trace), 2);
  EXPECT_EQ(run(replay + " -backend bogus" + trace), 2);  // not silently smpi
  EXPECT_EQ(run(replay + " -np"), 2);                     // flag missing its value
  EXPECT_EQ(run(replay + " -np banana" + trace), 2);
  EXPECT_EQ(run(replay + " -np 0" + trace), 2);
  EXPECT_EQ(run(replay + " -rate 1e9,banana" + trace), 2);
  EXPECT_EQ(run(replay + " -jobs two" + trace), 2);
  EXPECT_EQ(run(replay + trace + " stray.manifest"), 2);
  EXPECT_EQ(run(replay), 2);  // no manifest at all
}

TEST(CliArgs, ReplayCliRejectsMalformedPerturbations) {
  const std::string replay = TIR_REPLAY_CLI;
  const std::string trace = " " + titb_fixture();
  EXPECT_EQ(run(replay + " -perturb 'host.speed=gauss:0.1'" + trace), 2);
  EXPECT_EQ(run(replay + " -perturb 'host.speed=uniform:nope'" + trace), 2);
  EXPECT_EQ(run(replay + " -perturb 'seed=1;bogus.key=uniform:0.1'" + trace), 2);
  EXPECT_EQ(run(replay + " -perturb 'host.speed=uniform:0.1' -mc-seeds 0" + trace), 2);
  EXPECT_EQ(run(replay + " -mc-seeds 4" + trace), 2);  // -mc-seeds without -perturb...
  EXPECT_EQ(run(replay + " -tornado" + trace), 2);     // ...and -tornado likewise
}

TEST(CliArgs, ReplayCliRunsPointAndMonteCarlo) {
  const std::string replay = TIR_REPLAY_CLI;
  const std::string trace = " " + titb_fixture();
  EXPECT_EQ(run(replay + trace), 0);
  EXPECT_EQ(run(replay + " -rate 1e9,2e9 -contention" + trace), 0);
  EXPECT_EQ(run(replay +
                " -perturb 'seed=3;host.speed=uniform:0.2;link.bw=lognormal:0.1'"
                " -mc-seeds 3 -tornado -mc-report -" +
                trace),
            0);
}

TEST(CliArgs, TitConvertRejectsBadModesAndNprocs) {
  const std::string convert = TIR_TIT_CONVERT;
  EXPECT_EQ(run(convert), 2);
  EXPECT_EQ(run(convert + " banana " + titb_fixture()), 2);  // unknown mode
  EXPECT_EQ(run(convert + " info"), 2);                      // missing operand
  EXPECT_EQ(run(convert + " -v info " + titb_fixture()), 2);
  EXPECT_EQ(run(convert + " validate " + titb_fixture() + " banana"), 2);
  EXPECT_EQ(run(convert + " validate " + titb_fixture() + " 0"), 2);
  EXPECT_EQ(run(convert + " text2bin m.manifest out.titb 2x"), 2);
}

TEST(CliArgs, TitConvertRoundTripsAndValidates) {
  const std::string convert = TIR_TIT_CONVERT;
  const fs::path dir = scratch_dir() / "convert_out";
  fs::create_directories(dir);
  EXPECT_EQ(run(convert + " info " + titb_fixture()), 0);
  EXPECT_EQ(run(convert + " validate " + titb_fixture()), 0);
  EXPECT_EQ(run(convert + " bin2text " + titb_fixture() + " " + dir.string() + " t"), 0);
  const std::string manifest = (dir / "t.manifest").string();
  EXPECT_EQ(run(convert + " text2bin " + manifest + " " + (dir / "back.titb").string()), 0);
  fs::remove_all(dir);
}

}  // namespace
