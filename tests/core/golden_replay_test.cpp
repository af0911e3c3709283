// Cross-version bit-identity oracle for the simulation engine.
//
// The differential suites (tests/property/incremental_replay_test.cpp and
// friends) compare the engine against itself: Full vs Incremental, stream
// vs memory.  They cannot show that a change to the engine kept the
// predictions of the engine before it.  This test does: it pins the exact
// prediction (as a hexfloat), the engine step count and the replayed action
// count, plus the number of activities created (the time queue's tiebreak
// sequence), of small LU traces, acquired in-test with fixed seeds, under every
// back-end/sharing/resolve combination.  The acquisition run itself goes
// through the same engine, so its makespan and step count are pinned too.
//
// The values were recorded before the engine's constant-delay lanes were
// added and must never be edited to make an engine change pass: a mismatch
// means the change altered the simulated schedule.  They assume IEEE-754
// double arithmetic without FMA contraction (the default x86-64 build).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <iterator>
#include <string>

#include "apps/run.hpp"
#include "core/replay.hpp"
#include "exp/experiments.hpp"

namespace tir::core {
namespace {

struct Mode {
  const char* name;
  Backend backend;
  sim::Sharing sharing;
  sim::Resolve resolve;
};

constexpr Mode kModes[] = {
    {"smpi-uncontended", Backend::Smpi, sim::Sharing::Uncontended, sim::Resolve::Incremental},
    {"smpi-maxmin-incremental", Backend::Smpi, sim::Sharing::MaxMin, sim::Resolve::Incremental},
    {"smpi-maxmin-full", Backend::Smpi, sim::Sharing::MaxMin, sim::Resolve::Full},
    {"msg-uncontended", Backend::Msg, sim::Sharing::Uncontended, sim::Resolve::Incremental},
    {"msg-maxmin", Backend::Msg, sim::Sharing::MaxMin, sim::Resolve::Incremental},
};

struct Expected {
  double time;
  std::uint64_t steps;
  std::uint64_t actions;
};

struct Instance {
  bool graphene;  ///< cluster: graphene when set, bordereau otherwise
  char cls;
  int nprocs;
  int iterations;
  std::uint64_t seed;
  Expected acquisition;       ///< run_lu: wall_time, engine_steps, trace size
  Expected replays[std::size(kModes)];
};

// clang-format off
constexpr Instance kInstances[] = {
    {false, 'A', 8, 4, 1,
     {0x1.588f6b4188142p-2, 50074, 14624},  // acquisition
     {
         {0x1.4b5df7bb240ffp-2, 13078, 14624},  // smpi-uncontended
         {0x1.4c323ffaff755p-2, 13081, 14624},  // smpi-maxmin-incremental
         {0x1.4c323ffaff755p-2, 13081, 14624},  // smpi-maxmin-full
         {0x1.8467fea45519ep-2, 12919, 14624},  // msg-uncontended
         {0x1.85deb8eefd3cbp-2, 12983, 14624},  // msg-maxmin
     }},
    {false, 'B', 16, 2, 7,
     {0x1.89da3fc6db273p-2, 91292, 26496},  // acquisition
     {
         {0x1.7b6c9d0d20d2ap-2, 20732, 26496},  // smpi-uncontended
         {0x1.7b6d9ebfd36cep-2, 20753, 26496},  // smpi-maxmin-incremental
         {0x1.7b6d9ebfd36cep-2, 20753, 26496},  // smpi-maxmin-full
         {0x1.a9f2e4007ca59p-2, 19903, 26496},  // msg-uncontended
         {0x1.aa7ad864b8b0ap-2, 21731, 26496},  // msg-maxmin
     }},
    {true, 'B', 32, 1, 3,
     {0x1.3f8d1fdb29a01p-4, 99462, 28240},  // acquisition
     {
         {0x1.2e98fe3bf936fp-4, 28131, 28240},  // smpi-uncontended
         {0x1.31834aa65b36ep-4, 28139, 28240},  // smpi-maxmin-incremental
         {0x1.31834aa65b36ep-4, 28139, 28240},  // smpi-maxmin-full
         {0x1.8c688dd2438fbp-4, 22587, 28240},  // msg-uncontended
         {0x1.90031138c699cp-4, 23903, 28240},  // msg-maxmin
     }},
};

/// ReplayResult::activities_created per mode (one per kModes entry) for the
/// kInstances entry of the same index, recorded with the engine before its
/// single-owner activity slots.  Kept apart from Instance so that the test
/// parameter, and with it the printed test names, stays as it was.
constexpr std::uint64_t kActivities[][std::size(kModes)] = {
    {9554, 9558, 9558, 10754, 10730},
    {16771, 16770, 16770, 21105, 20442},
    {17685, 17689, 17689, 21612, 21480},
};
static_assert(std::size(kActivities) == std::size(kInstances));
// clang-format on

const std::uint64_t* activities_of(const Instance& inst) {
  for (std::size_t i = 0; i < std::size(kInstances); ++i)
    if (kInstances[i].graphene == inst.graphene && kInstances[i].cls == inst.cls &&
        kInstances[i].nprocs == inst.nprocs && kInstances[i].seed == inst.seed)
      return kActivities[i];
  return nullptr;
}

std::string describe(const Expected& e) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "{%a, %llu, %llu}", e.time,
                static_cast<unsigned long long>(e.steps),
                static_cast<unsigned long long>(e.actions));
  return buf;
}

void expect_exact(const Expected& want, const Expected& got, const std::string& what) {
  EXPECT_EQ(want.time, got.time) << what << ": got " << describe(got);
  EXPECT_EQ(want.steps, got.steps) << what << ": got " << describe(got);
  EXPECT_EQ(want.actions, got.actions) << what << ": got " << describe(got);
}

class GoldenReplay : public ::testing::TestWithParam<Instance> {};

TEST_P(GoldenReplay, PredictionsMatchPinnedBits) {
  const Instance& inst = GetParam();
  const std::uint64_t* activities = activities_of(inst);
  ASSERT_NE(activities, nullptr);
  const exp::ClusterSetup bd = inst.graphene ? exp::graphene_setup() : exp::bordereau_setup();
  apps::LuConfig lu;
  lu.cls = apps::nas_class(inst.cls);
  lu.nprocs = inst.nprocs;
  lu.iterations_override = inst.iterations;
  apps::AcquisitionConfig acq;
  acq.granularity = hwc::Granularity::Minimal;
  acq.compiler = hwc::kO3;
  acq.emit_trace = true;
  acq.seed = inst.seed;
  const apps::RunResult run = apps::run_lu(lu, bd.platform, apps::MachineModel(bd.truth), acq);
  expect_exact(inst.acquisition, {run.wall_time, run.engine_steps, run.trace.total_actions()},
               "acquisition");

  for (std::size_t m = 0; m < std::size(kModes); ++m) {
    const Mode& mode = kModes[m];
    ReplayConfig cfg;
    cfg.rates = {bd.truth.rate_in_cache};
    cfg.sharing = mode.sharing;
    cfg.resolve = mode.resolve;
    const ReplayResult r = replay(mode.backend, run.trace, bd.platform, cfg);
    expect_exact(inst.replays[m], {r.simulated_time, r.engine_steps, r.actions_replayed},
                 mode.name);
    EXPECT_EQ(activities[m], r.activities_created) << mode.name;
  }
}

INSTANTIATE_TEST_SUITE_P(Lu, GoldenReplay, ::testing::ValuesIn(kInstances),
                         [](const ::testing::TestParamInfo<Instance>& info) {
                           return std::string(info.param.graphene ? "graphene_" : "bordereau_") +
                                  info.param.cls + "_" + std::to_string(info.param.nprocs);
                         });

}  // namespace
}  // namespace tir::core
