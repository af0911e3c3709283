// Chaos harness: seeded fault schedules against a live in-process daemon.
//
// The invariant (ISSUE 7, docs/robustness.md "Service hardening"): under any
// fault schedule, every submitted job terminates with a definite outcome —
// completed, rejected, transport-failed after bounded retries, or
// deadline-expired — never hung; and every *completed* prediction is
// bit-identical to a fault-free run (degraded or not: shedding a cache only
// re-pays the decode, it never changes the prediction).
//
// The fault plan is process-global, so schedules here perturb both sides at
// once: server accept/read/write/cache-load and client dial/read/write.
// Determinism comes from fault::FaultPlan's seeded per-point streams and
// svc::RetryPolicy's seeded jitter.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "base/error.hpp"
#include "base/fault.hpp"
#include "support/temp_dir.hpp"
#include "svc/client.hpp"
#include "svc/server.hpp"
#include "tit/trace.hpp"
#include "titio/writer.hpp"

namespace tir::svc {
namespace {

namespace fs = std::filesystem;

class SvcChaosBase : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = test::unique_temp_dir("tird_chaos");
    fs::create_directories(dir_);
    trace_path_ = (dir_ / "t.titb").string();
    titio::write_binary_trace(tit::parse_trace_string(
                                  "p0 compute 1e9\n"
                                  "p0 send p1 1024\n"
                                  "p1 recv p0 1024\n"
                                  "p1 compute 2e9\n",
                                  2),
                              trace_path_);
    fault::disarm();  // never inherit a plan from a crashed prior test
  }
  void TearDown() override {
    fault::disarm();
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  std::string endpoint(const std::string& name) const { return "unix:" + (dir_ / name).string(); }

  JobRequest job(double rate) const {
    JobRequest request;
    request.op = "predict";
    request.trace = trace_path_;
    ScenarioSpec spec;
    spec.label = "s";
    spec.rates = {rate};
    request.scenarios.push_back(spec);
    return request;
  }

  /// The fault-free truth: one clean run per distinct rate, keyed by rate.
  struct Truth {
    double simulated_time = 0;
    std::uint64_t actions_replayed = 0;
    std::uint64_t engine_steps = 0;
  };

  Truth reference(double rate) {
    ServerOptions options;
    options.endpoint = endpoint("ref.sock");
    options.workers = 1;
    Server server(options);
    server.start();
    Client client(server.endpoint());
    const JobResult result = client.submit(job(rate));
    EXPECT_TRUE(result.done) << result.error;
    EXPECT_EQ(result.scenarios.size(), 1u);
    const core::ScenarioOutcome outcome = parse_scenario(result.scenarios.at(0));
    EXPECT_TRUE(outcome.ok) << outcome.error;
    return Truth{outcome.result.simulated_time, outcome.result.actions_replayed,
                 outcome.result.engine_steps};
  }

  /// One seeded schedule: probabilities rotate emphasis across the five
  /// required fault kinds (reset, short write, accept failure, stall,
  /// cache allocation failure) plus EINTR/EAGAIN storms and dial resets,
  /// capped with small max_fires so late attempts run clean.
  static std::string schedule_spec(int seed) {
    const double p = 0.04 + 0.02 * (seed % 5);  // 0.04 .. 0.12
    char spec[512];
    std::snprintf(spec, sizeof spec,
                  "seed=%d"
                  ";svc.net.write=short:%.2f:16;svc.net.write=eintr:%.2f:16"
                  ";svc.net.write=reset:%.2f:4"
                  ";svc.net.read=reset:%.2f:4;svc.net.read=stall:%.2f:8"
                  ";svc.net.read=eintr:%.2f:16"
                  ";svc.net.accept=accept-fail:%.2f:8"
                  ";svc.net.dial=reset:%.2f:2"
                  ";svc.cache.load=alloc-fail:%.2f:4",
                  seed, 2 * p, p, p / 2, p, p, p, p, p / 2, p);
    return spec;
  }

  /// Run one schedule end to end and enforce the invariant.
  void run_schedule(int seed, const Truth& truth_a, const Truth& truth_b) {
    const fault::ScopedPlan plan(schedule_spec(seed));

    ServerOptions options;
    options.endpoint = endpoint("chaos" + std::to_string(seed) + ".sock");
    options.workers = 2;
    options.queue_capacity = 4;
    options.retry_after_ms = 5;
    Server server(options);
    server.start();
    const std::string ep = server.endpoint();

    constexpr int kClients = 3;
    constexpr int kJobsPerClient = 2;
    std::vector<JobResult> results(kClients * kJobsPerClient);
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        for (int k = 0; k < kJobsPerClient; ++k) {
          RetryPolicy policy;
          policy.max_attempts = 6;
          policy.base_ms = 2.0;
          policy.max_backoff_ms = 50.0;
          policy.deadline_seconds = 30.0;  // generous: sanitizers are slow
          policy.seed = static_cast<std::uint64_t>(seed * 100 + c * 10 + k);
          const double rate = (c + k) % 2 == 0 ? 1e9 : 2e9;
          results[static_cast<std::size_t>(c * kJobsPerClient + k)] =
              submit_with_retry(ep, job(rate), policy);
        }
      });
    }
    for (std::thread& t : clients) t.join();
    server.shutdown();
    server.wait();

    for (int i = 0; i < kClients * kJobsPerClient; ++i) {
      const JobResult& r = results[static_cast<std::size_t>(i)];
      const int c = i / kJobsPerClient;
      const int k = i % kJobsPerClient;
      // Definite outcome: exactly one terminal classification, never "still
      // waiting".  (A hang would never return and trip the test timeout.)
      const bool definite = r.done || r.rejected || r.failed;
      EXPECT_TRUE(definite) << "seed " << seed << " job " << i << " has no terminal outcome";
      if (!r.done) continue;
      // Bit-identity of every completed, non-cancelled prediction.
      const Truth& truth = (c + k) % 2 == 0 ? truth_a : truth_b;
      for (const Json& line : r.scenarios) {
        const core::ScenarioOutcome outcome = parse_scenario(line);
        if (!outcome.ok) {
          EXPECT_EQ(outcome.error_code, ErrorCode::Cancelled)
              << "seed " << seed << ": non-deadline scenario failure: " << outcome.error;
          continue;
        }
        EXPECT_EQ(outcome.result.simulated_time, truth.simulated_time) << "seed " << seed;
        EXPECT_EQ(outcome.result.actions_replayed, truth.actions_replayed) << "seed " << seed;
        EXPECT_EQ(outcome.result.engine_steps, truth.engine_steps) << "seed " << seed;
      }
    }
  }

  fs::path dir_;
  std::string trace_path_;
};

using SvcChaosSmoke = SvcChaosBase;
using SvcChaosFull = SvcChaosBase;

TEST_F(SvcChaosSmoke, SeededSchedulesHoldInvariant) {
  const Truth truth_a = reference(1e9);
  const Truth truth_b = reference(2e9);
  for (int seed = 1; seed <= 8; ++seed) run_schedule(seed, truth_a, truth_b);
}

TEST_F(SvcChaosFull, FiftySeededSchedulesHoldInvariant) {
  const Truth truth_a = reference(1e9);
  const Truth truth_b = reference(2e9);
  // Seeds 9.. so the full suite extends the smoke subset to >= 50 distinct
  // schedules without repeating it.
  for (int seed = 9; seed <= 58; ++seed) run_schedule(seed, truth_a, truth_b);
}

TEST_F(SvcChaosBase, DisarmedPlanInjectsNothing) {
  ASSERT_FALSE(fault::armed());
  EXPECT_EQ(fault::point("svc.net.read"), fault::Kind::None);
  EXPECT_EQ(fault::fired_total(), 0u);
}

TEST_F(SvcChaosBase, ArmedScheduleActuallyFires) {
  const fault::ScopedPlan plan("seed=3;svc.net.read=eintr:1.0:5");
  int fired = 0;
  for (int i = 0; i < 32; ++i) {
    if (fault::point("svc.net.read") == fault::Kind::Eintr) ++fired;
  }
  EXPECT_EQ(fired, 5);  // probability 1, capped by max_fires
  EXPECT_EQ(fault::fired_total(), 5u);
}

}  // namespace
}  // namespace tir::svc
