// Exact-count gates: libm calls per unit of simulated work.
//
// Wall time drifts between runs on shared hosts; the number of `pow`,
// `exp` and `log` calls a fixed simulation makes does not. This binary
// is linked with `-Wl,--wrap=pow,--wrap=exp,--wrap=log`, so every call
// from the simulator (and from this file) reaches a counting shim
// before the real function. A change that adds transcendental work to
// the hot path moves a pinned count and fails here, on every build.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>

#include "cli/scenario_registry.hpp"
#include "core/scenario.hpp"
#include "util/flags.hpp"
#include "util/rng.hpp"

namespace {

struct MathCalls {
  std::uint64_t pow = 0;
  std::uint64_t exp = 0;
  std::uint64_t log = 0;
};

// Single-threaded test binary: plain counters suffice.
MathCalls g_calls;

}  // namespace

extern "C" {
double __real_pow(double, double);  // NOLINT(bugprone-reserved-identifier)
double __real_exp(double);          // NOLINT(bugprone-reserved-identifier)
double __real_log(double);          // NOLINT(bugprone-reserved-identifier)

double __wrap_pow(double x, double y) {  // NOLINT(bugprone-reserved-identifier)
  ++g_calls.pow;
  return __real_pow(x, y);
}
double __wrap_exp(double x) {  // NOLINT(bugprone-reserved-identifier)
  ++g_calls.exp;
  return __real_exp(x);
}
double __wrap_log(double x) {  // NOLINT(bugprone-reserved-identifier)
  ++g_calls.log;
  return __real_log(x);
}
}

namespace brb {
namespace {

MathCalls count_calls_of(const auto& fn) {
  g_calls = MathCalls{};
  fn();
  return g_calls;
}

TEST(CountGate, WrappedMathIsCounted) {
  // Guards the gate itself: a build that inlined or renamed the calls
  // would otherwise pass every pin below with zeros. `volatile` keeps
  // the arguments opaque to constant folding.
  volatile double x = 3.0;
  const MathCalls calls = count_calls_of([&] {
    EXPECT_GT(std::pow(x, 0.3), 1.0);
    EXPECT_GT(std::exp(x), 1.0);
    EXPECT_GT(std::log(x), 1.0);
  });
  EXPECT_EQ(calls.pow, 1u);
  EXPECT_EQ(calls.exp, 1u);
  EXPECT_EQ(calls.log, 1u);
}

TEST(CountGate, ZipfDrawTakesTheSqueeze) {
  // Rejection-inversion spends one `pow` per candidate (the inverse);
  // candidates outside the squeeze pay two more for the exact test.
  // At the paper's skew nearly every candidate is inside it.
  const util::ZipfDistribution zipf(0.9, 100'000);
  util::Rng rng(7);
  constexpr std::uint64_t kDraws = 200'000;
  const MathCalls calls = count_calls_of([&] {
    std::uint64_t sum = 0;
    for (std::uint64_t i = 0; i < kDraws; ++i) sum += zipf.sample(rng);
    EXPECT_GT(sum, kDraws);
  });
  const double pow_per_draw = static_cast<double>(calls.pow) / static_cast<double>(kDraws);
  EXPECT_GE(pow_per_draw, 1.0);
  EXPECT_LE(pow_per_draw, 1.05);
  EXPECT_EQ(calls.exp, 0u);
  EXPECT_EQ(calls.log, 0u);
}

core::ScenarioConfig paper_case(const std::string& label, std::uint64_t tasks,
                                std::uint64_t seed) {
  const cli::ScenarioSpec* spec = cli::find_scenario("paper");
  if (spec == nullptr) throw std::logic_error("paper scenario not registered");
  core::ScenarioConfig base;
  base.num_tasks = tasks;
  for (cli::ExperimentCase& c : spec->expand(base, util::Flags{})) {
    if (c.label == label) {
      c.config.seed = seed;
      return std::move(c.config);
    }
  }
  throw std::logic_error("paper scenario has no case " + label);
}

TEST(CountGate, PaperEqualMaxCreditsCallsPerTaskArePinned) {
  // The paper's EqualMax+credits system, run for 1000 and for 2000
  // tasks on one seed. Set-up (dataset sizes, fan-out table, service
  // calibration) is identical in both runs, so it cancels: the
  // difference is what the second 1000 tasks cost in generation,
  // dispatch, service and statistics. Counts are exact for a fixed
  // seed; a change that moves one must say why and re-pin it.
  const auto run_counted = [](std::uint64_t tasks) {
    const core::ScenarioConfig config = paper_case("equalmax-credits", tasks, 1);
    core::RunResult result;
    const MathCalls calls = count_calls_of([&] { result = core::run_scenario(config); });
    EXPECT_EQ(result.tasks_completed, tasks);
    return calls;
  };
  const MathCalls short_run = run_counted(1000);
  const MathCalls long_run = run_counted(2000);
  // Per task: the Zipf key draws at one `pow` each, plus two more for
  // the ~1.3% of candidates outside the squeeze (8.73 per task; 25.46
  // when the squeeze never fired); one `exp` and one `log` for the
  // log-normal fan-out, and one `log` for the Poisson arrival gap.
  EXPECT_EQ(long_run.pow - short_run.pow, 8727u);
  EXPECT_EQ(long_run.exp - short_run.exp, 1000u);
  EXPECT_EQ(long_run.log - short_run.log, 2000u);
}

}  // namespace
}  // namespace brb
