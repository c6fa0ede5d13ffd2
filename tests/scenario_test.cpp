// Integration tests: the full system (all SystemKinds) on scaled-down
// versions of the paper's setup — completion, conservation, determinism
// and cross-system ordering properties.
#include "core/scenario.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "cli/scenario_registry.hpp"
#include "util/flags.hpp"

namespace brb::core {
namespace {

ScenarioConfig quick_config(SystemKind kind, std::uint64_t seed = 1) {
  ScenarioConfig config;
  config.system = kind;
  config.seed = seed;
  config.num_tasks = 4000;
  config.key_spec = "zipf:20000:0.9";
  config.warmup_fraction = 0.05;
  return config;
}

class AllSystems : public ::testing::TestWithParam<SystemKind> {};

TEST_P(AllSystems, CompletesEveryTaskAndConservesRequests) {
  const ScenarioConfig config = quick_config(GetParam());
  const RunResult result = run_scenario(config);

  EXPECT_EQ(result.tasks_completed, config.num_tasks);
  EXPECT_EQ(result.tasks_submitted, config.num_tasks);
  // Every submitted request got exactly one response.
  EXPECT_GT(result.requests_completed, config.num_tasks);  // fan-out > 1
  // Latency recorders saw the measured tasks.
  EXPECT_EQ(result.task_latency.count(), result.tasks_measured);
  EXPECT_GT(result.tasks_measured, 0u);
  EXPECT_LT(result.tasks_measured, config.num_tasks + 1);
}

TEST_P(AllSystems, LatencyIsBoundedBelowByNetworkAndService) {
  const ScenarioConfig config = quick_config(GetParam());
  const RunResult result = run_scenario(config);
  // A task cannot complete faster than two network hops plus the
  // service floor (base overhead).
  const auto floor_ns = (config.net_latency + config.net_latency + config.service_base)
                            .count_nanos();
  EXPECT_GE(result.task_latency.min().count_nanos(), floor_ns);
}

TEST_P(AllSystems, UtilizationNearTarget) {
  ScenarioConfig config = quick_config(GetParam());
  config.num_tasks = 20000;
  const RunResult result = run_scenario(config);
  // Mean utilization should be in the ballpark of the 70% target
  // (finite-run noise and drain-out allowed for).
  EXPECT_GT(result.mean_utilization, 0.45);
  EXPECT_LT(result.mean_utilization, 0.90);
}

TEST_P(AllSystems, DeterministicForFixedSeed) {
  const ScenarioConfig config = quick_config(GetParam(), 77);
  const RunResult a = run_scenario(config);
  const RunResult b = run_scenario(config);
  EXPECT_EQ(a.task_latency.percentile(50).count_nanos(),
            b.task_latency.percentile(50).count_nanos());
  EXPECT_EQ(a.task_latency.percentile(99).count_nanos(),
            b.task_latency.percentile(99).count_nanos());
  EXPECT_EQ(a.events_processed, b.events_processed);
  EXPECT_EQ(a.network_messages, b.network_messages);
}

TEST_P(AllSystems, DifferentSeedsDiffer) {
  const RunResult a = run_scenario(quick_config(GetParam(), 1));
  const RunResult b = run_scenario(quick_config(GetParam(), 2));
  EXPECT_NE(a.task_latency.mean().count_nanos(), b.task_latency.mean().count_nanos());
}

INSTANTIATE_TEST_SUITE_P(
    Systems, AllSystems, ::testing::ValuesIn(all_system_kinds()),
    [](const ::testing::TestParamInfo<SystemKind>& info) {
      std::string name = to_string(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(Scenario, RejectsBadConfigs) {
  ScenarioConfig config = quick_config(SystemKind::kC3);
  config.num_tasks = 0;
  EXPECT_THROW(run_scenario(config), std::invalid_argument);

  config = quick_config(SystemKind::kC3);
  config.utilization = 0.0;
  EXPECT_THROW(run_scenario(config), std::invalid_argument);

  config = quick_config(SystemKind::kC3);
  config.num_clients = 0;
  EXPECT_THROW(run_scenario(config), std::invalid_argument);

  config = quick_config(SystemKind::kC3);
  config.warmup_fraction = 1.0;
  EXPECT_THROW(run_scenario(config), std::invalid_argument);
}

TEST(Scenario, SummaryMatchesRecorder) {
  const RunResult result = run_scenario(quick_config(SystemKind::kEqualMaxModel));
  const LatencySummary summary = summarize_tasks(result);
  EXPECT_DOUBLE_EQ(summary.p50_ms, result.task_latency.percentile(50).as_millis());
  EXPECT_DOUBLE_EQ(summary.p99_ms, result.task_latency.percentile(99).as_millis());
  EXPECT_GE(summary.p99_ms, summary.p95_ms);
  EXPECT_GE(summary.p95_ms, summary.p50_ms);
}

TEST(Scenario, RunSeedsAggregatesAcrossRuns) {
  ScenarioConfig config = quick_config(SystemKind::kEqualMaxModel);
  config.num_tasks = 2000;
  const AggregateResult agg = run_seeds(config, {1, 2, 3});
  EXPECT_EQ(agg.runs.size(), 3u);
  EXPECT_EQ(agg.p99_ms.count(), 3u);
  EXPECT_GT(agg.p50_ms.mean(), 0.0);
  // Seeds differ, so some spread exists but is finite.
  EXPECT_GE(agg.p99_ms.stddev(), 0.0);
}

TEST(Scenario, ParallelSeedsMatchSerialBitExactly) {
  ScenarioConfig config = quick_config(SystemKind::kEqualMaxCredits);
  config.num_tasks = 3000;
  const AggregateResult serial = run_seeds(config, {1, 2, 3}, /*parallel=*/false);
  const AggregateResult parallel = run_seeds(config, {1, 2, 3}, /*parallel=*/true);
  ASSERT_EQ(serial.runs.size(), parallel.runs.size());
  for (std::size_t i = 0; i < serial.runs.size(); ++i) {
    EXPECT_EQ(serial.runs[i].task_latency.percentile(99).count_nanos(),
              parallel.runs[i].task_latency.percentile(99).count_nanos());
    EXPECT_EQ(serial.runs[i].events_processed, parallel.runs[i].events_processed);
    EXPECT_EQ(serial.runs[i].network_messages, parallel.runs[i].network_messages);
  }
  EXPECT_DOUBLE_EQ(serial.p99_ms.mean(), parallel.p99_ms.mean());
}

TEST(Scenario, ModelNeverWorseThanCreditsAtP99) {
  // The ideal model is the lower bound BRB aims for; with matched
  // seeds and a non-trivial run it must not lose to the realizable
  // credits scheme at the tail.
  ScenarioConfig model_config = quick_config(SystemKind::kEqualMaxModel, 5);
  ScenarioConfig credits_config = quick_config(SystemKind::kEqualMaxCredits, 5);
  model_config.num_tasks = 20000;
  credits_config.num_tasks = 20000;
  const RunResult model = run_scenario(model_config);
  const RunResult credits = run_scenario(credits_config);
  EXPECT_LE(model.task_latency.percentile(99).count_nanos(),
            credits.task_latency.percentile(99).count_nanos() * 11 / 10);
}

TEST(Scenario, TaskAwareBeatsTaskObliviousAtTail) {
  ScenarioConfig brb_config = quick_config(SystemKind::kEqualMaxDirect, 5);
  ScenarioConfig fifo_config = quick_config(SystemKind::kFifoDirect, 5);
  brb_config.num_tasks = 20000;
  fifo_config.num_tasks = 20000;
  const RunResult brb = run_scenario(brb_config);
  const RunResult fifo = run_scenario(fifo_config);
  EXPECT_LT(brb.task_latency.percentile(99).count_nanos(),
            fifo.task_latency.percentile(99).count_nanos());
}

// Exact queueing pins: any change in a discipline's pop order moves
// which replica serves what, and with it these counts. One row per
// policy-matrix system, plus a write-heavy ideal-model run whose
// writes wait in per-server pinned queues. Model systems queue in the
// global model, so their per-server max queue stays 0.
struct QueuePin {
  SystemKind system;
  double write_fraction;
  std::uint64_t requests_completed;
  std::vector<std::uint64_t> served;
  std::vector<std::uint64_t> max_queue_seen;
};

const std::vector<QueuePin>& queue_pins() {
  static const std::vector<QueuePin> pins = {
      {SystemKind::kRandomFifo, 0.0, 26474,
       {2785, 2727, 2628, 2912, 2776, 3056, 3307, 3284, 2999},
       {217, 191, 181, 146, 216, 242, 254, 232, 193}},
      {SystemKind::kFifoDirect, 0.0, 26474,
       {2777, 2860, 2828, 2796, 2888, 3280, 3127, 3083, 2835},
       {176, 218, 235, 241, 147, 242, 310, 160, 265}},
      {SystemKind::kRequestSjfDirect, 0.0, 26474,
       {2713, 2918, 2712, 2871, 2797, 3243, 3202, 3116, 2902},
       {128, 131, 94, 152, 119, 107, 226, 136, 104}},
      {SystemKind::kC3, 0.0, 26474,
       {2805, 2741, 2978, 2995, 2895, 3113, 2839, 3041, 3067},
       {40, 45, 42, 57, 34, 49, 41, 42, 72}},
      {SystemKind::kEqualMaxDirect, 0.0, 26474,
       {2811, 2882, 2614, 2766, 2795, 3250, 3200, 3243, 2913},
       {174, 178, 209, 179, 193, 218, 273, 224, 204}},
      {SystemKind::kUnifIncrDirect, 0.0, 26474,
       {2827, 2901, 2603, 2769, 2822, 3245, 3220, 3213, 2874},
       {232, 202, 212, 229, 225, 262, 325, 263, 251}},
      {SystemKind::kEqualMaxCredits, 0.0, 26474,
       {2811, 2882, 2614, 2766, 2795, 3250, 3200, 3243, 2913},
       {174, 178, 209, 179, 193, 218, 273, 224, 204}},
      {SystemKind::kUnifIncrCredits, 0.0, 26474,
       {2827, 2901, 2603, 2769, 2822, 3245, 3220, 3213, 2874},
       {232, 202, 212, 229, 225, 262, 325, 263, 251}},
      {SystemKind::kCumSlackCredits, 0.0, 26474,
       {2936, 2878, 2676, 2784, 2813, 3239, 3162, 3207, 2779},
       {191, 199, 189, 211, 232, 218, 259, 247, 245}},
      {SystemKind::kFifoModel, 0.0, 26474,
       {2828, 3003, 2697, 3019, 3023, 3199, 3080, 2849, 2776},
       {0, 0, 0, 0, 0, 0, 0, 0, 0}},
      {SystemKind::kEqualMaxModel, 0.0, 26474,
       {2814, 2987, 2728, 2979, 2932, 3109, 3296, 2914, 2715},
       {0, 0, 0, 0, 0, 0, 0, 0, 0}},
      {SystemKind::kUnifIncrModel, 0.0, 26474,
       {2688, 3003, 2963, 2934, 2977, 3170, 3020, 2888, 2831},
       {0, 0, 0, 0, 0, 0, 0, 0, 0}},
      {SystemKind::kCumSlackModel, 0.0, 26474,
       {2574, 2975, 2915, 2927, 2840, 3205, 3230, 2994, 2814},
       {0, 0, 0, 0, 0, 0, 0, 0, 0}},
      {SystemKind::kFifoModel, 0.2, 31830,
       {3306, 3507, 3413, 3621, 3467, 3672, 3577, 3718, 3549},
       {0, 0, 0, 0, 0, 0, 0, 0, 0}},
  };
  return pins;
}

TEST(Scenario, QueueCountsMatchPins) {
  for (const QueuePin& pin : queue_pins()) {
    ScenarioConfig config = quick_config(pin.system);
    config.num_tasks = 3000;
    config.utilization = 0.9;  // deep enough queues to grow the FIFO ring
    config.write_fraction = pin.write_fraction;
    const RunResult result = run_scenario(config);
    const std::string label =
        to_string(pin.system) + (pin.write_fraction > 0.0 ? " with writes" : "");
    EXPECT_EQ(result.requests_completed, pin.requests_completed) << label;
    std::vector<std::uint64_t> served;
    std::vector<std::uint64_t> max_queue_seen;
    for (const server::ServerStats& stats : result.server_stats) {
      served.push_back(stats.served);
      max_queue_seen.push_back(stats.max_queue_seen);
    }
    EXPECT_EQ(served, pin.served) << label;
    EXPECT_EQ(max_queue_seen, pin.max_queue_seen) << label;
  }
}

// Exact-count gate: events and network messages per run. Wall time
// drifts between runs on shared hosts; these counts do not, so a
// change that claims to run the same events (an engine refactor, a
// dispatch fast path) is checked here without timing anything. The
// cases are the `paper` scenario's own configs at one seed and task
// count; a change that moves a count must say why and re-pin it.
struct EventCountPin {
  const char* label;
  std::uint64_t events_processed;
  std::uint64_t network_messages;
};

TEST(Scenario, PaperEventAndMessageCountsArePinned) {
  const cli::ScenarioSpec* spec = cli::find_scenario("paper");
  ASSERT_NE(spec, nullptr);
  ScenarioConfig base;
  base.num_tasks = 2000;
  const std::vector<cli::ExperimentCase> cases = spec->expand(base, util::Flags{});
  for (const EventCountPin& pin : {EventCountPin{"equalmax-credits", 49900, 31920},
                                   EventCountPin{"c3", 66455, 31884}}) {
    const auto it = std::find_if(cases.begin(), cases.end(),
                                 [&](const cli::ExperimentCase& c) { return c.label == pin.label; });
    ASSERT_NE(it, cases.end()) << pin.label;
    ScenarioConfig config = it->config;
    config.seed = 1;
    const RunResult result = run_scenario(config);
    EXPECT_EQ(result.tasks_completed, 2000u) << pin.label;
    EXPECT_EQ(result.events_processed, pin.events_processed) << pin.label;
    EXPECT_EQ(result.network_messages, pin.network_messages) << pin.label;
  }
}

}  // namespace
}  // namespace brb::core
