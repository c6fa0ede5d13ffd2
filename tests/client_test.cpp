// Tests for the application-server client: task splitting, planning,
// dispatch gates, in-flight tracking, completion semantics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "client/app_client.hpp"
#include "client/dispatch_gate.hpp"
#include "ctrl/dispatch_policy.hpp"
#include "policy/priority_policy.hpp"
#include "server/service_model.hpp"
#include "sim/simulator.hpp"
#include "store/partitioner.hpp"
#include "util/rng.hpp"

namespace brb::client {
namespace {

using sim::Duration;
using sim::Time;

/// Single-target endpoint over one inner replica policy — the
/// dispatch-plan equivalent of the old selector argument.
std::unique_ptr<ctrl::DispatchEndpoint> single_endpoint(
    std::unique_ptr<ctrl::ReplicaPolicy> inner) {
  return std::make_unique<ctrl::DispatchEndpoint>(
      ctrl::SignalTableConfig{},
      std::make_unique<ctrl::SingleTargetAdapter>(std::move(inner)), util::Rng(99),
      store::TenantId{0});
}

/// Captures outbound traffic instead of a network.
struct ClientFixture {
  sim::Simulator simulator;
  store::RingPartitioner partitioner{3, 2};
  server::SizeLinearServiceModel cost_model{Duration::zero(), 1000.0};  // 1us/byte
  std::unique_ptr<policy::PriorityPolicy> policy;
  std::unique_ptr<AppClient> client;
  std::vector<OutboundRequest> sent;
  std::vector<std::pair<store::TaskId, Duration>> completed_tasks;
  std::vector<Duration> completed_requests;

  /// `dispatch` replaces the single-target endpoint (multi-copy modes).
  explicit ClientFixture(const std::string& policy_name, AppClient::Config config = {},
                         std::unique_ptr<ctrl::DispatchPolicy> dispatch = nullptr)
      : policy(policy::make_priority_policy(policy_name)) {
    client = std::make_unique<AppClient>(
        simulator, config, partitioner, cost_model,
        dispatch ? std::make_unique<ctrl::DispatchEndpoint>(ctrl::SignalTableConfig{},
                                                            std::move(dispatch), util::Rng(99),
                                                            store::TenantId{0})
                 : single_endpoint(std::make_unique<ctrl::FirstReplicaPolicy>()),
        *policy, std::make_unique<DirectGate>(), util::Rng(1));
    client->set_network_send([this](const OutboundRequest& out) { sent.push_back(out); });
    AppClient::Hooks hooks;
    hooks.on_task_complete = [this](const workload::TaskSpec& task, Duration latency) {
      completed_tasks.emplace_back(task.id, latency);
    };
    hooks.on_request_complete = [this](Duration latency) {
      completed_requests.push_back(latency);
    };
    client->set_hooks(hooks);
  }

  workload::TaskSpec task(store::TaskId id, std::vector<store::KeyId> keys,
                          std::uint32_t size = 100) {
    workload::TaskSpec spec;
    spec.id = id;
    spec.client = 0;
    for (const store::KeyId key : keys) spec.requests.push_back({key, size});
    return spec;
  }

  store::ReadResponse response_for(const OutboundRequest& out) {
    store::ReadResponse response;
    response.request_id = out.request.request_id;
    response.task_id = out.request.task_id;
    response.key = out.request.key;
    response.client = out.request.client;
    response.server = out.server;
    response.value_size = 100;
    return response;
  }
};

TEST(AppClient, SplitsTaskIntoPerGroupSubtasks) {
  ClientFixture f("equalmax");
  f.simulator.schedule_at(Time::zero(), [&] {
    f.client->submit(f.task(1, {0, 1, 2, 3, 4, 5, 6, 7}));
  });
  f.simulator.run();
  ASSERT_EQ(f.sent.size(), 8u);
  // Every request was routed to a replica of its key's group.
  for (const auto& out : f.sent) {
    const auto group = f.partitioner.group_of(out.request.key);
    EXPECT_EQ(out.group, group);
    const auto& replicas = f.partitioner.replicas_of(group);
    EXPECT_NE(std::find(replicas.begin(), replicas.end(), out.server), replicas.end());
  }
}

TEST(AppClient, ReadsCarryTheirValueSize) {
  // A replica stores only sizes that differ from the dataset's; every
  // other read is served at the size the request carries.
  ClientFixture f("equalmax");
  f.simulator.schedule_at(Time::zero(), [&] { f.client->submit(f.task(1, {0, 1, 2}, 777)); });
  f.simulator.run();
  ASSERT_EQ(f.sent.size(), 3u);
  for (const auto& out : f.sent) {
    EXPECT_FALSE(out.request.is_write);
    EXPECT_EQ(out.request.value_size, 777u);
  }
}

TEST(AppClient, EveryDuplicateCopyCarriesTheValueSize) {
  // Hedge, tied and k-of-n copies are built from one template request;
  // each copy may be the one a replica serves, so each must carry the
  // size.
  const auto first = [] {
    return std::make_unique<ctrl::SingleTargetAdapter>(std::make_unique<ctrl::FirstReplicaPolicy>());
  };
  std::vector<std::pair<std::string, std::unique_ptr<ctrl::DispatchPolicy>>> modes;
  modes.emplace_back("hedge", std::make_unique<ctrl::HedgeDispatchPolicy>(first(), 0.95,
                                                                          Duration::micros(50)));
  modes.emplace_back("tied", std::make_unique<ctrl::TiedDispatchPolicy>(first()));
  modes.emplace_back("kofn", std::make_unique<ctrl::KofnDispatchPolicy>(first(), 1));
  for (auto& [name, dispatch] : modes) {
    ClientFixture f("equalmax", {}, std::move(dispatch));
    // No responses arrive, so the hedge deadline fires its back-up.
    f.simulator.schedule_at(Time::zero(), [&] { f.client->submit(f.task(1, {4}, 777)); });
    f.simulator.run();
    ASSERT_EQ(f.sent.size(), 2u) << name;
    EXPECT_NE(f.sent[0].server, f.sent[1].server) << name;
    for (const auto& out : f.sent) EXPECT_EQ(out.request.value_size, 777u) << name;
  }
}

TEST(AppClient, SubtaskRequestsShareOneServer) {
  ClientFixture f("equalmax");
  f.simulator.schedule_at(Time::zero(), [&] {
    f.client->submit(f.task(1, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
  });
  f.simulator.run();
  std::map<store::GroupId, store::ServerId> chosen;
  for (const auto& out : f.sent) {
    const auto [it, inserted] = chosen.emplace(out.group, out.server);
    if (!inserted) {
      EXPECT_EQ(it->second, out.server) << "sub-task split across servers";
    }
  }
}

TEST(AppClient, EqualMaxStampsBottleneckOnEveryRequest) {
  ClientFixture f("equalmax");
  // Keys chosen so that one group receives two requests: bottleneck =
  // sum of that group's costs. All sizes 100 bytes -> 100us each.
  std::vector<store::KeyId> keys;
  std::map<store::GroupId, int> group_counts;
  for (store::KeyId k = 0; keys.size() < 3; ++k) {
    const auto g = f.partitioner.group_of(k);
    if (group_counts[g] < 2) {
      keys.push_back(k);
      ++group_counts[g];
    }
  }
  f.simulator.schedule_at(Time::zero(), [&] { f.client->submit(f.task(1, keys)); });
  f.simulator.run();
  ASSERT_EQ(f.sent.size(), 3u);
  int max_group_requests = 0;
  for (const auto& [g, c] : group_counts) max_group_requests = std::max(max_group_requests, c);
  const double expected_priority = 100'000.0 * max_group_requests;
  for (const auto& out : f.sent) {
    EXPECT_DOUBLE_EQ(out.request.priority, expected_priority);
  }
}

TEST(AppClient, UnifIncrSlackMatchesBottleneckStructure) {
  ClientFixture f("unifincr");
  f.simulator.schedule_at(Time::zero(), [&] { f.client->submit(f.task(1, {0, 1, 2, 3, 4})); });
  f.simulator.run();
  // All requests cost 100us; the bottleneck sub-task holds the largest
  // group, so the minimum slack is (bottleneck_count - 1) * 100us —
  // slack is measured against a request's *individual* cost (paper 2.1).
  std::map<store::GroupId, int> group_counts;
  for (const auto& out : f.sent) ++group_counts[out.group];
  int bottleneck_count = 0;
  for (const auto& [g, c] : group_counts) bottleneck_count = std::max(bottleneck_count, c);
  double min_priority = 1e18;
  for (const auto& out : f.sent) min_priority = std::min(min_priority, out.request.priority);
  EXPECT_DOUBLE_EQ(min_priority, (bottleneck_count - 1) * 100'000.0);
}

TEST(AppClient, TaskCompletesOnlyAfterLastResponse) {
  ClientFixture f("equalmax");
  f.simulator.schedule_at(Time::zero(), [&] { f.client->submit(f.task(7, {0, 1, 2})); });
  f.simulator.run();
  ASSERT_EQ(f.sent.size(), 3u);
  f.simulator.schedule_at(Time::micros(100), [&] {
    f.client->on_response(f.response_for(f.sent[0]));
    f.client->on_response(f.response_for(f.sent[1]));
  });
  f.simulator.run();
  EXPECT_TRUE(f.completed_tasks.empty());
  EXPECT_EQ(f.client->in_flight(), 1u);
  f.simulator.schedule_at(Time::micros(250), [&] {
    f.client->on_response(f.response_for(f.sent[2]));
  });
  f.simulator.run();
  ASSERT_EQ(f.completed_tasks.size(), 1u);
  EXPECT_EQ(f.completed_tasks[0].first, 7u);
  EXPECT_EQ(f.completed_tasks[0].second.count_nanos(), Duration::micros(250).count_nanos());
  EXPECT_EQ(f.completed_requests.size(), 3u);
}

TEST(AppClient, StatsTrackLifecycle) {
  ClientFixture f("equalmax");
  f.simulator.schedule_at(Time::zero(), [&] { f.client->submit(f.task(1, {0, 1})); });
  f.simulator.run();
  EXPECT_EQ(f.client->stats().tasks_submitted, 1u);
  EXPECT_EQ(f.client->stats().requests_sent, 2u);
  f.simulator.schedule_at(Time::micros(10), [&] {
    for (const auto& out : f.sent) f.client->on_response(f.response_for(out));
  });
  f.simulator.run();
  EXPECT_EQ(f.client->stats().responses_received, 2u);
  EXPECT_EQ(f.client->stats().tasks_completed, 1u);
  EXPECT_EQ(f.client->in_flight(), 0u);
}

TEST(AppClient, UnknownResponseThrows) {
  ClientFixture f("equalmax");
  store::ReadResponse bogus;
  bogus.request_id = 424242;
  EXPECT_THROW(f.client->on_response(bogus), std::logic_error);
}

TEST(AppClient, EmptyTaskRejected) {
  ClientFixture f("equalmax");
  workload::TaskSpec empty;
  empty.id = 1;
  EXPECT_THROW(f.client->submit(empty), std::invalid_argument);
}

TEST(AppClient, RequestIdsGloballyUniquePerClient) {
  ClientFixture f("equalmax");
  f.simulator.schedule_at(Time::zero(), [&] {
    f.client->submit(f.task(1, {0, 1, 2}));
    f.client->submit(f.task(2, {3, 4, 5}));
  });
  f.simulator.run();
  std::set<store::RequestId> ids;
  for (const auto& out : f.sent) ids.insert(out.request.request_id);
  EXPECT_EQ(ids.size(), f.sent.size());
}

TEST(AppClient, CostNoiseProducesUnbiasedForecasts) {
  AppClient::Config config;
  config.cost_noise_sigma = 0.5;
  ClientFixture f("equalmax", config);
  double total = 0.0;
  int n = 0;
  f.simulator.schedule_at(Time::zero(), [&] {
    for (store::TaskId t = 1; t <= 400; ++t) {
      f.client->submit(f.task(t, {static_cast<store::KeyId>(t % 50)}));
    }
  });
  f.simulator.run();
  for (const auto& out : f.sent) {
    total += static_cast<double>(out.request.expected_cost.count_nanos());
    ++n;
  }
  // Unit-mean noise over 100us exact cost.
  EXPECT_NEAR(total / n, 100'000.0, 6'000.0);
  // Complete everything so in_flight drains (sanity).
  for (const auto& out : f.sent) f.client->on_response(f.response_for(out));
  EXPECT_EQ(f.client->in_flight(), 0u);
}

TEST(AppClient, PerRequestSelectionMode) {
  AppClient::Config config;
  config.select_per_subtask = false;
  // Round-robin per request: requests in one group may go to different
  // replicas (C3-style independence).
  sim::Simulator simulator;
  store::RingPartitioner partitioner(3, 3);  // every key: all 3 servers
  server::SizeLinearServiceModel cost_model(Duration::zero(), 1000.0);
  policy::FifoPolicy fifo;
  std::vector<OutboundRequest> sent;
  AppClient client(simulator, config, partitioner, cost_model,
                   single_endpoint(std::make_unique<ctrl::RoundRobinPolicy>()), fifo,
                   std::make_unique<DirectGate>(), util::Rng(2));
  client.set_network_send([&sent](const OutboundRequest& out) { sent.push_back(out); });
  workload::TaskSpec task;
  task.id = 1;
  task.requests = {{0, 10}, {1, 10}, {2, 10}};
  simulator.schedule_at(Time::zero(), [&] { client.submit(task); });
  simulator.run();
  std::set<store::ServerId> servers;
  for (const auto& out : sent) servers.insert(out.server);
  EXPECT_GT(servers.size(), 1u);
}

TEST(AppClient, LiveDuplicateTaskIdRejected) {
  // Responses find their task by id: a second live task under one id
  // could never complete. Once the first completes, the id is free.
  ClientFixture f("equalmax");
  f.simulator.schedule_at(Time::zero(), [&] { f.client->submit(f.task(5, {0, 1})); });
  f.simulator.run();
  EXPECT_THROW(f.client->submit(f.task(5, {2})), std::invalid_argument);
  EXPECT_EQ(f.client->stats().tasks_submitted, 1u);
  EXPECT_EQ(f.sent.size(), 2u);
  for (const auto& out : f.sent) f.client->on_response(f.response_for(out));
  ASSERT_EQ(f.completed_tasks.size(), 1u);
  EXPECT_NO_THROW(f.client->submit(f.task(5, {2})));
}

// ---------------------------------------------------------------------------
// Task planning: sub-task split, per-group plan() calls, priorities

/// Records every plan() call and answers with the first replica.
class RecordingDispatch final : public ctrl::DispatchPolicy {
 public:
  struct Call {
    std::vector<store::ServerId> replicas;
    std::int64_t cost_ns;
  };
  explicit RecordingDispatch(std::vector<Call>* calls) : calls_(calls) {}
  ctrl::DispatchPlan plan(const ctrl::SignalTable&, const std::vector<store::ServerId>& replicas,
                          Duration expected_cost) override {
    calls_->push_back({replicas, expected_cost.count_nanos()});
    return ctrl::DispatchPlan::single(replicas.front());
  }
  std::string name() const override { return "recording"; }

 private:
  std::vector<Call>* calls_;
};

struct PlannerRun {
  std::vector<RecordingDispatch::Call> calls;
  std::vector<OutboundRequest> sent;
};

/// One task through a client on a 9-server ring (replication 3),
/// 1us/byte forecasts, recording dispatch and a direct gate.
PlannerRun run_planner(const workload::TaskSpec& task, const std::string& priority,
                       bool select_per_subtask) {
  PlannerRun run;
  sim::Simulator simulator;
  store::RingPartitioner partitioner(9, 3);
  server::SizeLinearServiceModel cost_model(Duration::zero(), 1000.0);
  const auto policy = policy::make_priority_policy(priority);
  AppClient::Config config;
  config.select_per_subtask = select_per_subtask;
  AppClient client(simulator, config, partitioner, cost_model,
                   std::make_unique<ctrl::DispatchEndpoint>(
                       ctrl::SignalTableConfig{}, std::make_unique<RecordingDispatch>(&run.calls),
                       util::Rng(99), store::TenantId{0}),
                   *policy, std::make_unique<DirectGate>(), util::Rng(1));
  client.set_network_send([&run](const OutboundRequest& out) { run.sent.push_back(out); });
  simulator.schedule_at(Time::zero(), [&] { client.submit(task); });
  simulator.run();
  return run;
}

TEST(TaskPlanner, HeavyTaskPlansOncePerGroupAndMatchesReferencePriorities) {
  // 512 distinct keys with uneven sizes: every group of the ring, each
  // holding many requests in interleaved order.
  const store::RingPartitioner partitioner(9, 3);
  workload::TaskSpec task;
  task.id = 1;
  for (store::KeyId key = 0; key < 512; ++key) {
    task.requests.push_back({key * 7919, 1 + static_cast<std::uint32_t>((key * 37) % 500)});
  }
  // Reference: the ordered-map aggregation the planner replaced.
  std::map<store::GroupId, std::int64_t> group_cost;
  for (const auto& request : task.requests) {
    group_cost[partitioner.group_of(request.key)] += std::int64_t{request.size_hint} * 1000;
  }
  ASSERT_EQ(group_cost.size(), partitioner.num_groups());
  std::int64_t bottleneck = 0;
  for (const auto& [group, cost] : group_cost) bottleneck = std::max(bottleneck, cost);

  const PlannerRun equalmax = run_planner(task, "equalmax", true);
  ASSERT_EQ(equalmax.calls.size(), group_cost.size());
  std::size_t call = 0;
  for (const auto& [group, cost] : group_cost) {
    EXPECT_EQ(equalmax.calls[call].replicas, partitioner.replicas_of(group));
    EXPECT_EQ(equalmax.calls[call].cost_ns, cost);
    ++call;
  }
  ASSERT_EQ(equalmax.sent.size(), task.requests.size());
  for (std::size_t i = 0; i < task.requests.size(); ++i) {
    const OutboundRequest& out = equalmax.sent[i];
    EXPECT_EQ(out.request.key, task.requests[i].key);
    EXPECT_EQ(out.server, partitioner.replicas_of(out.group).front());
    EXPECT_DOUBLE_EQ(out.request.priority, static_cast<double>(bottleneck));
  }

  const PlannerRun unifincr = run_planner(task, "unifincr", true);
  for (std::size_t i = 0; i < task.requests.size(); ++i) {
    const std::int64_t slack = bottleneck - std::int64_t{task.requests[i].size_hint} * 1000;
    EXPECT_DOUBLE_EQ(unifincr.sent[i].request.priority,
                     static_cast<double>(std::max<std::int64_t>(0, slack)));
  }

  // CumSlack: running sums per group in request order.
  const PlannerRun cumslack = run_planner(task, "cumslack", true);
  std::map<store::GroupId, std::int64_t> running;
  for (std::size_t i = 0; i < task.requests.size(); ++i) {
    std::int64_t& cumulative = running[partitioner.group_of(task.requests[i].key)];
    cumulative += std::int64_t{task.requests[i].size_hint} * 1000;
    EXPECT_DOUBLE_EQ(cumslack.sent[i].request.priority,
                     static_cast<double>(std::max<std::int64_t>(0, bottleneck - cumulative)));
  }
}

TEST(TaskPlanner, PerRequestModePlansEachRequestButKeepsTheGroupBottleneck) {
  const store::RingPartitioner partitioner(9, 3);
  workload::TaskSpec task;
  task.id = 1;
  for (store::KeyId key = 0; key < 64; ++key) {
    task.requests.push_back({key * 31, 1 + static_cast<std::uint32_t>((key * 13) % 90)});
  }
  std::map<store::GroupId, std::int64_t> group_cost;
  for (const auto& request : task.requests) {
    group_cost[partitioner.group_of(request.key)] += std::int64_t{request.size_hint} * 1000;
  }
  std::int64_t bottleneck = 0;
  for (const auto& [group, cost] : group_cost) bottleneck = std::max(bottleneck, cost);

  const PlannerRun run = run_planner(task, "equalmax", false);
  ASSERT_EQ(run.calls.size(), task.requests.size());
  for (std::size_t i = 0; i < task.requests.size(); ++i) {
    EXPECT_EQ(run.calls[i].cost_ns, std::int64_t{task.requests[i].size_hint} * 1000);
    EXPECT_EQ(run.calls[i].replicas,
              partitioner.replicas_of(partitioner.group_of(task.requests[i].key)));
    EXPECT_DOUBLE_EQ(run.sent[i].request.priority, static_cast<double>(bottleneck));
  }
}

// ---------------------------------------------------------------------------
// RateLimitedGate

TEST(RateLimitedGate, TransmitsWithinRateImmediately) {
  sim::Simulator simulator;
  policy::CubicRateController::Config config;
  config.initial_rate = 1000.0;
  RateLimitedGate gate(simulator, config);
  int transmitted = 0;
  gate.set_transmit([&](OutboundRequest&) { ++transmitted; });
  OutboundRequest out;
  out.server = 0;
  gate.offer(out);
  EXPECT_EQ(transmitted, 1);
  EXPECT_EQ(gate.held(), 0u);
}

TEST(RateLimitedGate, HoldsBeyondBurstAndDrainsLater) {
  sim::Simulator simulator;
  policy::CubicRateController::Config config;
  config.initial_rate = 1000.0;  // burst 8
  RateLimitedGate gate(simulator, config);
  std::vector<Time> transmit_times;
  gate.set_transmit([&](OutboundRequest&) { transmit_times.push_back(simulator.now()); });
  simulator.schedule_at(Time::zero(), [&] {
    for (int i = 0; i < 12; ++i) {
      OutboundRequest out;
      out.server = 0;
      gate.offer(out);
    }
  });
  simulator.run();
  ASSERT_EQ(transmit_times.size(), 12u);
  // First 8 immediate, the rest paced at ~1ms each.
  EXPECT_EQ(transmit_times[7], Time::zero());
  EXPECT_GT(transmit_times[8], Time::zero());
  EXPECT_GE(transmit_times[11], transmit_times[8] + Duration::millis(2));
  EXPECT_EQ(gate.held(), 0u);
}

TEST(RateLimitedGate, PerServerIndependence) {
  sim::Simulator simulator;
  policy::CubicRateController::Config config;
  config.initial_rate = 1000.0;
  RateLimitedGate gate(simulator, config);
  int transmitted = 0;
  gate.set_transmit([&](OutboundRequest&) { ++transmitted; });
  simulator.schedule_at(Time::zero(), [&] {
    for (int i = 0; i < 8; ++i) {
      OutboundRequest a;
      a.server = 0;
      gate.offer(a);
    }
    OutboundRequest b;
    b.server = 1;  // different token bucket: goes out immediately
    gate.offer(b);
    EXPECT_EQ(transmitted, 9);
  });
  simulator.run();
}

}  // namespace
}  // namespace brb::client
