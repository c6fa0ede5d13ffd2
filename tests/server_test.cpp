// Tests for the backend-server substrate: service-time models, queue
// disciplines, the server itself, and validation against queueing
// theory (the simulator must match M/M/c analytics before Figure 2 can
// be trusted).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "server/backend_server.hpp"
#include "server/queue_discipline.hpp"
#include "server/service_model.hpp"
#include "sim/simulator.hpp"
#include "stats/summary.hpp"
#include "util/rng.hpp"
#include "workload/size_dist.hpp"
#include "workload/task_gen.hpp"

namespace brb::server {
namespace {

using sim::Duration;
using sim::Time;

// ---------------------------------------------------------------------------
// Service-time models

TEST(SizeLinearServiceModel, ExpectedIsAffineInSize) {
  SizeLinearServiceModel model(Duration::micros(10), 2.0);  // 2 ns per byte
  EXPECT_EQ(model.expected(0).count_nanos(), 10'000);
  EXPECT_EQ(model.expected(1000).count_nanos(), 12'000);
}

TEST(SizeLinearServiceModel, DeterministicWithoutNoise) {
  SizeLinearServiceModel model(Duration::micros(10), 2.0);
  util::Rng rng(1);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(model.sample(500, rng).count_nanos(), model.expected(500).count_nanos());
  }
}

TEST(SizeLinearServiceModel, NoiseHasUnitMean) {
  SizeLinearServiceModel model(Duration::micros(100), 0.0, 0.5);
  util::Rng rng(2);
  stats::Summary s;
  for (int i = 0; i < 200000; ++i) {
    s.add(static_cast<double>(model.sample(1, rng).count_nanos()));
  }
  EXPECT_NEAR(s.mean(), 100'000.0, 1'500.0);
}

TEST(SizeLinearServiceModel, CalibrationHitsTargetRate) {
  // Paper: 3500 requests/s per core over the Atikoglu mean size.
  const double mean_size = 329.0;
  const auto model =
      SizeLinearServiceModel::calibrate(3500.0, mean_size, Duration::zero(), 0.0);
  EXPECT_NEAR(model.expected(static_cast<std::uint32_t>(mean_size)).as_seconds(), 1.0 / 3500.0,
              1e-6);
}

TEST(SizeLinearServiceModel, CalibrationRejectsImpossibleBase) {
  // Base overhead longer than the whole service budget cannot calibrate.
  EXPECT_THROW(SizeLinearServiceModel::calibrate(3500.0, 300.0, Duration::millis(1), 0.0),
               std::invalid_argument);
  EXPECT_THROW(SizeLinearServiceModel::calibrate(0.0, 300.0, Duration::zero(), 0.0),
               std::invalid_argument);
  EXPECT_THROW(SizeLinearServiceModel::calibrate(3500.0, 0.0, Duration::zero(), 0.0),
               std::invalid_argument);
}

TEST(SizeLinearServiceModel, RejectsDegenerateConstruction) {
  EXPECT_THROW(SizeLinearServiceModel(Duration::zero(), 0.0), std::invalid_argument);
  EXPECT_THROW(SizeLinearServiceModel(Duration::zero() - Duration::micros(1), 1.0),
               std::invalid_argument);
  EXPECT_THROW(SizeLinearServiceModel(Duration::micros(1), -1.0), std::invalid_argument);
}

TEST(SizeLinearServiceModel, RejectsNonFiniteParameters) {
  // NaN slips past a plain `< 0` check and would poison every draw.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {nan, inf}) {
    EXPECT_THROW(SizeLinearServiceModel(Duration::micros(1), 1.0, bad), std::invalid_argument);
    EXPECT_THROW(SizeLinearServiceModel(Duration::micros(1), bad), std::invalid_argument);
    EXPECT_THROW(SizeLinearServiceModel::calibrate(3500.0, 300.0, Duration::zero(), bad),
                 std::invalid_argument);
  }
  EXPECT_THROW(SizeLinearServiceModel::calibrate(nan, 300.0, Duration::zero(), 0.0),
               std::invalid_argument);
}

TEST(ExponentialServiceModel, MeanAndMemorylessness) {
  ExponentialServiceModel model(Duration::micros(100));
  util::Rng rng(3);
  stats::Summary s;
  for (int i = 0; i < 200000; ++i) {
    s.add(static_cast<double>(model.sample(12345, rng).count_nanos()));
  }
  EXPECT_NEAR(s.mean(), 100'000.0, 1'500.0);
  EXPECT_NEAR(s.stddev() / s.mean(), 1.0, 0.02);  // CV = 1
  EXPECT_EQ(model.expected(1).count_nanos(), 100'000);
  EXPECT_THROW(ExponentialServiceModel(Duration::zero()), std::invalid_argument);
}

TEST(DeterministicServiceModel, Constant) {
  DeterministicServiceModel model(Duration::micros(42));
  util::Rng rng(4);
  EXPECT_EQ(model.sample(1, rng).count_nanos(), 42'000);
  EXPECT_THROW(DeterministicServiceModel(Duration::zero()), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Queue disciplines

QueuedRead make_read(store::Priority priority, store::RequestId id = 0,
                     std::uint64_t submit_seq = 0) {
  QueuedRead read;
  read.request.request_id = id;
  read.request.priority = priority;
  read.submit_seq = submit_seq;
  return read;
}

TEST(FifoDiscipline, PopsInsertionOrder) {
  FifoDiscipline q;
  q.push(make_read(5.0, 1));
  q.push(make_read(1.0, 2));
  q.push(make_read(3.0, 3));
  EXPECT_EQ(q.pop()->request.request_id, 1u);
  EXPECT_EQ(q.pop()->request.request_id, 2u);
  EXPECT_EQ(q.pop()->request.request_id, 3u);
  EXPECT_FALSE(q.pop().has_value());
}

TEST(FifoDiscipline, WrapsAroundTheRing) {
  // Far more traffic than the initial capacity, never more than a few
  // waiting: the window wraps many times without growing.
  FifoDiscipline q;
  store::RequestId next_in = 0;
  store::RequestId next_out = 0;
  for (int round = 0; round < 100; ++round) {
    for (int i = 0; i < 5; ++i) q.push(make_read(0.0, next_in++));
    for (int i = 0; i < 3; ++i) ASSERT_EQ(q.pop()->request.request_id, next_out++);
  }
  while (auto read = q.pop()) ASSERT_EQ(read->request.request_id, next_out++);
  EXPECT_EQ(next_out, next_in);
  EXPECT_TRUE(q.empty());
}

TEST(FifoDiscipline, GrowsWhileWrapped) {
  // Shift the window off the buffer start, then fill past the initial
  // capacity: growth must unroll the wrapped window in FIFO order.
  FifoDiscipline q;
  for (store::RequestId id = 0; id < 40; ++id) q.push(make_read(0.0, id));
  for (store::RequestId id = 0; id < 40; ++id) ASSERT_EQ(q.pop()->request.request_id, id);
  for (store::RequestId id = 100; id < 400; ++id) q.push(make_read(0.0, id));
  EXPECT_EQ(q.size(), 300u);
  for (store::RequestId id = 100; id < 400; ++id) ASSERT_EQ(q.pop()->request.request_id, id);
  EXPECT_FALSE(q.pop().has_value());
}

TEST(FifoDiscipline, PeekAfterWrap) {
  FifoDiscipline q;
  for (std::uint64_t seq = 0; seq < 60; ++seq) q.push(make_read(0.0, seq, seq));
  for (int i = 0; i < 60; ++i) q.pop();
  // The window now straddles the end of the 64-slot buffer.
  for (std::uint64_t seq = 60; seq < 70; ++seq) q.push(make_read(0.0, seq, seq));
  for (std::uint64_t seq = 60; seq < 70; ++seq) {
    const auto head = q.peek();
    ASSERT_TRUE(head.has_value());
    EXPECT_EQ(head->priority, 0.0);
    EXPECT_EQ(head->submit_seq, seq);
    EXPECT_EQ(q.pop()->submit_seq, seq);
  }
  EXPECT_FALSE(q.peek().has_value());
}

TEST(FifoDiscipline, PeekReportsSubmitSeq) {
  FifoDiscipline q;
  q.push(make_read(9.0, 1, 17));
  const auto head = q.peek();
  ASSERT_TRUE(head.has_value());
  EXPECT_EQ(head->priority, 0.0);
  EXPECT_EQ(head->submit_seq, 17u);
}

TEST(PriorityDiscipline, PopsLowestPriorityFirst) {
  PriorityDiscipline q;
  q.push(make_read(5.0, 1));
  q.push(make_read(1.0, 2));
  q.push(make_read(3.0, 3));
  EXPECT_EQ(q.pop()->request.request_id, 2u);
  EXPECT_EQ(q.pop()->request.request_id, 3u);
  EXPECT_EQ(q.pop()->request.request_id, 1u);
}

TEST(PriorityDiscipline, FifoWithinEqualPriority) {
  PriorityDiscipline q;
  for (store::RequestId id = 1; id <= 100; ++id) q.push(make_read(7.0, id));
  for (store::RequestId id = 1; id <= 100; ++id) {
    ASSERT_EQ(q.pop()->request.request_id, id);
  }
}

TEST(PriorityDiscipline, PeekMatchesPop) {
  PriorityDiscipline q;
  q.push(make_read(5.0, 1, 100));
  q.push(make_read(2.0, 2, 101));
  const auto head = q.peek();
  ASSERT_TRUE(head.has_value());
  EXPECT_EQ(head->priority, 2.0);
  EXPECT_EQ(head->submit_seq, 101u);
  EXPECT_EQ(q.pop()->request.request_id, 2u);
}

TEST(PriorityDiscipline, RandomizedHeapProperty) {
  PriorityDiscipline q;
  util::Rng rng(5);
  for (int i = 0; i < 5000; ++i) q.push(make_read(rng.uniform()));
  double last = -1.0;
  while (auto read = q.pop()) {
    ASSERT_GE(read->request.priority, last);
    last = read->request.priority;
  }
}

TEST(SjfDiscipline, OrdersByExpectedCost) {
  SjfDiscipline q;
  QueuedRead big;
  big.request.request_id = 1;
  big.request.expected_cost = Duration::micros(500);
  QueuedRead small;
  small.request.request_id = 2;
  small.request.expected_cost = Duration::micros(10);
  q.push(std::move(big));
  q.push(std::move(small));
  EXPECT_EQ(q.pop()->request.request_id, 2u);
  EXPECT_EQ(q.pop()->request.request_id, 1u);
}

TEST(DisciplineFactory, KnownNames) {
  // Each name builds the discipline whose pop order it promises: ids
  // pushed in order 1, 2, 3 with priorities 5, 1, 3 and expected costs
  // 20, 30, 10 us.
  const auto pop_order = [](const std::string& name) {
    auto q = make_discipline(name);
    const double priorities[] = {5.0, 1.0, 3.0};
    const std::int64_t costs_us[] = {20, 30, 10};
    for (std::size_t i = 0; i < 3; ++i) {
      QueuedRead read = make_read(priorities[i], i + 1);
      read.request.expected_cost = Duration::micros(costs_us[i]);
      q->push(std::move(read));
    }
    std::vector<store::RequestId> order;
    while (auto read = q->pop()) order.push_back(read->request.request_id);
    return order;
  };
  EXPECT_EQ(pop_order("fifo"), (std::vector<store::RequestId>{1, 2, 3}));
  EXPECT_EQ(pop_order("priority"), (std::vector<store::RequestId>{2, 3, 1}));
  EXPECT_EQ(pop_order("sjf"), (std::vector<store::RequestId>{3, 1, 2}));
  EXPECT_THROW(make_discipline("lifo"), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// BackendServer

struct ServerFixture {
  sim::Simulator simulator;
  DeterministicServiceModel model{Duration::micros(100)};
  std::unique_ptr<BackendServer> server;
  std::vector<store::ReadResponse> responses;

  explicit ServerFixture(std::uint32_t cores) {
    BackendServer::Config config;
    config.id = 0;
    config.cores = cores;
    server = std::make_unique<BackendServer>(simulator, config, model, util::Rng(6));
    server->use_private_queue(make_discipline("fifo"));
    server->set_response_handler(
        [this](const store::ReadResponse& response) { responses.push_back(response); });
    server->storage().put_meta(1, 100);
  }

  store::ReadRequest request(store::RequestId id) {
    store::ReadRequest r;
    r.request_id = id;
    r.key = 1;
    return r;
  }
};

TEST(BackendServer, SingleCoreSerializes) {
  ServerFixture f(1);
  f.simulator.schedule_at(Time::zero(), [&] {
    f.server->receive(f.request(1));
    f.server->receive(f.request(2));
  });
  f.simulator.run();
  ASSERT_EQ(f.responses.size(), 2u);
  // Second request waits for the first: completes at 200us.
  EXPECT_EQ(f.simulator.now(), Time::micros(200));
}

TEST(BackendServer, MultiCoreServesInParallel) {
  ServerFixture f(4);
  f.simulator.schedule_at(Time::zero(), [&] {
    for (store::RequestId id = 1; id <= 4; ++id) f.server->receive(f.request(id));
  });
  f.simulator.run();
  ASSERT_EQ(f.responses.size(), 4u);
  EXPECT_EQ(f.simulator.now(), Time::micros(100));  // all in parallel
}

TEST(BackendServer, QueueLengthExcludesInService) {
  ServerFixture f(1);
  f.simulator.schedule_at(Time::zero(), [&] {
    f.server->receive(f.request(1));
    f.server->receive(f.request(2));
    f.server->receive(f.request(3));
    // One in service, two waiting.
    EXPECT_EQ(f.server->queue_length(), 2u);
    EXPECT_EQ(f.server->busy_cores(), 1u);
  });
  f.simulator.run();
}

TEST(BackendServer, FeedbackCarriesQueueAndRate) {
  ServerFixture f(1);
  f.simulator.schedule_at(Time::zero(), [&] {
    f.server->receive(f.request(1));
    f.server->receive(f.request(2));
  });
  f.simulator.run();
  ASSERT_EQ(f.responses.size(), 2u);
  // First response: one request still waiting.
  EXPECT_EQ(f.responses[0].feedback.queue_length, 1u);
  EXPECT_EQ(f.responses[1].feedback.queue_length, 0u);
  // Deterministic 100us service at 1 core -> 10k req/s.
  EXPECT_NEAR(f.responses[1].feedback.service_rate, 10'000.0, 2'500.0);
  EXPECT_EQ(f.responses[0].feedback.service_time.count_nanos(), 100'000);
}

TEST(BackendServer, StatsAccumulate) {
  ServerFixture f(2);
  f.simulator.schedule_at(Time::zero(), [&] {
    for (store::RequestId id = 1; id <= 6; ++id) f.server->receive(f.request(id));
  });
  f.simulator.run();
  EXPECT_EQ(f.server->stats().served, 6u);
  EXPECT_EQ(f.server->stats().busy_time.count_nanos(), 600'000);
}

TEST(BackendServer, MissingKeyServesMinimalValue) {
  ServerFixture f(1);
  store::ReadRequest r;
  r.request_id = 9;
  r.key = 404;  // not populated
  f.simulator.schedule_at(Time::zero(), [&] { f.server->receive(r); });
  f.simulator.run();
  ASSERT_EQ(f.responses.size(), 1u);
  EXPECT_EQ(f.responses[0].value_size, 1u);
}

// ---------------------------------------------------------------------------
// Carried value sizes: a replica stores only what differs from the
// dataset, so the size a read carries serves every key it never stored.

/// Servers on one simulator under a 1 us/byte model, so each response's
/// service time reads back the size it was served at.
struct SizedFleet {
  sim::Simulator simulator;
  SizeLinearServiceModel model{Duration::zero(), 1000.0};
  std::vector<std::unique_ptr<BackendServer>> servers;
  std::vector<store::ReadResponse> responses;

  explicit SizedFleet(std::uint32_t count) {
    for (std::uint32_t s = 0; s < count; ++s) {
      BackendServer::Config config;
      config.id = s;
      config.cores = 1;
      auto server = std::make_unique<BackendServer>(simulator, config, model, util::Rng(s + 1));
      server->use_private_queue(make_discipline("fifo"));
      server->set_response_handler(
          [this](const store::ReadResponse& response) { responses.push_back(response); });
      servers.push_back(std::move(server));
    }
  }

  void send(std::uint32_t server, store::RequestId id, bool is_write, std::uint32_t size) {
    store::ReadRequest r;
    r.request_id = id;
    r.key = 5;
    r.is_write = is_write;
    r.value_size = size;
    servers[server]->receive(r);
    simulator.run();
  }
};

TEST(BackendServer, NeverStoredKeyServesTheCarriedSize) {
  SizedFleet fleet(1);
  fleet.send(0, 1, false, 700);
  ASSERT_EQ(fleet.responses.size(), 1u);
  EXPECT_EQ(fleet.responses[0].value_size, 700u);
  EXPECT_EQ(fleet.responses[0].feedback.service_time, Duration::micros(700));
  // Serving a read stores nothing.
  EXPECT_EQ(fleet.servers[0]->storage().num_keys(), 0u);
}

TEST(BackendServer, WrittenSizeOverridesTheCarriedSizeOnlyOnItsReplica) {
  SizedFleet fleet(2);
  fleet.send(0, 1, true, 9000);
  ASSERT_EQ(fleet.responses.size(), 1u);
  EXPECT_TRUE(fleet.responses[0].is_write);
  EXPECT_EQ(fleet.responses[0].feedback.service_time, Duration::micros(9000));

  // Same key, same carried (dataset) size, read from both replicas.
  fleet.send(0, 2, false, 300);
  fleet.send(1, 3, false, 300);
  ASSERT_EQ(fleet.responses.size(), 3u);
  EXPECT_EQ(fleet.responses[1].value_size, 9000u);
  EXPECT_EQ(fleet.responses[1].feedback.service_time, Duration::micros(9000));
  EXPECT_EQ(fleet.responses[2].value_size, 300u);
  EXPECT_EQ(fleet.responses[2].feedback.service_time, Duration::micros(300));
  EXPECT_EQ(fleet.servers[0]->storage().size_of(5), 9000u);
  EXPECT_FALSE(fleet.servers[1]->storage().contains(5));
}

TEST(BackendServer, NoCarriedSizeAndNoEntryServesOneByte) {
  SizedFleet fleet(1);
  fleet.send(0, 1, false, 0);  // a hand-built request: size unknown
  ASSERT_EQ(fleet.responses.size(), 1u);
  EXPECT_EQ(fleet.responses[0].value_size, 1u);
  EXPECT_EQ(fleet.responses[0].feedback.service_time, Duration::micros(1));
}

TEST(BackendServer, StoredSizeWinsOverTheCarriedSize) {
  // Trace replay populates replicas with each key's last traced size;
  // that entry, not the request's own size hint, is what gets served.
  SizedFleet fleet(1);
  fleet.servers[0]->storage().put_meta(5, 42);
  fleet.send(0, 1, false, 700);
  ASSERT_EQ(fleet.responses.size(), 1u);
  EXPECT_EQ(fleet.responses[0].value_size, 42u);
  EXPECT_EQ(fleet.responses[0].feedback.service_time, Duration::micros(42));
}

/// Draws only 0-byte values: what a broken size distribution would do.
class EmptyValueSizes final : public workload::SizeDistribution {
 public:
  std::uint32_t sample(util::Rng& /*rng*/) const override { return 0; }
  double mean() const override { return 0.0; }
  std::uint32_t max_size() const noexcept override { return 1; }
  std::string name() const override { return "empty"; }
};

TEST(Dataset, RejectsZeroByteValues) {
  // A carried size of 0 means "unknown" to the servers, so a dataset
  // must never hold a 0-byte value.
  const EmptyValueSizes sizes;
  EXPECT_THROW(workload::Dataset(10, sizes, util::Rng(1)), std::invalid_argument);
}

TEST(BackendServer, QueueLengthTracksDisciplineAcrossFilterRejections) {
  // Rejected requests leave the queue without taking a core; the
  // cached queue length must follow the discipline's own size.
  sim::Simulator simulator;
  DeterministicServiceModel model(Duration::micros(100));
  BackendServer::Config config;
  config.cores = 1;
  BackendServer server(simulator, config, model, util::Rng(10));
  auto fifo = std::make_unique<FifoDiscipline>();
  const FifoDiscipline& queue = *fifo;
  server.use_private_queue(std::move(fifo));
  server.set_service_filter(
      [](const store::ReadRequest& request) { return request.request_id % 3 != 0; });
  std::vector<store::RequestId> served;
  server.set_response_handler([&](const store::ReadResponse& response) {
    served.push_back(response.request_id);
    EXPECT_EQ(server.queue_length(), queue.size());
  });
  simulator.schedule_at(Time::zero(), [&] {
    for (store::RequestId id = 1; id <= 10; ++id) {
      store::ReadRequest request;
      request.request_id = id;
      server.receive(request);
      EXPECT_EQ(server.queue_length(), queue.size());
    }
    EXPECT_EQ(server.queue_length(), 9u);  // request 1 is in service
  });
  simulator.run();
  EXPECT_EQ(served, (std::vector<store::RequestId>{1, 2, 4, 5, 7, 8, 10}));
  EXPECT_EQ(server.queue_length(), 0u);
  EXPECT_TRUE(queue.empty());
}

TEST(BackendServer, RejectsZeroCores) {
  sim::Simulator simulator;
  DeterministicServiceModel model(Duration::micros(1));
  BackendServer::Config config;
  config.cores = 0;
  EXPECT_THROW(BackendServer(simulator, config, model, util::Rng(7)), std::invalid_argument);
}

TEST(BackendServer, ReceiveWithoutQueueThrows) {
  sim::Simulator simulator;
  DeterministicServiceModel model(Duration::micros(1));
  BackendServer::Config config;
  config.cores = 1;
  BackendServer server(simulator, config, model, util::Rng(8));
  store::ReadRequest r;
  EXPECT_THROW(server.receive(r), std::logic_error);
}

// ---------------------------------------------------------------------------
// Queueing-theory validation: the server + Poisson arrivals must match
// M/M/1, M/M/c and M/D/1 analytic results.

struct QueueingHarness {
  sim::Simulator simulator;
  std::unique_ptr<BackendServer> server;
  stats::Summary sojourn_us;
  std::uint64_t completed = 0;

  QueueingHarness(std::uint32_t cores, const ServiceTimeModel& model) {
    BackendServer::Config config;
    config.cores = cores;
    server = std::make_unique<BackendServer>(simulator, config, model, util::Rng(9));
    server->use_private_queue(make_discipline("fifo"));
  }

  /// Runs `n` Poisson arrivals at `lambda` req/s; records sojourn times.
  void run(double lambda, std::uint64_t n) {
    std::unordered_map<store::RequestId, Time> admitted;
    server->set_response_handler([&](const store::ReadResponse& response) {
      sojourn_us.add((simulator.now() - admitted[response.request_id]).as_micros());
      ++completed;
    });
    util::Rng arrivals_rng(10);
    Time t = Time::zero();
    for (store::RequestId id = 0; id < n; ++id) {
      t += Duration::seconds(arrivals_rng.exponential(1.0 / lambda));
      admitted[id] = t;
      simulator.schedule_at(t, [this, id] {
        store::ReadRequest request;
        request.request_id = id;
        request.key = 999;  // unpopulated: size 1
        server->receive(request);
      });
    }
    simulator.run();
  }
};

TEST(QueueingTheory, MM1SojournMatchesAnalytic) {
  // M/M/1: E[T] = 1 / (mu - lambda). mu = 10k/s, lambda = 7k/s -> 333us.
  ExponentialServiceModel model(Duration::micros(100));
  QueueingHarness h(1, model);
  h.run(7000.0, 200'000);
  EXPECT_EQ(h.completed, 200'000u);
  EXPECT_NEAR(h.sojourn_us.mean(), 1e6 / (10'000.0 - 7'000.0), 15.0);
}

TEST(QueueingTheory, MD1WaitMatchesPollaczekKhinchine) {
  // M/D/1: E[W] = rho / (2 mu (1 - rho)); rho = 0.7, mu = 10k/s
  // -> E[W] = 116.7us, E[T] = W + 100us.
  DeterministicServiceModel model(Duration::micros(100));
  QueueingHarness h(1, model);
  h.run(7000.0, 200'000);
  const double rho = 0.7;
  const double mu = 10'000.0;
  const double wait_us = rho / (2.0 * mu * (1.0 - rho)) * 1e6;
  EXPECT_NEAR(h.sojourn_us.mean(), wait_us + 100.0, 8.0);
}

TEST(QueueingTheory, MMcSojournMatchesErlangC) {
  // M/M/4 with per-core mu = 2500/s (mean 400us), lambda = 7000/s
  // (rho = 0.7): Erlang-C waiting probability, then
  // E[W] = C / (c*mu - lambda), E[T] = E[W] + 1/mu.
  ExponentialServiceModel model(Duration::micros(400));
  QueueingHarness h(4, model);
  h.run(7000.0, 200'000);
  const double c = 4.0;
  const double mu = 2500.0;
  const double lambda = 7000.0;
  const double a = lambda / mu;  // offered load = 2.8 erlangs
  double sum = 0.0;
  double term = 1.0;
  for (int k = 0; k < 4; ++k) {
    if (k > 0) term *= a / k;
    sum += term;
  }
  const double a_c_over_cfact = term * a / c;  // a^c / c!
  const double rho = a / c;
  const double erlang_c = a_c_over_cfact / (1.0 - rho) / (sum + a_c_over_cfact / (1.0 - rho));
  const double expected_us = (erlang_c / (c * mu - lambda) + 1.0 / mu) * 1e6;
  EXPECT_NEAR(h.sojourn_us.mean(), expected_us, expected_us * 0.04);
}

TEST(QueueingTheory, MG1WaitMatchesPollaczekKhinchineForSizeDrivenService) {
  // The evaluation's actual service process: deterministic-in-size
  // times over Atikoglu generalized-Pareto value sizes. For M/G/1 FIFO,
  // E[W] = lambda E[S^2] / (2 (1 - rho)) (Pollaczek-Khinchine). We
  // estimate E[S], E[S^2] from the same dataset the server serves.
  util::Rng data_rng(41);
  workload::GeneralizedParetoSizeDist sizes;
  const auto model = SizeLinearServiceModel::calibrate(3500.0, sizes.mean(), Duration::zero());

  // One-key-per-request workload with sizes drawn from the dataset.
  const std::uint64_t kKeys = 40'000;
  std::vector<std::uint32_t> key_sizes(kKeys);
  double s1 = 0.0;
  double s2 = 0.0;
  for (auto& size : key_sizes) {
    size = sizes.sample(data_rng);
    const double t = model.expected(size).as_seconds();
    s1 += t;
    s2 += t * t;
  }
  s1 /= static_cast<double>(kKeys);
  s2 /= static_cast<double>(kKeys);

  QueueingHarness h(1, model);
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    h.server->storage().put_meta(k, key_sizes[k]);
  }
  // rho = 0.6 against the empirical mean service time.
  const double lambda = 0.6 / s1;
  std::unordered_map<store::RequestId, Time> admitted;
  stats::Summary wait_us;
  h.server->set_response_handler([&](const store::ReadResponse& response) {
    const double sojourn =
        (h.simulator.now() - admitted[response.request_id]).as_micros();
    const double service = response.feedback.service_time.as_micros();
    wait_us.add(sojourn - service);
  });
  util::Rng arrivals_rng(42);
  util::Rng key_rng(43);
  Time t = Time::zero();
  const std::uint64_t n = 150'000;
  for (store::RequestId id = 0; id < n; ++id) {
    t += Duration::seconds(arrivals_rng.exponential(1.0 / lambda));
    admitted[id] = t;
    const auto key = static_cast<store::KeyId>(
        key_rng.uniform_int(0, static_cast<std::int64_t>(kKeys) - 1));
    h.simulator.schedule_at(t, [&h, id, key] {
      store::ReadRequest request;
      request.request_id = id;
      request.key = key;
      h.server->receive(request);
    });
  }
  h.simulator.run();
  const double rho = lambda * s1;
  const double expected_wait_us = lambda * s2 / (2.0 * (1.0 - rho)) * 1e6;
  // Heavy-tailed E[S^2] converges slowly; 12% tolerance.
  EXPECT_NEAR(wait_us.mean(), expected_wait_us, expected_wait_us * 0.12);
}

TEST(QueueingTheory, UtilizationLawHolds) {
  // Served busy time / elapsed = rho on a single core.
  ExponentialServiceModel model(Duration::micros(100));
  QueueingHarness h(1, model);
  h.run(5000.0, 100'000);
  const double elapsed_sec = h.simulator.now().as_seconds();
  const double busy_sec = h.server->stats().busy_time.as_seconds();
  EXPECT_NEAR(busy_sec / elapsed_sec, 0.5, 0.02);
}

}  // namespace
}  // namespace brb::server
