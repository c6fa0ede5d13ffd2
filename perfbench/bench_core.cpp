#include "bench_core.hpp"

#include <cstring>
#include <stdexcept>

#include "cli/scenario_registry.hpp"
#include "util/flags.hpp"

namespace perfbench {

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> kWorkloads = {
      {"paper-credits", "paper", "equalmax-credits", true, false, false},
      {"paper-c3-writes", "write-heavy", "c3@writes=0.2", false, true, false},
      {"fleet-hedge", "hedging-shootout", "steady/hedge:q98", false, false, true},
  };
  return kWorkloads;
}

const Workload& find_workload(std::string_view name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return w;
  }
  throw std::invalid_argument("unknown workload " + std::string(name));
}

brb::core::ScenarioConfig make_config(const Workload& workload, std::uint64_t seed,
                                      std::uint64_t num_tasks) {
  const brb::cli::ScenarioSpec* spec = brb::cli::find_scenario(std::string(workload.scenario));
  if (spec == nullptr) {
    throw std::invalid_argument("scenario not registered: " + std::string(workload.scenario));
  }
  if (num_tasks == 0) throw std::invalid_argument("make_config: no tasks");
  brb::core::ScenarioConfig base;
  base.num_tasks = num_tasks;
  for (brb::cli::ExperimentCase& c : spec->expand(base, brb::util::Flags{})) {
    if (c.label == workload.label) {
      c.config.seed = seed;
      return std::move(c.config);
    }
  }
  throw std::invalid_argument("scenario " + std::string(workload.scenario) + " has no case " +
                              std::string(workload.label));
}

namespace {

class Fnv1a {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xffu;
      hash_ *= 0x100000001b3ull;
    }
  }
  void add(std::int64_t v) { add(static_cast<std::uint64_t>(v)); }
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  void add(const brb::stats::LatencyRecorder& rec) {
    add(rec.count());
    if (rec.count() == 0) return;
    for (const double p : {0.0, 1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 100.0}) {
      add(rec.percentile(p).count_nanos());
    }
    add(rec.mean().count_nanos());
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

}  // namespace

std::uint64_t sim_digest(const brb::core::RunResult& r) {
  Fnv1a h;
  for (const std::uint64_t v :
       {r.tasks_submitted, r.tasks_completed, r.tasks_measured, r.requests_completed,
        r.write_requests_sent, r.write_requests_acked, r.network_messages, r.network_bytes,
        r.congestion_signals, r.controller_adaptations, r.gate_held_requests,
        r.credit_hold_events, r.policy_switches, r.signal_entries_live, r.signal_evictions,
        r.hedges_issued, r.hedges_won, r.hedges_cancelled, r.hedges_skipped_fresh,
        r.duplicates_sent, r.duplicates_cancelled, r.duplicates_served, r.events_processed}) {
    h.add(v);
  }
  h.add(r.credit_hold_time.count_nanos());
  h.add(r.sim_duration.count_nanos());
  h.add(r.mean_utilization);
  h.add(r.duplicate_work_fraction);
  for (const double u : r.server_utilization) h.add(u);
  h.add(r.task_latency);
  h.add(r.request_latency);
  for (const brb::core::TenantResult& t : r.tenants) h.add(t.task_latency);
  return h.value();
}

std::vector<std::string> check_invariants(const Workload& workload,
                                          const brb::core::ScenarioConfig& config,
                                          const brb::core::RunResult& r) {
  std::vector<std::string> bad;
  const auto expect = [&bad](bool ok, const std::string& what) {
    if (!ok) bad.push_back(what);
  };
  const std::uint64_t warmup = static_cast<std::uint64_t>(
      config.warmup_fraction * static_cast<double>(r.tasks_submitted));
  expect(r.tasks_submitted == config.num_tasks, "tasks submitted != configured tasks");
  expect(r.tasks_completed == r.tasks_submitted, "not every task completed");
  expect(r.gate_held_requests == 0, "requests still held at a gate");
  expect(r.write_requests_acked == r.write_requests_sent, "write acks != write sends");
  expect(r.tasks_measured == r.tasks_submitted - warmup, "measured != submitted - warmup");
  expect((r.controller_adaptations > 0) == workload.credits,
         workload.credits ? "credits controller never adapted" : "credits controller ran");
  expect((r.write_requests_sent > 0) == workload.writes,
         workload.writes ? "no write requests" : "unexpected write requests");
  expect((r.hedges_issued > 0) == workload.hedges,
         workload.hedges ? "no hedges issued" : "unexpected hedges");
  return bad;
}

}  // namespace perfbench
