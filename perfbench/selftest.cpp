// The benchmark's own tests: span accounting, symbol classification,
// the address map, the sim digest and the invariant checks.
#include <cstdio>
#include <stdexcept>
#include <string>

#include "bench_core.hpp"
#include "span_accounting.hpp"

namespace {

int g_failures = 0;

void check(bool ok, const char* what, int line) {
  if (!ok) {
    ++g_failures;
    std::printf("FAIL line %d: %s\n", line, what);
  }
}
#define CHECK(cond) check((cond), #cond, __LINE__)

using namespace perfbench;

void nested_cross_layer_self_times_sum_to_root() {
  SpanAccounting acct;
  acct.enter(kScenario, 0);    // root span 0..100
  acct.enter(kSim, 10);        // 10..90
  acct.enter(kSim, -1);        // same layer: no span, timestamp unused
  acct.enter(kScenario, 20);   // event callback 20..30
  acct.exit(30);
  acct.exit(-1);
  acct.enter(kServer, 40);     // 40..60
  acct.enter(kInherit, -1);    // util helper: stays in server
  acct.exit(-1);
  acct.enter(kOther, 45);      // 45..50
  acct.exit(50);
  acct.exit(60);
  acct.exit(90);
  acct.exit(100);
  const LayerTotals& t = acct.totals();
  CHECK(acct.depth() == 0);
  CHECK(t.traced_ns == 100);
  CHECK(t.self_ns[kScenario] == 20 + 10);
  CHECK(t.self_ns[kSim] == 80 - 10 - 20);
  CHECK(t.self_ns[kServer] == 20 - 5);
  CHECK(t.self_ns[kOther] == 5);
  std::int64_t sum = 0;
  for (const std::int64_t s : t.self_ns) sum += s;
  CHECK(sum == t.traced_ns);
  CHECK(t.calls[kScenario] == 2);
  CHECK(t.calls[kSim] == 1);
  CHECK(t.calls[kServer] == 1);
  CHECK(t.calls[kOther] == 1);
  CHECK(t.calls[kStats] == 0);

  // A second root span adds to the traced total.
  acct.enter(kStats, 200);
  acct.exit(207);
  CHECK(acct.totals().traced_ns == 107);
  acct.reset();
  CHECK(acct.totals().traced_ns == 0);
}

void symbols_map_to_layers() {
  CHECK(layer_of_symbol("brb::sim::Simulator::run()") == kSim);
  CHECK(layer_of_symbol("brb::server::BackendServer::complete(unsigned int)") == kServer);
  CHECK(layer_of_symbol("brb::core::CreditsController::adapt()") == kCredits);
  CHECK(layer_of_symbol("brb::core::GlobalQueueModel::next_work()") == kCredits);
  CHECK(layer_of_symbol("brb::core::run_scenario(brb::core::ScenarioConfig const&)") ==
        kScenario);
  CHECK(layer_of_symbol("brb::core::run_scenario(brb::core::ScenarioConfig const&)::"
                        "{lambda()#2}::operator()() const") == kScenario);
  CHECK(layer_of_symbol("brb::core::(anonymous namespace)::profile_for(brb::core::SystemKind)") ==
        kScenario);
  CHECK(layer_of_symbol("brb::ctrl::(anonymous namespace)::Table::grow()") == kCtrl);
  // A template function's demangled name starts with its return type.
  CHECK(layer_of_symbol("brb::sim::Time brb::stats::pick<int>(int, brb::sim::Time)") == kStats);
  CHECK(layer_of_symbol("void brb::workload::fill<std::vector<int> >(std::vector<int>&)") ==
        kWorkload);
  CHECK(layer_of_symbol("brb::util::Rng::poisson(double)") == kInherit);
  // Unknown symbols go to `other`.
  CHECK(layer_of_symbol("brb::cli::find_scenario(std::string const&)") == kOther);
  CHECK(layer_of_symbol("std::vector<brb::sim::Time>::push_back(brb::sim::Time const&)") ==
        kOther);
  CHECK(layer_of_symbol("main") == kOther);
  CHECK(layer_of_symbol("") == kOther);
}

void address_map_relocates_and_defaults_to_other() {
  const std::string nm =
      "0000000000001000 T brb::core::run_scenario(brb::core::ScenarioConfig const&)\n"
      "0000000000001040 t brb::net::Network::send(unsigned int)\n"
      "0000000000001080 W brb::stats::Histogram::record(long)\n"
      "0000000000002000 D brb::sim::some_data\n"
      "                 U malloc\n";
  const AddressLayerMap map(nm, "brb::core::run_scenario(brb::core::ScenarioConfig const&)",
                            0x5000);
  CHECK(map.size() == 3);
  CHECK(map.lookup(0x5000) == kScenario);
  CHECK(map.lookup(0x5040) == kNet);
  CHECK(map.lookup(0x5080) == kStats);
  CHECK(map.lookup(0x1040) == kOther);  // unrelocated address
  CHECK(map.lookup(0x6000) == kOther);  // data symbol is not a function
  bool threw = false;
  try {
    AddressLayerMap missing(nm, "brb::core::absent()", 0x5000);
  } catch (const std::runtime_error&) {
    threw = true;
  }
  CHECK(threw);
}

void digest_follows_the_seed() {
  for (const Workload& w : workloads()) {
    const std::uint64_t tasks = 2000;
    const std::uint64_t a = sim_digest(brb::core::run_scenario(make_config(w, 7, tasks)));
    const std::uint64_t b = sim_digest(brb::core::run_scenario(make_config(w, 7, tasks)));
    const std::uint64_t c = sim_digest(brb::core::run_scenario(make_config(w, 8, tasks)));
    CHECK(a == b);
    CHECK(a != c);
  }
}

void invariants_catch_broken_output() {
  const Workload& w = find_workload("paper-c3-writes");
  const brb::core::ScenarioConfig config = make_config(w, 3, 2000);
  const brb::core::RunResult good = brb::core::run_scenario(config);
  CHECK(check_invariants(w, config, good).empty());
  brb::core::RunResult held = good;
  held.gate_held_requests = 1;
  CHECK(check_invariants(w, config, held).size() == 1);
  brb::core::RunResult lost = good;
  lost.write_requests_acked -= 1;
  lost.tasks_completed -= 1;
  CHECK(check_invariants(w, config, lost).size() == 2);
  // The same counters break the mechanism checks of another workload.
  CHECK(!check_invariants(find_workload("fleet-hedge"), config, good).empty());
}

}  // namespace

int main() {
  try {
    nested_cross_layer_self_times_sum_to_root();
    symbols_map_to_layers();
    address_map_relocates_and_defaults_to_other();
    digest_follows_the_seed();
    invariants_catch_broken_output();
  } catch (const std::exception& e) {
    std::printf("FAIL: exception %s\n", e.what());
    return 1;
  }
  if (g_failures == 0) std::printf("perfbench selftest: all checks passed\n");
  return g_failures == 0 ? 0 : 1;
}
