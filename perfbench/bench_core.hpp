// The benchmark's workloads, output digest and invariant checks.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/scenario.hpp"

namespace perfbench {

/// One benchmark workload: a single case of a registered scenario.
struct Workload {
  std::string_view name;
  std::string_view scenario;  // brbsim --scenario name
  std::string_view label;     // the expanded case's label
  /// Mechanisms the workload must exercise; the others must stay idle.
  bool credits;
  bool writes;
  bool hedges;
};

const std::vector<Workload>& workloads();

/// Throws std::invalid_argument on an unknown name.
const Workload& find_workload(std::string_view name);

/// The registry case's config with `num_tasks` tasks and `seed`.
brb::core::ScenarioConfig make_config(const Workload& workload, std::uint64_t seed,
                                      std::uint64_t num_tasks);

/// FNV-1a hash of every simulated counter and of the task and request
/// latency quantiles: equal digests mean identical simulated output.
std::uint64_t sim_digest(const brb::core::RunResult& result);

/// Describes each violated output invariant; empty when the run is sound.
std::vector<std::string> check_invariants(const Workload& workload,
                                          const brb::core::ScenarioConfig& config,
                                          const brb::core::RunResult& result);

}  // namespace perfbench
