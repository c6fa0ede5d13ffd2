// The systems under comparison, as named presets over the control-plane
// registries.
//
// Figure 2 of the paper compares five: C3 (state of the art) and the
// {EqualMax, UnifIncr} x {Credits, Model} matrix. The remaining rows are
// ablations this reproduction adds to separate mechanisms. A row picks
// one entry per axis: replica policy (ctrl::replica_policy_catalog),
// priority policy (policy::make_priority_policy), queue discipline
// (server::make_discipline) and admission policy
// (ctrl::admission_policy_catalog), plus whether servers pull from the
// shared global queue (the paper's ideal "model" realization).
// `--policy` and `--admission` override a row's axes per run.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/flags.hpp"

namespace brb::core {

/// Stable handle for a preset. The values are fixed: the parameterized
/// test suites print them in their test names, so new systems append.
enum class SystemKind {
  kC3,
  kEqualMaxCredits,
  kUnifIncrCredits,
  kEqualMaxModel,
  kUnifIncrModel,
  kFifoDirect,
  kRandomFifo,
  kEqualMaxDirect,
  kUnifIncrDirect,
  kFifoModel,
  kRequestSjfDirect,
  kCumSlackCredits,
  kCumSlackModel,
};

struct SystemPreset {
  SystemKind kind;
  const char* name;
  /// One-line description (brbsim --help).
  const char* summary;
  /// Default replica policy; ScenarioConfig::selector_override and
  /// --policy replace it.
  const char* selector;
  const char* priority;
  const char* discipline;
  /// Pick a replica per sub-task (true) or once per task (false).
  bool select_per_subtask;
  /// Default admission policy; --admission replaces it.
  const char* admission;
  /// Servers pull from the shared global queue instead of private queues.
  bool global_queue;
};

/// Every system, in the policy-matrix scenario's case order.
inline constexpr SystemPreset kSystemPresets[] = {
    {SystemKind::kRandomFifo, "random-fifo",
     "random replica selection, FIFO servers (memcached-era floor)",
     "random", "fifo", "fifo", false, "direct", false},
    {SystemKind::kFifoDirect, "fifo-direct",
     "task-oblivious baseline: least-outstanding selection, FIFO servers",
     "least-outstanding", "fifo", "fifo", false, "direct", false},
    {SystemKind::kRequestSjfDirect, "request-sjf-direct",
     "per-request SJF, direct (separates size-aware from task-aware)",
     "least-pending-cost", "request-sjf", "priority", false, "direct", false},
    {SystemKind::kC3, "c3",
     "C3 (NSDI '15): cubic replica ranking + cubic rate control, FIFO servers",
     "c3", "fifo", "fifo", false, "cubic-rate", false},
    // BRB selects replicas load-aware per sub-task ("intelligent replica
    // selection", §2). Least-pending-cost tracks the forecast work a
    // client has bound to each server — the strongest decentralized
    // signal available to it (measured in the policy-matrix scenario;
    // beats C3-style ranking for sub-task granularity).
    {SystemKind::kEqualMaxDirect, "equalmax-direct",
     "BRB EqualMax priorities without admission control (no credits)",
     "least-pending-cost", "equalmax", "priority", true, "direct", false},
    {SystemKind::kUnifIncrDirect, "unifincr-direct",
     "BRB UnifIncr priorities without admission control (no credits)",
     "least-pending-cost", "unifincr", "priority", true, "direct", false},
    {SystemKind::kEqualMaxCredits, "equalmax-credits",
     "BRB EqualMax priorities, credits realization",
     "least-pending-cost", "equalmax", "priority", true, "credits", false},
    {SystemKind::kUnifIncrCredits, "unifincr-credits",
     "BRB UnifIncr priorities, credits realization",
     "least-pending-cost", "unifincr", "priority", true, "credits", false},
    {SystemKind::kCumSlackCredits, "cumslack-credits",
     "CumSlack extension (exact serialized slack), credits realization",
     "least-pending-cost", "cumslack", "priority", true, "credits", false},
    {SystemKind::kFifoModel, "fifo-model",
     "ideal global queue but FIFO (separates pooling from priorities)",
     "first", "fifo", "fifo", true, "direct", true},
    {SystemKind::kEqualMaxModel, "equalmax-model",
     "BRB EqualMax priorities, ideal global-queue model",
     "first", "equalmax", "priority", true, "direct", true},
    {SystemKind::kUnifIncrModel, "unifincr-model",
     "BRB UnifIncr priorities, ideal global-queue model",
     "first", "unifincr", "priority", true, "direct", true},
    {SystemKind::kCumSlackModel, "cumslack-model",
     "CumSlack extension, ideal global-queue model",
     "first", "cumslack", "priority", true, "direct", true},
};

constexpr bool presets_hold_each_kind_once() {
  std::uint32_t seen = 0;  // bit k: SystemKind k has a row
  for (const SystemPreset& preset : kSystemPresets) {
    const std::uint32_t bit = 1u << static_cast<unsigned>(preset.kind);
    if ((seen & bit) != 0) return false;
    seen |= bit;
  }
  return seen == (1u << (static_cast<unsigned>(SystemKind::kCumSlackModel) + 1)) - 1;
}
static_assert(presets_hold_each_kind_once(), "kSystemPresets must hold every SystemKind once");

constexpr const SystemPreset& system_preset(SystemKind kind) {
  for (const SystemPreset& preset : kSystemPresets) {
    if (preset.kind == kind) return preset;
  }
  throw std::invalid_argument("system_preset: unknown system kind");
}

inline std::string to_string(SystemKind kind) { return system_preset(kind).name; }

/// Throws std::invalid_argument with a did-you-mean hint on unknown names.
inline SystemKind system_kind_from_name(const std::string& name) {
  std::vector<std::string> known;
  for (const SystemPreset& preset : kSystemPresets) {
    if (name == preset.name) return preset.kind;
    known.push_back(preset.name);
  }
  std::string message = "unknown system '" + name + "'";
  if (const auto suggestion = util::closest_name(name, known)) {
    message += " (did you mean '" + *suggestion + "'?)";
  }
  throw std::invalid_argument(message);
}

/// Every system, in table order.
inline std::vector<SystemKind> all_system_kinds() {
  std::vector<SystemKind> kinds;
  for (const SystemPreset& preset : kSystemPresets) kinds.push_back(preset.kind);
  return kinds;
}

}  // namespace brb::core
