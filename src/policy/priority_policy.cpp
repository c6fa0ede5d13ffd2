#include "policy/priority_policy.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

namespace brb::policy {

namespace {

constexpr std::uint32_t kNoSubTask = UINT32_MAX;

/// Planning scratch shared by every client planning on this thread, not
/// one per client: mega-fleet pairs 1M clients with 10k groups. Between
/// calls every `subtask_of` entry is kNoSubTask.
struct PlanScratch {
  std::vector<std::uint32_t> subtask_of;  // GroupId -> sub-task index
  std::vector<std::int64_t> running;      // CumSlack, per sub-task
};

PlanScratch& plan_scratch() {
  // brblint:allow(BRB-D02): content-free reuse — reset or overwritten each use, only capacity survives
  thread_local PlanScratch scratch;
  return scratch;
}

}  // namespace

void compute_bottleneck(TaskPlan& plan) {
  std::vector<SubTask>& subtasks = plan.subtasks;
  subtasks.clear();
  if (plan.requests.size() == 1) {
    PlannedRequest& only = plan.requests.front();
    only.subtask = 0;
    subtasks.push_back({only.group, only.expected_cost});
    plan.bottleneck_cost = only.expected_cost;
    return;
  }
  std::vector<std::uint32_t>& subtask_of = plan_scratch().subtask_of;
  for (const PlannedRequest& request : plan.requests) {
    if (request.group >= subtask_of.size()) subtask_of.resize(request.group + 1, kNoSubTask);
    if (subtask_of[request.group] == kNoSubTask) {
      subtask_of[request.group] = 0;
      subtasks.push_back({request.group, sim::Duration::zero()});
    }
  }
  // Groups are distinct, so the order is total; the list holds at most
  // one entry per group, however large the fan-out.
  std::sort(subtasks.begin(), subtasks.end(),
            [](const SubTask& a, const SubTask& b) { return a.group < b.group; });
  for (std::uint32_t i = 0; i < subtasks.size(); ++i) subtask_of[subtasks[i].group] = i;
  for (PlannedRequest& request : plan.requests) {
    request.subtask = subtask_of[request.group];
    subtasks[request.subtask].cost += request.expected_cost;
  }
  sim::Duration bottleneck = sim::Duration::zero();
  for (const SubTask& subtask : subtasks) {
    bottleneck = std::max(bottleneck, subtask.cost);
    subtask_of[subtask.group] = kNoSubTask;
  }
  plan.bottleneck_cost = bottleneck;
}

void FifoPolicy::assign(TaskPlan& plan) const {
  const auto arrival_ns = static_cast<store::Priority>(plan.arrival.count_nanos());
  for (PlannedRequest& request : plan.requests) request.priority = arrival_ns;
}

void EqualMaxPolicy::assign(TaskPlan& plan) const {
  const auto bottleneck = static_cast<store::Priority>(plan.bottleneck_cost.count_nanos());
  for (PlannedRequest& request : plan.requests) request.priority = bottleneck;
}

void UnifIncrPolicy::assign(TaskPlan& plan) const {
  const std::int64_t bottleneck = plan.bottleneck_cost.count_nanos();
  for (PlannedRequest& request : plan.requests) {
    const std::int64_t slack = bottleneck - request.expected_cost.count_nanos();
    request.priority = static_cast<store::Priority>(slack < 0 ? 0 : slack);
  }
}

void RequestSjfPolicy::assign(TaskPlan& plan) const {
  for (PlannedRequest& request : plan.requests) {
    request.priority = static_cast<store::Priority>(request.expected_cost.count_nanos());
  }
}

void CumSlackPolicy::assign(TaskPlan& plan) const {
  const std::int64_t bottleneck = plan.bottleneck_cost.count_nanos();
  // The running sum must follow request order, so it accumulates per
  // sub-task index rather than over the sub-task totals.
  std::vector<std::int64_t>& running = plan_scratch().running;
  running.assign(plan.subtasks.size(), 0);
  for (PlannedRequest& request : plan.requests) {
    std::int64_t& cumulative = running[request.subtask];
    cumulative += request.expected_cost.count_nanos();
    const std::int64_t slack = bottleneck - cumulative;
    request.priority = static_cast<store::Priority>(slack < 0 ? 0 : slack);
  }
}

std::unique_ptr<PriorityPolicy> make_priority_policy(const std::string& name) {
  if (name == "fifo") return std::make_unique<FifoPolicy>();
  if (name == "equalmax") return std::make_unique<EqualMaxPolicy>();
  if (name == "unifincr") return std::make_unique<UnifIncrPolicy>();
  if (name == "request-sjf") return std::make_unique<RequestSjfPolicy>();
  if (name == "cumslack") return std::make_unique<CumSlackPolicy>();
  throw std::invalid_argument("make_priority_policy: unknown policy: " + name);
}

}  // namespace brb::policy
