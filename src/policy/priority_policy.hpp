// Task-aware priority assignment — the core of BRB (paper section 2.1).
//
// Clients subdivide a task into sub-tasks (one per replica group),
// forecast each sub-task's cost, take the costliest as the bottleneck,
// and stamp every request with a priority that servers honor (lower
// value = served earlier):
//
//   EqualMax : priority = bottleneck cost. Tasks with shorter
//              bottlenecks go first (SJF on task makespan).
//   UnifIncr : priority = bottleneck cost - request's own cost (its
//              slack). Requests likely to bottleneck their task have
//              little slack and are served first.
//   Fifo     : priority = task arrival time (task-oblivious control).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/time.hpp"
#include "store/types.hpp"

namespace brb::policy {

/// One planned request inside a task, after replica selection. A
/// write stays a single plan entry (its cost lands once in each
/// replica's sub-task serialization); the dispatch step fans it out to
/// every replica of the group with the same priority.
struct PlannedRequest {
  store::KeyId key = 0;
  std::uint32_t size_hint = 0;
  store::GroupId group = 0;
  bool is_write = false;
  /// Index of its sub-task in TaskPlan::subtasks (compute_bottleneck).
  std::uint32_t subtask = 0;
  sim::Duration expected_cost = sim::Duration::zero();
  store::Priority priority = 0.0;  // output of the policy
};

/// The task's requests for one replica group. They serialize at the
/// chosen replica, so the sub-task costs the sum of their costs.
struct SubTask {
  store::GroupId group = 0;
  sim::Duration cost = sim::Duration::zero();
};

/// A task after splitting and cost forecasting.
struct TaskPlan {
  store::TaskId task_id = 0;
  sim::Time arrival;
  std::vector<PlannedRequest> requests;
  /// One per distinct group, in ascending group id (compute_bottleneck).
  std::vector<SubTask> subtasks;
  /// Cost of the costliest sub-task (max over groups of the summed
  /// expected costs); filled by the planner before assign().
  sim::Duration bottleneck_cost = sim::Duration::zero();
};

/// Splits a plan into sub-tasks: fills plan.subtasks, stamps each
/// request's `subtask` index and sets the bottleneck to the largest
/// sub-task cost. One pass over the requests through a dense
/// group-indexed table, plus a sort of the distinct groups; integer sums
/// keep every cost independent of request order.
void compute_bottleneck(TaskPlan& plan);

class PriorityPolicy {
 public:
  virtual ~PriorityPolicy() = default;

  /// Stamps request.priority for every request in the plan.
  virtual void assign(TaskPlan& plan) const = 0;

  virtual std::string name() const = 0;
};

/// Task-oblivious: FIFO by task arrival time.
class FifoPolicy final : public PriorityPolicy {
 public:
  void assign(TaskPlan& plan) const override;
  std::string name() const override { return "fifo"; }
};

/// BRB EqualMax (paper 2.1).
class EqualMaxPolicy final : public PriorityPolicy {
 public:
  void assign(TaskPlan& plan) const override;
  std::string name() const override { return "equalmax"; }
};

/// BRB UnifIncr (paper 2.1).
class UnifIncrPolicy final : public PriorityPolicy {
 public:
  void assign(TaskPlan& plan) const override;
  std::string name() const override { return "unifincr"; }
};

/// Per-request SJF (ablation): priority = own expected cost, ignoring
/// task structure. Separates "size-aware" from "task-aware" gains.
class RequestSjfPolicy final : public PriorityPolicy {
 public:
  void assign(TaskPlan& plan) const override;
  std::string name() const override { return "request-sjf"; }
};

/// CumSlack (this reproduction's extension of UnifIncr): requests in
/// one sub-task serialize at their replica, so the slack of request i
/// is really the bottleneck cost minus the *cumulative* cost of its
/// sub-task up to and including i — the last request of the bottleneck
/// sub-task has exactly zero slack, and earlier siblings inherit the
/// serialization they impose on later ones. UnifIncr approximates this
/// with the per-request cost alone (paper 2.1); CumSlack computes it
/// exactly. Requests within a sub-task accumulate in plan order, which
/// is the order the client transmits them.
class CumSlackPolicy final : public PriorityPolicy {
 public:
  void assign(TaskPlan& plan) const override;
  std::string name() const override { return "cumslack"; }
};

std::unique_ptr<PriorityPolicy> make_priority_policy(const std::string& name);

}  // namespace brb::policy
