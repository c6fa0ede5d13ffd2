#include "core/global_queue.hpp"

#include <stdexcept>
#include <utility>

namespace brb::core {

GlobalQueueModel::GlobalQueueModel(const store::Partitioner& partitioner, std::string discipline)
    : partitioner_(&partitioner), discipline_(std::move(discipline)) {
  const std::uint32_t num_groups = partitioner_->num_groups();
  group_queues_.reserve(num_groups);
  for (std::uint32_t g = 0; g < num_groups; ++g) {
    group_queues_.push_back(server::make_discipline(discipline_));
  }

  groups_of_.resize(partitioner_->num_servers());
  for (std::uint32_t g = 0; g < num_groups; ++g) {
    for (const store::ServerId s : partitioner_->replicas_of(g)) {
      if (s >= groups_of_.size()) {
        throw std::invalid_argument("GlobalQueueModel: server id outside cluster");
      }
      groups_of_[s].push_back(g);
    }
  }
}

void GlobalQueueModel::attach_servers(std::vector<server::BackendServer*> servers) {
  servers_ = std::move(servers);
  for (server::BackendServer* server : servers_) {
    if (server == nullptr) throw std::invalid_argument("GlobalQueueModel: null server");
    server->set_work_source(*this);
  }
}

void GlobalQueueModel::submit(server::QueuedRead read, store::GroupId group) {
  if (group >= group_queues_.size()) {
    throw std::out_of_range("GlobalQueueModel::submit: bad group");
  }
  read.submit_seq = next_submit_seq_++;
  group_queues_[group]->push(std::move(read));
  ++total_queued_;

  // Work-pull: wake an idle replica of this group (the queue "knows"
  // global state — that is what makes the model ideal/unrealizable).
  for (const store::ServerId s : partitioner_->replicas_of(group)) {
    if (s < servers_.size() && servers_[s]->idle_cores() > 0) {
      servers_[s]->pump();
      break;
    }
  }
}

void GlobalQueueModel::submit_pinned(server::QueuedRead read, store::ServerId server) {
  if (server >= groups_of_.size()) {
    throw std::out_of_range("GlobalQueueModel::submit_pinned: bad server");
  }
  if (pinned_queues_.empty()) pinned_queues_.resize(groups_of_.size());
  if (!pinned_queues_[server]) pinned_queues_[server] = server::make_discipline(discipline_);
  read.submit_seq = next_submit_seq_++;
  pinned_queues_[server]->push(std::move(read));
  ++total_queued_;
  if (server < servers_.size() && servers_[server]->idle_cores() > 0) {
    servers_[server]->pump();
  }
}

std::optional<server::QueuedRead> GlobalQueueModel::next_for(store::ServerId server) {
  if (server >= groups_of_.size()) return std::nullopt;
  server::QueueDiscipline* best_queue = nullptr;
  server::QueueHead best_head{};
  const auto consider = [&](server::QueueDiscipline* queue) {
    const auto head = queue->peek();
    if (!head) return;
    const bool wins = best_queue == nullptr || head->priority < best_head.priority ||
                      (head->priority == best_head.priority &&
                       head->submit_seq < best_head.submit_seq);
    if (wins) {
      best_queue = queue;
      best_head = *head;
    }
  };
  for (const store::GroupId g : groups_of_[server]) consider(group_queues_[g].get());
  if (server < pinned_queues_.size() && pinned_queues_[server]) {
    consider(pinned_queues_[server].get());
  }
  if (best_queue == nullptr) return std::nullopt;
  auto read = best_queue->pop();
  if (read) --total_queued_;
  return read;
}

std::size_t GlobalQueueModel::backlog(store::ServerId server) const {
  if (server >= groups_of_.size()) return 0;
  std::size_t total = 0;
  for (const store::GroupId g : groups_of_[server]) total += group_queues_[g]->size();
  if (server < pinned_queues_.size() && pinned_queues_[server]) {
    total += pinned_queues_[server]->size();
  }
  return total;
}

}  // namespace brb::core
