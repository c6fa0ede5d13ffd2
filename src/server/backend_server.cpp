#include "server/backend_server.hpp"

#include <stdexcept>
#include <utility>

#include "util/ewma.hpp"

namespace brb::server {

BackendServer::BackendServer(sim::Simulator& sim, Config config,
                             const ServiceTimeModel& service_model, util::Rng rng)
    : Actor(sim), config_(config), service_model_(&service_model), rng_(rng) {
  if (config_.cores == 0) throw std::invalid_argument("BackendServer: zero cores");
  if (config_.rate_ewma_alpha <= 0.0 || config_.rate_ewma_alpha > 1.0) {
    throw std::invalid_argument("BackendServer: rate_ewma_alpha must be in (0,1]");
  }
  // Neutral prior: rate implied by the expected service time of an
  // average-sized (1-byte baseline) request. Refined on first completion.
  const double expected_ns = static_cast<double>(service_model_->expected(1).count_nanos());
  ewma_rate_ = expected_ns > 0 ? 1e9 / expected_ns * config_.cores : 1.0;
  // Resolve the concrete model type once; a noise-free linear model is
  // a pure function of size, so every start_service draw collapses to
  // one inline multiply-add (no model math, no RNG).
  const auto* linear = dynamic_cast<const SizeLinearServiceModel*>(service_model_);
  if (linear != nullptr && linear->noise_sigma() == 0.0) {
    linear_fast_path_ = true;
    linear_base_nanos_ = linear->base().count_nanos();
    linear_per_byte_ = linear->per_byte_nanos();
  }
}

void BackendServer::use_private_queue(std::unique_ptr<QueueDiscipline> discipline) {
  if (!discipline) throw std::invalid_argument("BackendServer::use_private_queue: null discipline");
  queue_ = std::move(discipline);
  queue_len_ = static_cast<std::uint32_t>(queue_->size());
}

void BackendServer::receive(const store::ReadRequest& request) {
  if (queue_ == nullptr) {
    throw std::logic_error("BackendServer::receive: no private queue (model mode pulls instead)");
  }
  if (busy_cores_ < config_.cores && queue_len_ == 0) {
    // Idle core, empty queue: the enqueue/pop round-trip through the
    // discipline is an identity — serve directly.
    start_service(request);
    return;
  }
  queue_->push(QueuedRead{request, now()});
  ++queue_len_;
  stats_.max_queue_seen = std::max<std::uint64_t>(stats_.max_queue_seen, queue_len_);
  pump();
  check_watch();
}

void BackendServer::pump() {
  bool pulled = false;
  if (queue_ != nullptr) {
    while (busy_cores_ < config_.cores && queue_len_ != 0) {
      pulled = true;
      --queue_len_;
      start_service(queue_->pop()->request);
    }
  } else {
    if (source_ == nullptr) throw std::logic_error("BackendServer::pump: no work source");
    while (busy_cores_ < config_.cores) {
      auto read = source_->next_for(config_.id);
      if (!read) break;
      pulled = true;
      start_service(read->request);
    }
  }
  if (pulled) check_watch();
}

void BackendServer::start_service(const store::ReadRequest& request) {
  if (service_filter_ && !service_filter_(request)) {
    // Rejected at dequeue (a cancelled duplicate): consumes no core
    // and no service-time draw; the caller's pump loop simply pulls
    // the next item, and the receive fast path falls through idle.
    return;
  }
  ++busy_cores_;
  // Actual work is driven by the value size: the replica's own stored
  // size when it has one (a write landed, or a trace populated it),
  // otherwise the size the request carries (the dataset's). A request
  // that carries none serves as a 1-byte value. Writes do work
  // proportional to the payload being installed instead.
  const std::uint32_t carried = std::max(1u, request.value_size);
  const std::uint32_t size =
      request.is_write ? carried : storage_.size_of(request.key).value_or(carried);
  const sim::Duration service_time = draw_service_time(size);
  const sim::Time done_at = now() + service_time;
  sim().schedule_at(done_at, [this, request_id = request.request_id, task_id = request.task_id,
                              key = request.key, client = request.client, service_time, carried,
                              is_write = request.is_write] {
    complete(request_id, task_id, key, client, service_time, carried, is_write);
  });
}

void BackendServer::complete(store::RequestId request_id, store::TaskId task_id,
                             store::KeyId key, store::ClientId client,
                             sim::Duration service_time, std::uint32_t carried, bool is_write) {
  --busy_cores_;
  ++stats_.served;
  stats_.busy_time += service_time;

  // EWMA of the whole-server completion rate implied by this service
  // time (cores working in parallel).
  const double rate_sample =
      1e9 / static_cast<double>(service_time.count_nanos()) * config_.cores;
  ewma_rate_ = util::ewma_update(ewma_rate_, config_.rate_ewma_alpha, rate_sample);

  store::ReadResponse response;
  response.request_id = request_id;
  response.task_id = task_id;
  response.key = key;
  response.client = client;
  response.server = config_.id;
  if (is_write) {
    // The replica resizes its stored value at completion and sends a
    // bare acknowledgement (no payload travels back).
    storage_.put_meta(key, carried);
    response.is_write = true;
    response.value_size = 0;
  } else {
    // Looked up at completion time (not captured at service start) so a
    // write landing mid-service is reflected, as before the refactor;
    // the dense size table makes the second lookup an O(1) array read.
    response.value_size = storage_.size_of(key).value_or(carried);
  }
  response.feedback.queue_length = queue_length();
  response.feedback.service_rate = ewma_rate_;
  response.feedback.service_time = service_time;
  if (on_response_) on_response_(response);

  pump();
}

}  // namespace brb::server
