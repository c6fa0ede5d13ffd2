#include "ctrl/signal_table.hpp"

#include "ctrl/sparse_signal_table.hpp"
#include "util/ewma.hpp"

namespace brb::ctrl {

namespace {
/// Servers per sparse aggregation group (the eviction fallback
/// granularity).
constexpr std::uint32_t kSparseGroupSize = 32;
}  // namespace

SignalTable::SignalTable(SignalTableConfig config) : config_(config) {
  util::validate_ewma_alpha(config_.ewma_alpha, "SignalTable");
  if (config_.sparse) {
    sparse_ = std::make_unique<SparseSignalTable>(config_.ewma_alpha, config_.sparse_cap,
                                                  kSparseGroupSize);
  }
}

SignalTable::~SignalTable() = default;
SignalTable::SignalTable(SignalTable&&) noexcept = default;
SignalTable& SignalTable::operator=(SignalTable&&) noexcept = default;

void SignalTable::fold_send(Signals& row, sim::Duration expected_cost) {
  ++row.outstanding;
  row.pending_cost_ns += expected_cost.count_nanos();
}

void SignalTable::fold_response(Signals& row, double ewma_alpha,
                                const store::ServerFeedback& feedback, sim::Duration rtt,
                                sim::Duration expected_cost, sim::Time at) {
  fold_cancel(row, expected_cost);
  row.last_queue_length = feedback.queue_length;
  row.last_service_rate = feedback.service_rate;
  row.last_feedback_ns = at.count_nanos();

  const double rtt_ns = static_cast<double>(rtt.count_nanos());
  const double queue = static_cast<double>(feedback.queue_length);
  // Server-wide rate mu (req/s) -> expected per-request service time.
  const double service_ns = feedback.service_rate > 0
                                ? 1e9 / feedback.service_rate
                                : static_cast<double>(feedback.service_time.count_nanos());
  if (!row.seen) {
    row.seen = true;
    row.ewma_response_ns = rtt_ns;
    row.ewma_queue = queue;
    row.ewma_service_time_ns = service_ns;
  } else {
    row.ewma_response_ns = util::ewma_update(row.ewma_response_ns, ewma_alpha, rtt_ns);
    row.ewma_queue = util::ewma_update(row.ewma_queue, ewma_alpha, queue);
    row.ewma_service_time_ns =
        util::ewma_update(row.ewma_service_time_ns, ewma_alpha, service_ns);
  }
}

void SignalTable::fold_cancel(Signals& row, sim::Duration expected_cost) {
  if (row.outstanding > 0) --row.outstanding;
  row.pending_cost_ns -= expected_cost.count_nanos();
  if (row.pending_cost_ns < 0) row.pending_cost_ns = 0;
}

SignalTable::Signals& SignalTable::row(store::ServerId server) {
  if (server >= rows_.size()) rows_.resize(server + 1);
  return rows_[server];
}

SignalTable::Signals SignalTable::of(store::ServerId server) const {
  if (sparse_) return sparse_->of(server);
  return server < rows_.size() ? rows_[server] : Signals{};
}

void SignalTable::on_send(store::ServerId server, sim::Duration expected_cost) {
  ++sends_;
  if (sparse_) {
    sparse_->on_send(server, expected_cost);
    return;
  }
  fold_send(row(server), expected_cost);
}

void SignalTable::on_response(store::ServerId server, const store::ServerFeedback& feedback,
                              sim::Duration rtt, sim::Duration expected_cost, sim::Time at) {
  ++responses_;
  if (sparse_) {
    sparse_->on_response(server, feedback, rtt, expected_cost, at);
    return;
  }
  fold_response(row(server), config_.ewma_alpha, feedback, rtt, expected_cost, at);
}

void SignalTable::on_cancel(store::ServerId server, sim::Duration expected_cost) {
  ++cancels_;
  if (sparse_) {
    sparse_->on_cancel(server, expected_cost);
    return;
  }
  // Release the accounting the copy's on_send charged. No EWMA fold and
  // no response count: a cancelled copy produced no feedback, and
  // folding one in would corrupt C3's estimates with phantom samples.
  fold_cancel(row(server), expected_cost);
}

void SignalTable::set_credit_balance(store::ServerId server, double balance) {
  if (sparse_) {
    sparse_->set_credit_balance(server, balance);
    return;
  }
  row(server).credit_balance = balance;
}

void SignalTable::set_rate_cap(store::ServerId server, double rate) {
  if (sparse_) {
    sparse_->set_rate_cap(server, rate);
    return;
  }
  row(server).rate_cap = rate;
}

std::size_t SignalTable::size() const noexcept {
  return sparse_ ? sparse_->live_entries() : rows_.size();
}

std::uint32_t SignalTable::sparse_outstanding(store::ServerId server) const {
  return sparse_->outstanding(server);
}
sim::Duration SignalTable::sparse_pending_cost(store::ServerId server) const {
  return sparse_->pending_cost(server);
}
bool SignalTable::sparse_seen(store::ServerId server) const { return sparse_->seen(server); }
double SignalTable::sparse_ewma_response_ns(store::ServerId server) const {
  return sparse_->ewma_response_ns(server);
}
double SignalTable::sparse_ewma_queue(store::ServerId server) const {
  return sparse_->ewma_queue(server);
}
double SignalTable::sparse_ewma_service_time_ns(store::ServerId server) const {
  return sparse_->ewma_service_time_ns(server);
}
double SignalTable::sparse_credit_balance(store::ServerId server) const {
  return sparse_->credit_balance(server);
}
double SignalTable::sparse_rate_cap(store::ServerId server) const {
  return sparse_->rate_cap(server);
}
std::int64_t SignalTable::sparse_last_feedback_ns(store::ServerId server) const {
  return sparse_->last_feedback_ns(server);
}

}  // namespace brb::ctrl
