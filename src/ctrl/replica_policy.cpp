#include "ctrl/replica_policy.hpp"

#include <cmath>
#include <stdexcept>

#include "util/flags.hpp"

namespace brb::ctrl {

store::ServerId RandomPolicy::select(const SignalTable&,
                                     const std::vector<store::ServerId>& replicas,
                                     sim::Duration) {
  if (replicas.empty()) throw std::invalid_argument("RandomPolicy: empty replica set");
  const auto idx = static_cast<std::size_t>(
      rng_.uniform_int(0, static_cast<std::int64_t>(replicas.size()) - 1));
  return replicas[idx];
}

store::ServerId RoundRobinPolicy::select(const SignalTable&,
                                         const std::vector<store::ServerId>& replicas,
                                         sim::Duration) {
  if (replicas.empty()) throw std::invalid_argument("RoundRobinPolicy: empty replica set");
  return replicas[static_cast<std::size_t>(counter_++ % replicas.size())];
}

store::ServerId LeastOutstandingPolicy::select(const SignalTable& signals,
                                               const std::vector<store::ServerId>& replicas,
                                               sim::Duration) {
  if (replicas.empty()) throw std::invalid_argument("LeastOutstandingPolicy: empty replicas");
  // Rotate the scan start so ties do not herd every client onto the
  // lowest server id (a classic cause of load concentration).
  const std::size_t start = static_cast<std::size_t>(rotation_++) % replicas.size();
  store::ServerId best = replicas[start];
  std::uint32_t best_count = signals.outstanding(best);
  for (std::size_t step = 1; step < replicas.size(); ++step) {
    const store::ServerId candidate = replicas[(start + step) % replicas.size()];
    const std::uint32_t count = signals.outstanding(candidate);
    if (count < best_count) {
      best = candidate;
      best_count = count;
    }
  }
  return best;
}

store::ServerId TwoChoicesPolicy::select(const SignalTable& signals,
                                         const std::vector<store::ServerId>& replicas,
                                         sim::Duration) {
  if (replicas.empty()) throw std::invalid_argument("TwoChoicesPolicy: empty replica set");
  const std::size_t n = replicas.size();
  if (n == 1) return replicas.front();
  // Two distinct uniform indices; the second draw excludes the first.
  const auto i = static_cast<std::size_t>(rng_.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  auto j = static_cast<std::size_t>(rng_.uniform_int(0, static_cast<std::int64_t>(n) - 2));
  if (j >= i) ++j;
  const store::ServerId a = replicas[i];
  const store::ServerId b = replicas[j];
  const std::uint32_t load_a = signals.outstanding(a);
  const std::uint32_t load_b = signals.outstanding(b);
  if (load_a != load_b) return load_a < load_b ? a : b;
  return a < b ? a : b;
}

store::ServerId LeastPendingCostPolicy::select(const SignalTable& signals,
                                               const std::vector<store::ServerId>& replicas,
                                               sim::Duration) {
  if (replicas.empty()) throw std::invalid_argument("LeastPendingCostPolicy: empty replicas");
  const std::size_t start = static_cast<std::size_t>(rotation_++) % replicas.size();
  store::ServerId best = replicas[start];
  sim::Duration best_cost = signals.pending_cost(best);
  for (std::size_t step = 1; step < replicas.size(); ++step) {
    const store::ServerId candidate = replicas[(start + step) % replicas.size()];
    const sim::Duration cost = signals.pending_cost(candidate);
    if (cost < best_cost) {
      best = candidate;
      best_cost = cost;
    }
  }
  return best;
}

C3ScorePolicy::C3ScorePolicy(C3ScoreConfig config, std::string registered_name)
    : config_(config), name_(std::move(registered_name)) {
  if (config_.queue_exponent < 1.0) {
    throw std::invalid_argument("C3ScorePolicy: queue_exponent must be >= 1");
  }
  if (config_.num_clients == 0) throw std::invalid_argument("C3ScorePolicy: num_clients == 0");
}

double C3ScorePolicy::score(const SignalTable& signals, store::ServerId server) const {
  // Field reads, not an of() row snapshot: scoring reads five of the
  // row's fields, so this skips copying the whole row per replica.
  const bool seen = signals.seen(server);
  const double ewma_service_ns = signals.ewma_service_time_ns(server);
  const double prior_ns = static_cast<double>(config_.prior_service_time.count_nanos());
  const double service_ns = seen && ewma_service_ns > 0 ? ewma_service_ns : prior_ns;
  const double response_ns = seen ? signals.ewma_response_ns(server) : 0.0;
  const double q_hat =
      1.0 +
      static_cast<double>(signals.outstanding(server)) * static_cast<double>(config_.num_clients) +
      signals.ewma_queue(server);
  // Psi = R - 1/mu + q^b / mu, all in nanoseconds.
  return response_ns - service_ns + std::pow(q_hat, config_.queue_exponent) * service_ns;
}

store::ServerId C3ScorePolicy::select(const SignalTable& signals,
                                      const std::vector<store::ServerId>& replicas,
                                      sim::Duration) {
  if (replicas.empty()) throw std::invalid_argument("C3ScorePolicy: empty replica set");
  store::ServerId best = replicas.front();
  double best_score = score(signals, best);
  for (std::size_t i = 1; i < replicas.size(); ++i) {
    const double candidate = score(signals, replicas[i]);
    if (candidate < best_score || (candidate == best_score && replicas[i] < best)) {
      best = replicas[i];
      best_score = candidate;
    }
  }
  return best;
}

store::ServerId FirstReplicaPolicy::select(const SignalTable&,
                                           const std::vector<store::ServerId>& replicas,
                                           sim::Duration) {
  if (replicas.empty()) throw std::invalid_argument("FirstReplicaPolicy: empty replica set");
  return replicas.front();
}

CreditAwarePolicy::CreditAwarePolicy(std::unique_ptr<ReplicaPolicy> inner)
    : inner_(std::move(inner)) {
  if (!inner_) throw std::invalid_argument("CreditAwarePolicy: null inner policy");
}

store::ServerId CreditAwarePolicy::select(const SignalTable& signals,
                                          const std::vector<store::ServerId>& replicas,
                                          sim::Duration expected_cost) {
  funded_scratch_.clear();
  for (const store::ServerId s : replicas) {
    if (signals.credit_balance(s) >= 1.0) funded_scratch_.push_back(s);
  }
  if (funded_scratch_.empty() || funded_scratch_.size() == replicas.size()) {
    return inner_->select(signals, replicas, expected_cost);
  }
  return inner_->select(signals, funded_scratch_, expected_cost);
}

// ---------------------------------------------------------------------------
// Registry

const std::vector<ReplicaPolicyInfo>& replica_policy_catalog() {
  static const std::vector<ReplicaPolicyInfo> catalog = {
      {"random", {}, "-", "uniform random choice (memcached-era baseline)"},
      {"round-robin", {"rr"}, "-", "deterministic cycling through the replica list"},
      {"least-outstanding",
       {"lor"},
       "outstanding",
       "fewest in-flight requests (classic least-outstanding-requests)"},
      {"two-choices",
       {"2c", "p2c"},
       "outstanding",
       "power of two random choices over outstanding counts (Mitzenmacher)"},
      {"least-pending-cost",
       {"lpc"},
       "pending_cost",
       "least forecast work in flight (BRB's default selector)"},
      {"c3",
       {},
       "ewma_response, ewma_queue, ewma_service_time, outstanding",
       "C3 cubic replica ranking (Suresh et al., NSDI '15)"},
      {"c3-noderate",
       {},
       "ewma_response, ewma_queue, ewma_service_time, outstanding",
       "C3 ranking without C3's cubic rate gate (selection-only ablation)"},
      {"first", {}, "-", "always the first replica (ideal-model systems)"},
  };
  return catalog;
}

std::string canonical_policy_name(const std::string& name) {
  std::vector<std::string> known;
  for (const ReplicaPolicyInfo& info : replica_policy_catalog()) {
    if (info.name == name) return info.name;
    for (const std::string& alias : info.aliases) {
      if (alias == name) return info.name;
    }
    known.push_back(info.name);
  }
  std::string message = "unknown replica policy '" + name + "'";
  if (const auto suggestion = util::closest_name(name, known)) {
    message += " (did you mean '" + *suggestion + "'?)";
  }
  throw std::invalid_argument(message);
}

std::unique_ptr<ReplicaPolicy> make_replica_policy(const std::string& name,
                                                   const C3ScoreConfig& c3, util::Rng rng) {
  const std::string canonical = canonical_policy_name(name);
  if (canonical == "random") return std::make_unique<RandomPolicy>(rng);
  if (canonical == "round-robin") return std::make_unique<RoundRobinPolicy>();
  if (canonical == "least-outstanding") return std::make_unique<LeastOutstandingPolicy>();
  if (canonical == "two-choices") return std::make_unique<TwoChoicesPolicy>(rng);
  if (canonical == "least-pending-cost") return std::make_unique<LeastPendingCostPolicy>();
  if (canonical == "c3" || canonical == "c3-noderate") {
    return std::make_unique<C3ScorePolicy>(c3, canonical);
  }
  if (canonical == "first") return std::make_unique<FirstReplicaPolicy>();
  throw std::logic_error("make_replica_policy: catalog/factory mismatch for " + canonical);
}

}  // namespace brb::ctrl
