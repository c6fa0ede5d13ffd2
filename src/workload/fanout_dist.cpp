#include "workload/fanout_dist.hpp"

#include <algorithm>
#include <cmath>

#include "workload/spec_fields.hpp"

namespace brb::workload {

FixedFanout::FixedFanout(std::uint32_t n) : n_(n) {
  if (n_ == 0) throw std::invalid_argument("FixedFanout: n == 0");
}

GeometricFanout::GeometricFanout(double mean) : mean_(mean) {
  if (!std::isfinite(mean_) || mean_ < 1.0) {
    throw std::invalid_argument("GeometricFanout: mean must be finite and >= 1");
  }
  // X = 1 + G where G ~ Geometric(p) counts failures before success:
  // E[X] = 1 + (1-p)/p  =>  p = 1 / mean.
  p_ = 1.0 / mean_;
}

namespace {

// E[clamp(round(exp(N(mu, sigma))), 1, cap)] by a midpoint rule over
// the standard normal, z in [-8, 8]. Calibration results are pinned
// bit for bit (mu drives every fan-out draw, mean() sets the task
// rate), so the sum below must keep the exact terms and order of the
// plain per-panel loop; workload_test checks it against that loop.
class Quadrature {
 public:
  static constexpr int kPanels = 1 << 14;

  // The mu-independent half: abscissae, weights and their sum, built
  // once per calibration rather than once per bisection step.
  Quadrature() : z_(kPanels), w_(kPanels) {
    for (int i = 0; i < kPanels; ++i) {
      z_[i] = -8.0 + 16.0 * (static_cast<double>(i) + 0.5) / kPanels;
      w_[i] = std::exp(-0.5 * z_[i] * z_[i]);
      weight_ += w_[i];
    }
  }

  double mean(double mu, double sigma, std::uint32_t cap) const {
    // Below `low` exp rounds to at most 1, above `high` to more than
    // cap, so the clamp fixes the value and exp is skipped. The margin
    // dwarfs exp's and log's last-bit errors. Those panels still add
    // w * 1 or w * cap in panel order, so the sum rounds as before.
    constexpr double kMargin = 1e-9;
    const double top = static_cast<double>(cap);
    const double low = std::log(1.5) - kMargin;
    const double high = std::log(top + 0.5) + kMargin;
    double acc = 0.0;
    for (int i = 0; i < kPanels; ++i) {
      const double x = mu + sigma * z_[i];
      double v;
      if (x < low) {
        v = 1.0;
      } else if (x > high) {
        v = top;
      } else {
        v = std::clamp(std::round(std::exp(x)), 1.0, top);
      }
      acc += w_[i] * v;
    }
    return acc / weight_;
  }

 private:
  std::vector<double> z_;
  std::vector<double> w_;
  double weight_ = 0.0;
};

void check_lognormal_shape(double sigma, std::uint32_t cap) {
  if (!std::isfinite(sigma) || sigma <= 0.0) {
    throw std::invalid_argument("LogNormalFanout: sigma must be finite and > 0");
  }
  if (cap == 0) throw std::invalid_argument("LogNormalFanout: cap == 0");
}

}  // namespace

LogNormalFanout::LogNormalFanout(double mu, double sigma, std::uint32_t cap)
    : mu_(mu), sigma_(sigma), cap_(cap) {
  if (!std::isfinite(mu_)) throw std::invalid_argument("LogNormalFanout: mu must be finite");
  check_lognormal_shape(sigma_, cap_);
  mean_ = Quadrature().mean(mu_, sigma_, cap_);
}

LogNormalFanout::LogNormalFanout(double mu, double sigma, std::uint32_t cap, double mean)
    : mu_(mu), sigma_(sigma), cap_(cap), mean_(mean) {}

LogNormalFanout LogNormalFanout::for_mean(double target_mean, double sigma, std::uint32_t cap) {
  if (!std::isfinite(target_mean) || target_mean < 1.0) {
    throw std::invalid_argument("LogNormalFanout: target mean must be finite and >= 1");
  }
  check_lognormal_shape(sigma, cap);
  if (target_mean > static_cast<double>(cap)) {
    throw std::invalid_argument("LogNormalFanout: target mean above cap");
  }
  // Bisection on mu; the discretized mean is monotone in mu.
  const Quadrature quadrature;
  double lo = -5.0;
  double hi = 15.0;
  for (int iter = 0; iter < 80; ++iter) {
    const double mid = 0.5 * (lo + hi);
    // Once lo and hi are adjacent doubles the midpoint lands on one of
    // them, and no later step moves 0.5 * (lo + hi) off it.
    if (mid == lo || mid == hi) break;
    if (quadrature.mean(mid, sigma, cap) < target_mean) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  const double mu = 0.5 * (lo + hi);
  return LogNormalFanout(mu, sigma, cap, quadrature.mean(mu, sigma, cap));
}

EmpiricalFanout::EmpiricalFanout(std::vector<double> weights) {
  if (weights.empty()) throw std::invalid_argument("EmpiricalFanout: empty weights");
  double total = 0.0;
  for (const double w : weights) {
    if (w < 0.0) throw std::invalid_argument("EmpiricalFanout: negative weight");
    total += w;
  }
  if (total <= 0.0) throw std::invalid_argument("EmpiricalFanout: zero total weight");
  cumulative_.reserve(weights.size());
  double acc = 0.0;
  double mean_acc = 0.0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    acc += weights[i] / total;
    cumulative_.push_back(acc);
    mean_acc += static_cast<double>(i + 1) * weights[i] / total;
  }
  cumulative_.back() = 1.0;  // absorb rounding
  mean_ = mean_acc;
}

std::uint32_t EmpiricalFanout::sample(util::Rng& rng) const {
  const double u = rng.uniform();
  const auto it = std::lower_bound(cumulative_.begin(), cumulative_.end(), u);
  return static_cast<std::uint32_t>(std::distance(cumulative_.begin(), it)) + 1;
}

std::unique_ptr<FanoutDistribution> make_fanout_distribution(const std::string& spec) {
  const SpecFields fields("make_fanout_distribution", spec);
  if (fields.kind() == "fixed") {
    fields.max_fields(2);
    return std::make_unique<FixedFanout>(fields.count(1, 8));
  }
  if (fields.kind() == "geometric") {
    fields.max_fields(2);
    return std::make_unique<GeometricFanout>(fields.number(1, 8.6));
  }
  if (fields.kind() == "lognormal") {
    fields.max_fields(4);
    return std::make_unique<LogNormalFanout>(LogNormalFanout::for_mean(
        fields.number(1, 8.6), fields.number(2, 0.8), fields.count(3, 1024)));
  }
  throw std::invalid_argument("make_fanout_distribution: unknown kind: " + fields.kind());
}

}  // namespace brb::workload
