#include "workload/spec_fields.hpp"

#include <cmath>
#include <limits>
#include <sstream>
#include <utility>

namespace brb::workload {

SpecFields::SpecFields(std::string factory, const std::string& spec, char separator)
    : factory_(std::move(factory)), spec_(spec) {
  std::stringstream ss(spec);
  for (std::string item; std::getline(ss, item, separator);) parts_.push_back(item);
  if (parts_.empty()) throw std::invalid_argument(factory_ + ": empty spec");
}

std::invalid_argument SpecFields::error(const std::string& why) const {
  return std::invalid_argument(factory_ + ": " + why + " in '" + spec_ + "'");
}

double SpecFields::number(std::size_t i, double fallback) const {
  if (parts_.size() <= i) return fallback;
  const std::string& field = parts_[i];
  std::size_t used = 0;
  double value = std::numeric_limits<double>::quiet_NaN();
  try {
    value = std::stod(field, &used);
  } catch (const std::exception&) {
    // Left NaN: rejected below.
  }
  if (used != field.size() || !std::isfinite(value)) {
    throw error("field '" + field + "' is not a finite number");
  }
  return value;
}

std::uint32_t SpecFields::count(std::size_t i, std::uint32_t fallback) const {
  if (parts_.size() <= i) return fallback;
  const double value = number(i, 0.0);
  constexpr auto kMax = std::numeric_limits<std::uint32_t>::max();
  if (value != std::floor(value) || value < 1.0 || value > kMax) {
    throw error("field '" + parts_[i] + "' is not a whole number in [1, " +
                std::to_string(kMax) + "]");
  }
  return static_cast<std::uint32_t>(value);
}

void SpecFields::max_fields(std::size_t n) const {
  if (parts_.size() > n) throw error("too many fields");
}

}  // namespace brb::workload
