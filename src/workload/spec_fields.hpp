// Fields of a colon-separated spec ("kind:field:..."), shared by the
// fan-out, key, size and arrival factories. Every numeric field
// must be one whole finite number: bare `stod` accepts "nan", "inf"
// and trailing junk ("1000x"), and a negative count cast to an
// unsigned size wraps to a huge allocation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace brb::workload {

class SpecFields {
 public:
  /// `factory` prefixes every error, which also quotes the whole spec.
  /// Throws std::invalid_argument on an empty spec.
  SpecFields(std::string factory, const std::string& spec, char separator = ':');

  const std::string& kind() const noexcept { return parts_.front(); }
  std::size_t size() const noexcept { return parts_.size(); }
  const std::string& field(std::size_t i) const { return parts_.at(i); }

  /// Field `i` (the kind is field 0) as a finite number, or `fallback`
  /// when the spec stops before it.
  double number(std::size_t i, double fallback) const;

  /// Field `i` as a count or byte size: a whole number in
  /// [1, 2^32 - 1], or `fallback` when the spec stops before it.
  std::uint32_t count(std::size_t i, std::uint32_t fallback) const;

  /// Rejects a spec with more than `n` fields, the kind included.
  void max_fields(std::size_t n) const;

  /// "factory: why in 'spec'".
  std::invalid_argument error(const std::string& why) const;

 private:
  std::string factory_;
  std::string spec_;
  std::vector<std::string> parts_;
};

}  // namespace brb::workload
