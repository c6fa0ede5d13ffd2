#include "workload/key_dist.hpp"

#include <stdexcept>

#include "store/partitioner.hpp"
#include "workload/spec_fields.hpp"

namespace brb::workload {

UniformKeys::UniformKeys(std::uint64_t num_keys) : n_(num_keys) {
  if (n_ == 0) throw std::invalid_argument("UniformKeys: num_keys == 0");
}

ZipfKeys::ZipfKeys(std::uint64_t num_keys, double exponent)
    : n_(num_keys), zipf_(exponent, num_keys) {
  if (n_ == 0) throw std::invalid_argument("ZipfKeys: num_keys == 0");
}

std::unique_ptr<KeyDistribution> make_key_distribution(const std::string& spec) {
  const SpecFields fields("make_key_distribution", spec);
  if (fields.kind() == "uniform") {
    fields.max_fields(2);
    return std::make_unique<UniformKeys>(fields.count(1, 100'000));
  }
  if (fields.kind() == "zipf") {
    fields.max_fields(3);
    const std::uint32_t num_keys = fields.count(1, 100'000);
    return std::make_unique<ZipfKeys>(num_keys, fields.number(2, 0.9));
  }
  throw std::invalid_argument("make_key_distribution: unknown kind: " + fields.kind());
}

}  // namespace brb::workload
