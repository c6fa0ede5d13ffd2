// In-memory key-value storage engine.
//
// Each backend server owns one engine holding the replicas of its
// partitions. The simulator needs value *sizes* (they drive service
// time); real payload bytes are optional so examples can exercise a
// genuine get/put path without inflating experiment memory.
//
// A simulated replica holds only the sizes that differ from the
// dataset's: values a write installed, and keys a trace or a figure
// populated explicitly. Reads of any other key serve the size the
// request carries, so a read-only run stores nothing at all.
//
// Size lookups happen twice per served request. Workload keys are
// small dense integers (datasets number keys 0..N-1), so sizes for
// keys below `kDenseLimit` live in a flat array; the hash map only
// holds payload-bearing entries and keys outside the dense range
// (e.g. raw 64-bit trace keys).
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "store/types.hpp"

namespace brb::store {

struct ValueMeta {
  std::uint32_t size_bytes = 0;
  /// Inline payload; empty when the engine runs in metadata-only mode.
  std::string payload;
};

class StorageEngine {
 public:
  /// Keys below this bound use the dense size table.
  static constexpr KeyId kDenseLimit = KeyId{1} << 22;

  /// The dense table only grows while it stays within this factor of
  /// the number of stored keys (plus a free initial allowance). A
  /// server holding a dense slice of the keyspace (paper scale: each
  /// replica holds ~1/3 of all keys) keeps the flat-array hot path; a
  /// server holding a few dozen keys of a huge keyspace (mega-fleet:
  /// 10k servers sharding 100k keys) stays in the hash map instead of
  /// allocating a keyspace-sized array per server. Lookups are
  /// unaffected — size_of already falls through to the map.
  static constexpr std::uint64_t kDenseGrowthFactor = 8;
  static constexpr std::uint64_t kDenseGrowthAllowance = 1024;

  /// `store_payloads` controls whether put() keeps the actual bytes.
  explicit StorageEngine(bool store_payloads = false) : store_payloads_(store_payloads) {}

  /// Allocates the empty dense table for keys [0, key_limit) now when
  /// the growth rule allows it for a replica holding `expected_keys`
  /// keys, so a replica that will take writes pays no table growth
  /// during the run. Returns whether the table covers the range.
  bool reserve_dense(KeyId key_limit, std::uint64_t expected_keys);

  /// Inserts or replaces a value described only by its size.
  void put_meta(KeyId key, std::uint32_t size_bytes);

  /// Inserts or replaces a value with payload (size derived).
  void put(KeyId key, std::string payload);

  /// Size lookup; nullopt when the key is absent. O(1) array read for
  /// dense keys — the service hot path.
  std::optional<std::uint32_t> size_of(KeyId key) const {
    if (key < dense_size_plus1_.size()) {
      const std::uint32_t plus1 = dense_size_plus1_[key];
      if (plus1 != 0) return plus1 - 1;
    }
    if (values_.empty()) return std::nullopt;
    return sparse_size_of(key);
  }

  /// Full lookup (payload empty in metadata-only mode).
  std::optional<ValueMeta> get(KeyId key) const;

  bool erase(KeyId key);
  bool contains(KeyId key) const { return size_of(key).has_value(); }

  std::size_t num_keys() const noexcept { return num_keys_; }
  std::uint64_t stored_bytes() const noexcept { return stored_bytes_; }

 private:
  std::optional<std::uint32_t> sparse_size_of(KeyId key) const;
  /// Removes any existing entry for `key` from both structures,
  /// returning its size for the bytes accounting.
  std::optional<std::uint32_t> remove_entry(KeyId key);
  /// The growth rule: may the dense table cover `key` for a replica
  /// holding `keys` keys?
  static bool dense_may_cover(KeyId key, std::uint64_t keys) noexcept {
    return key < kDenseGrowthAllowance + kDenseGrowthFactor * keys;
  }
  bool dense_eligible(KeyId key, std::uint32_t size_bytes) const noexcept {
    // size+1 must fit (UINT32_MAX-sized values take the sparse path).
    return key < kDenseLimit && size_bytes != std::numeric_limits<std::uint32_t>::max();
  }

  bool store_payloads_;
  /// dense_size_plus1_[key] = size + 1; 0 means absent.
  std::vector<std::uint32_t> dense_size_plus1_;
  /// Payload-bearing entries and keys outside the dense range only.
  /// Lookup-only (find/erase/indexed insert by key) — never iterated,
  /// so hash order cannot reach service order or artifacts.
  std::unordered_map<KeyId, ValueMeta> values_;  // brblint:allow(BRB-D01): lookup-only, never iterated
  std::size_t num_keys_ = 0;
  std::uint64_t stored_bytes_ = 0;
};

}  // namespace brb::store
