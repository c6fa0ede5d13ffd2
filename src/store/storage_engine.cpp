#include "store/storage_engine.hpp"

#include <algorithm>
#include <utility>

namespace brb::store {

// Invariant: every stored key lives in exactly one structure — the
// dense size table (metadata-only, key < kDenseLimit) or the hash map
// (payload entries, out-of-range keys, UINT32_MAX-sized values).

std::optional<std::uint32_t> StorageEngine::sparse_size_of(KeyId key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return std::nullopt;
  return it->second.size_bytes;
}

std::optional<std::uint32_t> StorageEngine::remove_entry(KeyId key) {
  if (key < dense_size_plus1_.size() && dense_size_plus1_[key] != 0) {
    const std::uint32_t size = dense_size_plus1_[key] - 1;
    dense_size_plus1_[key] = 0;
    return size;
  }
  const auto it = values_.find(key);
  if (it == values_.end()) return std::nullopt;
  const std::uint32_t size = it->second.size_bytes;
  values_.erase(it);
  return size;
}

void StorageEngine::put_meta(KeyId key, std::uint32_t size_bytes) {
  if (const auto old = remove_entry(key)) {
    stored_bytes_ -= *old;
  } else {
    ++num_keys_;
  }
  stored_bytes_ += size_bytes;
  if (dense_eligible(key, size_bytes) &&
      (key < dense_size_plus1_.size() || dense_may_cover(key, num_keys_))) {
    if (key >= dense_size_plus1_.size()) dense_size_plus1_.resize(key + 1, 0);
    dense_size_plus1_[key] = size_bytes + 1;
  } else {
    values_[key] = ValueMeta{size_bytes, std::string()};
  }
}

bool StorageEngine::reserve_dense(KeyId key_limit, std::uint64_t expected_keys) {
  if (key_limit <= dense_size_plus1_.size()) return true;
  if (key_limit > kDenseLimit ||
      !dense_may_cover(key_limit - 1, std::max<std::uint64_t>(num_keys_, expected_keys))) {
    return false;
  }
  dense_size_plus1_.resize(key_limit, 0);
  return true;
}

void StorageEngine::put(KeyId key, std::string payload) {
  const auto size_bytes = static_cast<std::uint32_t>(payload.size());
  if (!store_payloads_) {
    put_meta(key, size_bytes);
    return;
  }
  if (const auto old = remove_entry(key)) {
    stored_bytes_ -= *old;
  } else {
    ++num_keys_;
  }
  stored_bytes_ += size_bytes;
  values_[key] = ValueMeta{size_bytes, std::move(payload)};
}

std::optional<ValueMeta> StorageEngine::get(KeyId key) const {
  if (key < dense_size_plus1_.size() && dense_size_plus1_[key] != 0) {
    return ValueMeta{dense_size_plus1_[key] - 1, std::string()};
  }
  const auto it = values_.find(key);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

bool StorageEngine::erase(KeyId key) {
  const auto old = remove_entry(key);
  if (!old) return false;
  stored_bytes_ -= *old;
  --num_keys_;
  return true;
}

}  // namespace brb::store
