#include "server/queue_discipline.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace brb::server {

void FifoDiscipline::grow() {
  // Double the capacity, unrolling the occupied window to the front of
  // the new buffer in FIFO order.
  std::vector<QueuedRead> bigger(ring_.size() * 2);
  const std::size_t count = size();
  for (std::size_t i = 0; i < count; ++i) {
    bigger[i] = std::move(ring_[(head_ + i) & mask_]);
  }
  ring_ = std::move(bigger);
  mask_ = ring_.size() - 1;
  head_ = 0;
  tail_ = count;
}

std::optional<QueueHead> FifoDiscipline::peek() const {
  if (head_ == tail_) return std::nullopt;
  return QueueHead{0.0, ring_[head_ & mask_].submit_seq};
}

void PriorityDiscipline::push(QueuedRead read) {
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot] = std::move(read);
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.push_back(std::move(read));
  }
  heap_.push_back(HeapItem{slots_[slot].request.priority, next_seq_++, slot});
  sift_up(heap_.size() - 1);
}

std::optional<QueueHead> PriorityDiscipline::peek() const {
  if (heap_.empty()) return std::nullopt;
  return QueueHead{heap_.front().priority, slots_[heap_.front().slot].submit_seq};
}

std::optional<QueuedRead> PriorityDiscipline::pop() {
  if (heap_.empty()) return std::nullopt;
  const std::uint32_t slot = heap_.front().slot;
  QueuedRead out = std::move(slots_[slot]);
  free_slots_.push_back(slot);
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0);
  return out;
}

void PriorityDiscipline::sift_up(std::size_t i) {
  const HeapItem item = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!later(heap_[parent], item)) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = item;
}

void PriorityDiscipline::sift_down(std::size_t i) {
  const std::size_t n = heap_.size();
  const HeapItem item = heap_[i];
  for (;;) {
    const std::size_t first_child = kArity * i + 1;
    if (first_child >= n) break;
    const std::size_t last_child = std::min(first_child + kArity, n);
    std::size_t best = first_child;
    for (std::size_t c = first_child + 1; c < last_child; ++c) {
      if (later(heap_[best], heap_[c])) best = c;
    }
    if (!later(item, heap_[best])) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = item;
}

void SjfDiscipline::push(QueuedRead read) {
  // Reuse the priority heap keyed on the expected per-request cost.
  read.request.priority =
      static_cast<store::Priority>(read.request.expected_cost.count_nanos());
  inner_.push(std::move(read));
}

std::optional<QueuedRead> SjfDiscipline::pop() { return inner_.pop(); }

std::unique_ptr<QueueDiscipline> make_discipline(const std::string& name) {
  if (name == "fifo") return std::make_unique<FifoDiscipline>();
  if (name == "priority") return std::make_unique<PriorityDiscipline>();
  if (name == "sjf") return std::make_unique<SjfDiscipline>();
  throw std::invalid_argument("make_discipline: unknown discipline: " + name);
}

}  // namespace brb::server
