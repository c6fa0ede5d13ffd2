// Server-side queue disciplines.
//
// The task-oblivious baseline serves FIFO; BRB servers serve by the
// client-assigned priority (lower value first, FIFO within equal
// priorities — the stable tie-break keeps runs deterministic).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "sim/time.hpp"
#include "store/types.hpp"

namespace brb::server {

/// A read waiting for a core. `submit_seq` is a global submission
/// counter stamped by multi-queue schedulers (the ideal model) to give
/// deterministic FIFO tie-breaking across queues; private per-server
/// queues may leave it zero.
struct QueuedRead {
  store::ReadRequest request;
  sim::Time enqueued_at;
  std::uint64_t submit_seq = 0;
};

/// What the next pop() would return, for cross-queue comparison.
struct QueueHead {
  store::Priority priority = 0.0;
  std::uint64_t submit_seq = 0;
};

class QueueDiscipline {
 public:
  virtual ~QueueDiscipline() = default;

  virtual void push(QueuedRead read) = 0;
  virtual std::optional<QueuedRead> pop() = 0;
  /// Key of the element pop() would return; nullopt when empty. FIFO
  /// disciplines report priority 0 so cross-queue comparison reduces to
  /// submission order.
  virtual std::optional<QueueHead> peek() const = 0;
  virtual std::size_t size() const noexcept = 0;
  bool empty() const noexcept { return size() == 0; }
};

/// First-in first-out over a power-of-two ring: capacity starts at 64
/// and doubles, so a server's steady state never allocates.
class FifoDiscipline final : public QueueDiscipline {
 public:
  FifoDiscipline() : ring_(kInitialCapacity), mask_(kInitialCapacity - 1) {}

  void push(QueuedRead read) override {
    if (size() > mask_) grow();
    ring_[tail_++ & mask_] = std::move(read);
  }
  std::optional<QueuedRead> pop() override {
    if (head_ == tail_) return std::nullopt;
    return std::move(ring_[head_++ & mask_]);
  }
  std::optional<QueueHead> peek() const override;
  std::size_t size() const noexcept override { return tail_ - head_; }

 private:
  static constexpr std::size_t kInitialCapacity = 64;
  void grow();

  std::vector<QueuedRead> ring_;
  std::size_t mask_;      // ring_.size() - 1
  std::size_t head_ = 0;  // pop side
  std::size_t tail_ = 0;  // push side
};

/// Minimum priority value first; FIFO among equals.
///
/// Same layout trick as the event queue: the heap orders 24-byte POD
/// keys while the 88-byte `QueuedRead` payloads sit still in a slot
/// table, so sifts never move a request. (priority, seq) is a total
/// order, making pop order independent of heap arity/layout.
class PriorityDiscipline final : public QueueDiscipline {
 public:
  void push(QueuedRead read) override;
  std::optional<QueuedRead> pop() override;
  std::optional<QueueHead> peek() const override;
  std::size_t size() const noexcept override { return heap_.size(); }

 private:
  static constexpr std::size_t kArity = 4;

  struct HeapItem {
    store::Priority priority;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  static bool later(const HeapItem& a, const HeapItem& b) noexcept {
    if (a.priority != b.priority) return a.priority > b.priority;
    return a.seq > b.seq;
  }
  void sift_up(std::size_t i);
  void sift_down(std::size_t i);

  std::vector<HeapItem> heap_;
  std::vector<QueuedRead> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::uint64_t next_seq_ = 0;
};

/// Shortest-job-first on the client's expected cost; FIFO among equals.
/// Used by the per-request SJF ablation (task-oblivious but size-aware).
class SjfDiscipline final : public QueueDiscipline {
 public:
  void push(QueuedRead read) override;
  std::optional<QueuedRead> pop() override;
  std::optional<QueueHead> peek() const override { return inner_.peek(); }
  std::size_t size() const noexcept override { return inner_.size(); }

 private:
  PriorityDiscipline inner_;
};

std::unique_ptr<QueueDiscipline> make_discipline(const std::string& name);

}  // namespace brb::server
