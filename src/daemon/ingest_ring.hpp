#pragma once

// Bounded lock-free MPSC ingest ring with an explicit backpressure policy.
//
// Producers (collector threads, one per fleet slice) push FleetObservations
// into the shard's ring; the shard's single appender thread drains it in
// batches.  The cell/sequence design is Vyukov's bounded MPMC queue — each
// cell carries an atomic sequence number that encodes whether it is free
// for the ticket that wants it — which gives us what the daemon actually
// needs: multi-producer safety, per-producer FIFO (a drive's records are
// pushed by exactly one producer, so sanitizer day-order is preserved),
// and NO unbounded memory, ever.
//
// Backpressure is a policy, not an accident:
//
//   kBlock — a full ring parks the producer in a bounded sleep loop until
//            space frees or `block_timeout` expires, THEN sheds.  The slow
//            consumer stalls producers instead of ballooning memory.
//   kShed  — a full ring drops the record immediately.
//
// Every shed is counted by the caller (daemon_records_shed_total); nothing
// is silently lost.
//
// A drive swap rides the same ring as a retire marker (push_retire), queued
// behind every record its producer pushed before it.  A marker is never
// shed: it waits for space for as long as the daemon accepts input.  One
// pop_into() drains records up to the first marker, then the markers right
// after them, so each appender iteration is "records, then retires" — the
// order the WAL logs and recovery replays.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "core/fleet_observation.hpp"

namespace ssdfail::daemon {

enum class Backpressure : std::uint8_t { kBlock = 0, kShed };

enum class PushResult : std::uint8_t {
  kAccepted = 0,
  kShed,      ///< ring full past the policy's patience; record dropped
  kRejected,  ///< daemon stopping; no new records accepted
};

class IngestRing {
 public:
  /// Capacity is rounded up to a power of two (>= 2).
  explicit IngestRing(std::size_t capacity) {
    std::size_t cap = 2;
    while (cap < capacity) cap <<= 1;
    mask_ = cap - 1;
    cells_ = std::vector<Cell>(cap);
    for (std::size_t i = 0; i < cap; ++i)
      cells_[i].seq.store(i, std::memory_order_relaxed);
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return cells_.size(); }

  /// Lock-free single attempt; false when the ring is full.
  bool try_push(const core::FleetObservation& obs) { return try_push(obs, false); }

  /// Push under `policy`: kShed gives up immediately on a full ring,
  /// kBlock parks in a sleep loop until space frees or `timeout` passes.
  PushResult push(const core::FleetObservation& obs, Backpressure policy,
                  std::chrono::milliseconds timeout) {
    if (try_push(obs)) return PushResult::kAccepted;
    if (policy == Backpressure::kShed) return PushResult::kShed;
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    const auto patient = [&] { return std::chrono::steady_clock::now() < deadline; };
    return push_while(obs, false, patient) ? PushResult::kAccepted : PushResult::kShed;
  }

  /// Queue a retire marker for `drive`'s uid.  Never sheds: waits for
  /// space while `open()` holds and returns false once it does not.
  template <class Open>
  bool push_retire(const core::FleetObservation& drive, Open open) {
    return push_while(drive, true, open);
  }

  /// Single-consumer drain: up to `max` records appended to `records`, up
  /// to the first retire marker, then every marker right after them (their
  /// uids appended to `retires`).  Returns the number of cells drained.
  std::size_t pop_into(std::vector<core::FleetObservation>& records,
                       std::vector<std::uint64_t>& retires, std::size_t max) {
    std::size_t drained = 0;
    std::size_t taken = 0;
    for (;; ++drained) {
      const std::size_t ticket = head_.load(std::memory_order_relaxed);
      Cell& cell = cells_[ticket & mask_];
      const std::size_t seq = cell.seq.load(std::memory_order_acquire);
      if (static_cast<std::intptr_t>(seq) - static_cast<std::intptr_t>(ticket + 1) < 0)
        break;  // empty
      if (cell.retire) {
        retires.push_back(cell.value.uid());
      } else if (!retires.empty() || taken == max) {
        break;  // a record after the markers, or the batch is full
      } else {
        records.push_back(cell.value);
        ++taken;
      }
      cell.seq.store(ticket + mask_ + 1, std::memory_order_release);
      head_.store(ticket + 1, std::memory_order_relaxed);
    }
    return drained;
  }

  /// Tickets handed out so far: one per accepted record or retire marker.
  /// Every cell a push() or push_retire() that returned true claimed has
  /// a ticket below this.
  [[nodiscard]] std::uint64_t tickets() const noexcept {
    return tail_.load(std::memory_order_acquire);
  }

  /// Racy size estimate (metrics / watchdog only).
  [[nodiscard]] std::size_t size_approx() const noexcept {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    const std::size_t head = head_.load(std::memory_order_relaxed);
    return tail >= head ? tail - head : 0;
  }

  [[nodiscard]] bool empty_approx() const noexcept { return size_approx() == 0; }

 private:
  struct alignas(64) Cell {
    std::atomic<std::size_t> seq{0};
    bool retire = false;  ///< a retire marker for value.uid(), not a record
    core::FleetObservation value;
  };

  bool try_push(const core::FleetObservation& obs, bool retire) {
    std::size_t ticket = tail_.load(std::memory_order_relaxed);
    for (;;) {
      Cell& cell = cells_[ticket & mask_];
      const std::size_t seq = cell.seq.load(std::memory_order_acquire);
      const auto diff = static_cast<std::intptr_t>(seq) - static_cast<std::intptr_t>(ticket);
      if (diff == 0) {
        if (tail_.compare_exchange_weak(ticket, ticket + 1, std::memory_order_relaxed))
        {
          cell.retire = retire;
          cell.value = obs;
          cell.seq.store(ticket + 1, std::memory_order_release);
          return true;
        }
      } else if (diff < 0) {
        return false;  // full: the cell still holds an unconsumed ticket
      } else {
        ticket = tail_.load(std::memory_order_relaxed);
      }
    }
  }

  /// Retry with a yield-then-sleep backoff while `keep_waiting()` holds.
  template <class KeepWaiting>
  bool push_while(const core::FleetObservation& obs, bool retire, KeepWaiting keep_waiting) {
    for (int spins = 0; !try_push(obs, retire); ++spins) {
      if (!keep_waiting()) return false;
      if (spins < 64) {
        std::this_thread::yield();
      } else {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    }
    return true;
  }

  std::vector<Cell> cells_;
  std::size_t mask_ = 0;
  alignas(64) std::atomic<std::size_t> tail_{0};  ///< producer tickets
  alignas(64) std::atomic<std::size_t> head_{0};  ///< consumer cursor (single owner)
};

}  // namespace ssdfail::daemon
