// Wake epoch: lets a consumer thread sleep until a producer has published
// something for it, without a lock and without missing a wake-up.
//
// The serve layer gives each waiting thread one WakeEpoch per thing it waits
// for (a worker's ingest rings, a full ring's free space). The epoch is a
// counter; the protocol is
//
//   producer:  publish (e.g. SpscQueue::try_push)   then  notify()
//   consumer:  seen = load();  scan for work;  if none: wait(seen)
//
// Why the consumer reads the epoch *before* the scan: if the scan missed an
// item, the producer's notify() comes after the read in the epoch's
// modification order, so either wait() sees the changed value and returns at
// once, or it is already asleep and the notify wakes it. Read after the
// scan, a notify landing between scan and read would be folded into `seen`,
// and the consumer would sleep on published work: a lost wake-up. A
// consumer that reads a producer's bump also sees what that producer
// published before it.
//
// wait() is std::atomic::wait: libstdc++ spins briefly, then sleeps on a
// futex. notify() makes the futex-wake syscall only while the consumer is in
// wait(): `sleeping_` and the epoch form a Dekker pair (all accesses
// seq_cst), so either the waiter's value check sees the bump or the producer
// sees the flag. libstdc++ keeps its own waiter count, but in a 16-slot
// table hashed by address, where every cache-line-aligned epoch lands in the
// same slot: one sleeping thread anywhere would make every notify() a
// syscall. Each epoch has at most one waiting thread, so notify_one()
// suffices. The counter wraps; only equality with `seen` matters, and 2^32
// notifies between one load and its wait cannot happen.
#pragma once

#include <atomic>
#include <cstdint>

namespace m2ai::par {

class WakeEpoch {
 public:
  WakeEpoch() = default;
  WakeEpoch(const WakeEpoch&) = delete;
  WakeEpoch& operator=(const WakeEpoch&) = delete;

  // Consumer: read before scanning for work.
  std::uint32_t load() const { return epoch_.load(); }

  // Consumer: sleep until the epoch differs from `seen`. Returns at once if
  // it already does.
  void wait(std::uint32_t seen) {
    sleeping_.store(true);
    epoch_.wait(seen);
    sleeping_.store(false);
  }

  // Producer: after publishing, bump the epoch and wake the waiter, if any.
  void notify() {
    epoch_.fetch_add(1);
    if (sleeping_.load()) epoch_.notify_one();
  }

 private:
  // Own cache line: producers write it on every publish, and it must not
  // share a line with the rings' indices or another consumer's epoch.
  alignas(64) std::atomic<std::uint32_t> epoch_{0};
  std::atomic<bool> sleeping_{false};
};

}  // namespace m2ai::par
