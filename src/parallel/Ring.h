//===- parallel/Ring.h - Bounded SPSC ring buffer ---------------*- C++ -*-===//
//
// The channel between pipeline stages: a fixed-capacity ring of batches
// with blocking push/pop, so a fast producer exerts backpressure on
// itself instead of growing an unbounded queue (constant memory in the
// trace length, matching the sequential path's guarantee). Each ring has
// exactly one producer stage and one consumer stage; the mutex/condvar
// implementation is deliberately boring — hand-rolled lock-free indexing
// buys nothing at batch granularity and costs TSan-auditable simplicity.
//
// Shutdown protocol:
//
//   close()     producer is done; pops drain the remaining slots and then
//               return false.
//   abortAll()  hard error elsewhere in the pipeline; every blocked or
//               future push/pop fails immediately, contents are dropped.
//
//===----------------------------------------------------------------------===//

#ifndef VELO_PARALLEL_RING_H
#define VELO_PARALLEL_RING_H

#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <utility>
#include <vector>

namespace velo {

template <typename T> class BoundedRing {
public:
  explicit BoundedRing(size_t Capacity)
      : Slots(Capacity ? Capacity : 1), Cap(Capacity ? Capacity : 1) {}

  /// Block until a slot is free, then enqueue V. Returns false (V is
  /// dropped) once the ring is aborted.
  bool push(T V) {
    std::unique_lock<std::mutex> Lock(Mu);
    NotFull.wait(Lock, [&] { return Size < Cap || Aborted; });
    if (Aborted)
      return false;
    Slots[(Head + Size) % Cap] = std::move(V);
    ++Size;
    if (Size > HighWater)
      HighWater = Size;
    NotEmpty.notify_one();
    return true;
  }

  /// Block until an element is available, then dequeue into Out. Returns
  /// false when the ring is aborted, or closed and fully drained.
  bool pop(T &Out) {
    std::unique_lock<std::mutex> Lock(Mu);
    ++Waiting;
    NotEmpty.wait(Lock, [&] { return Size > 0 || Closed || Aborted; });
    --Waiting;
    if (Aborted || Size == 0)
      return false;
    Out = std::move(Slots[Head]);
    Head = (Head + 1) % Cap;
    --Size;
    NotFull.notify_one();
    return true;
  }

  /// Producer-side end of stream: consumers drain what is queued, then
  /// pop() returns false.
  void close() {
    std::lock_guard<std::mutex> Lock(Mu);
    Closed = true;
    NotEmpty.notify_all();
  }

  /// Error-path teardown: wake everyone, fail all operations, drop the
  /// contents.
  void abortAll() {
    std::lock_guard<std::mutex> Lock(Mu);
    Aborted = true;
    NotFull.notify_all();
    NotEmpty.notify_all();
  }

  size_t capacity() const { return Cap; }

  /// True while the consumer is blocked in pop() on an empty ring, or the
  /// ring is closed or aborted and empty: everything pushed so far has
  /// been taken. The pipeline's stalled-reader handshake polls this.
  bool consumerParked() const {
    std::lock_guard<std::mutex> Lock(Mu);
    return Size == 0 && (Waiting > 0 || Closed || Aborted);
  }

  /// Peak occupancy ever observed (backpressure evidence for tests).
  size_t highWater() const {
    std::lock_guard<std::mutex> Lock(Mu);
    return HighWater;
  }

private:
  mutable std::mutex Mu;
  std::condition_variable NotFull, NotEmpty;
  std::vector<T> Slots;
  size_t Cap;
  size_t Head = 0, Size = 0, HighWater = 0;
  size_t Waiting = 0; ///< consumers inside pop()
  bool Closed = false, Aborted = false;
};

} // namespace velo

#endif // VELO_PARALLEL_RING_H
