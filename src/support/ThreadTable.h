//===- support/ThreadTable.h - Per-thread state by first use ----*- C++ -*-===//
//
// Per-thread analysis state kept in a flat vector of slots, reached through
// a tid -> slot index that is filled in first-use order. Thread ids come
// straight from traces: dense in practice, but hostile input may use any tid
// below the readers' 2^20 cap. State indexed by raw tid would grow with the
// largest tid; here it grows with the threads seen, plus one 4-byte index
// entry per tid up to the largest seen (4 MB at the cap).
//
// The lookup is a bounds check and two loads; the first-use insert sits out
// of line so it does not weigh on the per-event path.
//
// Slots are dense (0 .. size()-1), so a checker may also index arrays of
// its own by slot: vector clocks whose components are threads, for one.
// Slot order is first-use order and carries no meaning: code whose output
// depends on thread order iterates slotsByTid() or sortedTids(). References
// returned by operator[] and atSlot() are invalidated by the next first-use
// insert, so a caller that needs two threads' states looks both up before
// holding either.
//
//===----------------------------------------------------------------------===//

#ifndef VELO_SUPPORT_THREADTABLE_H
#define VELO_SUPPORT_THREADTABLE_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace velo {

/// Per-thread State for sparse thread ids, stored densely by first use.
template <typename State> class ThreadTable {
public:
  /// The slot of thread T, taken on its first use (its state then
  /// default-constructed).
  uint32_t slot(uint32_t T) {
    uint32_t Slot = T < Index.size() ? Index[T] : 0;
    if (Slot != 0) [[likely]]
      return Slot - 1;
    return insert(T);
  }

  /// The state of thread T, default-constructed on its first use.
  State &operator[](uint32_t T) { return States[slot(T)]; }

  /// The state of thread T, or null if T was never looked up.
  const State *find(uint32_t T) const {
    uint32_t Slot = T < Index.size() ? Index[T] : 0;
    return Slot != 0 ? &States[Slot - 1] : nullptr;
  }

  State &atSlot(uint32_t S) { return States[S]; }
  const State &atSlot(uint32_t S) const { return States[S]; }

  /// The thread that took slot S.
  uint32_t tidOf(uint32_t S) const { return Tids[S]; }

  /// Every slot, in ascending tid order.
  const std::vector<uint32_t> &slotsByTid() const { return ByTid; }

  /// Number of distinct threads seen (and of slots).
  size_t size() const { return States.size(); }

  /// Every thread seen, in ascending tid order.
  std::vector<uint32_t> sortedTids() const {
    std::vector<uint32_t> Sorted;
    Sorted.reserve(ByTid.size());
    for (uint32_t S : ByTid)
      Sorted.push_back(Tids[S]);
    return Sorted;
  }

  void clear() {
    Index.clear();
    States.clear();
    Tids.clear();
    ByTid.clear();
  }

private:
  [[gnu::noinline]] uint32_t insert(uint32_t T) {
    if (T >= Index.size())
      Index.resize(static_cast<size_t>(T) + 1, 0);
    uint32_t Slot = static_cast<uint32_t>(States.size());
    States.emplace_back();
    Tids.push_back(T);
    Index[T] = Slot + 1;
    ByTid.insert(std::upper_bound(ByTid.begin(), ByTid.end(), T,
                                  [this](uint32_t Tid, uint32_t S) {
                                    return Tid < Tids[S];
                                  }),
                 Slot);
    return Slot;
  }

  std::vector<uint32_t> Index; ///< tid -> slot + 1; 0 = never seen
  std::vector<State> States;   ///< by slot, in first-use order
  std::vector<uint32_t> Tids;  ///< slot -> tid
  std::vector<uint32_t> ByTid; ///< slots in ascending tid order
};

} // namespace velo

#endif // VELO_SUPPORT_THREADTABLE_H
