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
// Slot order is first-use order and carries no meaning: code whose output
// depends on thread order iterates sortedTids(). References returned by
// operator[] are invalidated by the next first-use insert, so a caller that
// needs two threads' states looks both up before holding either.
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
  /// The state of thread T, default-constructed on its first use.
  State &operator[](uint32_t T) {
    uint32_t Slot = T < Index.size() ? Index[T] : 0;
    if (Slot != 0) [[likely]]
      return States[Slot - 1];
    return insert(T);
  }

  /// The state of thread T, or null if T was never looked up.
  const State *find(uint32_t T) const {
    uint32_t Slot = T < Index.size() ? Index[T] : 0;
    return Slot != 0 ? &States[Slot - 1] : nullptr;
  }

  /// Number of distinct threads seen.
  size_t size() const { return States.size(); }

  /// Every thread seen, in ascending tid order.
  std::vector<uint32_t> sortedTids() const {
    std::vector<uint32_t> Sorted = Tids;
    std::sort(Sorted.begin(), Sorted.end());
    return Sorted;
  }

  void clear() {
    Index.clear();
    States.clear();
    Tids.clear();
  }

private:
  [[gnu::noinline]] State &insert(uint32_t T) {
    if (T >= Index.size())
      Index.resize(static_cast<size_t>(T) + 1, 0);
    States.emplace_back();
    Tids.push_back(T);
    Index[T] = static_cast<uint32_t>(States.size());
    return States.back();
  }

  std::vector<uint32_t> Index; ///< tid -> slot + 1; 0 = never seen
  std::vector<State> States;   ///< by slot, in first-use order
  std::vector<uint32_t> Tids;  ///< slot -> tid
};

} // namespace velo

#endif // VELO_SUPPORT_THREADTABLE_H
