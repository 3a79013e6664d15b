//===- support/ThreadTable.h - Per-thread state by first use ----*- C++ -*-===//
//
// Per-thread analysis state kept in a flat vector of slots, reached through
// a tid -> slot index that is filled in first-use order. Thread ids come
// straight from traces: dense in practice, but hostile input may use any tid
// below the readers' 2^20 cap. State indexed by raw tid would grow with the
// largest tid; here it grows with the threads seen. The index is dense
// below DenseTids, one 4-byte entry per tid up to the largest seen there
// (256 KB at most); a larger tid is found by a binary search of the slots
// in tid order, which the table keeps anyway, so a trace run by tids near
// the cap costs what the same trace by small tids costs.
//
// The lookup of a dense tid is a bounds check and two loads; the search
// and the first-use insert sit out of line so they do not weigh on the
// per-event path. No member serves the large tids alone: the table's size
// stays what it was, which an in-process parallel pipeline was seen to be
// sensitive to.
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
    return slotOutOfLine(T);
  }

  /// The state of thread T, default-constructed on its first use.
  State &operator[](uint32_t T) { return States[slot(T)]; }

  /// The state of thread T, or null if T was never looked up.
  const State *find(uint32_t T) const {
    if (T >= DenseTids) {
      auto It = byTidPosition(T);
      return It != ByTid.end() && Tids[*It] == T ? &States[*It] : nullptr;
    }
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

  /// Tids below this take the dense index; a larger one is found by a
  /// binary search of the slots in tid order.
  static constexpr uint32_t DenseTids = 1u << 16;

private:
  /// Where T sits, or would sit, among the slots in ascending tid order.
  std::vector<uint32_t>::const_iterator byTidPosition(uint32_t T) const {
    return std::lower_bound(
        ByTid.begin(), ByTid.end(), T,
        [this](uint32_t S, uint32_t Tid) { return Tids[S] < Tid; });
  }

  /// A large tid's slot, or the first-use insert of any tid.
  [[gnu::noinline]] uint32_t slotOutOfLine(uint32_t T) {
    auto Pos = byTidPosition(T);
    if (T >= DenseTids && Pos != ByTid.end() && Tids[*Pos] == T)
      return *Pos;
    if (T < DenseTids && T >= Index.size())
      Index.resize(static_cast<size_t>(T) + 1, 0);
    uint32_t Slot = static_cast<uint32_t>(States.size());
    States.emplace_back();
    Tids.push_back(T);
    if (T < DenseTids)
      Index[T] = Slot + 1;
    ByTid.insert(Pos, Slot);
    return Slot;
  }

  std::vector<uint32_t> Index; ///< tid -> slot + 1 below DenseTids; 0 = unseen
  std::vector<State> States;   ///< by slot, in first-use order
  std::vector<uint32_t> Tids;  ///< slot -> tid
  std::vector<uint32_t> ByTid; ///< slots in ascending tid order
};

} // namespace velo

#endif // VELO_SUPPORT_THREADTABLE_H
