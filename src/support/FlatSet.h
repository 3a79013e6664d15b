//===- support/FlatSet.h - Sorted-vector set --------------------*- C++ -*-===//
//
// A tiny sorted-vector set used for Velodrome's per-node ancestor sets.
// The paper observes that garbage collection keeps at most a few dozen
// transaction nodes alive at any time, so ancestor sets are small and a
// contiguous sorted vector beats a hash table on every axis that matters
// here: lookup, iteration, and memory locality during the cascading updates
// performed at edge insertion and node collection.
//
// Every operation works in place: unionWith merges backwards into the
// set's own storage rather than through a temporary, and clear() keeps the
// capacity. A recycled graph slot therefore reuses its set's buffer, and
// ancestor propagation allocates only when a set outgrows every earlier
// incarnation of its slot.
//
//===----------------------------------------------------------------------===//

#ifndef VELO_SUPPORT_FLATSET_H
#define VELO_SUPPORT_FLATSET_H

#include <algorithm>
#include <cstddef>
#include <vector>

namespace velo {

/// Sorted-vector set of trivially copyable keys.
template <typename T> class FlatSet {
public:
  using const_iterator = typename std::vector<T>::const_iterator;

  /// Insert Key. Returns true if the key was newly inserted.
  bool insert(T Key) {
    auto It = std::lower_bound(Keys.begin(), Keys.end(), Key);
    if (It != Keys.end() && *It == Key)
      return false;
    Keys.insert(It, Key);
    return true;
  }

  /// Remove Key. Returns true if the key was present.
  bool erase(T Key) {
    auto It = std::lower_bound(Keys.begin(), Keys.end(), Key);
    if (It == Keys.end() || *It != Key)
      return false;
    Keys.erase(It);
    return true;
  }

  bool contains(T Key) const {
    return std::binary_search(Keys.begin(), Keys.end(), Key);
  }

  /// Set-union with another FlatSet, in place. Returns true if this set
  /// grew. A first pass counts Other's missing keys and returns without
  /// touching the set when there are none; otherwise the set is resized
  /// once and merged from the back, so no temporary is allocated.
  bool unionWith(const FlatSet &Other) {
    size_t Missing = 0;
    auto Mine = Keys.begin(), MineEnd = Keys.end();
    for (T Key : Other.Keys) {
      while (Mine != MineEnd && *Mine < Key)
        ++Mine;
      if (Mine == MineEnd || Key < *Mine)
        ++Missing;
    }
    if (Missing == 0)
      return false;
    size_t OldSize = Keys.size();
    Keys.resize(OldSize + Missing);
    // Merge backwards: Out never overtakes I because exactly Missing of
    // Other's keys are still to be placed.
    auto I = Keys.begin() + OldSize, Out = Keys.end();
    auto J = Other.Keys.end(), OtherBegin = Other.Keys.begin();
    while (J != OtherBegin) {
      if (I != Keys.begin() && *(J - 1) < *(I - 1)) {
        *--Out = *--I;
      } else {
        if (I != Keys.begin() && *(I - 1) == *(J - 1))
          --I; // present in both: keep one copy
        *--Out = *--J;
      }
    }
    return true;
  }

  void clear() { Keys.clear(); }
  bool empty() const { return Keys.empty(); }
  size_t size() const { return Keys.size(); }

  const_iterator begin() const { return Keys.begin(); }
  const_iterator end() const { return Keys.end(); }

private:
  std::vector<T> Keys;
};

} // namespace velo

#endif // VELO_SUPPORT_FLATSET_H
