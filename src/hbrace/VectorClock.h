//===- hbrace/VectorClock.h - Vector clocks ---------------------*- C++ -*-===//
//
// Classic Mattern-style vector clocks. The paper notes RoadRunner ships "a
// complete happens-before detector" alongside Eraser; this is ours. (The
// paper also explains why vector clocks cannot represent Velodrome's
// *transactional* happens-before relation — clocks order individual
// operations, not compound transactions — which is why HbGraph exists.)
//
// A component index is whatever dense thread index the owner chooses:
// HbRaceDetector uses first-use slots, not raw tids.
//
//===----------------------------------------------------------------------===//

#ifndef VELO_HBRACE_VECTORCLOCK_H
#define VELO_HBRACE_VECTORCLOCK_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace velo {

/// A vector clock: one component per thread index, missing components are 0.
class VectorClock {
public:
  uint64_t get(uint32_t I) const { return I < Clocks.size() ? Clocks[I] : 0; }

  void set(uint32_t I, uint64_t Value) {
    if (I >= Clocks.size())
      Clocks.resize(I + 1, 0);
    Clocks[I] = Value;
  }

  void tick(uint32_t I) { set(I, get(I) + 1); }

  /// Pointwise maximum (join).
  void joinWith(const VectorClock &Other) {
    if (Other.Clocks.size() > Clocks.size())
      Clocks.resize(Other.Clocks.size(), 0);
    for (size_t I = 0; I < Other.Clocks.size(); ++I)
      Clocks[I] = std::max(Clocks[I], Other.Clocks[I]);
  }

  /// Does every component of this clock satisfy this <= Other (i.e., all
  /// events represented here happen before or at Other)?
  bool leq(const VectorClock &Other) const {
    for (size_t I = 0; I < Clocks.size(); ++I)
      if (Clocks[I] > Other.get(static_cast<uint32_t>(I)))
        return false;
    return true;
  }

  /// Raw component access for checkpoint serialization.
  const std::vector<uint64_t> &raw() const { return Clocks; }
  void setRaw(std::vector<uint64_t> Components) {
    Clocks = std::move(Components);
  }

private:
  std::vector<uint64_t> Clocks;
};

} // namespace velo

#endif // VELO_HBRACE_VECTORCLOCK_H
