//===- tests/VtrcBuilder.h - Hand-built VELOTRC bytes -----------*- C++ -*-===//
//
// Events-frame payloads and containers assembled field by field, so tests
// can express what no writer emits: repeated names, undefined ids, bad op
// codes, lying counts (events/BinaryFormat.h has the grammar).
//
//===----------------------------------------------------------------------===//

#ifndef VELO_TESTS_VTRCBUILDER_H
#define VELO_TESTS_VTRCBUILDER_H

#include "events/BinaryFormat.h"

#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

namespace velo {
namespace test {

/// One events-frame payload, written in grammar order: three block()s,
/// count(), then the event()s.
struct PayloadBuilder {
  std::string Bytes;
  uint64_t Count = 0; ///< the declared event count, for the index

  PayloadBuilder &block(uint64_t Base,
                        std::initializer_list<std::string_view> Names) {
    binfmt::appendVarint(Bytes, Base);
    binfmt::appendVarint(Bytes, Names.size());
    for (std::string_view N : Names) {
      binfmt::appendVarint(Bytes, N.size());
      Bytes += N;
    }
    return *this;
  }

  PayloadBuilder &count(uint64_t N) {
    Count = N;
    binfmt::appendVarint(Bytes, N);
    return *this;
  }

  /// Op is written as a raw byte, so any value can be expressed; the
  /// target is left out for End only.
  PayloadBuilder &event(uint8_t Op, uint64_t Tid, uint64_t Target = 0) {
    Bytes += static_cast<char>(Op);
    binfmt::appendVarint(Bytes, Tid);
    if (Op != static_cast<uint8_t>(velo::Op::End))
      binfmt::appendVarint(Bytes, Target);
    return *this;
  }
  PayloadBuilder &event(velo::Op Kind, uint64_t Tid, uint64_t Target = 0) {
    return event(static_cast<uint8_t>(Kind), Tid, Target);
  }
};

/// A well-formed container around Frames: header, the frames, an index
/// declaring each frame's Count, trailer.
inline std::string containerOf(const std::vector<PayloadBuilder> &Frames) {
  using namespace binfmt;
  std::string Out(Magic, sizeof(Magic));
  appendU32le(Out, Version);
  appendU32le(Out, 0);
  std::string Idx;
  appendVarint(Idx, Frames.size());
  uint64_t Ordinal = 0;
  for (const PayloadBuilder &F : Frames) {
    appendVarint(Idx, Out.size());
    appendVarint(Idx, Ordinal);
    appendVarint(Idx, F.Count);
    Ordinal += F.Count;
    appendFrame(Out, EventsFrame, F.Bytes);
  }
  appendVarint(Idx, Ordinal);
  const uint64_t IdxOff = Out.size();
  appendFrame(Out, IndexFrame, Idx);
  appendU64le(Out, IdxOff);
  Out.append(TrailerMagic, sizeof(TrailerMagic));
  return Out;
}

} // namespace test
} // namespace velo

#endif // VELO_TESTS_VTRCBUILDER_H
