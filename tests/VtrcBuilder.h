//===- tests/VtrcBuilder.h - Hand-built VELOTRC bytes -----------*- C++ -*-===//
//
// Events-frame payloads and containers assembled field by field, so tests
// can express what no writer emits: repeated names, undefined ids, bad op
// codes, lying counts. Every field goes through the format's productions
// (events/BinaryFormat.h), which write any base, count, op byte and target
// they are given.
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
    binfmt::putSymbolBlock(
        binfmt::StringSink{Bytes}, Base, Names.size(),
        [&](uint64_t Id) { return Names.begin()[Id - Base]; });
    return *this;
  }

  PayloadBuilder &count(uint64_t N) {
    Count = N;
    binfmt::appendVarint(Bytes, N);
    return *this;
  }

  /// The target is left out for End only.
  PayloadBuilder &event(uint8_t Op, uint64_t Tid, uint64_t Target = 0) {
    binfmt::putEvent(binfmt::StringSink{Bytes}, Op, Tid, Target);
    return *this;
  }
  PayloadBuilder &event(velo::Op Kind, uint64_t Tid, uint64_t Target = 0) {
    return event(static_cast<uint8_t>(Kind), Tid, Target);
  }
};

/// A payload whose blocks define nothing, then one event (an Op or a raw
/// op byte).
template <typename OpT>
PayloadBuilder oneEvent(OpT Kind, uint64_t Tid, uint64_t Target) {
  PayloadBuilder P;
  P.block(0, {}).block(0, {}).block(0, {}).count(1).event(Kind, Tid, Target);
  return P;
}

/// A well-formed container around Frames: header, the frames, an index
/// declaring each frame's Count, trailer.
inline std::string containerOf(const std::vector<PayloadBuilder> &Frames) {
  using namespace binfmt;
  std::string Out;
  putHeader(StringSink{Out});
  std::vector<IndexEntry> Index;
  uint64_t Ordinal = 0;
  for (const PayloadBuilder &F : Frames) {
    Index.push_back({Out.size(), Ordinal, F.Count});
    Ordinal += F.Count;
    appendFrame(Out, EventsFrame, F.Bytes);
  }
  std::string Idx;
  putIndexPayload(StringSink{Idx}, Index, Ordinal);
  const uint64_t IdxOff = Out.size();
  appendFrame(Out, IndexFrame, Idx);
  putTrailer(StringSink{Out}, IdxOff);
  return Out;
}

} // namespace test
} // namespace velo

#endif // VELO_TESTS_VTRCBUILDER_H
