//===- support/StringInterner.h - Name <-> id interning ---------*- C++ -*-===//
//
// Events carry integer ids for variables, locks, and atomic-block labels;
// the interner maps those ids back to human-readable names for warnings and
// dot error graphs (mirroring RoadRunner's field/method naming).
//
// The text trace reader resolves every event's name here, so lookup is on
// the decode hot path. Names sit in one id -> name vector; the way back is
// a flat open-addressing table of ids (linear probing, a power-of-two size
// kept at most half full), probed with a string_view as is.
//
// - A name of at most 8 bytes is keyed by its length and its bytes packed
//   into one word, so a probe compares one word and one length and never
//   touches the name vector. The packing loads exactly the name's bytes
//   (two overlapping 4-byte loads from 4 bytes up), never past its end:
//   names are looked up in place, in caller strings and in read blocks
//   that have no slack.
// - A longer name is keyed by its std::hash and compared in full on a
//   match.
// - Either key goes through a full 64-bit mixer before it picks a slot,
//   so crafted names cluster no more easily than under std::hash.
//
//===----------------------------------------------------------------------===//

#ifndef VELO_SUPPORT_STRINGINTERNER_H
#define VELO_SUPPORT_STRINGINTERNER_H

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace velo {

/// Bidirectional string <-> dense-id table. Ids are assigned in insertion
/// order starting at 0 and are stable for the lifetime of the interner.
class StringInterner {
public:
  /// Intern Name, returning its id (allocating a new id on first sight).
  uint32_t intern(std::string_view Name) {
    if ((Names.size() + 1) * 2 > Slots.size())
      grow();
    const Key K = keyOf(Name);
    Slot &S = Slots[find(K, Name)];
    if (S.Id == NoId) {
      Names.emplace_back(Name);
      S = {K.Word, K.Len, static_cast<uint32_t>(Names.size() - 1)};
    }
    return S.Id;
  }

  /// Look up a name without interning. Returns false if absent.
  bool lookup(std::string_view Name, uint32_t &IdOut) const {
    if (Slots.empty())
      return false;
    const uint32_t Id = Slots[find(keyOf(Name), Name)].Id;
    if (Id == NoId)
      return false;
    IdOut = Id;
    return true;
  }

  /// Name for an id previously returned by intern().
  const std::string &name(uint32_t Id) const {
    assert(Id < Names.size() && "unknown interned id");
    return Names[Id];
  }

  /// Name for an id, with a fallback for ids minted outside this table
  /// (e.g. synthesized labels in unit tests).
  std::string nameOr(uint32_t Id, std::string_view Fallback) const {
    if (Id < Names.size())
      return Names[Id];
    return std::string(Fallback) + "#" + std::to_string(Id);
  }

  size_t size() const { return Names.size(); }

  /// Append the names Other holds beyond our current size, keeping ids
  /// aligned. Both tables must have grown append-only from a common prefix
  /// (true for a recorder shadowing a live trace's interner), so a plain
  /// size comparison makes the no-op case O(1).
  void syncFrom(const StringInterner &Other) {
    for (uint32_t Id = static_cast<uint32_t>(Names.size());
         Id < Other.size(); ++Id)
      intern(Other.name(Id));
  }

private:
  static constexpr uint32_t NoId = UINT32_MAX;
  static constexpr size_t MaxPacked = 8;

  /// A name's probe key: its packed bytes (at most MaxPacked of them) or
  /// its hash, and its length (which only filters a longer name).
  struct Key {
    uint64_t Word;
    uint32_t Len;
  };

  /// One table entry; Id == NoId marks it empty.
  struct Slot {
    uint64_t Word = 0;
    uint32_t Len = 0;
    uint32_t Id = NoId;
  };

  static uint32_t load32(const char *P) {
    uint32_t W;
    std::memcpy(&W, P, sizeof W);
    return W;
  }

  static Key keyOf(std::string_view Name) {
    const char *P = Name.data();
    const size_t N = Name.size();
    // Saturated, so a longer name never reads as a packed length.
    const auto Len = static_cast<uint32_t>(std::min<size_t>(N, UINT32_MAX));
    if (N > MaxPacked)
      return {std::hash<std::string_view>{}(Name), Len};
    // With the length fixed, each packing below is one-to-one.
    if (N >= 4)
      return {load32(P) | uint64_t{load32(P + N - 4)} << 32, Len};
    if (N == 0)
      return {0, 0};
    const auto Byte = [P](size_t I) {
      return uint64_t{static_cast<unsigned char>(P[I])};
    };
    return {Byte(0) | Byte(N / 2) << 8 | Byte(N - 1) << 16, Len};
  }

  /// Multiply into 128 bits and fold the halves (wyhash's mum), so every
  /// output bit depends on every input bit.
  static uint64_t mix(uint64_t X) {
    const unsigned __int128 P =
        static_cast<unsigned __int128>(X ^ 0xa0761d6478bd642fULL) *
        0xe7037ed1a0b428dbULL;
    return static_cast<uint64_t>(P) ^ static_cast<uint64_t>(P >> 64);
  }

  static size_t home(uint64_t Word, uint32_t Len, size_t Mask) {
    return static_cast<size_t>(mix(Word ^ uint64_t{Len} << 56)) & Mask;
  }

  /// The slot holding Name, or the empty slot where it would go. The table
  /// is never full, so the probe ends.
  size_t find(const Key &K, std::string_view Name) const {
    const size_t Mask = Slots.size() - 1;
    for (size_t I = home(K.Word, K.Len, Mask);; I = (I + 1) & Mask) {
      const Slot &S = Slots[I];
      if (S.Id == NoId || (S.Word == K.Word && S.Len == K.Len &&
                           (Name.size() <= MaxPacked || Names[S.Id] == Name)))
        return I;
    }
  }

  /// Double the table (16 slots at first) and re-place every id.
  [[gnu::noinline]] void grow() {
    std::vector<Slot> Old(Slots.empty() ? 16 : Slots.size() * 2);
    Old.swap(Slots);
    const size_t Mask = Slots.size() - 1;
    for (const Slot &S : Old) {
      if (S.Id == NoId)
        continue;
      size_t I = home(S.Word, S.Len, Mask);
      while (Slots[I].Id != NoId)
        I = (I + 1) & Mask;
      Slots[I] = S;
    }
  }

  std::vector<std::string> Names; ///< by id
  std::vector<Slot> Slots;        ///< power-of-two size; empty until used
};

} // namespace velo

#endif // VELO_SUPPORT_STRINGINTERNER_H
