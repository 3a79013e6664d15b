//===- support/StringInterner.h - Name <-> id interning ---------*- C++ -*-===//
//
// Events carry integer ids for variables, locks, and atomic-block labels;
// the interner maps those ids back to human-readable names for warnings and
// dot error graphs (mirroring RoadRunner's field/method naming).
//
// The text trace reader resolves every event's name here, so lookup is on
// the decode hot path: the map's hash and equality are transparent, so a
// string_view is looked up as is, without building a std::string.
//
//===----------------------------------------------------------------------===//

#ifndef VELO_SUPPORT_STRINGINTERNER_H
#define VELO_SUPPORT_STRINGINTERNER_H

#include <cassert>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace velo {

/// Bidirectional string <-> dense-id table. Ids are assigned in insertion
/// order starting at 0 and are stable for the lifetime of the interner.
class StringInterner {
public:
  /// Intern Name, returning its id (allocating a new id on first sight).
  uint32_t intern(std::string_view Name) {
    auto It = IdByName.find(Name);
    if (It != IdByName.end())
      return It->second;
    uint32_t Id = static_cast<uint32_t>(Names.size());
    Names.emplace_back(Name);
    IdByName.emplace(Names.back(), Id);
    return Id;
  }

  /// Look up a name without interning. Returns false if absent.
  bool lookup(std::string_view Name, uint32_t &IdOut) const {
    auto It = IdByName.find(Name);
    if (It == IdByName.end())
      return false;
    IdOut = It->second;
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
  /// std::hash over string_view, which std::string keys share; with
  /// std::equal_to<> it makes find() accept a string_view (C++20
  /// heterogeneous lookup).
  struct NameHash {
    using is_transparent = void;
    size_t operator()(std::string_view Name) const {
      return std::hash<std::string_view>{}(Name);
    }
  };

  std::vector<std::string> Names;
  std::unordered_map<std::string, uint32_t, NameHash, std::equal_to<>>
      IdByName;
};

} // namespace velo

#endif // VELO_SUPPORT_STRINGINTERNER_H
