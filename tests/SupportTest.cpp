//===- tests/SupportTest.cpp - Support library unit tests -----------------===//

#include "support/DotWriter.h"
#include "support/Flags.h"
#include "support/FlatSet.h"
#include "support/Rng.h"
#include "support/Stats.h"
#include "support/StringInterner.h"
#include "support/TablePrinter.h"
#include "support/ThreadTable.h"

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <memory>
#include <set>

namespace velo {
namespace {

// --- Rng ---

TEST(RngTest, DeterministicPerSeed) {
  Rng A(42), B(42), C(43);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
  bool Differs = false;
  Rng A2(42);
  for (int I = 0; I < 100 && !Differs; ++I)
    Differs = A2.next() != C.next();
  EXPECT_TRUE(Differs);
}

TEST(RngTest, BelowStaysInRangeAndHitsAllValues) {
  Rng R(7);
  std::set<uint64_t> Seen;
  for (int I = 0; I < 2000; ++I) {
    uint64_t V = R.below(10);
    ASSERT_LT(V, 10u);
    Seen.insert(V);
  }
  EXPECT_EQ(Seen.size(), 10u);
}

TEST(RngTest, RangeIsInclusive) {
  Rng R(9);
  std::set<int64_t> Seen;
  for (int I = 0; I < 500; ++I) {
    int64_t V = R.range(-2, 2);
    ASSERT_GE(V, -2);
    ASSERT_LE(V, 2);
    Seen.insert(V);
  }
  EXPECT_EQ(Seen.size(), 5u);
}

TEST(RngTest, ChanceIsRoughlyCalibrated) {
  Rng R(11);
  int Hits = 0;
  const int N = 10000;
  for (int I = 0; I < N; ++I)
    Hits += R.chance(1, 4);
  EXPECT_NEAR(Hits / static_cast<double>(N), 0.25, 0.03);
}

TEST(RngTest, UnitIsInHalfOpenInterval) {
  Rng R(13);
  for (int I = 0; I < 1000; ++I) {
    double U = R.unit();
    ASSERT_GE(U, 0.0);
    ASSERT_LT(U, 1.0);
  }
}

TEST(RngTest, ShuffleIsAPermutation) {
  Rng R(17);
  std::vector<int> V{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> Orig = V;
  R.shuffle(V);
  std::multiset<int> A(V.begin(), V.end()), B(Orig.begin(), Orig.end());
  EXPECT_EQ(A, B);
}

// --- FlatSet ---

TEST(FlatSetTest, InsertEraseContains) {
  FlatSet<uint32_t> S;
  EXPECT_TRUE(S.empty());
  EXPECT_TRUE(S.insert(5));
  EXPECT_TRUE(S.insert(1));
  EXPECT_TRUE(S.insert(9));
  EXPECT_FALSE(S.insert(5)) << "duplicate";
  EXPECT_EQ(S.size(), 3u);
  EXPECT_TRUE(S.contains(1));
  EXPECT_FALSE(S.contains(2));
  EXPECT_TRUE(S.erase(5));
  EXPECT_FALSE(S.erase(5));
  EXPECT_EQ(S.size(), 2u);
}

TEST(FlatSetTest, IterationIsSorted) {
  FlatSet<uint32_t> S;
  for (uint32_t V : {9u, 3u, 7u, 1u, 5u})
    S.insert(V);
  std::vector<uint32_t> Out(S.begin(), S.end());
  EXPECT_EQ(Out, (std::vector<uint32_t>{1, 3, 5, 7, 9}));
}

TEST(FlatSetTest, UnionWithReportsGrowth) {
  FlatSet<uint32_t> A, B;
  A.insert(1);
  A.insert(3);
  B.insert(3);
  B.insert(5);
  EXPECT_TRUE(A.unionWith(B));
  EXPECT_EQ(A.size(), 3u);
  EXPECT_FALSE(A.unionWith(B)) << "no growth the second time";
  FlatSet<uint32_t> Empty;
  EXPECT_FALSE(A.unionWith(Empty));
}

TEST(FlatSetTest, UnionWithMergesInPlace) {
  // Interleaved keys, keys present in both, keys beyond either end.
  FlatSet<uint32_t> A, B;
  for (uint32_t V : {3u, 5u, 9u, 12u})
    A.insert(V);
  for (uint32_t V : {1u, 5u, 7u, 12u, 20u})
    B.insert(V);
  EXPECT_TRUE(A.unionWith(B));
  EXPECT_EQ(std::vector<uint32_t>(A.begin(), A.end()),
            (std::vector<uint32_t>{1, 3, 5, 7, 9, 12, 20}));
  EXPECT_FALSE(A.unionWith(A)) << "self-union adds nothing";

  // A set that already has the room merges without moving its storage.
  for (uint32_t V = 100; V < 108; ++V)
    A.insert(V);
  A.clear();
  A.insert(4);
  const uint32_t *Storage = &*A.begin();
  EXPECT_TRUE(A.unionWith(B));
  EXPECT_EQ(&*A.begin(), Storage);
  EXPECT_EQ(std::vector<uint32_t>(A.begin(), A.end()),
            (std::vector<uint32_t>{1, 4, 5, 7, 12, 20}));
}

TEST(FlatSetTest, UnionWithMatchesSetUnion) {
  Rng R(7);
  for (int Round = 0; Round < 500; ++Round) {
    std::set<uint32_t> Want;
    FlatSet<uint32_t> A, B;
    for (uint64_t I = 0, N = R.below(12); I < N; ++I) {
      uint32_t V = static_cast<uint32_t>(R.below(24));
      A.insert(V);
      Want.insert(V);
    }
    size_t Before = A.size();
    for (uint64_t I = 0, N = R.below(12); I < N; ++I) {
      uint32_t V = static_cast<uint32_t>(R.below(24));
      B.insert(V);
      Want.insert(V);
    }
    EXPECT_EQ(A.unionWith(B), Want.size() != Before);
    EXPECT_EQ(std::vector<uint32_t>(A.begin(), A.end()),
              std::vector<uint32_t>(Want.begin(), Want.end()));
  }
}

// --- ThreadTable ---

TEST(ThreadTableTest, SparseTidsTakeSlotsByFirstUse) {
  ThreadTable<int> T;
  EXPECT_EQ(T.find(5), nullptr);
  T[(1u << 20) - 1] = 7;
  T[3] = 4;
  T[(1u << 20) - 1] += 1; // a hit, not a second slot
  EXPECT_EQ(T.size(), 2u);
  ASSERT_NE(T.find(3), nullptr);
  EXPECT_EQ(*T.find(3), 4);
  EXPECT_EQ(*T.find((1u << 20) - 1), 8);
  EXPECT_EQ(T.find(4), nullptr);
  EXPECT_EQ(T[9], 0) << "first use default-constructs";
  EXPECT_EQ(T.sortedTids(), (std::vector<uint32_t>{3, 9, (1u << 20) - 1}));
  T.clear();
  EXPECT_EQ(T.size(), 0u);
  EXPECT_EQ(T.find(3), nullptr);
}

TEST(ThreadTableTest, SlotAccessorKeepsSlotsInTidOrder) {
  ThreadTable<int> T;
  EXPECT_EQ(T.slot(9), 0u);
  EXPECT_EQ(T.slot((1u << 20) - 1), 1u);
  EXPECT_EQ(T.slot(3), 2u);
  EXPECT_EQ(T.slot(9), 0u) << "a hit, not a second slot";
  EXPECT_EQ(T.tidOf(1), (1u << 20) - 1);
  EXPECT_EQ(T.slotsByTid(), (std::vector<uint32_t>{2, 0, 1}));
  T.atSlot(2) = 5;
  EXPECT_EQ(*T.find(3), 5);
  T.clear();
  EXPECT_TRUE(T.slotsByTid().empty());
}

TEST(ThreadTableTest, TidsPastTheDenseIndexAreHashed) {
  // Tids at and above DenseTids go to the hashed index; slots, lookups
  // and tid order must not tell the two apart.
  constexpr uint32_t Bound = ThreadTable<int>::DenseTids;
  const uint32_t Tids[] = {Bound,     7,         Bound - 1, (1u << 20) - 1,
                           Bound + 1, 0,         Bound * 3, Bound - 2};
  ThreadTable<int> T;
  std::map<uint32_t, uint32_t> SlotOf;
  for (int Round = 0; Round < 2; ++Round) {
    for (uint32_t Tid : Tids) {
      uint32_t S = T.slot(Tid);
      auto [It, Fresh] = SlotOf.emplace(Tid, S);
      EXPECT_EQ(S, It->second) << "tid " << Tid;
      EXPECT_EQ(Fresh, Round == 0);
      T.atSlot(S) = static_cast<int>(Tid % 1000);
    }
  }
  EXPECT_EQ(T.size(), std::size(Tids));
  std::vector<uint32_t> Sorted;
  for (const auto &[Tid, S] : SlotOf) {
    ASSERT_NE(T.find(Tid), nullptr) << Tid;
    EXPECT_EQ(*T.find(Tid), static_cast<int>(Tid % 1000));
    EXPECT_EQ(T.tidOf(S), Tid);
    Sorted.push_back(Tid);
  }
  EXPECT_EQ(T.sortedTids(), Sorted);
  EXPECT_EQ(T.find(Bound + 2), nullptr);
  EXPECT_EQ(T.find(Bound - 3), nullptr);
  T.clear();
  EXPECT_EQ(T.find(Bound), nullptr);
  EXPECT_EQ(T.slot(Bound * 3), 0u) << "slots restart after clear()";
}

// --- StringInterner ---

TEST(StringInternerTest, StableDenseIds) {
  StringInterner I;
  uint32_t A = I.intern("alpha");
  uint32_t B = I.intern("beta");
  EXPECT_EQ(A, 0u);
  EXPECT_EQ(B, 1u);
  EXPECT_EQ(I.intern("alpha"), A);
  EXPECT_EQ(I.name(A), "alpha");
  EXPECT_EQ(I.size(), 2u);

  uint32_t Found = 99;
  EXPECT_TRUE(I.lookup("beta", Found));
  EXPECT_EQ(Found, B);
  EXPECT_FALSE(I.lookup("gamma", Found));
  EXPECT_EQ(I.nameOr(7, "var"), "var#7");
}

TEST(StringInternerTest, ManyNamesSurviveRehashing) {
  StringInterner I;
  for (int K = 0; K < 1000; ++K)
    EXPECT_EQ(I.intern("name" + std::to_string(K)),
              static_cast<uint32_t>(K));
  for (int K = 0; K < 1000; ++K)
    EXPECT_EQ(I.name(static_cast<uint32_t>(K)), "name" + std::to_string(K));
}

/// A name of N bytes: letters, NUL and high bytes, with a shared stem so
/// that names agree on the bytes the packing reads first and last.
std::string internerName(Rng &R, size_t N) {
  static const char Bytes[] = {'a', 'b', '\0', '\x80', '\xff', 'z', ' '};
  std::string S(N, 'a');
  for (size_t I = 0; I < N; ++I)
    if (R.below(3) == 0)
      S[I] = Bytes[R.below(sizeof(Bytes))];
  return S;
}

TEST(StringInternerTest, MatchesAMapOracle) {
  Rng R(16);
  StringInterner I;
  std::map<std::string, uint32_t> Oracle;
  std::vector<std::string> ById;
  std::vector<std::pair<StringInterner, size_t>> Copies; // copy, its size
  for (int Step = 0; Step < 20000; ++Step) {
    // Lengths 0-24 cross the 4- and 8-byte packing edges; a name is
    // looked up from a heap buffer of exactly its size.
    const std::string Name = internerName(R, R.below(25));
    std::unique_ptr<char[]> Exact(new char[Name.size()]);
    std::memcpy(Exact.get(), Name.data(), Name.size());
    const std::string_view View(Exact.get(), Name.size());
    auto It = Oracle.find(Name);
    uint32_t Found = 0;
    ASSERT_EQ(I.lookup(View, Found), It != Oracle.end()) << Step;
    if (It != Oracle.end()) {
      ASSERT_EQ(Found, It->second);
    }
    if (R.below(2) == 0) {
      uint32_t Id = I.intern(View);
      if (It == Oracle.end()) {
        ASSERT_EQ(Id, ById.size()) << "ids are dense in first-use order";
        Oracle.emplace(Name, Id);
        ById.push_back(Name);
      } else {
        ASSERT_EQ(Id, It->second);
      }
    }
    if (Step % 2500 == 0)
      Copies.emplace_back(I, I.size());
  }
  ASSERT_EQ(I.size(), ById.size());
  EXPECT_GT(I.size(), 1000u) << "enough names to grow the table";
  for (uint32_t Id = 0; Id < ById.size(); ++Id) {
    EXPECT_EQ(I.name(Id), ById[Id]);
    uint32_t Found = 0;
    EXPECT_TRUE(I.lookup(ById[Id], Found));
    EXPECT_EQ(Found, Id);
  }
  // A copy keeps the ids it had and grows on its own; syncFrom brings it
  // to the original's ids.
  for (auto &[Copy, Size] : Copies) {
    ASSERT_EQ(Copy.size(), Size);
    for (uint32_t Id = 0; Id < Size; ++Id) {
      uint32_t Found = 0;
      ASSERT_TRUE(Copy.lookup(ById[Id], Found));
      EXPECT_EQ(Found, Id);
    }
    uint32_t Found = 0;
    if (Size < ById.size()) {
      EXPECT_FALSE(Copy.lookup(ById[Size], Found));
    }
    Copy.syncFrom(I);
    ASSERT_EQ(Copy.size(), I.size());
    for (uint32_t Id = 0; Id < ById.size(); ++Id)
      EXPECT_EQ(Copy.intern(ById[Id]), Id);
  }
  StringInterner Fresh;
  Fresh.syncFrom(I);
  for (uint32_t Id = 0; Id < ById.size(); ++Id)
    EXPECT_EQ(Fresh.name(Id), ById[Id]);
}

// --- Stats ---

TEST(StatsTest, SummaryTracksMinMaxMean) {
  Summary S;
  EXPECT_EQ(S.count(), 0u);
  EXPECT_EQ(S.mean(), 0.0);
  for (double X : {2.0, 4.0, 6.0})
    S.add(X);
  EXPECT_EQ(S.count(), 3u);
  EXPECT_DOUBLE_EQ(S.mean(), 4.0);
  EXPECT_DOUBLE_EQ(S.min(), 2.0);
  EXPECT_DOUBLE_EQ(S.max(), 6.0);
}

TEST(StatsTest, HighWaterTracksPeak) {
  HighWater H;
  H.inc(3);
  H.inc(2);
  H.dec(4);
  H.inc(1);
  EXPECT_EQ(H.current(), 2u);
  EXPECT_EQ(H.peak(), 5u);
}

// --- TablePrinter ---

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter T({"A", "LongHeader"});
  T.startRow();
  T.cell(std::string("xxx"));
  T.cell(static_cast<int64_t>(7));
  std::string Out = T.str();
  EXPECT_NE(Out.find("A    LongHeader"), std::string::npos);
  EXPECT_NE(Out.find("xxx  7"), std::string::npos);
}

TEST(TablePrinterTest, FixedAndCommas) {
  EXPECT_EQ(TablePrinter::fixed(71.66, 1), "71.7");
  EXPECT_EQ(TablePrinter::fixed(2.0, 2), "2.00");
  EXPECT_EQ(TablePrinter::withCommas(0), "0");
  EXPECT_EQ(TablePrinter::withCommas(999), "999");
  EXPECT_EQ(TablePrinter::withCommas(1000), "1,000");
  EXPECT_EQ(TablePrinter::withCommas(1234567), "1,234,567");
}

TEST(TablePrinterTest, CsvQuotesOnlyWhenNeeded) {
  TablePrinter T({"name", "value"});
  T.startRow();
  T.cell(std::string("plain"));
  T.cell(std::string("a,b \"quoted\""));
  std::string Csv = T.csv();
  EXPECT_NE(Csv.find("plain,\"a,b \"\"quoted\"\"\""), std::string::npos);
}

// --- DotWriter ---

TEST(DotWriterTest, EmitsWellFormedDigraph) {
  DotWriter D("g");
  D.addNode("n1", "Thread 1:\nSet.add", "peripheries=2");
  D.addNode("n2", "Thread 2:\nSet.add");
  D.addEdge("n1", "n2", "wr x");
  D.addEdge("n2", "n1", "acq m", /*Dashed=*/true);
  std::string Out = D.str();
  EXPECT_NE(Out.find("digraph \"g\" {"), std::string::npos);
  EXPECT_NE(Out.find("\"n1\" [shape=box,label=\"Thread 1:\\nSet.add\","
                     "peripheries=2];"),
            std::string::npos);
  EXPECT_NE(Out.find("\"n2\" -> \"n1\" [label=\"acq m\",style=dashed];"),
            std::string::npos);
  EXPECT_EQ(Out.back(), '\n');
}

TEST(DotWriterTest, EscapesQuotesAndBackslashes) {
  EXPECT_EQ(DotWriter::escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
}

// --- Flags ---

/// A two-flag table: --seed=N (a u64 in [0, 2^64)), --n=N (in [1, 9]),
/// --name=S and the switch --quiet; up to three operands.
struct FlagFixture {
  uint64_t Seed = 0, N = 5;
  std::string Name;
  bool Quiet = false;
  std::vector<std::string> Operands;
  std::string Stderr;

  FlagTable table() {
    return {"tool [options] <a> [<b> <c>]",
            {u64Flag("--seed=N", Seed, "the seed"),
             u64Flag("--n=N", N, "a count in [1, 9]", 1, 9),
             stringFlag("--name=S", Name, "a name"),
             boolFlag("--quiet", Quiet, "say less")},
            "exit: 0 or 2\n",
            1,
            3};
  }

  int parse(std::vector<std::string> Args) {
    std::vector<char *> Argv = {const_cast<char *>("tool")};
    for (std::string &A : Args)
      Argv.push_back(A.data());
    const FlagTable T = table();
    testing::internal::CaptureStderr();
    int Rc = T.parse(static_cast<int>(Argv.size()), Argv.data(), Operands);
    Stderr = testing::internal::GetCapturedStderr();
    return Rc;
  }
};

TEST(FlagsTest, UnknownSpellingExitsTwo) {
  FlagFixture F;
  EXPECT_EQ(F.parse({"--bogus", "a"}), 2);
  EXPECT_EQ(F.Stderr.rfind("error: unknown option '--bogus'\nusage: tool", 0),
            0u)
      << F.Stderr;
}

TEST(FlagsTest, ValueFlagWithoutEqualsIsUnknown) {
  FlagFixture F;
  EXPECT_EQ(F.parse({"--seed", "7", "a"}), 2);
  EXPECT_NE(F.Stderr.find("unknown option '--seed'"), std::string::npos);
  EXPECT_EQ(F.Seed, 0u);
}

TEST(FlagsTest, SwitchGivenAValueIsUnknown) {
  FlagFixture F;
  EXPECT_EQ(F.parse({"--quiet=x", "a"}), 2);
  EXPECT_NE(F.Stderr.find("unknown option '--quiet=x'"), std::string::npos);
  EXPECT_FALSE(F.Quiet);
}

TEST(FlagsTest, BadU64ValuesExitTwo) {
  for (const char *Bad :
       {"", "-1", "+4", "0x10", "18446744073709551616", "12junk"}) {
    FlagFixture F;
    EXPECT_EQ(F.parse({std::string("--seed=") + Bad, "a"}), 2) << Bad;
    EXPECT_NE(F.Stderr.find(std::string("bad value in '--seed=") + Bad +
                            "'"),
              std::string::npos)
        << F.Stderr;
    EXPECT_EQ(F.Seed, 0u) << Bad;
  }
  FlagFixture Max;
  EXPECT_EQ(Max.parse({"--seed=18446744073709551615", "a"}), -1);
  EXPECT_EQ(Max.Seed, UINT64_MAX);
}

TEST(FlagsTest, U64BoundsAreBadValues) {
  for (const char *Bad : {"--n=0", "--n=10"}) {
    FlagFixture F;
    EXPECT_EQ(F.parse({Bad, "a"}), 2) << Bad;
    EXPECT_EQ(F.N, 5u);
  }
  FlagFixture F;
  EXPECT_EQ(F.parse({"--n=9", "a"}), -1);
  EXPECT_EQ(F.N, 9u);
}

TEST(FlagsTest, OperandsKeepTheirOrder) {
  FlagFixture F;
  EXPECT_EQ(F.parse({"c", "--quiet", "a", "--name=x", "b"}), -1);
  EXPECT_EQ(F.Operands, (std::vector<std::string>{"c", "a", "b"}));
  EXPECT_TRUE(F.Quiet);
  EXPECT_EQ(F.Name, "x");
  EXPECT_TRUE(F.Stderr.empty()) << F.Stderr;

  FlagFixture TooMany;
  EXPECT_EQ(TooMany.parse({"a", "b", "c", "d"}), 2);
  EXPECT_NE(TooMany.Stderr.find("unexpected operand 'd'"), std::string::npos);
  FlagFixture TooFew;
  EXPECT_EQ(TooFew.parse({"--quiet"}), 2);
  EXPECT_EQ(TooFew.Stderr.rfind("usage: tool", 0), 0u) << TooFew.Stderr;
}

TEST(FlagsTest, RepeatedFlagLastWins) {
  FlagFixture F;
  EXPECT_EQ(F.parse({"--seed=3", "--name=x", "a", "--seed=9", "--name="}),
            -1);
  EXPECT_EQ(F.Seed, 9u);
  EXPECT_EQ(F.Name, "");
}

TEST(FlagsTest, HelpPrintsEveryRowAndExitsZero) {
  for (const char *Help : {"--help", "-h"}) {
    FlagFixture F;
    // Help answers at once, before the operands are counted and before
    // anything after it is parsed.
    EXPECT_EQ(F.parse({Help, "--bogus"}), 0) << Help;
    EXPECT_EQ(F.Stderr.rfind("usage: tool [options] <a> [<b> <c>]\n", 0), 0u)
        << F.Stderr;
    for (const char *Row : {"  --seed=N ", "  --n=N ", "  --name=S ",
                            "  --quiet ", "  --help, -h ", "exit: 0 or 2\n"})
      EXPECT_NE(F.Stderr.find(Row), std::string::npos) << Row;
  }
}

} // namespace
} // namespace velo
