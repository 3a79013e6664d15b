//===- tests/RecordingDigestTest.cpp - Recordings pinned across versions --===//
//
// RuntimeTest replays a trace within one build, so a change that alters a
// single scheduling decision of the Deterministic runtime would pass it.
// This table pins the recordings themselves: each row records one workload
// in-process at Scale=2, seeded exactly as velodrome-run seeds it, and
// compares the FNV-1a-64 digest of the text rendering (the bytes
// `velodrome-run --scale=2 --seed=N --record=t.trace` writes) with the
// committed one. Rows cover all 15 workloads at seeds 1-5, and the 15
// under --adversarial scheduling, with the Atomizer as guide, at seeds 1-2.
//
// A failing row prints the digest it got, in the table's own row syntax.
// Update the table only for a change meant to alter recordings, and say
// so where the change is described.
//
//===----------------------------------------------------------------------===//

#include "analysis/TraceRecorder.h"
#include "atomizer/Atomizer.h"
#include "events/BinaryFormat.h"
#include "events/TraceText.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>

namespace velo {
namespace {

struct Row {
  const char *Workload;
  uint64_t Seed;
  bool Adversarial;
  uint64_t Digest;
};

void PrintTo(const Row &R, std::ostream *OS) {
  *OS << R.Workload << (R.Adversarial ? " --adversarial" : "")
      << " --seed=" << R.Seed;
}

// clang-format off
const Row Rows[] = {
    {"elevator", 1, false, 0x326f2555857c0676ull},
    {"elevator", 2, false, 0x763082638753249bull},
    {"elevator", 3, false, 0xfbba8bcae81fa3d0ull},
    {"elevator", 4, false, 0xd30e74d1d20234edull},
    {"elevator", 5, false, 0x086f4286b2543dbfull},
    {"hedc", 1, false, 0x45965e3f213d1787ull},
    {"hedc", 2, false, 0x80b69d62b0dff1b3ull},
    {"hedc", 3, false, 0xbdaf58d2473260ffull},
    {"hedc", 4, false, 0x1a4a374e90bdb461ull},
    {"hedc", 5, false, 0x96a14d62c30962ffull},
    {"tsp", 1, false, 0x23acb8a68a4af084ull},
    {"tsp", 2, false, 0xb2d2b7274f1b344dull},
    {"tsp", 3, false, 0xb95aecda40455ddeull},
    {"tsp", 4, false, 0x9bd555a240f6219dull},
    {"tsp", 5, false, 0xa7de2f2d3886ba88ull},
    {"sor", 1, false, 0x82357dc06e4d9a2aull},
    {"sor", 2, false, 0x4c3646556e054ae9ull},
    {"sor", 3, false, 0xe7cf26211f1c07ffull},
    {"sor", 4, false, 0xa18db283cc12fb75ull},
    {"sor", 5, false, 0xd49745112d60cad2ull},
    {"jbb", 1, false, 0xf6ea9e16e2a8fca6ull},
    {"jbb", 2, false, 0xa9ae365171026ea7ull},
    {"jbb", 3, false, 0x47a125cf3dace5f2ull},
    {"jbb", 4, false, 0xb3079d23152ecd60ull},
    {"jbb", 5, false, 0x105e29bf861b9398ull},
    {"mtrt", 1, false, 0x6e756fb1579eee9eull},
    {"mtrt", 2, false, 0xa52cae596aaac6aeull},
    {"mtrt", 3, false, 0x4cd6b876f90de388ull},
    {"mtrt", 4, false, 0xabf5e3027be303ecull},
    {"mtrt", 5, false, 0x3881a77481b360eaull},
    {"moldyn", 1, false, 0x8567549b7fb7fdb9ull},
    {"moldyn", 2, false, 0xdd62f0e2f5c5c9b0ull},
    {"moldyn", 3, false, 0x66b91064f6a2d070ull},
    {"moldyn", 4, false, 0x69913db68e625ae0ull},
    {"moldyn", 5, false, 0x1e300d83c76de457ull},
    {"montecarlo", 1, false, 0x9c27ca91f3d952aeull},
    {"montecarlo", 2, false, 0x79d01aa9b4968037ull},
    {"montecarlo", 3, false, 0x3c4b2f4f502fc18dull},
    {"montecarlo", 4, false, 0x83fcdc511c53da70ull},
    {"montecarlo", 5, false, 0xfd47f6ac9e9eedfeull},
    {"raytracer", 1, false, 0x0d1fa57e160809a5ull},
    {"raytracer", 2, false, 0xe076c0beccbef57bull},
    {"raytracer", 3, false, 0x1c1106fa21fffa58ull},
    {"raytracer", 4, false, 0xa09dff5d5ee585a1ull},
    {"raytracer", 5, false, 0x4d65f1531a08c459ull},
    {"colt", 1, false, 0x3801b9c2812b1405ull},
    {"colt", 2, false, 0x4ed0dda8d68e58b6ull},
    {"colt", 3, false, 0x6facffff35e74f46ull},
    {"colt", 4, false, 0x8e0e4d18cfc54b3cull},
    {"colt", 5, false, 0xe865d46eb11dc209ull},
    {"philo", 1, false, 0x262c5c3b78eb88a8ull},
    {"philo", 2, false, 0xe91cef6a009f225eull},
    {"philo", 3, false, 0xd680c6af6a298116ull},
    {"philo", 4, false, 0x46ccbc27286ad102ull},
    {"philo", 5, false, 0xfaebae885faaa0c8ull},
    {"raja", 1, false, 0x7dcd5ec55638b69aull},
    {"raja", 2, false, 0xb1f23a601ead9736ull},
    {"raja", 3, false, 0x1b374a5c165dd926ull},
    {"raja", 4, false, 0x1045f62d687d3588ull},
    {"raja", 5, false, 0xfc5e4f2959459074ull},
    {"multiset", 1, false, 0x25a0dc70333249feull},
    {"multiset", 2, false, 0xca04b6363ece9d26ull},
    {"multiset", 3, false, 0xe70effbd3ecfa1d9ull},
    {"multiset", 4, false, 0xa4f915750235207dull},
    {"multiset", 5, false, 0x4290ada2ac929662ull},
    {"webl", 1, false, 0x4626718202ec605eull},
    {"webl", 2, false, 0x45ea8fcc957a1b43ull},
    {"webl", 3, false, 0x35a9b041dc614d84ull},
    {"webl", 4, false, 0xf9971827026ea9e1ull},
    {"webl", 5, false, 0x918e72c494e371b9ull},
    {"jigsaw", 1, false, 0xcee3efa847b83f47ull},
    {"jigsaw", 2, false, 0xd56f24e470e1846cull},
    {"jigsaw", 3, false, 0x666b42ab9d7597adull},
    {"jigsaw", 4, false, 0xf8a2a6e279278942ull},
    {"jigsaw", 5, false, 0x85eaed86e416e459ull},
    {"elevator", 1, true, 0xa6a7cf07185cedb4ull},
    {"elevator", 2, true, 0x934e7781d6d9b5b4ull},
    {"hedc", 1, true, 0xc06e57b71cb5715dull},
    {"hedc", 2, true, 0xde4a859ea057eea9ull},
    {"tsp", 1, true, 0xb3a1efdd50c592c8ull},
    {"tsp", 2, true, 0xea33b67782547b18ull},
    {"sor", 1, true, 0xbca742ca47fff37eull},
    {"sor", 2, true, 0x105f9ce5103a7008ull},
    {"jbb", 1, true, 0xc92e3e8acbec80dcull},
    {"jbb", 2, true, 0xa2ad3cec54ddb1c5ull},
    {"mtrt", 1, true, 0x24c924974f6ad80eull},
    {"mtrt", 2, true, 0x5e4b51aa41117b00ull},
    {"moldyn", 1, true, 0x28733e3f8c990212ull},
    {"moldyn", 2, true, 0x7f8f293280d2acb5ull},
    {"montecarlo", 1, true, 0xd4e1c1f9653cd406ull},
    {"montecarlo", 2, true, 0x7d9ba61251fb1814ull},
    {"raytracer", 1, true, 0x123b44822d750f78ull},
    {"raytracer", 2, true, 0x865a716528d33826ull},
    {"colt", 1, true, 0x4823577f20a4af05ull},
    {"colt", 2, true, 0x7c2f98ee9d0693ceull},
    {"philo", 1, true, 0x9df7254697162928ull},
    {"philo", 2, true, 0x78d84281dc515dc2ull},
    {"raja", 1, true, 0x7dcd5ec55638b69aull},
    {"raja", 2, true, 0xb1f23a601ead9736ull},
    {"multiset", 1, true, 0x04f1f97cb62cac54ull},
    {"multiset", 2, true, 0xac2e8f980c903f30ull},
    {"webl", 1, true, 0x248982ad5ef9381aull},
    {"webl", 2, true, 0x38b913016971a01eull},
    {"jigsaw", 1, true, 0x491d057c4fdc2568ull},
    {"jigsaw", 2, true, 0xde45a7e7a28742a2ull},
};
// clang-format on

/// The recording `velodrome-run --scale=2 --seed=Seed [--adversarial]`
/// makes, rendered as text and hashed.
uint64_t recordDigest(const Row &R) {
  std::unique_ptr<Workload> W = makeWorkload(R.Workload);
  W->Scale = 2;
  RuntimeOptions Opts;
  Opts.ExecMode = RuntimeOptions::Mode::Deterministic;
  Opts.SchedulerSeed = R.Seed;
  Opts.WorkloadSeed = R.Seed * 11 + 3;
  Opts.Adversarial = R.Adversarial;
  Atomizer Guide;
  TraceRecorder Rec;
  std::vector<Backend *> Live{&Rec};
  if (R.Adversarial)
    Live.insert(Live.begin(), &Guide);
  Runtime RT(Opts, Live);
  if (R.Adversarial)
    RT.setGuide(&Guide);
  W->run(RT);
  return binfmt::fnv1a64(printTrace(Rec.trace()));
}

class RecordingDigest : public ::testing::TestWithParam<Row> {};

TEST_P(RecordingDigest, MatchesTheCommittedDigest) {
  const Row &R = GetParam();
  ASSERT_TRUE(makeWorkload(R.Workload)) << "unknown workload " << R.Workload;
  uint64_t Got = recordDigest(R);
  char Line[96];
  std::snprintf(Line, sizeof(Line), "{\"%s\", %" PRIu64 ", %s, 0x%016" PRIx64
                "ull},", R.Workload, R.Seed, R.Adversarial ? "true" : "false",
                Got);
  EXPECT_EQ(Got, R.Digest) << "the recording changed; this run's row:\n"
                           << Line;
}

INSTANTIATE_TEST_SUITE_P(
    Pinned, RecordingDigest, ::testing::ValuesIn(Rows),
    [](const ::testing::TestParamInfo<Row> &Info) {
      return std::string(Info.param.Workload) +
             (Info.param.Adversarial ? "_adversarial" : "") + "_seed" +
             std::to_string(Info.param.Seed);
    });

} // namespace
} // namespace velo
