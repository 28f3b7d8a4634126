// Storage chaos: the seeded StorageFaultInjector behind the store::FileOps
// seam. Every fault decision must be a pure function of (seed, path,
// op_index), and each kind must corrupt writes in its documented way.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "fault/storage_fault.hpp"
#include "store/file_ops.hpp"

namespace coloc::fault {
namespace {

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/coloc_sfault_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

StorageFaultPlanConfig always(StorageFaultKind kind, std::uint64_t seed = 7) {
  StorageFaultPlanConfig config;
  config.rate = 1.0;
  config.seed = seed;
  config.kinds = {kind};
  return config;
}

std::size_t bit_difference(const std::string& a, const std::string& b) {
  EXPECT_EQ(a.size(), b.size());
  std::size_t bits = 0;
  for (std::size_t i = 0; i < a.size() && i < b.size(); ++i) {
    unsigned char x = static_cast<unsigned char>(a[i]) ^
                      static_cast<unsigned char>(b[i]);
    while (x != 0) {
      bits += x & 1u;
      x >>= 1u;
    }
  }
  return bits;
}

TEST(StorageFaultKinds, ParseAcceptsEveryDocumentedToken) {
  const auto kinds =
      parse_storage_fault_kinds("torn,bitflip,truncate,rename-dropped,enospc");
  EXPECT_EQ(kinds.size(), kNumStorageFaultKinds);
}

TEST(StorageFaultKinds, ParseRejectsUnknownTokenByName) {
  try {
    parse_storage_fault_kinds("torn,gremlins");
    FAIL() << "expected invalid_argument_error";
  } catch (const coloc::invalid_argument_error& e) {
    EXPECT_NE(std::string(e.what()).find("gremlins"), std::string::npos);
  }
}

TEST(StorageFaultKinds, ToStringCoversEveryKind) {
  for (StorageFaultKind kind :
       {StorageFaultKind::kTornWrite, StorageFaultKind::kBitFlip,
        StorageFaultKind::kTruncate, StorageFaultKind::kRenameDropped,
        StorageFaultKind::kNoSpace}) {
    EXPECT_STRNE(to_string(kind), "");
  }
}

TEST(StorageFaultPlan, DecisionsArePureInSeedPathOp) {
  StorageFaultPlanConfig config;
  config.rate = 0.5;
  config.seed = 123;
  const StorageFaultPlan plan_a(config);
  const StorageFaultPlan plan_b(config);
  for (std::uint64_t op = 0; op < 200; ++op) {
    EXPECT_EQ(plan_a.decide("zoo/MANIFEST.json", op),
              plan_b.decide("zoo/MANIFEST.json", op));
    EXPECT_DOUBLE_EQ(plan_a.offset_fraction("a/b", op),
                     plan_b.offset_fraction("a/b", op));
    EXPECT_EQ(plan_a.bit_index("a/b", op, 4096),
              plan_b.bit_index("a/b", op, 4096));
  }
}

TEST(StorageFaultPlan, SeedChangesTheSequence) {
  StorageFaultPlanConfig config;
  config.rate = 0.5;
  config.seed = 1;
  const StorageFaultPlan one(config);
  config.seed = 2;
  const StorageFaultPlan two(config);
  bool any_difference = false;
  for (std::uint64_t op = 0; op < 200 && !any_difference; ++op) {
    any_difference = one.decide("p", op) != two.decide("p", op);
  }
  EXPECT_TRUE(any_difference);
}

TEST(StorageFaultPlan, RateZeroNeverFiresRateOneAlwaysFires) {
  StorageFaultPlanConfig config;
  config.rate = 0.0;
  const StorageFaultPlan never(config);
  config.rate = 1.0;
  const StorageFaultPlan always_plan(config);
  for (std::uint64_t op = 0; op < 100; ++op) {
    EXPECT_EQ(never.decide("p", op), StorageFaultKind::kNone);
    EXPECT_NE(always_plan.decide("p", op), StorageFaultKind::kNone);
  }
}

TEST(StorageFaultInjector, TornWriteLeavesAProperPrefix) {
  const std::string dir = fresh_dir("torn");
  StorageFaultInjector injector(
      store::FileOps::real(),
      StorageFaultPlan(always(StorageFaultKind::kTornWrite)));
  const std::string payload(200, 'x');
  injector.write_atomic(dir + "/f", payload);
  const std::string on_disk = store::FileOps::real().read(dir + "/f");
  EXPECT_LT(on_disk.size(), payload.size());
  EXPECT_EQ(on_disk, payload.substr(0, on_disk.size()));
  EXPECT_EQ(injector.stats().total(), 1u);
}

TEST(StorageFaultInjector, BitFlipChangesExactlyOneBit) {
  const std::string dir = fresh_dir("bitflip");
  StorageFaultInjector injector(
      store::FileOps::real(),
      StorageFaultPlan(always(StorageFaultKind::kBitFlip)));
  const std::string payload = "the quick brown fox jumps over the lazy dog";
  injector.write_atomic(dir + "/f", payload);
  const std::string on_disk = store::FileOps::real().read(dir + "/f");
  ASSERT_EQ(on_disk.size(), payload.size());
  EXPECT_EQ(bit_difference(on_disk, payload), 1u);
}

TEST(StorageFaultInjector, TruncateCutsTheTail) {
  const std::string dir = fresh_dir("truncate");
  StorageFaultInjector injector(
      store::FileOps::real(),
      StorageFaultPlan(always(StorageFaultKind::kTruncate)));
  const std::string payload(1000, 'y');
  injector.write_atomic(dir + "/f", payload);
  const std::string on_disk = store::FileOps::real().read(dir + "/f");
  EXPECT_LT(on_disk.size(), payload.size());
  EXPECT_GE(on_disk.size(), payload.size() / 2);
  EXPECT_EQ(on_disk, payload.substr(0, on_disk.size()));
}

TEST(StorageFaultInjector, RenameDroppedPreservesPreviousContent) {
  const std::string dir = fresh_dir("rename");
  store::FileOps& real = store::FileOps::real();
  real.write_atomic(dir + "/f", "previous generation");
  StorageFaultInjector injector(
      real, StorageFaultPlan(always(StorageFaultKind::kRenameDropped)));
  injector.write_atomic(dir + "/f", "new generation");
  EXPECT_EQ(real.read(dir + "/f"), "previous generation");
}

TEST(StorageFaultInjector, RenameDroppedOnFreshPathLeavesNothing) {
  const std::string dir = fresh_dir("rename_fresh");
  StorageFaultInjector injector(
      store::FileOps::real(),
      StorageFaultPlan(always(StorageFaultKind::kRenameDropped)));
  injector.write_atomic(dir + "/f", "never lands");
  EXPECT_FALSE(store::FileOps::real().exists(dir + "/f"));
}

TEST(StorageFaultInjector, EnospcThrowsAndLeavesTargetUntouched) {
  const std::string dir = fresh_dir("enospc");
  store::FileOps& real = store::FileOps::real();
  real.write_atomic(dir + "/f", "survives");
  StorageFaultInjector injector(
      real, StorageFaultPlan(always(StorageFaultKind::kNoSpace)));
  EXPECT_THROW(injector.write_atomic(dir + "/f", "doomed"),
               coloc::runtime_error);
  EXPECT_EQ(real.read(dir + "/f"), "survives");
}

TEST(StorageFaultInjector, ReadsAndAppendsPassThrough) {
  const std::string dir = fresh_dir("passthrough");
  StorageFaultInjector injector(
      store::FileOps::real(),
      StorageFaultPlan(always(StorageFaultKind::kBitFlip)));
  injector.append_durable(dir + "/log", "line one\n");
  injector.append_durable(dir + "/log", "line two\n");
  EXPECT_EQ(injector.read(dir + "/log"), "line one\nline two\n");
  EXPECT_TRUE(injector.exists(dir + "/log"));
}

TEST(StorageFaultInjector, RateZeroIsATransparentDecorator) {
  const std::string dir = fresh_dir("transparent");
  StorageFaultPlanConfig config;  // rate 0
  StorageFaultInjector injector(store::FileOps::real(),
                                StorageFaultPlan(config));
  injector.write_atomic(dir + "/f", "untouched payload");
  EXPECT_EQ(store::FileOps::real().read(dir + "/f"), "untouched payload");
  EXPECT_EQ(injector.stats().total(), 0u);
}

}  // namespace
}  // namespace coloc::fault
