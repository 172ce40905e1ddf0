// HwTopology sysfs parsing against fixture trees (single-socket,
// dual-socket, SMT), the graceful flat fallback, pin-order policy, and
// MakePinPlan assignment.

#include "util/topo.h"

#include <filesystem>
#include <fstream>
#include <string>

#include "gtest/gtest.h"

namespace daf {
namespace {

namespace fs = std::filesystem;

// Builds cpuN/topology/{physical_package_id,core_id} under `root`.
void AddCpu(const fs::path& root, uint32_t id, uint32_t package,
            uint32_t core, bool online = true) {
  const fs::path dir = root / ("cpu" + std::to_string(id)) / "topology";
  fs::create_directories(dir);
  std::ofstream(dir / "physical_package_id") << package << "\n";
  std::ofstream(dir / "core_id") << core << "\n";
  if (!online) {
    std::ofstream(dir.parent_path() / "online") << 0 << "\n";
  }
}

class TopoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::path(::testing::TempDir()) /
            ("topo_fixture_" +
             std::to_string(
                 ::testing::UnitTest::GetInstance()->random_seed()) +
             "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(root_);
    fs::create_directories(root_);
  }
  void TearDown() override { fs::remove_all(root_); }

  fs::path root_;
};

TEST_F(TopoTest, SingleSocketNoSmt) {
  for (uint32_t i = 0; i < 4; ++i) AddCpu(root_, i, 0, i);
  const HwTopology topo = HwTopology::FromSysfs(root_.string());
  ASSERT_TRUE(topo.from_sysfs);
  EXPECT_EQ(topo.num_sockets, 1u);
  EXPECT_EQ(topo.num_cores, 4u);
  ASSERT_EQ(topo.cpus.size(), 4u);
  for (uint32_t i = 0; i < 4; ++i) {
    EXPECT_EQ(topo.cpus[i].id, i);
    EXPECT_EQ(topo.cpus[i].socket, 0u);
    EXPECT_FALSE(topo.cpus[i].smt_sibling);
  }
}

TEST_F(TopoTest, DualSocketDenseRemap) {
  // Sparse, weird sysfs ids: packages 3 and 7, per-socket core ids
  // restarting at 0 — everything must re-map densely.
  AddCpu(root_, 0, 3, 0);
  AddCpu(root_, 1, 3, 1);
  AddCpu(root_, 2, 7, 0);
  AddCpu(root_, 3, 7, 1);
  const HwTopology topo = HwTopology::FromSysfs(root_.string());
  ASSERT_TRUE(topo.from_sysfs);
  EXPECT_EQ(topo.num_sockets, 2u);
  EXPECT_EQ(topo.num_cores, 4u);
  EXPECT_EQ(topo.cpus[0].socket, 0u);
  EXPECT_EQ(topo.cpus[1].socket, 0u);
  EXPECT_EQ(topo.cpus[2].socket, 1u);
  EXPECT_EQ(topo.cpus[3].socket, 1u);
  // (package 3, core 0) and (package 7, core 0) are distinct cores.
  EXPECT_NE(topo.cpus[0].core, topo.cpus[2].core);
}

TEST_F(TopoTest, SmtSiblingsDetected) {
  // The common Linux enumeration: cpu0-3 are core primaries, cpu4-7 their
  // hyperthread siblings (same core_id, higher cpu id).
  for (uint32_t i = 0; i < 4; ++i) AddCpu(root_, i, 0, i);
  for (uint32_t i = 0; i < 4; ++i) AddCpu(root_, 4 + i, 0, i);
  const HwTopology topo = HwTopology::FromSysfs(root_.string());
  ASSERT_EQ(topo.cpus.size(), 8u);
  EXPECT_EQ(topo.num_cores, 4u);
  for (uint32_t i = 0; i < 4; ++i) {
    EXPECT_FALSE(topo.cpus[i].smt_sibling) << "cpu" << i;
    EXPECT_TRUE(topo.cpus[4 + i].smt_sibling) << "cpu" << 4 + i;
    EXPECT_EQ(topo.cpus[i].core, topo.cpus[4 + i].core);
  }
  // Pin order places all four primaries before any sibling.
  const std::vector<uint32_t> order = topo.PinOrder();
  for (size_t i = 0; i < 4; ++i) EXPECT_LT(order[i], 4u) << "slot " << i;
}

TEST_F(TopoTest, PinOrderIsSocketMajor) {
  // Dual socket with SMT: socket 0 = cpus {0,1 primaries, 4,5 siblings},
  // socket 1 = {2,3 primaries, 6,7 siblings}.
  AddCpu(root_, 0, 0, 0);
  AddCpu(root_, 1, 0, 1);
  AddCpu(root_, 2, 1, 2);
  AddCpu(root_, 3, 1, 3);
  AddCpu(root_, 4, 0, 0);
  AddCpu(root_, 5, 0, 1);
  AddCpu(root_, 6, 1, 2);
  AddCpu(root_, 7, 1, 3);
  const HwTopology topo = HwTopology::FromSysfs(root_.string());
  const std::vector<uint32_t> order = topo.PinOrder();
  const std::vector<uint32_t> expected = {0, 1, 4, 5, 2, 3, 6, 7};
  EXPECT_EQ(order, expected);
}

TEST_F(TopoTest, OfflineCpusSkipped) {
  AddCpu(root_, 0, 0, 0);
  AddCpu(root_, 1, 0, 1);
  AddCpu(root_, 2, 0, 2, /*online=*/false);
  const HwTopology topo = HwTopology::FromSysfs(root_.string());
  ASSERT_TRUE(topo.from_sysfs);
  EXPECT_EQ(topo.cpus.size(), 2u);
}

TEST_F(TopoTest, MissingSysfsFallsBackFlat) {
  const HwTopology topo =
      HwTopology::FromSysfs((root_ / "does_not_exist").string());
  EXPECT_FALSE(topo.from_sysfs);
  EXPECT_EQ(topo.num_sockets, 1u);
  EXPECT_GE(topo.cpus.size(), 1u);  // never empty, never throws
}

TEST_F(TopoTest, MalformedTopologyFilesFallBackFlat) {
  const fs::path dir = root_ / "cpu0" / "topology";
  fs::create_directories(dir);
  std::ofstream(dir / "physical_package_id") << "not-a-number\n";
  std::ofstream(dir / "core_id") << "-5\n";
  const HwTopology topo = HwTopology::FromSysfs(root_.string());
  EXPECT_FALSE(topo.from_sysfs);
  EXPECT_GE(topo.cpus.size(), 1u);
}

TEST(TopoFlatTest, FlatShapes) {
  const HwTopology topo = HwTopology::Flat(3);
  EXPECT_EQ(topo.num_sockets, 1u);
  EXPECT_EQ(topo.num_cores, 3u);
  EXPECT_EQ(topo.cpus.size(), 3u);
  EXPECT_EQ(HwTopology::Flat(0).cpus.size(), 1u);  // clamped
}

TEST(TopoGetTest, MachineTopologyIsSane) {
  const HwTopology& topo = HwTopology::Get();
  EXPECT_GE(topo.cpus.size(), 1u);
  EXPECT_GE(topo.num_sockets, 1u);
}

TEST_F(TopoTest, MakePinPlanAssignsAndWraps) {
  AddCpu(root_, 0, 0, 0);
  AddCpu(root_, 1, 0, 1);
  AddCpu(root_, 2, 1, 2);
  AddCpu(root_, 3, 1, 3);
  const HwTopology topo = HwTopology::FromSysfs(root_.string());

  const PinPlan plan = MakePinPlan(topo, 6, /*pin=*/true);
  ASSERT_TRUE(plan.active);
  ASSERT_EQ(plan.cpu.size(), 6u);
  // Socket-major order 0,1,2,3 then wrap.
  EXPECT_EQ(plan.cpu[0], 0);
  EXPECT_EQ(plan.cpu[1], 1);
  EXPECT_EQ(plan.cpu[2], 2);
  EXPECT_EQ(plan.cpu[3], 3);
  EXPECT_EQ(plan.cpu[4], 0);

  // Disabled pinning and single-cpu topologies are inactive but still
  // sized, with every worker unpinned.
  const PinPlan off = MakePinPlan(topo, 4, /*pin=*/false);
  EXPECT_FALSE(off.active);
  EXPECT_EQ(off.cpu, std::vector<int>(4, -1));
  const PinPlan single = MakePinPlan(HwTopology::Flat(1), 4, /*pin=*/true);
  EXPECT_FALSE(single.active);
}

TEST(TopoPinTest, PinCurrentThreadRoundTrips) {
  const HwTopology& topo = HwTopology::Get();
  // Pinning to the first known cpu must succeed on Linux; a bad cpu id
  // must fail without crashing.
  EXPECT_TRUE(PinCurrentThreadToCpu(static_cast<int>(topo.cpus[0].id)));
  EXPECT_FALSE(PinCurrentThreadToCpu(-1));
}

}  // namespace
}  // namespace daf
