#include "util/topo.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <thread>
#include <utility>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace daf {
namespace {

// Parses a sysfs file holding a single unsigned integer. Returns false on
// missing files or junk content.
bool ReadUint(const std::filesystem::path& path, uint32_t* out) {
  std::ifstream in(path);
  if (!in.is_open()) return false;
  long long value = -1;
  in >> value;
  if (in.fail() || value < 0) return false;
  *out = static_cast<uint32_t>(value);
  return true;
}

uint32_t FallbackCpuCount() {
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<uint32_t>(hc);
}

}  // namespace

HwTopology HwTopology::Flat(uint32_t num_cpus) {
  HwTopology topo;
  if (num_cpus == 0) num_cpus = 1;
  topo.cpus.resize(num_cpus);
  for (uint32_t i = 0; i < num_cpus; ++i) {
    topo.cpus[i].id = i;
    topo.cpus[i].socket = 0;
    topo.cpus[i].core = i;
  }
  topo.num_sockets = 1;
  topo.num_cores = num_cpus;
  topo.from_sysfs = false;
  return topo;
}

HwTopology HwTopology::FromSysfs(const std::string& root) {
  namespace fs = std::filesystem;
  struct RawCpu {
    uint32_t id, package, core;
  };
  std::vector<RawCpu> raw;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(root, ec)) {
    if (ec) break;
    const std::string name = entry.path().filename().string();
    // Only cpuN directories; skips cpufreq, cpuidle, online, ...
    if (name.size() <= 3 || name.compare(0, 3, "cpu") != 0) continue;
    uint32_t id = 0;
    bool numeric = true;
    for (size_t i = 3; i < name.size(); ++i) {
      if (name[i] < '0' || name[i] > '9') {
        numeric = false;
        break;
      }
      id = id * 10 + static_cast<uint32_t>(name[i] - '0');
    }
    if (!numeric) continue;
    // Offline cpus expose an "online" flag of 0 and usually no topology
    // directory; skip them rather than failing the whole parse.
    uint32_t online = 1;
    if (ReadUint(entry.path() / "online", &online) && online == 0) continue;
    RawCpu cpu{id, 0, 0};
    if (!ReadUint(entry.path() / "topology" / "physical_package_id",
                  &cpu.package) ||
        !ReadUint(entry.path() / "topology" / "core_id", &cpu.core)) {
      continue;
    }
    raw.push_back(cpu);
  }
  if (raw.empty()) return Flat(FallbackCpuCount());

  std::sort(raw.begin(), raw.end(),
            [](const RawCpu& a, const RawCpu& b) { return a.id < b.id; });

  // Densely re-map package ids and (package, core) pairs: sysfs values are
  // arbitrary (core_id often restarts per socket, packages can be sparse).
  std::map<uint32_t, uint32_t> socket_of_package;
  std::map<std::pair<uint32_t, uint32_t>, uint32_t> core_of_pair;
  HwTopology topo;
  topo.cpus.reserve(raw.size());
  for (const RawCpu& r : raw) {
    Cpu cpu;
    cpu.id = r.id;
    cpu.socket = socket_of_package
                     .emplace(r.package,
                              static_cast<uint32_t>(socket_of_package.size()))
                     .first->second;
    const auto core_it = core_of_pair.emplace(
        std::make_pair(r.package, r.core),
        static_cast<uint32_t>(core_of_pair.size()));
    cpu.core = core_it.first->second;
    // raw is id-sorted, so the first thread seen on a core is its primary.
    cpu.smt_sibling = !core_it.second;
    topo.cpus.push_back(cpu);
  }
  topo.num_sockets = static_cast<uint32_t>(socket_of_package.size());
  topo.num_cores = static_cast<uint32_t>(core_of_pair.size());
  topo.from_sysfs = true;
  return topo;
}

const HwTopology& HwTopology::Get() {
  static const HwTopology topo = FromSysfs("/sys/devices/system/cpu");
  return topo;
}

std::vector<uint32_t> HwTopology::PinOrder() const {
  std::vector<const Cpu*> order;
  order.reserve(cpus.size());
  for (const Cpu& cpu : cpus) order.push_back(&cpu);
  std::sort(order.begin(), order.end(), [](const Cpu* a, const Cpu* b) {
    if (a->socket != b->socket) return a->socket < b->socket;
    if (a->smt_sibling != b->smt_sibling) return !a->smt_sibling;
    if (a->core != b->core) return a->core < b->core;
    return a->id < b->id;
  });
  std::vector<uint32_t> ids;
  ids.reserve(order.size());
  for (const Cpu* cpu : order) ids.push_back(cpu->id);
  return ids;
}

PinPlan MakePinPlan(const HwTopology& topo, uint32_t num_workers, bool pin) {
  PinPlan plan;
  plan.cpu.assign(num_workers, -1);
  if (!pin || topo.cpus.size() <= 1 || num_workers == 0) return plan;
  const std::vector<uint32_t> order = topo.PinOrder();
  plan.active = true;
  for (uint32_t w = 0; w < num_workers; ++w) {
    plan.cpu[w] = static_cast<int>(order[w % order.size()]);
  }
  return plan;
}

bool PinCurrentThreadToCpu(int cpu) {
#if defined(__linux__)
  if (cpu < 0) return false;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
#else
  (void)cpu;
  return false;
#endif
}

}  // namespace daf
