#ifndef DAF_UTIL_TOPO_H_
#define DAF_UTIL_TOPO_H_

#include <cstdint>
#include <string>
#include <vector>

namespace daf {

/// Hardware topology: which logical CPUs exist, which socket and physical
/// core each belongs to, and which are SMT siblings. Read once from Linux
/// sysfs (`/sys/devices/system/cpu`); any parse problem degrades to a flat
/// single-socket layout sized by std::thread::hardware_concurrency — the
/// constructors never throw and never return an empty topology.
struct HwTopology {
  struct Cpu {
    uint32_t id = 0;           // kernel logical cpu id (the N of cpuN)
    uint32_t socket = 0;       // dense socket index in [0, num_sockets)
    uint32_t core = 0;         // dense physical-core index in [0, num_cores)
    bool smt_sibling = false;  // not the lowest-id thread of its core
  };

  std::vector<Cpu> cpus;  // sorted by id
  uint32_t num_sockets = 1;
  uint32_t num_cores = 0;
  bool from_sysfs = false;  // true when parsed from a real sysfs tree

  /// A synthetic single-socket topology with `num_cpus` independent cores
  /// (clamped to at least 1). The universal fallback.
  static HwTopology Flat(uint32_t num_cpus);

  /// Parses a sysfs cpu tree (`root` contains cpu0, cpu1, ... directories
  /// with topology/physical_package_id and topology/core_id). Package and
  /// core ids are densely re-mapped; the lowest-id thread of each
  /// (socket, core) pair is the primary, later ones are SMT siblings.
  /// Falls back to Flat on any error. `root` is a parameter so tests can
  /// point it at fixture trees.
  static HwTopology FromSysfs(const std::string& root);

  /// The machine topology, parsed once per process from the real sysfs.
  static const HwTopology& Get();

  /// Logical cpu ids in pinning order: socket-major, physical cores before
  /// their SMT siblings within each socket — so k workers on one socket
  /// land on k distinct cores before any hyperthread pair doubles up.
  std::vector<uint32_t> PinOrder() const;
};

/// A worker -> cpu assignment produced by MakePinPlan. When inactive
/// (pinning disabled, or nothing to gain on a single-cpu host) `cpu` holds
/// -1s; it is always sized to the worker count.
struct PinPlan {
  bool active = false;
  std::vector<int> cpu;  // per worker; -1 = unpinned
};

/// Assigns `num_workers` workers to cpus in PinOrder (wrapping when
/// oversubscribed). Inactive when `pin` is false or the topology has at
/// most one cpu.
PinPlan MakePinPlan(const HwTopology& topo, uint32_t num_workers, bool pin);

/// Pins the calling thread to one logical cpu. Returns false (and leaves
/// affinity unchanged) on failure or on non-Linux builds.
bool PinCurrentThreadToCpu(int cpu);

}  // namespace daf

#endif  // DAF_UTIL_TOPO_H_
