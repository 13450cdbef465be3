#include "workloads.hpp"

#include <algorithm>
#include <cmath>

#include "directory/format.hpp"
#include "trace/datacenter.hpp"
#include "trace/generators.hpp"

namespace perfbench {
namespace {

using namespace dircc;

constexpr int kProcs = 32;
constexpr int kBlockSize = 16;

SystemConfig machine(const SchemeConfig& scheme,
                     std::uint64_t cache_lines_per_proc,
                     std::uint64_t seed) {
  SystemConfig config;
  config.num_procs = kProcs;
  config.procs_per_cluster = 1;
  config.cache_lines_per_proc = cache_lines_per_proc;
  config.cache_assoc = 4;
  config.block_size = kBlockSize;
  config.scheme = scheme;
  config.seed = seed;
  return config;
}

/// The paper's schemes at the ~17-bit directory budget: Dir32, Dir3CV2,
/// Dir3B and, with `with_nb`, Dir3NB.
std::vector<SchemeConfig> schemes(bool with_nb) {
  std::vector<SchemeConfig> out = {SchemeConfig::full(kProcs),
                                   SchemeConfig::coarse(kProcs, 3, 2),
                                   SchemeConfig::broadcast(kProcs, 3)};
  if (with_nb) {
    out.push_back(SchemeConfig::no_broadcast(kProcs, 3));
  }
  return out;
}

/// The Figure 7-10 machine (1024-line caches, dense store, analytic
/// backend) over `apps` x the four schemes.
void fig07_10(const std::vector<AppKind>& apps, std::uint64_t seed,
              double scale, Workload& out) {
  for (const AppKind app : apps) {
    const int input = static_cast<int>(out.inputs.size());
    out.inputs.push_back([app, seed, scale] {
      return generate_app(app, kProcs, kBlockSize, seed, scale);
    });
    for (const SchemeConfig& scheme : schemes(true)) {
      Cell cell;
      cell.key = std::string(app_name(app)) + "/" + make_format(scheme)->name();
      cell.system = machine(scheme, 1024, seed);
      cell.input = input;
      out.cells.push_back(std::move(cell));
    }
  }
}

/// Figure 11 shaping: LU n=160 on 48-line caches (data set ~3x the cache
/// space), a size-factor-1 sparse store (4-way, random replacement) and
/// the queued latency backend.
void sparse_queued(std::uint64_t seed, double scale, Workload& out) {
  LuConfig lu;
  lu.procs = kProcs;
  lu.block_size = kBlockSize;
  lu.n = std::max(32, static_cast<int>(std::lround(160 * std::cbrt(scale))) &
                          ~1);
  lu.seed = seed;
  out.inputs.push_back([lu] { return generate_lu(lu); });
  constexpr std::uint64_t kCacheLines = 48;
  constexpr std::uint64_t kAssoc = 4;
  for (const SchemeConfig& scheme : schemes(false)) {
    Cell cell;
    cell.key = "LU/" + make_format(scheme)->name();
    cell.system = machine(scheme, kCacheLines, seed);
    cell.system.backend = BackendKind::kQueued;
    // Size factor 1: total entries equal total cache lines. With one
    // processor per cluster that is one cache's lines per home (48, a whole
    // number of 4-way sets).
    cell.system.store.sparse = true;
    cell.system.store.sparse_entries = kCacheLines;
    cell.system.store.sparse_assoc = static_cast<int>(kAssoc);
    cell.system.store.policy = ReplPolicy::kRandom;
    cell.input = 0;
    out.cells.push_back(std::move(cell));
  }
}

/// kv, queue and oltp at 256 clients, streamed (nothing materialized), on
/// a 4-chip two-level machine: inter-chip coarse vector over full-map
/// intra-chip directories, dense stores.
void datacenter_chips(std::uint64_t seed, double scale, Workload& out) {
  constexpr int kChips = 4;
  constexpr std::uint64_t kClients = 256;
  const double ops_scale = 4.0 * scale;
  for (const DatacenterKind kind :
       {DatacenterKind::kKv, DatacenterKind::kQueue, DatacenterKind::kOltp}) {
    Cell cell;
    cell.key = std::string(datacenter_name(kind)) + "/chips4";
    cell.system = machine(SchemeConfig::full(kProcs), 256, seed);
    cell.system.hierarchy.chips = kChips;
    cell.system.hierarchy.inter = SchemeConfig::coarse(kChips, 3, 2);
    cell.system.hierarchy.intra = SchemeConfig::full(kProcs / kChips);
    cell.stream = [kind, seed, ops_scale] {
      return make_datacenter_source(kind, kProcs, kBlockSize, kClients, seed,
                                    ops_scale);
    };
    out.cells.push_back(std::move(cell));
  }
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "fig07_10_hits", "fig07_10_misses", "sparse_queued",
      "datacenter_chips"};
  return names;
}

bool make_workload(const std::string& name, std::uint64_t seed, double scale,
                   Workload& out) {
  out = Workload{};
  out.name = name;
  if (name == "fig07_10_hits") {
    out.property = Property::kHighHitRatio;
    fig07_10({AppKind::kLu, AppKind::kDwf}, seed, scale, out);
  } else if (name == "fig07_10_misses") {
    out.property = Property::kLowHitRatio;
    fig07_10({AppKind::kMp3d, AppKind::kLocusRoute}, seed, scale, out);
  } else if (name == "sparse_queued") {
    out.property = Property::kSparseVictimQueued;
    sparse_queued(seed, scale, out);
  } else if (name == "datacenter_chips") {
    out.property = Property::kStreamedChips;
    datacenter_chips(seed, scale, out);
  } else {
    return false;
  }
  return true;
}

}  // namespace perfbench
