// The benchmark's workloads: named sets of simulator cells, each cell one
// (input trace, machine configuration) pair run through the serial engine.
//
// Every workload uses the paper's Section 5 machine shape (32 processors,
// one per cluster, 16-byte blocks) and takes its generator seed from the
// command line; README.md records why each one was chosen and which layer
// it stresses or bypasses.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "protocol/system.hpp"
#include "trace/event.hpp"
#include "trace/event_source.hpp"

namespace perfbench {

/// The property a workload was chosen for; a run whose property fails
/// counts as failed.
enum class Property {
  kHighHitRatio,      ///< aggregate cache hit ratio at least 0.5
  kLowHitRatio,       ///< aggregate cache hit ratio at most 0.25
  kSparseVictimQueued,///< replacements and link/home waits in every cell
  kStreamedChips,     ///< nothing materialized, chip traffic and locks
};

struct Cell {
  std::string key;
  dircc::SystemConfig system;
  /// Index into Workload::inputs of the materialized trace this cell
  /// replays, or -1 when the cell streams from `stream`.
  int input = -1;
  /// Streaming cells: builds a fresh bounded-lookahead source per run.
  std::function<std::unique_ptr<dircc::EventSource>()> stream;
};

struct Workload {
  std::string name;
  Property property = Property::kHighHitRatio;
  /// Materialized trace builders, shared by the cells that name them.
  std::vector<std::function<dircc::ProgramTrace()>> inputs;
  std::vector<Cell> cells;
};

/// Names accepted by make_workload, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// Builds workload `name` for generator seed `seed`. `scale` in (0, 1]
/// shrinks every input (1 is the benchmark size; the self-test runs tiny
/// scales). Returns false for an unknown name.
bool make_workload(const std::string& name, std::uint64_t seed, double scale,
                   Workload& out);

}  // namespace perfbench
