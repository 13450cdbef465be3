// Per-layer measurement for the traced run, taken from outside the
// simulator: wrappers around the public EventSource and MemorySystem
// interfaces time every call the engine makes into the trace and protocol
// layers, and the Cache, DirectoryStore and SharerFormat layers are timed
// by replaying the cell's own recorded access stream into fresh instances.
//
// Span durations are steady_clock differences minus the calibrated
// duration of an empty span (the clock's own cost), so a layer's number is
// the time its call took, not the time of the clock reads around it.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "protocol/system.hpp"
#include "trace/event_source.hpp"

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Cost of the instrumentation itself, measured once per process by
/// driving the wrappers below over a source and a system that do nothing.
struct Overhead {
  /// Mean duration an empty span reports (the part of the clock reads that
  /// falls inside the measured interval).
  double inside_ns = 0.0;
  /// Mean per-call cost of each wrapper that falls outside its measured
  /// interval (clock reads and bookkeeping), and so lands in the self time
  /// of the enclosing sim.run span.
  double next_outside_ns = 0.0;
  double access_outside_ns = 0.0;
};
Overhead calibrate_overhead();

/// Latency histogram with 1 ns buckets up to 8 us plus an overflow bucket,
/// so percentiles of short calls are exact; small enough to stay in cache
/// beside the simulator's own working set.
class NsHistogram {
 public:
  NsHistogram() : counts_(kBuckets + 1, 0) {}
  void add(std::int64_t ns);
  void merge(const NsHistogram& other);
  std::uint64_t samples() const { return samples_; }
  /// Nearest-rank percentile in ns (q in [0, 100]); 0 when empty.
  double percentile(double q) const;

 private:
  static constexpr std::int64_t kBuckets = 1 << 13;
  std::vector<std::uint64_t> counts_;
  std::uint64_t samples_ = 0;
};

/// One shared-data access as the protocol saw it.
struct AccessRecord {
  dircc::BlockAddr block = 0;
  std::uint16_t proc = 0;
  bool write = false;
  /// 0 = cache hit, 1 = miss, 2 = miss that displaced a sparse entry.
  std::uint8_t outcome = 0;
};

/// A recorded span. `id` is the access the span belongs to (the number of
/// accesses the cell had issued when it started); cell and sim.run spans
/// carry the cell's access count instead.
struct Span {
  const char* name = "";
  const char* parent = "";
  std::uint64_t id = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Everything the wrappers record for one traced cell run.
struct CellTrace {
  std::uint64_t next_calls = 0;
  std::int64_t next_ns = 0;  ///< summed measured next() durations
  std::uint64_t access_calls = 0;
  std::int64_t access_ns = 0;  ///< summed measured access() durations
  NsHistogram hit, miss, victim_miss;
  std::vector<AccessRecord> stream;
  std::vector<Span> spans;  ///< bounded deterministic sample
};

/// True for the access ids whose full spans are kept: the first 32 of a
/// cell and every 65536th after that.
inline bool sampled(std::uint64_t id) { return id < 32 || id % 65536 == 0; }

/// Spans kept per cell at most, whatever the run length.
inline constexpr std::size_t kMaxSpans = 4096;

/// Times every next() of the wrapped source.
class TracedSource final : public dircc::EventSource {
 public:
  TracedSource(dircc::EventSource& inner, CellTrace& trace)
      : inner_(inner), trace_(trace) {}

  const std::string& app_name() const override { return inner_.app_name(); }
  int num_procs() const override { return inner_.num_procs(); }
  int block_size() const override { return inner_.block_size(); }
  bool next(dircc::ProcId proc, dircc::TraceEvent& ev) override;
  std::uint64_t events_pulled() const override {
    return inner_.events_pulled();
  }

 private:
  dircc::EventSource& inner_;
  CellTrace& trace_;
};

/// Times every access() of the wrapped system and classifies it from the
/// deltas of the public ProtocolStats counters.
class TracedSystem final : public dircc::MemorySystem {
 public:
  TracedSystem(dircc::MemorySystem& inner, CellTrace& trace)
      : inner_(inner), trace_(trace) {}

  dircc::Cycle access(dircc::ProcId proc, dircc::BlockAddr block,
                      bool is_write, dircc::Cycle now) override;
  using dircc::MemorySystem::access;
  int num_procs() const override { return inner_.num_procs(); }
  int block_size() const override { return inner_.block_size(); }
  dircc::NodeId cluster_of(dircc::ProcId proc) const override {
    return inner_.cluster_of(proc);
  }
  const dircc::ProtocolStats& stats() const override {
    return inner_.stats();
  }
  dircc::CacheStats aggregate_cache_stats() const override {
    return inner_.aggregate_cache_stats();
  }

 private:
  dircc::MemorySystem& inner_;
  CellTrace& trace_;
};

/// Calls timed by replaying a recorded stream, and their summed time.
struct ReplayCosts {
  std::uint64_t lookups = 0;  ///< Cache read_lookup / write_lookup
  std::uint64_t allocs = 0;   ///< DirectoryStore::find_or_alloc
  std::uint64_t adds = 0;     ///< SharerFormat::add_sharer
  std::uint64_t collects = 0; ///< SharerFormat::collect_targets
  std::int64_t lookup_ns = 0;
  std::int64_t alloc_ns = 0;
  std::int64_t add_ns = 0;
  std::int64_t collect_ns = 0;

  ReplayCosts& operator+=(const ReplayCosts& other);
};

/// Replays `stream` into fresh caches of `config`'s geometry, and its
/// misses into a fresh home-level DirectoryLevel (store and sharer format)
/// of the same configuration.
ReplayCosts replay(const std::vector<AccessRecord>& stream,
                   const dircc::SystemConfig& config);

}  // namespace perfbench
