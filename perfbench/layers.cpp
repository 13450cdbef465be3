#include "layers.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "cache/cache.hpp"
#include "directory/level.hpp"

namespace perfbench {
namespace {

using namespace dircc;

/// Calls per timed chunk in the replays: long enough that the two clock
/// reads around a chunk are noise, short enough to keep per-call work
/// separable from the untimed bookkeeping between chunks.
constexpr std::size_t kChunk = 256;

/// Keeps replay results observable so the timed calls are not elided.
volatile std::uint64_t g_sink = 0;

/// A source and a system that do no work, for measuring the wrappers.
class NullSource final : public EventSource {
 public:
  const std::string& app_name() const override { return name_; }
  int num_procs() const override { return 1; }
  int block_size() const override { return 16; }
  bool next(ProcId, TraceEvent& ev) override {
    ev = TraceEvent::read(0);
    return true;
  }
  std::uint64_t events_pulled() const override { return 0; }

 private:
  std::string name_ = "null";
};

class NullSystem final : public MemorySystem {
 public:
  Cycle access(ProcId, BlockAddr, bool, Cycle) override { return 1; }
  using MemorySystem::access;
  int num_procs() const override { return 1; }
  int block_size() const override { return 16; }
  NodeId cluster_of(ProcId) const override { return 0; }
  const ProtocolStats& stats() const override { return stats_; }
  CacheStats aggregate_cache_stats() const override { return {}; }

 private:
  ProtocolStats stats_;
};

}  // namespace

void NsHistogram::add(std::int64_t ns) {
  const std::int64_t bucket = std::clamp<std::int64_t>(ns, 0, kBuckets);
  ++counts_[static_cast<std::size_t>(bucket)];
  ++samples_;
}

void NsHistogram::merge(const NsHistogram& other) {
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    counts_[i] += other.counts_[i];
  }
  samples_ += other.samples_;
}

double NsHistogram::percentile(double q) const {
  if (samples_ == 0) {
    return 0.0;
  }
  const auto rank = static_cast<std::uint64_t>(
      std::max(1.0, std::ceil(q / 100.0 * static_cast<double>(samples_))));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    seen += counts_[i];
    if (seen >= rank) {
      return static_cast<double>(i);
    }
  }
  return static_cast<double>(kBuckets);
}

bool TracedSource::next(ProcId proc, TraceEvent& ev) {
  const std::int64_t t0 = now_ns();
  const bool more = inner_.next(proc, ev);
  const std::int64_t t1 = now_ns();
  ++trace_.next_calls;
  trace_.next_ns += t1 - t0;
  if (sampled(trace_.access_calls) && trace_.spans.size() < kMaxSpans) {
    trace_.spans.push_back(
        {"trace.next", "sim.run", trace_.access_calls, t0, t1});
  }
  return more;
}

Cycle TracedSystem::access(ProcId proc, BlockAddr block, bool is_write,
                           Cycle now) {
  const ProtocolStats& stats = inner_.stats();
  const std::uint64_t hits = stats.cache_hits;
  const std::uint64_t victims = stats.sparse_replacements;
  const std::int64_t t0 = now_ns();
  const Cycle latency = inner_.access(proc, block, is_write, now);
  const std::int64_t t1 = now_ns();
  const std::int64_t ns = t1 - t0;
  std::uint8_t outcome = 0;
  if (stats.cache_hits != hits) {
    trace_.hit.add(ns);
  } else if (stats.sparse_replacements != victims) {
    outcome = 2;
    trace_.victim_miss.add(ns);
  } else {
    outcome = 1;
    trace_.miss.add(ns);
  }
  const std::uint64_t id = trace_.access_calls++;
  trace_.access_ns += ns;
  trace_.stream.push_back(
      {block, static_cast<std::uint16_t>(proc), is_write, outcome});
  if (sampled(id) && trace_.spans.size() < kMaxSpans) {
    trace_.spans.push_back({"protocol.access", "sim.run", id, t0, t1});
  }
  return latency;
}

namespace {

Overhead measure_overhead() {
  constexpr int kIters = 100000;
  Overhead cost;
  std::int64_t inside = 0;
  for (int i = 0; i < kIters; ++i) {
    const std::int64_t t0 = now_ns();
    inside += now_ns() - t0;
  }
  cost.inside_ns = static_cast<double>(inside) / kIters;

  // Start past the sampled ids, as almost every call of a real run is.
  CellTrace scratch;
  scratch.access_calls = 32;
  scratch.stream.reserve(kIters);
  NullSource null_source;
  TracedSource source(null_source, scratch);
  TraceEvent ev;
  std::int64_t begin = now_ns();
  for (int i = 0; i < kIters; ++i) {
    source.next(0, ev);
  }
  std::int64_t total = now_ns() - begin;
  cost.next_outside_ns =
      std::max(0.0, static_cast<double>(total - scratch.next_ns) / kIters);

  NullSystem null_system;
  TracedSystem system(null_system, scratch);
  begin = now_ns();
  for (int i = 0; i < kIters; ++i) {
    system.access(0, static_cast<BlockAddr>(i), false, 0);
  }
  total = now_ns() - begin;
  cost.access_outside_ns =
      std::max(0.0, static_cast<double>(total - scratch.access_ns) / kIters);
  return cost;
}

}  // namespace

Overhead calibrate_overhead() {
  // Host interference only adds time, so the cheapest of a few rounds is
  // the instrumentation's own cost. Erring low keeps the corrected self
  // time an upper bound, never negative.
  Overhead cost = measure_overhead();
  for (int round = 1; round < 5; ++round) {
    const Overhead again = measure_overhead();
    cost.inside_ns = std::min(cost.inside_ns, again.inside_ns);
    cost.next_outside_ns = std::min(cost.next_outside_ns, again.next_outside_ns);
    cost.access_outside_ns =
        std::min(cost.access_outside_ns, again.access_outside_ns);
  }
  return cost;
}

ReplayCosts& ReplayCosts::operator+=(const ReplayCosts& other) {
  lookups += other.lookups;
  allocs += other.allocs;
  adds += other.adds;
  collects += other.collects;
  lookup_ns += other.lookup_ns;
  alloc_ns += other.alloc_ns;
  add_ns += other.add_ns;
  collect_ns += other.collect_ns;
  return *this;
}

ReplayCosts replay(const std::vector<AccessRecord>& stream,
                   const SystemConfig& config) {
  ReplayCosts costs;

  // Cache layer: every access's lookup, timed in chunks; the fills a miss
  // needs run untimed between chunks.
  {
    std::vector<Cache> caches;
    for (int p = 0; p < config.num_procs; ++p) {
      caches.emplace_back(config.cache_lines_per_proc, config.cache_assoc);
    }
    bool hit[kChunk];
    std::optional<EvictedLine> evicted;
    for (std::size_t begin = 0; begin < stream.size(); begin += kChunk) {
      const std::size_t end = std::min(stream.size(), begin + kChunk);
      const std::int64_t t0 = now_ns();
      for (std::size_t i = begin; i < end; ++i) {
        const AccessRecord& rec = stream[i];
        Cache& cache = caches[rec.proc];
        hit[i - begin] = rec.write ? cache.write_lookup(rec.block) !=
                                         Cache::WriteLookup::kMiss
                                   : cache.read_lookup(rec.block);
      }
      costs.lookup_ns += now_ns() - t0;
      for (std::size_t i = begin; i < end; ++i) {
        const AccessRecord& rec = stream[i];
        Cache& cache = caches[rec.proc];
        if (!hit[i - begin] && cache.probe(rec.block) == LineState::kInvalid) {
          cache.fill(rec.block,
                     rec.write ? LineState::kModified : LineState::kShared, 0,
                     evicted);
        }
      }
    }
    costs.lookups = stream.size();
  }

  // Directory layer: the misses, against the home level the protocol
  // consults first (the flat directory, or the inter-chip level).
  const bool hier = config.hierarchy.chips > 1;
  const int clusters = config.num_clusters();
  const auto divisor = static_cast<std::uint64_t>(clusters);
  const SchemeConfig& scheme = hier ? config.hierarchy.inter : config.scheme;
  const StoreConfig& store = hier ? config.hierarchy.inter_store : config.store;
  const int clusters_per_chip = hier ? clusters / config.hierarchy.chips : 0;
  std::vector<const AccessRecord*> misses;
  for (const AccessRecord& rec : stream) {
    if (rec.outcome != 0) {
      misses.push_back(&rec);
    }
  }
  const auto home_of = [&](BlockAddr block) {
    return static_cast<int>(block % divisor);
  };
  const auto node_of = [&](const AccessRecord& rec) {
    const NodeId cluster = rec.proc / config.procs_per_cluster;
    return static_cast<NodeId>(hier ? cluster / clusters_per_chip : cluster);
  };
  {
    DirectoryLevel level(scheme, store, clusters, config.seed, divisor);
    std::optional<VictimEntry> victim;
    for (std::size_t begin = 0; begin < misses.size(); begin += kChunk) {
      const std::size_t end = std::min(misses.size(), begin + kChunk);
      const std::int64_t t0 = now_ns();
      for (std::size_t i = begin; i < end; ++i) {
        const BlockAddr block = misses[i]->block;
        g_sink = g_sink + level.store(home_of(block))
                              .find_or_alloc(block, victim)
                              ->sharers.ptr_count;
      }
      costs.alloc_ns += now_ns() - t0;
    }
    costs.allocs = misses.size();
  }

  // Sharer-format layer: the entry state each miss found, rebuilt untimed
  // (reads add the requester, writes leave it the sole sharer), then
  // add_sharer timed over the reads and collect_targets over the writes.
  {
    DirectoryLevel level(scheme, store, clusters, config.seed, divisor);
    const SharerFormat& format = level.format();
    std::vector<SharerRepr> before;
    before.reserve(misses.size());
    std::optional<VictimEntry> victim;
    for (const AccessRecord* rec : misses) {
      DirEntry* entry =
          level.store(home_of(rec->block)).find_or_alloc(rec->block, victim);
      before.push_back(entry->sharers);
      if (rec->write) {
        entry->sharers.reset();
      }
      format.add_sharer(entry->sharers, node_of(*rec));
    }
    std::vector<NodeId> targets;
    targets.reserve(static_cast<std::size_t>(format.num_nodes()));
    for (std::size_t begin = 0; begin < misses.size(); begin += kChunk) {
      const std::size_t end = std::min(misses.size(), begin + kChunk);
      std::int64_t t0 = now_ns();
      for (std::size_t i = begin; i < end; ++i) {
        if (!misses[i]->write) {
          SharerRepr repr = before[i];
          g_sink = g_sink + format.add_sharer(repr, node_of(*misses[i]));
          ++costs.adds;
        }
      }
      costs.add_ns += now_ns() - t0;
      t0 = now_ns();
      for (std::size_t i = begin; i < end; ++i) {
        if (misses[i]->write) {
          format.collect_targets(before[i], node_of(*misses[i]), targets);
          g_sink = g_sink + targets.size();
          targets.clear();
          ++costs.collects;
        }
      }
      costs.collect_ns += now_ns() - t0;
    }
  }
  return costs;
}

}  // namespace perfbench
