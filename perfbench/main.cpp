// Repository benchmark program (see README.md).
//
//   perfbench --workload fig07_10_hits --seed 1 --seconds 10 --trace 0
//
// Untraced mode (--trace 0) times the simulate phase of every cell of the
// workload, serially, for --seconds and prints the end-to-end metrics.
// Traced mode (--trace 1) runs the same cells through timing wrappers and
// prints the per-layer metrics. Either way every cell run's simulated
// statistics are hashed and checked: against the digests recorded for the
// default seed, and rep against rep on the run's own seed. The last line of
// standard output is one JSON object: {"correct", "attempted", "failed",
// "metrics"}.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "check/api.hpp"
#include "common/cli.hpp"
#include "layers.hpp"
#include "obs/trace_recorder.hpp"
#include "sim/engine.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace dircc;

/// Seed the expected digests are recorded for (the repo's bench seed).
constexpr std::uint64_t kDefaultSeed = 1990;
/// Seed never used while the benchmark was written; every run checks that
/// it also runs clean.
constexpr std::uint64_t kHeldOutSeed = 60221;
/// Set-up runs kSetupReps times before timing, then once per timed rep.
constexpr int kSetupReps = 7;
constexpr int kMinReps = 3;
/// Pulled events per timed segment of an untraced cell run (a few ms).
constexpr std::uint64_t kSegmentEvents = 1 << 16;

/// Keeps set-up results observable so the timed work is not elided.
volatile int g_keep = 0;

// ---------------------------------------------------------------------------
// Simulated-statistics digest
// ---------------------------------------------------------------------------

class Fnv {
 public:
  void add(std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (value >> (8 * i)) & 0xff;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void add(const MessageCounters& counters) {
    for (std::uint64_t count : counters.counts) {
      add(count);
    }
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// Hash of every simulated statistic a run produces.
std::uint64_t digest(const RunResult& r) {
  Fnv h;
  h.add(r.exec_cycles);
  const ProtocolStats& p = r.protocol;
  h.add(p.messages);
  h.add(p.inval_distribution.events());
  h.add(p.inval_distribution.total());
  for (std::uint64_t bin : p.inval_distribution.bins()) {
    h.add(bin);
  }
  for (std::uint64_t v :
       {p.accesses, p.cache_hits, p.read_transactions, p.write_transactions,
        p.ownership_transfers, p.extraneous_invalidations,
        p.nb_read_displacements, p.sharing_writebacks,
        p.dirty_eviction_writebacks, p.sparse_replacements,
        p.sparse_replacement_invals, p.replacement_hints_sent,
        p.local_transactions, p.remote2_transactions, p.remote3_transactions,
        p.contention_wait_cycles, p.link_wait_cycles, p.home_wait_cycles,
        static_cast<std::uint64_t>(p.chips), p.chip_local_transactions}) {
    h.add(v);
  }
  h.add(p.chip_messages);
  const CacheStats& c = r.cache;
  for (std::uint64_t v :
       {c.read_hits, c.read_misses, c.write_hits, c.write_upgrades,
        c.write_misses, c.evictions_clean, c.evictions_dirty,
        c.invalidations_received, c.invalidations_empty}) {
    h.add(v);
  }
  const SyncStats& s = r.sync;
  h.add(s.messages);
  for (std::uint64_t v :
       {s.barrier_episodes, s.lock_acquires, s.lock_contended, s.lock_retries,
        s.buffered_writes, s.buffer_stalls, s.fence_wait_cycles}) {
    h.add(v);
  }
  return h.value();
}

std::string hex(std::uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

std::string fmt_scale(double scale) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%g", scale);
  return buffer;
}

/// Expected digests: one "<workload> <seed> <scale> <cell> <hex>" per line.
std::map<std::string, std::string> load_expected(const std::string& path,
                                                 const std::string& workload,
                                                 double scale) {
  std::map<std::string, std::string> out;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string name, seed, sc, cell, digest_hex;
    if (fields >> name >> seed >> sc >> cell >> digest_hex &&
        name == workload && seed == std::to_string(kDefaultSeed) &&
        sc == fmt_scale(scale)) {
      out[cell] = digest_hex;
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Running cells
// ---------------------------------------------------------------------------

struct Inputs {
  std::vector<ProgramTrace> traces;
  std::uint64_t bytes() const {
    std::uint64_t total = 0;
    for (const ProgramTrace& trace : traces) {
      total += trace.total_events() * sizeof(TraceEvent);
    }
    return total;
  }
};

Inputs build_inputs(const Workload& workload) {
  Inputs inputs;
  for (const auto& build : workload.inputs) {
    inputs.traces.push_back(build());
  }
  return inputs;
}

std::unique_ptr<EventSource> source_for(const Cell& cell,
                                        const Inputs& inputs) {
  if (cell.stream) {
    return cell.stream();
  }
  return std::make_unique<MaterializedSource>(
      inputs.traces[static_cast<std::size_t>(cell.input)]);
}

struct CellRun {
  RunResult result;
  std::uint64_t digest = 0;
  std::uint64_t events = 0;
  std::int64_t sim_ns = 0;  ///< Engine construction + run()
  /// sim_ns split at every kSegmentEvents-th pulled event (untraced runs).
  std::vector<std::int64_t> segments_ns;
};

/// Reads the clock at every kSegmentEvents-th event pulled through it.
class SegmentClock final : public EventSource {
 public:
  SegmentClock(EventSource& inner, std::vector<std::int64_t>& marks)
      : inner_(inner), marks_(marks) {}

  const std::string& app_name() const override { return inner_.app_name(); }
  int num_procs() const override { return inner_.num_procs(); }
  int block_size() const override { return inner_.block_size(); }
  bool next(ProcId proc, TraceEvent& ev) override {
    if (++pulled_ % kSegmentEvents == 0) {
      marks_.push_back(now_ns());
    }
    return inner_.next(proc, ev);
  }
  std::uint64_t events_pulled() const override {
    return inner_.events_pulled();
  }

 private:
  EventSource& inner_;
  std::vector<std::int64_t>& marks_;
  std::uint64_t pulled_ = 0;
};

/// One cell on a fresh machine (caches and directories start empty, as in
/// the paper's method), timing only the simulate phase, in segments.
CellRun run_untraced(const Cell& cell, const Inputs& inputs) {
  CoherenceSystem system(cell.system);
  const std::unique_ptr<EventSource> source = source_for(cell, inputs);
  std::vector<std::int64_t> marks;
  SegmentClock clock(*source, marks);
  CellRun run;
  const std::int64_t t0 = now_ns();
  marks.push_back(t0);
  Engine engine(system, clock);
  run.result = engine.run();
  const std::int64_t t1 = now_ns();
  run.sim_ns = t1 - t0;
  marks.push_back(t1);
  for (std::size_t i = 1; i < marks.size(); ++i) {
    run.segments_ns.push_back(marks[i] - marks[i - 1]);
  }
  run.events = source->events_pulled();
  run.digest = digest(run.result);
  return run;
}

struct TracedRun {
  CellRun run;
  CellTrace trace;
  Span cell_span;
  Span run_span;
  StoreStats directory;  ///< summed over every store of both levels
};

void add_store(StoreStats& sum, const StoreStats& s) {
  sum.lookups += s.lookups;
  sum.hits += s.hits;
  sum.allocations += s.allocations;
  sum.replacements += s.replacements;
}

TracedRun run_traced(const Cell& cell, const Inputs& inputs) {
  TracedRun out;
  const std::int64_t cell_start = now_ns();
  CoherenceSystem system(cell.system);
  const std::unique_ptr<EventSource> source = source_for(cell, inputs);
  TracedSource traced_source(*source, out.trace);
  TracedSystem traced_system(system, out.trace);
  const std::int64_t t0 = now_ns();
  Engine engine(traced_system, traced_source);
  out.run.result = engine.run();
  const std::int64_t t1 = now_ns();
  out.run.sim_ns = t1 - t0;
  out.run.events = source->events_pulled();
  out.run.digest = digest(out.run.result);
  for (int home = 0; home < cell.system.num_clusters(); ++home) {
    add_store(out.directory, system.directory(home).stats());
  }
  for (int chip = 0; system.hierarchical() && chip < system.chips(); ++chip) {
    add_store(out.directory, system.intra_directory(chip).stats());
  }
  out.run_span = {"sim.run", "cell", out.trace.access_calls, t0, t1};
  out.cell_span = {"cell", "", out.trace.access_calls, cell_start, now_ns()};
  return out;
}

// ---------------------------------------------------------------------------
// Workload properties
// ---------------------------------------------------------------------------

struct Totals {
  std::uint64_t accesses = 0;
  std::uint64_t hits = 0;
  std::uint64_t chip_msgs = 0;
  std::uint64_t lock_acquires = 0;
  bool every_cell_victimizes_and_queues = true;
};

Totals totals(const std::vector<CellRun>& runs) {
  Totals t;
  for (const CellRun& run : runs) {
    const ProtocolStats& p = run.result.protocol;
    t.accesses += p.accesses;
    t.hits += p.cache_hits;
    t.chip_msgs += p.chip_messages.total();
    t.lock_acquires += run.result.sync.lock_acquires;
    if (p.sparse_replacements == 0 || p.link_wait_cycles == 0 ||
        p.home_wait_cycles == 0) {
      t.every_cell_victimizes_and_queues = false;
    }
  }
  return t;
}

/// The property the workload was chosen for, checked on one set of cell
/// runs; `input_bytes` is what the workload materialized.
bool property_holds(Property property, const std::vector<CellRun>& runs,
                    std::uint64_t input_bytes, std::string& why) {
  const Totals t = totals(runs);
  const double hit_ratio =
      t.accesses == 0 ? 0.0 : static_cast<double>(t.hits) / t.accesses;
  switch (property) {
    case Property::kHighHitRatio:
      why = "aggregate cache hit ratio " + std::to_string(hit_ratio) +
            " below 0.5";
      return hit_ratio >= 0.5;
    case Property::kLowHitRatio:
      why = "aggregate cache hit ratio " + std::to_string(hit_ratio) +
            " above 0.25";
      return hit_ratio <= 0.25;
    case Property::kSparseVictimQueued:
      why = "a cell ran without sparse replacements or queueing waits";
      return t.every_cell_victimizes_and_queues;
    case Property::kStreamedChips:
      why = "materialized input, no chip messages or no lock acquires";
      return input_bytes == 0 && t.chip_msgs > 0 && t.lock_acquires > 0;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Bookkeeping of checks
// ---------------------------------------------------------------------------

struct Gate {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t mismatched = 0;
  bool accounting_ok = true;
  std::vector<std::string> notes;

  /// Accounts one set of cell runs: each is compared with `reference`
  /// digests (when given), and all count as failed when the property does.
  void account(const Workload& workload, const std::vector<CellRun>& runs,
               const std::vector<std::string>* reference,
               std::uint64_t input_bytes, const std::string& what) {
    std::string why;
    const bool property_ok =
        property_holds(workload.property, runs, input_bytes, why);
    if (!property_ok) {
      notes.push_back(what + ": property failed: " + why);
    }
    for (std::size_t i = 0; i < runs.size(); ++i) {
      ++attempted;
      const bool mismatch =
          reference != nullptr && (*reference)[i] != hex(runs[i].digest);
      if (mismatch) {
        ++mismatched;
        notes.push_back(what + ": digest mismatch in " +
                        workload.cells[i].key + " (" + hex(runs[i].digest) +
                        " vs " + (*reference)[i] + ")");
      }
      if (mismatch || !property_ok) {
        ++failed;
      }
    }
  }
};

std::vector<std::string> digests_of(const std::vector<CellRun>& runs) {
  std::vector<std::string> out;
  for (const CellRun& run : runs) {
    out.push_back(hex(run.digest));
  }
  return out;
}

std::vector<CellRun> run_all(const Workload& workload, const Inputs& inputs) {
  std::vector<CellRun> runs;
  for (const Cell& cell : workload.cells) {
    runs.push_back(run_untraced(cell, inputs));
  }
  return runs;
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

std::string num(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

std::string quote(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out + "\"";
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2.0;
}

double load_1m() {
  double load[1] = {0.0};
  return getloadavg(load, 1) == 1 ? load[0] : -1.0;
}

double peak_rss_mib() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) {
    return 0.0;
  }
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string compiler() {
#if defined(__clang__)
  return "clang " + std::to_string(__clang_major__) + "." +
         std::to_string(__clang_minor__);
#elif defined(__GNUC__)
  return "gcc " + std::to_string(__GNUC__) + "." +
         std::to_string(__GNUC_MINOR__);
#else
  return "unknown";
#endif
}

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  double scale = 1.0;
  std::string expected;
  std::string record_expected;
  std::string spans_out;
  std::string git_sha;
  std::string source_hash;
};

std::string manifest(const Options& opt, double load_start, double load_end,
                     bool held_out_clean) {
  std::ostringstream out;
  out << "{\"manifest\": {\"build\": {\"git_sha\": " << quote(opt.git_sha)
      << ", \"source_hash\": " << quote(opt.source_hash)
      << ", \"build_type\": " << quote(DIRCC_BUILD_TYPE)
      << ", \"compiler\": " << quote(compiler())
      << ", \"dircc_obs\": " << DIRCC_OBS << ", \"dircc_check\": "
      << DIRCC_CHECK << ", \"obs_compiled\": "
      << (obs::compiled() ? "true" : "false")
      << ", \"check_compiled\": " << (check::compiled() ? "true" : "false")
      << "}, \"host\": {\"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
      << ", \"loadavg_1m_start\": " << num(load_start)
      << ", \"loadavg_1m_end\": " << num(load_end)
      << "}, \"run\": {\"workload\": " << quote(opt.workload)
      << ", \"seed\": " << opt.seed << ", \"seconds\": " << num(opt.seconds)
      << ", \"trace\": " << (opt.trace ? 1 : 0)
      << ", \"scale\": " << num(opt.scale)
      << ", \"default_seed\": " << kDefaultSeed
      << ", \"held_out_seed\": " << kHeldOutSeed
      << ", \"held_out_clean\": " << (held_out_clean ? "true" : "false")
      << "}}}";
  return out.str();
}

void write_spans(const std::string& path, const std::string& manifest_line,
                 const Workload& workload,
                 const std::vector<std::vector<Span>>& spans) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "perfbench: cannot write spans to " << path << "\n";
    return;
  }
  out << "{\"manifest_line\": " << manifest_line << ",\n\"spans\": [";
  bool first = true;
  for (std::size_t c = 0; c < spans.size(); ++c) {
    for (const Span& span : spans[c]) {
      out << (first ? "\n" : ",\n") << "{\"cell\": "
          << quote(workload.cells[c].key) << ", \"name\": "
          << quote(span.name) << ", \"parent\": " << quote(span.parent)
          << ", \"id\": " << span.id << ", \"start_ns\": " << span.start_ns
          << ", \"end_ns\": " << span.end_ns << "}";
      first = false;
    }
  }
  out << "\n]}\n";
}

// ---------------------------------------------------------------------------
// Modes
// ---------------------------------------------------------------------------

/// Set-up samples: trace build (or source construction, for streamed
/// cells) and CoherenceSystem construction, in seconds.
struct SetupSamples {
  std::vector<double> build, construct, total;
};

/// Builds the workload's inputs and constructs every cell's machine, as
/// one timed set-up sample; returns the inputs.
Inputs set_up(const Workload& workload, SetupSamples& samples) {
  const std::int64_t t0 = now_ns();
  Inputs inputs = build_inputs(workload);
  // Streamed cells build their source here; its events are generated
  // later, inside the timed loop.
  for (const Cell& cell : workload.cells) {
    if (cell.stream) {
      g_keep = cell.stream()->num_procs();
    }
  }
  const std::int64_t t1 = now_ns();
  for (const Cell& cell : workload.cells) {
    CoherenceSystem system(cell.system);
    g_keep = system.num_procs();
  }
  const std::int64_t t2 = now_ns();
  samples.build.push_back((t1 - t0) * 1e-9);
  samples.construct.push_back((t2 - t1) * 1e-9);
  samples.total.push_back((t2 - t0) * 1e-9);
  return inputs;
}

/// Simulates `workload` on `seed` once more, outside any timing, and
/// accounts it against `reference` digests (nullptr = property only).
void verify_pass(const Options& opt, std::uint64_t seed,
                 const std::vector<std::string>* reference,
                 const std::string& what, Gate& gate) {
  Workload workload;
  make_workload(opt.workload, seed, opt.scale, workload);
  const Inputs inputs = build_inputs(workload);
  gate.account(workload, run_all(workload, inputs), reference,
               inputs.bytes(), what);
}

/// Per-layer sums over the cells of the first traced rep.
struct LayerSums {
  std::vector<RunResult> results;
  NsHistogram hit, miss, victim_miss;
  std::uint64_t next_calls = 0;
  std::int64_t next_ns = 0;
  std::int64_t self_ns = 0;
  std::uint64_t events = 0;
  StoreStats directory;
  ReplayCosts replay;
  std::vector<std::vector<Span>> spans;
};

/// Folds one cell's first traced run into `sums`, after checking its span
/// accounting: the children fit inside sim.run and its self time, net of
/// the calibrated wrapper cost, is not negative.
void absorb(const TracedRun& traced, const Cell& cell,
            const Overhead& overhead, LayerSums& sums, Gate& gate) {
  const CellTrace& t = traced.trace;
  const std::int64_t children = t.next_ns + t.access_ns;
  const double self =
      static_cast<double>(traced.run.sim_ns - children) -
      overhead.next_outside_ns * static_cast<double>(t.next_calls) -
      overhead.access_outside_ns * static_cast<double>(t.access_calls);
  bool inside = children <= traced.run.sim_ns && self >= 0.0;
  for (const Span& span : t.spans) {
    inside = inside && span.start_ns >= traced.run_span.start_ns &&
             span.end_ns <= traced.run_span.end_ns;
  }
  if (!inside) {
    gate.accounting_ok = false;
    gate.notes.push_back("traced accounting failed in " + cell.key);
  }
  sums.results.push_back(traced.run.result);
  sums.hit.merge(t.hit);
  sums.miss.merge(t.miss);
  sums.victim_miss.merge(t.victim_miss);
  sums.next_calls += t.next_calls;
  sums.next_ns += t.next_ns;
  sums.self_ns += static_cast<std::int64_t>(self);
  sums.events += traced.run.events;
  add_store(sums.directory, traced.directory);
  sums.replay += replay(t.stream, cell.system);
  std::vector<Span> spans = {traced.cell_span, traced.run_span};
  spans.insert(spans.end(), t.spans.begin(), t.spans.end());
  sums.spans.push_back(std::move(spans));
}

std::vector<Metric> layer_metrics(const LayerSums& sums,
                                  const SetupSamples& setup,
                                  std::uint64_t input_bytes,
                                  double inside_ns, double trace_overhead) {
  std::uint64_t accesses = 0, hits = 0, reads = 0, writes = 0, evictions = 0,
                inval_empty = 0, inval_all = 0, inval_writes = 0,
                inval_total = 0, extraneous = 0, msgs = 0, link_wait = 0,
                home_wait = 0, chip_msgs = 0, locks = 0, contended = 0,
                barriers = 0, exec_cycles = 0;
  for (const RunResult& r : sums.results) {
    const ProtocolStats& p = r.protocol;
    accesses += p.accesses;
    hits += p.cache_hits;
    reads += p.read_transactions;
    writes += p.write_transactions;
    evictions += r.cache.evictions_clean + r.cache.evictions_dirty;
    inval_empty += r.cache.invalidations_empty;
    inval_all += r.cache.invalidations_empty + r.cache.invalidations_received;
    inval_writes += p.inval_distribution.events();
    inval_total += p.inval_distribution.total();
    extraneous += p.extraneous_invalidations;
    msgs += p.messages.total();
    link_wait += p.link_wait_cycles;
    home_wait += p.home_wait_cycles;
    chip_msgs += p.chip_messages.total();
    locks += r.sync.lock_acquires;
    contended += r.sync.lock_contended;
    barriers += r.sync.barrier_episodes;
    exec_cycles += r.exec_cycles;
  }
  const auto ratio = [](double a, double b) { return b == 0 ? 0.0 : a / b; };
  const auto count = [](std::uint64_t n) { return static_cast<double>(n); };
  // Span-based percentiles net of the clock's own cost; 0 with no samples.
  const auto pct = [inside_ns](const NsHistogram& h, double q) {
    return h.samples() == 0 ? 0.0 : h.percentile(q) - inside_ns;
  };
  const ReplayCosts& rp = sums.replay;
  const StoreStats& dir = sums.directory;
  return {
      {"trace.events", count(sums.next_calls), "count"},
      {"trace.next_ns", ratio(sums.next_ns, sums.next_calls) - inside_ns, "ns"},
      {"trace.build_s", median(setup.build), "s"},
      {"trace.bytes", count(input_bytes), "B"},
      {"sim.self_ns_per_event", ratio(sums.self_ns, sums.events), "ns"},
      {"sim.lock_acquires", count(locks), "count"},
      {"sim.lock_contended", count(contended), "count"},
      {"sim.barrier_episodes", count(barriers), "count"},
      {"sim.exec_cycles", count(exec_cycles), "cycles"},
      {"protocol.hit_ns_p50", pct(sums.hit, 50), "ns"},
      {"protocol.hit_ns_p99", pct(sums.hit, 99), "ns"},
      {"protocol.miss_ns_p50", pct(sums.miss, 50), "ns"},
      {"protocol.miss_ns_p99", pct(sums.miss, 99), "ns"},
      {"protocol.victim_miss_ns_p50", pct(sums.victim_miss, 50), "ns"},
      {"protocol.construct_s", median(setup.construct), "s"},
      {"protocol.read_transactions", count(reads), "count"},
      {"protocol.write_transactions", count(writes), "count"},
      {"cache.hit_ratio", ratio(hits, accesses), "ratio"},
      {"cache.evictions", count(evictions), "count"},
      {"cache.extraneous_inval_ratio", ratio(inval_empty, inval_all), "ratio"},
      {"cache.lookup_ns", ratio(rp.lookup_ns, rp.lookups), "ns"},
      {"directory.hit_ratio", ratio(dir.hits, dir.lookups), "ratio"},
      {"directory.lookups_per_miss", ratio(dir.lookups, accesses - hits),
       "ratio"},
      {"directory.replacements", count(dir.replacements), "count"},
      {"directory.find_or_alloc_ns", ratio(rp.alloc_ns, rp.allocs), "ns"},
      {"format.add_sharer_ns", ratio(rp.add_ns, rp.adds), "ns"},
      {"format.collect_targets_ns", ratio(rp.collect_ns, rp.collects), "ns"},
      {"format.invals_per_write", ratio(inval_total, inval_writes), "ratio"},
      {"format.extraneous_invals", count(extraneous), "count"},
      {"network.msgs_per_access", ratio(msgs, accesses), "ratio"},
      {"network.link_wait_cycles", count(link_wait), "cycles"},
      {"network.home_wait_cycles", count(home_wait), "cycles"},
      {"network.chip_msgs", count(chip_msgs), "count"},
      {"bench.trace_overhead", trace_overhead, "ratio"},
  };
}

std::int64_t sum(const std::vector<std::int64_t>& values) {
  std::int64_t total = 0;
  for (const std::int64_t v : values) {
    total += v;
  }
  return total;
}

/// Keeps, per segment, the fastest time seen. The simulation is
/// deterministic, so every rep of a cell does the same work in the same
/// segments, and reps differ only by host interference, which only ever
/// adds time. Returns false when the segmentation differs.
bool keep_fastest(std::vector<std::int64_t>& best,
                  const std::vector<std::int64_t>& segments) {
  if (best.empty()) {
    best = segments;
    return true;
  }
  if (best.size() != segments.size()) {
    return false;
  }
  for (std::size_t i = 0; i < best.size(); ++i) {
    best[i] = std::min(best[i], segments[i]);
  }
  return true;
}

int run(const Options& opt) {
  const double load_start = load_1m();
  Workload workload;
  if (!make_workload(opt.workload, opt.seed, opt.scale, workload)) {
    std::cerr << "perfbench: unknown workload '" << opt.workload << "'\n";
    return 2;
  }
  const std::size_t cells = workload.cells.size();

  if (!opt.record_expected.empty()) {
    const Inputs inputs = build_inputs(workload);
    std::ofstream out(opt.record_expected, std::ios::app);
    for (const Cell& cell : workload.cells) {
      out << workload.name << " " << opt.seed << " " << fmt_scale(opt.scale)
          << " " << cell.key << " " << hex(run_untraced(cell, inputs).digest)
          << "\n";
    }
    return out ? 0 : 1;
  }

  const std::map<std::string, std::string> expected =
      load_expected(opt.expected, workload.name, opt.scale);
  std::vector<std::string> expected_digests;
  for (const Cell& cell : workload.cells) {
    const auto it = expected.find(cell.key);
    expected_digests.push_back(it == expected.end() ? "missing" : it->second);
  }

  Gate gate;
  SetupSamples setup;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    set_up(workload, setup);
  }
  std::uint64_t input_bytes = 0;
  const Overhead overhead = opt.trace ? calibrate_overhead() : Overhead{};
  std::vector<std::string> first;  // digests of the first untraced rep
  std::uint64_t accesses = 0;
  std::vector<std::vector<std::int64_t>> fastest(cells);  // per segment
  std::vector<std::int64_t> best(cells, INT64_MAX);  // whole cell runs
  std::vector<std::int64_t> best_traced(cells, INT64_MAX);
  LayerSums sums;

  // Each rep sets up afresh (spreading the set-up samples over the run, so
  // they see the same host as the simulate phase) and runs every cell
  // untraced; in traced mode a traced run of every cell follows, and the
  // first traced rep also feeds the replays and the span sample.
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(opt.seconds * 1e9);
  const int min_reps = opt.trace ? 1 : kMinReps;
  Inputs inputs;
  for (int rep = 0; rep < min_reps || now_ns() < deadline; ++rep) {
    inputs = {};  // free the last rep's traces before building new ones
    inputs = set_up(workload, setup);
    input_bytes = inputs.bytes();
    const std::vector<CellRun> runs = run_all(workload, inputs);
    for (std::size_t c = 0; c < cells; ++c) {
      best[c] = std::min(best[c], runs[c].sim_ns);
      if (!keep_fastest(fastest[c], runs[c].segments_ns)) {
        gate.accounting_ok = false;
        gate.notes.push_back("segmentation changed in " +
                             workload.cells[c].key);
      }
    }
    const bool check_expected = first.empty() && opt.seed == kDefaultSeed;
    if (first.empty()) {
      first = digests_of(runs);
      for (const CellRun& run : runs) {
        accesses += run.result.protocol.accesses;
      }
    }
    gate.account(workload, runs,
                 check_expected ? &expected_digests : &first, input_bytes,
                 "rep " + std::to_string(rep));
    if (!opt.trace) {
      continue;
    }
    std::vector<CellRun> traced_runs;
    for (std::size_t c = 0; c < cells; ++c) {
      const TracedRun traced = run_traced(workload.cells[c], inputs);
      best_traced[c] = std::min(best_traced[c], traced.run.sim_ns);
      if (rep == 0) {
        absorb(traced, workload.cells[c], overhead, sums, gate);
      }
      traced_runs.push_back(traced.run);
    }
    gate.account(workload, traced_runs, &first, input_bytes,
                 "traced rep " + std::to_string(rep));
  }
  const double rss = peak_rss_mib();

  // Verification outside the timed loop: the recorded digests of the
  // default seed (unless the run's own first rep already matched them), and
  // a held-out seed that must run clean.
  if (opt.seed != kDefaultSeed) {
    verify_pass(opt, kDefaultSeed, &expected_digests, "default seed", gate);
  }
  const std::uint64_t failed_before = gate.failed;
  verify_pass(opt, kHeldOutSeed, nullptr, "held-out seed", gate);
  const bool held_out_clean = gate.failed == failed_before;

  std::vector<Metric> metrics;
  if (opt.trace) {
    metrics = layer_metrics(sums, setup, input_bytes, overhead.inside_ns,
                            static_cast<double>(sum(best_traced)) / sum(best) -
                                1.0);
  } else {
    std::int64_t fastest_ns = 0;
    for (const std::vector<std::int64_t>& segments : fastest) {
      fastest_ns += sum(segments);
    }
    metrics = {
        {"accesses_per_s", static_cast<double>(accesses) / (fastest_ns * 1e-9),
         "1/s"},
        {"setup_s", median(setup.total), "s"},
        {"peak_rss_mib", rss, "MiB"},
    };
  }

  const std::string manifest_line =
      manifest(opt, load_start, load_1m(), held_out_clean);
  if (opt.trace && !opt.spans_out.empty()) {
    write_spans(opt.spans_out, manifest_line, workload, sums.spans);
  }
  std::cout << manifest_line << "\n";
  for (const std::string& note : gate.notes) {
    std::cout << "check: " << note << "\n";
  }
  std::cout << "metric mismatch_ratio "
            << num(static_cast<double>(gate.mismatched) / gate.attempted)
            << " ratio (" << gate.mismatched << " of " << gate.attempted
            << " cell runs)\n";
  for (const Metric& m : metrics) {
    std::cout << "metric " << m.name << " " << num(m.value) << " " << m.unit
              << "\n";
  }
  const bool correct =
      gate.failed == 0 && gate.accounting_ok && held_out_clean;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << gate.attempted
            << ", \"failed\": " << gate.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::cout << (i == 0 ? "" : ", ") << quote(metrics[i].name)
              << ": {\"value\": " << num(metrics[i].value)
              << ", \"unit\": " << quote(metrics[i].unit) << "}";
  }
  std::cout << "}}" << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  return dircc::run_cli([&] {
    dircc::CliParser cli;
    cli.add_option("workload", "", "workload name (see README.md)");
    cli.add_option("seed", "1990", "workload generator seed");
    cli.add_option("seconds", "10", "length of the timed phase");
    cli.add_option("trace", "0", "1 = traced run printing per-layer metrics");
    cli.add_option("scale", "1", "input size multiplier in (0, 1]");
    cli.add_option("expected", "", "file of expected digests");
    cli.add_option("record-expected", "",
                   "append this run's digests to the file and exit");
    cli.add_option("spans-out", "", "traced mode: write sampled spans here");
    cli.add_option("git-sha", "unknown", "recorded in the manifest");
    cli.add_option("source-hash", "unknown", "recorded in the manifest");
    if (!cli.parse(argc, argv)) {
      std::cerr << cli.error() << "\n" << cli.usage(argv[0]);
      return 2;
    }
    perfbench::Options opt;
    opt.workload = cli.get("workload");
    const std::int64_t seed = cli.get_int("seed");
    opt.seconds = cli.get_double("seconds");
    const std::int64_t trace = cli.get_int("trace");
    opt.scale = cli.get_double("scale");
    if (seed < 0 || !(opt.seconds > 0.0) || (trace != 0 && trace != 1) ||
        !(opt.scale > 0.0 && opt.scale <= 1.0)) {
      std::cerr << "perfbench: --seed must be >= 0, --seconds > 0, --trace "
                   "0 or 1 and --scale in (0, 1]\n";
      return 2;
    }
    opt.seed = static_cast<std::uint64_t>(seed);
    opt.trace = trace == 1;
    opt.expected = cli.get("expected");
    opt.record_expected = cli.get("record-expected");
    opt.spans_out = cli.get("spans-out");
    opt.git_sha = cli.get("git-sha");
    opt.source_hash = cli.get("source-hash");
    return perfbench::run(opt);
  });
}
