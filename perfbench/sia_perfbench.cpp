// Whole-run benchmark program: times complete SIAL program runs through
// the public API (sial::compile_sial, then sip::Sip::run) on one of three
// workloads, checks every run's published scalar against a reference,
// and prints one JSON record on the last line of stdout. run.py builds
// this program, runs it, adds host context and writes the record.
//
//   sia_perfbench --workload comm_storm|io_storm|sparse_fock --seed N
//                 --seconds S --trace 0|1 --trace-file PATH
//
// --trace 0 measures the end-to-end metrics (run_s, setup_s, peak_rss_mb,
// pass_ratio). --trace 1 is a separate set of runs that times the
// benchmark's own calls into each layer's public functions, writes them
// as trace-event spans, and reads the per-layer counters RunResult
// returns. See README.md in this directory for the metric -> layer ->
// workload table.
#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "blas/gemm.hpp"
#include "chem/programs.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "sial/compiler.hpp"
#include "sial/opt/optimizer.hpp"
#include "sial/parser.hpp"
#include "sial/sema.hpp"
#include "sip/launch.hpp"
#include "sip/superinstr.hpp"

namespace {

using namespace sia;

// ---------------------------------------------------------------------
// Small helpers.

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

// Linear-interpolated quantile, q in [0, 1].
double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// Peak resident set of this process since the last reset_peak_rss(), in
// MiB (VmHWM from /proc/self/status).
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  throw Error("no VmHWM line in /proc/self/status");
}

// Resets the kernel's peak-RSS mark to the current RSS, so the next
// peak_rss_mb() reads the peak of what ran in between.
bool reset_peak_rss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  return static_cast<bool>(clear);
}

std::string json_str(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string json_num(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

template <typename T, typename Fn>
std::string json_list(const std::vector<T>& items, Fn&& format) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ", ";
    out += format(items[i]);
  }
  return out + "]";
}

std::string replace_once(std::string text, const std::string& from,
                         const std::string& to) {
  const std::size_t at = text.find(from);
  if (at == std::string::npos || text.find(from, at + 1) != std::string::npos) {
    throw Error("benchmark input: expected exactly one '" + from +
                "' in the workload's SIAL source");
  }
  return text.replace(at, from.size(), to);
}

// ---------------------------------------------------------------------
// Workload inputs.

// Integer fill for io_storm keyed on {seed, absolute coordinates}:
// elements are integers in [-1000, 1000], so every partial sum of squares
// stays far below 2^53 and snorm2 is exact under any summation order.
std::int64_t seeded_int(std::uint64_t seed, long row, long col) {
  const std::uint64_t key =
      hash_combine(hash_combine(seed, static_cast<std::uint64_t>(row)),
                   static_cast<std::uint64_t>(col));
  return static_cast<std::int64_t>(splitmix64(key) % 2001) - 1000;
}

void builtin_fill_seeded_ints(sip::SuperInstructionContext& ctx) {
  const sial::BlockSelector& sel = ctx.selector(0);
  if (sel.rank != 2) throw Error("fill_seeded_ints takes a rank-2 block");
  const auto seed = static_cast<std::uint64_t>(ctx.number_arg(1));
  auto data = ctx.block_arg(0).data();
  const long rows = sel.extents[0];
  const long cols = sel.extents[1];
  for (long i = 0; i < rows; ++i) {
    for (long j = 0; j < cols; ++j) {
      data[static_cast<std::size_t>(i * cols + j)] = static_cast<double>(
          seeded_int(seed, sel.first_element[0] + i, sel.first_element[1] + j));
    }
  }
}

// Seed-derived literal for a SIAL `execute` argument: small enough to be
// an exact double, and varying with (seed, salt).
std::uint64_t input_seed(std::uint64_t seed, std::uint64_t salt) {
  return splitmix64(hash_combine(seed, salt)) % 1000003 + 1;
}

struct Workload {
  std::string name;
  std::string source;          // seeded program text
  std::string scalar;          // published result scalar
  SipConfig config;            // the timed configuration
  SipConfig plain;             // reference / single-threaded baseline
  bool exact = false;          // scalar gate: exact vs relative 1e-10
  double oracle = NAN;         // independent expected scalar, if cheap
  long norb = 0;
  std::map<std::string, std::uint64_t> fill_seeds;

  bool autotuned() const { return config.autotune; }
};

Workload make_workload(const std::string& name, std::uint64_t seed,
                       const std::string& work_dir) {
  Workload w;
  w.name = name;
  SipConfig& c = w.config;
  c.io_servers = 0;
  if (name == "comm_storm") {
    w.norb = 2048;
    w.scalar = "cnorm2";
    const std::uint64_t fill = input_seed(seed, 11);
    w.fill_seeds["random_block"] = fill;
    w.source = replace_once(chem::comm_storm_source(),
                            "random_block t(a,k) 11",
                            "random_block t(a,k) " + std::to_string(fill));
    c.workers = 2;
    c.worker_threads = 2;
    c.default_segment = 128;
    c.constants = {{"norb", w.norb}};
    w.plain = c;
    w.plain.workers = 1;
  } else if (name == "io_storm") {
    w.norb = 1536;
    const long nsweeps = 96;
    const long nshared = 1536;
    w.scalar = "snorm2";
    w.exact = true;
    const std::uint64_t fill = input_seed(seed, 17);
    w.fill_seeds["fill_seeded_ints"] = fill;
    w.source = replace_once(chem::io_storm_source(),
                            "execute fill_coords t(a,k)",
                            "execute fill_seeded_ints t(a,k) " +
                                std::to_string(fill));
    c.workers = 2;
    c.io_servers = 1;
    c.default_segment = 96;
    c.server_cache_bytes = 2u << 20;
    c.server_cold_io = true;
    c.server_disk_threads = 2;
    c.prefetch_depth = 4;
    c.constants = {
        {"norb", w.norb}, {"nsweeps", nsweeps}, {"nshared", nshared}};
    // snorm2 = nsweeps * sum over S of s^2, plus the shared-read phase,
    // which every worker runs in full: workers * sum over its rows.
    // The worker count is part of the program's result, so the plain
    // baseline keeps the timed run's workers.
    w.plain = c;
    double all = 0.0;
    double shared = 0.0;
    for (long a = 1; a <= w.norb; ++a) {
      for (long k = 1; k <= w.norb; ++k) {
        const double v = static_cast<double>(seeded_int(fill, a, k));
        all += v * v;
        if (a <= nshared) shared += v * v;
      }
    }
    w.oracle = static_cast<double>(nsweeps) * all +
               static_cast<double>(c.workers) * shared;
  } else if (name == "sparse_fock") {
    w.norb = 1536;
    w.scalar = "fnorm2";
    const std::uint64_t fill_d = input_seed(seed, 13);
    const std::uint64_t fill_g = input_seed(seed, 29);
    w.fill_seeds["fill_decay_D"] = fill_d;
    w.fill_seeds["fill_decay_G"] = fill_g;
    std::string source = chem::sparse_fock_source();
    source = replace_once(source, "fill_decay d(mu,la) 0.75 13",
                          "fill_decay d(mu,la) 0.75 " + std::to_string(fill_d));
    source = replace_once(source, "fill_decay g(la,nu) 0.75 29",
                          "fill_decay g(la,nu) 0.75 " + std::to_string(fill_g));
    w.source = std::move(source);
    c.workers = 2;
    c.sparse_threshold = 1e-8;
    c.autotune = true;
    // Every timed run starts from this path deleted: an empty calibration.
    c.calibration_file = work_dir + "/calibration";
    c.constants = {{"norb", w.norb}};
    w.plain = c;
    w.plain.autotune = false;
    w.plain.sparse_threshold = 0.0;
    w.plain.default_segment = 128;
  } else {
    throw Error("unknown workload '" + name +
                "' (comm_storm, io_storm, sparse_fock)");
  }
  w.plain.worker_threads = 0;
  // One plain worker holds every block: give it the timed workers'
  // combined memory budget.
  w.plain.worker_memory_bytes =
      c.worker_memory_bytes * static_cast<std::size_t>(c.workers);
  return w;
}

// ---------------------------------------------------------------------
// Spans: the benchmark's own calls into each layer, kept in memory and
// written as Chrome trace events when the run ends.

struct Span {
  std::string name;
  int id = 0;
  int parent = -1;  // -1: root
  int run = 0;      // program-run id shared by the run's spans
  double start = 0.0;
  double end = 0.0;
};

class Tracer {
 public:
  explicit Tracer(double origin) : origin_(origin) {}

  // Times fn() as one span and returns its duration in seconds.
  double time(const char* name, int run, int parent,
              const std::function<void()>& fn) {
    const int id = open(name, run, parent);
    fn();
    return close(id);
  }
  int open(const char* name, int run, int parent) {
    Span span;
    span.name = name;
    span.id = static_cast<int>(spans_.size());
    span.parent = parent;
    span.run = run;
    span.start = wall_seconds();
    spans_.push_back(std::move(span));
    return spans_.back().id;
  }
  double close(int id) {
    Span& span = spans_[static_cast<std::size_t>(id)];
    span.end = wall_seconds();
    return span.end - span.start;
  }

  bool write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"name\": " << json_str(s.name)
          << ", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
          << json_num((s.start - origin_) * 1e6)
          << ", \"dur\": " << json_num(std::max(0.0, s.end - s.start) * 1e6)
          << ", \"args\": {\"run\": " << s.run << ", \"id\": " << s.id
          << ", \"parent\": " << s.parent << "}}"
          << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]}\n";
    return static_cast<bool>(out);
  }

 private:
  double origin_;
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------
// One benchmark invocation.

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// Per-layer metrics in output order, with units; BENCHMARK.json lists the
// same names. Each value is the median over the traced runs of what
// add_layer() recorded, 0 when the layer recorded nothing (bypassed).
constexpr std::pair<const char*, const char*> kLayerMetrics[] = {
    {"sial.compile_s", "s"},
    {"sial.opt_s", "s"},
    {"sip.planner.plan_s", "s"},
    {"sip.planner.candidates", "count"},
    {"sip.planner.error_pct", "%"},
    {"sip.planner.distinct_plans", "count"},
    {"sip.master.dry_run_s", "s"},
    {"sip.master.chunk_wait_s", "s"},
    {"sip.master.steals_granted", "count"},
    {"sip.master.imbalance_pct", "%"},
    {"sip.exec_s", "s"},
    {"sip.interpreter.busy_s", "s"},
    {"sip.interpreter.block_wait_s", "s"},
    {"sip.interpreter.served_wait_s", "s"},
    {"sip.interpreter.barrier_wait_s", "s"},
    {"sip.interpreter.accounted_ratio", "ratio"},
    {"sip.executor.pool_busy_s", "s"},
    {"sip.executor.hazard_stalls", "count"},
    {"sip.executor.avg_occupancy", "entries"},
    {"sip.executor.drains", "count"},
    {"sip.executor.drain_wait_s", "s"},
    {"sip.executor.operand_stalls", "count"},
    {"sip.executor.speedup_vs_serial", "x"},
    {"blas.gemm_gflops", "GFLOP/s"},
    {"blas.flops", "flop"},
    {"blas.achieved_gflops", "GFLOP/s"},
    {"block.cache_hit_ratio", "ratio"},
    {"block.pool_heap_fallbacks", "count"},
    {"block.peak_local_mb", "MB"},
    {"msg.messages", "count"},
    {"msg.payload_mb", "MB"},
    {"msg.zero_copy_ratio", "ratio"},
    {"msg.puts_coalesced", "count"},
    {"sip.io_server.disk_reads", "count"},
    {"sip.io_server.disk_writes", "count"},
    {"sip.io_server.write_batches", "count"},
    {"sip.io_server.cache_hit_ratio", "ratio"},
    {"sip.io_server.reads_coalesced", "count"},
    {"sip.served.lookahead_useful_ratio", "ratio"},
    {"sip.screening.kernels_screened", "count"},
    {"sip.screening.blocks_screened_ratio", "ratio"},
    {"sip.screening.bytes_elided_mb", "MB"},
    {"trace.overhead_pct", "%"},
    {"profile.overhead_pct", "%"},
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_file;
  std::string work_dir = ".";
  // Relative error planted in the reference scalar; the self-test uses it
  // to show a wrong reference is reported as failed runs.
  double reference_offset = 0.0;
};

struct RunOutcome {
  bool ok = false;
  double seconds = 0.0;
  double scalar = NAN;
  sip::RunResult result;
};

class Bench {
 public:
  Bench(Options options, Workload workload)
      : opt_(std::move(options)), w_(std::move(workload)),
        tracer_(wall_seconds()) {}

  int run();

 private:
  // A program run exactly as a user makes one: compile, construct, run.
  RunOutcome timed_run(const SipConfig& config);
  // The same work split into its public calls, each a span, plus the
  // probe calls (optimize, plan, analyze) that attribute Sip::run's time.
  RunOutcome traced_run(int run_id);
  // compile_sial + Sip::plan (autotuned workloads) + Sip::analyze.
  double setup_once();
  double blas_probe_gflops(int segment);

  bool check(double value, const char* what);
  void fail(const std::string& what);
  void fresh_calibration() const {
    if (w_.autotuned()) {
      std::error_code ec;
      std::filesystem::remove(w_.config.calibration_file, ec);
    }
  }

  void add_layer(const std::string& name, double value) {
    layer_samples_[name].push_back(value);
  }
  void add_run_layers(const sip::RunResult& r);

  std::string record(const std::vector<Metric>& metrics) const;

  Options opt_;
  Workload w_;
  Tracer tracer_;
  double reference_ = NAN;
  double plain_seconds_ = 0.0;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  std::vector<std::string> errors_;
  std::vector<double> run_s_;
  std::vector<double> setup_s_;
  std::vector<double> rss_mb_;  // peak RSS of each timed run
  std::vector<double> run_unprofiled_s_;
  std::vector<double> run_traced_s_;
  std::vector<std::string> plans_;
  std::vector<int> plan_segments_;  // segment of each traced plan probe
  std::map<std::string, std::vector<double>> layer_samples_;
  int worker_threads_resolved_ = 0;
  int pool_threads_observed_ = 0;
  bool calibrated_seen_ = false;
};

void Bench::fail(const std::string& what) {
  ++failed_;
  if (errors_.size() < 20) errors_.push_back(what);
  std::fprintf(stderr, "FAIL: %s\n", what.c_str());
}

bool Bench::check(double value, const char* what) {
  const bool ok =
      w_.exact ? value == reference_
               : std::abs(value - reference_) <= 1e-10 * std::abs(reference_);
  if (!ok) {
    char buf[200];
    std::snprintf(buf, sizeof buf, "%s: %s %.17g differs from reference %.17g",
                  what, w_.scalar.c_str(), value, reference_);
    fail(buf);
  }
  return ok;
}

RunOutcome Bench::timed_run(const SipConfig& config) {
  RunOutcome out;
  ++attempted_;
  fresh_calibration();
  try {
    const double t0 = wall_seconds();
    const sial::CompiledProgram program = sial::compile_sial(w_.source);
    sip::Sip sip(config);
    out.result = sip.run(program);
    out.seconds = wall_seconds() - t0;
    out.scalar = out.result.scalar(w_.scalar);
    out.ok = true;
  } catch (const std::exception& e) {
    fail(std::string("run threw: ") + e.what());
  }
  return out;
}

RunOutcome Bench::traced_run(int run_id) {
  RunOutcome out;
  ++attempted_;
  fresh_calibration();
  try {
    const int root = tracer_.open("program_run", run_id, -1);
    sial::ProgramAst ast;
    sial::CompiledProgram program;
    const double parse_s =
        tracer_.time("sial::parse_sial", run_id, root,
                     [&] { ast = sial::parse_sial(w_.source); });
    const double check_s = tracer_.time("sial::check_sial", run_id, root,
                                        [&] { sial::check_sial(ast); });
    const double compile_s =
        tracer_.time("sial::compile", run_id, root,
                     [&] { program = sial::compile(ast); });
    std::unique_ptr<sip::Sip> sip;
    tracer_.time("sip::Sip::Sip", run_id, root, [&] {
      sip = std::make_unique<sip::Sip>(w_.config);
    });

    // Probe calls: not part of the user's run, so excluded from the
    // traced run_s; they attribute the Sip::run span to its layers.
    const int probes = tracer_.open("layer_probes", run_id, root);
    sial::CompiledProgram optimized;
    const double opt_s =
        tracer_.time("sial::opt::optimize", run_id, probes, [&] {
          optimized =
              sial::opt::optimize(program, w_.config.opt_level).program;
        });
    double plan_s = 0.0;
    SipConfig planned = w_.config;
    if (w_.autotuned()) {
      sip::PlanChoice choice;
      plan_s = tracer_.time("sip::Sip::plan", run_id, probes,
                            [&] { choice = sip->plan(program); });
      planned = choice.config;
      plan_segments_.push_back(planned.default_segment);
      add_layer("sip.planner.candidates", choice.candidates);
    }
    // Sip::analyze is optimize + resolve + dry run; the last two are
    // timed on their own too, at the planned configuration Sip::run uses.
    sip::Sip analyzer(planned);
    tracer_.time("sip::Sip::analyze", run_id, probes,
                 [&] { (void)analyzer.analyze(program); });
    std::unique_ptr<sial::ResolvedProgram> resolved;
    const double resolve_s =
        tracer_.time("sial::ResolvedProgram", run_id, probes, [&] {
          resolved = std::make_unique<sial::ResolvedProgram>(
              std::move(optimized), planned);
        });
    const double dry_run_s =
        tracer_.time("sip::dry_run", run_id, probes,
                     [&] { (void)sip::dry_run(*resolved); });
    const double probe_total = tracer_.close(probes);

    const double run_s = tracer_.time("sip::Sip::run", run_id, root,
                                      [&] { out.result = sip->run(program); });
    const double total = tracer_.close(root);
    out.seconds = total - probe_total;
    out.scalar = out.result.scalar(w_.scalar);
    out.ok = true;

    // Shares inside Sip::run: it runs the mid-end, the planner (when
    // autotuned; Sip::plan re-runs the mid-end) and the dry run before
    // launching.
    const double plan_only =
        w_.autotuned() ? std::max(0.0, plan_s - opt_s) : 0.0;
    add_layer("sial.compile_s", parse_s + check_s + compile_s);
    add_layer("sial.opt_s", opt_s);
    add_layer("sip.planner.plan_s", plan_only);
    add_layer("sip.master.dry_run_s", resolve_s + dry_run_s);
    add_layer("sip.exec_s",
              run_s - opt_s - plan_only - resolve_s - dry_run_s);
  } catch (const std::exception& e) {
    fail(std::string("traced run threw: ") + e.what());
  }
  return out;
}

double Bench::setup_once() {
  fresh_calibration();
  try {
    double t0 = wall_seconds();
    const sial::CompiledProgram program = sial::compile_sial(w_.source);
    double spent = wall_seconds() - t0;
    // Sip construction is not part of set-up: it only makes a scratch dir.
    sip::Sip sip(w_.config);
    SipConfig planned = w_.config;
    if (w_.autotuned()) {
      t0 = wall_seconds();
      planned = sip.plan(program).config;
      spent += wall_seconds() - t0;
    }
    sip::Sip analyzer(planned);
    t0 = wall_seconds();
    const sip::DryRunReport report = analyzer.analyze(program);
    spent += wall_seconds() - t0;
    if (!report.feasible) throw Error("dry run reports the launch infeasible");
    return spent;
  } catch (const std::exception& e) {
    // A failed set-up counts as one failed attempt.
    ++attempted_;
    fail(std::string("set-up: ") + e.what());
    return NAN;
  }
}

double Bench::blas_probe_gflops(int segment) {
  const std::size_t n = static_cast<std::size_t>(segment);
  std::vector<double> a(n * n), b(n * n), c(n * n, 0.0);
  for (std::size_t i = 0; i < n * n; ++i) {
    a[i] = 2.0 * unit_double(hash_combine(opt_.seed, i)) - 1.0;
    b[i] = 2.0 * unit_double(hash_combine(opt_.seed + 1, i)) - 1.0;
  }
  const double flops = 2.0 * static_cast<double>(n * n * n);
  // Calls per batch so one batch takes ~20 ms; median over batches.
  const int per_batch = std::max(1, static_cast<int>(20e-3 * 10e9 / flops));
  std::vector<double> rates;
  for (int batch = 0; batch < 9; ++batch) {
    const double t0 = wall_seconds();
    for (int i = 0; i < per_batch; ++i) {
      blas::dgemm(n, n, n, 1.0, a.data(), n, b.data(), n, 1.0, c.data(), n);
    }
    const double dt = wall_seconds() - t0;
    rates.push_back(flops * per_batch / dt * 1e-9);
  }
  if (!std::isfinite(c[0])) fail("blas probe produced a non-finite result");
  return median(rates);
}

void Bench::add_run_layers(const sip::RunResult& r) {
  const sip::ProfileReport& p = r.profile;
  const double workers = static_cast<double>(w_.config.workers);
  add_layer("sip.interpreter.busy_s", p.total_busy);
  add_layer("sip.interpreter.block_wait_s", p.block_wait);
  add_layer("sip.interpreter.served_wait_s", p.served_wait);
  add_layer("sip.interpreter.barrier_wait_s", p.barrier_wait);
  add_layer("sip.interpreter.accounted_ratio",
            ratio(p.total_busy + p.total_wait, workers * p.total_elapsed));
  add_layer("sip.master.chunk_wait_s", p.chunk_wait);
  add_layer("sip.master.steals_granted",
            static_cast<double>(p.scheduling.steals_granted));
  add_layer("sip.master.imbalance_pct", p.scheduling.imbalance_percent());

  const auto& x = p.executor;
  add_layer("sip.executor.pool_busy_s", x.thread_busy_seconds);
  add_layer("sip.executor.hazard_stalls", static_cast<double>(x.hazard_stalls));
  add_layer("sip.executor.avg_occupancy", x.avg_occupancy());
  add_layer("sip.executor.drains", static_cast<double>(x.drains));
  add_layer("sip.executor.drain_wait_s", x.drain_wait_seconds);
  add_layer("sip.executor.operand_stalls",
            static_cast<double>(x.operand_stalls));

  const auto& wt = r.workers;
  add_layer("block.cache_hit_ratio",
            ratio(static_cast<double>(wt.cache_hits),
                  static_cast<double>(wt.cache_hits + wt.cache_misses)));
  add_layer("block.pool_heap_fallbacks",
            static_cast<double>(wt.pool_heap_fallbacks));
  add_layer("block.peak_local_mb",
            static_cast<double>(wt.peak_local_doubles) * 8.0 / 1048576.0);

  const msg::TrafficStats& t = r.traffic;
  add_layer("msg.messages", static_cast<double>(t.messages_sent));
  add_layer("msg.payload_mb",
            static_cast<double>(t.payload_doubles_sent) * 8.0 / 1048576.0);
  add_layer("msg.zero_copy_ratio",
            ratio(static_cast<double>(t.zero_copy_messages),
                  static_cast<double>(t.messages_sent)));
  add_layer("msg.puts_coalesced", static_cast<double>(wt.puts_coalesced));

  const auto& s = p.served;
  add_layer("sip.io_server.disk_reads",
            static_cast<double>(s.server_disk_reads));
  add_layer("sip.io_server.disk_writes",
            static_cast<double>(s.server_disk_writes));
  add_layer("sip.io_server.write_batches",
            static_cast<double>(s.write_batches));
  add_layer("sip.io_server.cache_hit_ratio",
            ratio(static_cast<double>(s.server_cache_hits),
                  static_cast<double>(s.server_requests +
                                      s.server_lookahead_requests)));
  add_layer("sip.io_server.reads_coalesced",
            static_cast<double>(s.reads_coalesced));
  add_layer("sip.served.lookahead_useful_ratio",
            ratio(static_cast<double>(s.client_lookahead_issued -
                                      s.client_lookahead_misses),
                  static_cast<double>(s.client_lookahead_issued)));

  const auto& sc = p.screening;
  std::int64_t screened = 0;
  std::int64_t total = 0;
  for (const auto& array : sc.arrays) {
    screened += array.screened;
    total += array.total;
  }
  add_layer("sip.screening.kernels_screened",
            static_cast<double>(sc.kernels_screened));
  add_layer("sip.screening.blocks_screened_ratio",
            ratio(static_cast<double>(screened), static_cast<double>(total)));
  add_layer("sip.screening.bytes_elided_mb",
            static_cast<double>(sc.bytes_elided) / 1048576.0);

  // Dense flop count of the workload's block contractions, computed from
  // the problem size: the GEMMs of comm_storm (C = A A^T) and sparse_fock
  // (F = D G; screening skips most of them, so its achieved rate is a
  // dense-equivalent one), and the block dot products of the checksums
  // (io_storm's sweeps are dot products only).
  const double n = static_cast<double>(w_.norb);
  double flops = 2.0 * n * n * n + 2.0 * n * n;
  if (w_.name == "io_storm") {
    const auto& k = w_.config.constants;
    const double sweeps = static_cast<double>(k.at("nsweeps"));
    const double shared = static_cast<double>(k.at("nshared"));
    flops = 2.0 * n * n * sweeps + 2.0 * shared * n * workers;
  }
  add_layer("blas.flops", flops);

  if (p.plan.planned) {
    add_layer("sip.planner.error_pct", std::abs(p.plan.error_percent()));
  }
}

std::string Bench::record(const std::vector<Metric>& metrics) const {
  std::ostringstream out;
  const auto summary = [](const std::vector<double>& v) {
    std::ostringstream s;
    s << "{\"n\": " << v.size() << ", \"median\": " << json_num(median(v))
      << ", \"p25\": " << json_num(quantile(v, 0.25))
      << ", \"p75\": " << json_num(quantile(v, 0.75))
      << ", \"p90\": " << json_num(quantile(v, 0.90))
      << ", \"min\": " << json_num(quantile(v, 0.0))
      << ", \"max\": " << json_num(quantile(v, 1.0))
      << ", \"values\": " << json_list(v, json_num) << "}";
    return s.str();
  };
  const SipConfig& c = w_.config;
  out << "{\"workload\": " << json_str(w_.name) << ", \"seed\": " << opt_.seed
      << ", \"trace\": " << (opt_.trace ? 1 : 0)
      << ", \"seconds\": " << json_num(opt_.seconds)
      << ", \"correct\": "
      << (failed_ == 0 && attempted_ > 0 ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"fail_ratio\": " << json_num(ratio(failed_, attempted_))
      << ", \"errors\": " << json_list(errors_, json_str);
  out << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out << (i ? ", " : "") << json_str(metrics[i].name) << ": {\"value\": "
        << json_num(metrics[i].value)
        << ", \"unit\": " << json_str(metrics[i].unit) << "}";
  }
  out << "}, \"samples\": {\"run_s\": " << summary(run_s_)
      << ", \"setup_s\": " << summary(setup_s_)
      << ", \"peak_rss_mb\": " << summary(rss_mb_);
  if (opt_.trace) {
    out << ", \"run_s_profiling_off\": " << summary(run_unprofiled_s_)
        << ", \"run_s_traced\": " << summary(run_traced_s_);
  }
  out << "}";
  out << ", \"inputs\": {\"norb\": " << w_.norb << ", \"constants\": {";
  bool first = true;
  for (const auto& [key, value] : c.constants) {
    out << (first ? "" : ", ") << json_str(key) << ": " << value;
    first = false;
  }
  out << "}, \"fill_seeds\": {";
  first = true;
  for (const auto& [key, value] : w_.fill_seeds) {
    out << (first ? "" : ", ") << json_str(key) << ": " << value;
    first = false;
  }
  out << "}}";
  out << ", \"config\": {\"workers\": " << c.workers
      << ", \"io_servers\": " << c.io_servers
      << ", \"segment\": "
      << (w_.autotuned() ? "\"planner\"" : std::to_string(c.default_segment))
      << ", \"worker_threads\": " << c.worker_threads
      << ", \"worker_threads_resolved\": " << worker_threads_resolved_
      << ", \"pool_threads_observed\": " << pool_threads_observed_
      << ", \"autotune\": " << (c.autotune ? "true" : "false")
      << ", \"sparse_threshold\": " << json_num(c.sparse_threshold)
      << ", \"server_cache_bytes\": " << c.server_cache_bytes
      << ", \"server_cold_io\": " << (c.server_cold_io ? "true" : "false")
      << ", \"server_disk_threads\": " << c.server_disk_threads
      << ", \"prefetch_depth\": " << c.prefetch_depth << "}";
  out << ", \"calibration\": "
      << json_str(w_.autotuned()
                      ? (calibrated_seen_ ? "a run saw a non-empty calibration"
                                          : "empty file before every run")
                      : "unused (autotune off)");
  out << ", \"plans\": " << json_list(plans_, json_str);
  out << ", \"reference\": {\"scalar\": " << json_str(w_.scalar)
      << ", \"value\": " << json_num(reference_)
      << ", \"oracle\": " << json_num(w_.oracle)
      << ", \"gate\": " << json_str(w_.exact ? "exact" : "relative 1e-10")
      << ", \"plain_seconds\": " << json_num(plain_seconds_) << "}";
  out << ", \"host\": {\"nproc\": " << std::thread::hardware_concurrency()
      << ", \"build_type\": " << json_str(SIA_PERFBENCH_BUILD_TYPE)
      << ", \"compiler\": " << json_str(SIA_PERFBENCH_COMPILER)
      << ", \"gemm_kernel\": "
      << json_str(std::string(blas::gemm_kernel_name()))
      << "}";
  if (opt_.trace) out << ", \"trace_file\": " << json_str(opt_.trace_file);
  out << "}";
  return out.str();
}

int Bench::run() {
  // Set-up: the plain configuration gives the reference scalar and the
  // single-threaded baseline time. Traced runs take three for a steadier
  // baseline; the first alone is the reference.
  std::vector<double> plain_times;
  const int plain_runs = opt_.trace ? 3 : 1;
  for (int i = 0; i < plain_runs; ++i) {
    const RunOutcome plain = timed_run(w_.plain);
    if (!plain.ok) continue;
    plain_times.push_back(plain.seconds);
    if (std::isnan(reference_)) {
      reference_ = plain.scalar * (1.0 + opt_.reference_offset);
      if (!std::isnan(w_.oracle) && plain.scalar != w_.oracle) {
        fail("plain run " + w_.scalar + " differs from the independent sum");
      }
    } else {
      check(plain.scalar, "plain run");
    }
  }
  plain_seconds_ = median(plain_times);
  worker_threads_resolved_ = w_.config.effective_worker_threads();

  // One warm-up run of the timed configuration: checked, not timed.
  if (const RunOutcome warm = timed_run(w_.config); warm.ok) {
    check(warm.scalar, "warm-up run");
  }

  const auto note_run = [&](const RunOutcome& r) {
    pool_threads_observed_ =
        std::max(pool_threads_observed_, r.result.profile.executor.threads);
    const auto& plan = r.result.profile.plan;
    if (plan.planned) {
      plans_.push_back(plan.summary);
      calibrated_seen_ = calibrated_seen_ || plan.calibrated;
    }
  };

  const double deadline = wall_seconds() + opt_.seconds;
  constexpr int kMinRuns = 3;
  constexpr int kMaxSetupReps = 3;
  int round = 0;
  for (; wall_seconds() < deadline || round < kMinRuns; ++round) {
    if (!opt_.trace) {
      // Hand freed heap back to the kernel first, so each run's peak starts
      // from what is live, not from what earlier runs left cached.
      malloc_trim(0);
      if (!reset_peak_rss()) {
        throw Error("cannot reset the peak-RSS mark (/proc/self/clear_refs)");
      }
      const RunOutcome r = timed_run(w_.config);
      if (r.ok && check(r.scalar, "timed run")) run_s_.push_back(r.seconds);
      rss_mb_.push_back(peak_rss_mb());
      note_run(r);
      // Sample set-up after every run: up to three times while the
      // samples stay under a fifth of the run's time, so a short set-up
      // gets enough samples and a long one does not crowd out runs.
      double spent = 0.0;
      for (int rep = 0;
           rep < kMaxSetupReps && (rep == 0 || spent < 0.2 * r.seconds);
           ++rep) {
        const double setup = setup_once();
        if (std::isnan(setup)) break;
        setup_s_.push_back(setup);
        spent += setup;
      }
      continue;
    }
    // Traced invocation: rotate profiled, unprofiled and traced runs so
    // drift in host load hits all three alike.
    SipConfig unprofiled = w_.config;
    unprofiled.profiling = false;
    const RunOutcome a = timed_run(w_.config);
    if (a.ok && check(a.scalar, "timed run")) run_s_.push_back(a.seconds);
    note_run(a);
    const RunOutcome b = timed_run(unprofiled);
    if (b.ok && check(b.scalar, "profiling-off run")) {
      run_unprofiled_s_.push_back(b.seconds);
    }
    note_run(b);
    const RunOutcome t = traced_run(round);
    if (t.ok && check(t.scalar, "traced run")) {
      run_traced_s_.push_back(t.seconds);
      add_run_layers(t.result);
    }
    note_run(t);
  }

  std::vector<Metric> metrics;
  const double run_s = median(run_s_);
  if (!opt_.trace) {
    metrics = {{"run_s", run_s, "s"},
               {"setup_s", median(setup_s_), "s"},
               {"peak_rss_mb", median(rss_mb_), "MB"},
               {"pass_ratio", 1.0 - ratio(failed_, attempted_), "ratio"}};
  } else {
    // Block shape of the workload's GEMMs: the planner's most frequent
    // segment on autotuned workloads.
    int gemm_segment = w_.config.default_segment;
    if (!plan_segments_.empty()) {
      std::map<int, int> freq;
      for (const int seg : plan_segments_) ++freq[seg];
      gemm_segment = std::max_element(freq.begin(), freq.end(),
                                      [](const auto& x, const auto& y) {
                                        return x.second < y.second;
                                      })->first;
    }
    double gemm_gflops = 0.0;
    tracer_.time("blas::dgemm probe", -1, -1,
                 [&] { gemm_gflops = blas_probe_gflops(gemm_segment); });

    const auto layer = [&](const std::string& name) {
      auto it = layer_samples_.find(name);
      return it == layer_samples_.end() ? 0.0 : median(it->second);
    };
    const std::set<std::string> distinct(plans_.begin(), plans_.end());
    add_layer("sip.planner.distinct_plans",
              static_cast<double>(distinct.size()));
    add_layer("sip.executor.speedup_vs_serial", ratio(plain_seconds_, run_s));
    add_layer("blas.gemm_gflops", gemm_gflops);
    add_layer("blas.achieved_gflops",
              ratio(layer("blas.flops"), layer("sip.exec_s")) * 1e-9);
    add_layer("trace.overhead_pct",
              100.0 * (ratio(median(run_traced_s_), run_s) - 1.0));
    add_layer("profile.overhead_pct",
              100.0 * (ratio(run_s, median(run_unprofiled_s_)) - 1.0));
    for (const auto& [name, unit] : kLayerMetrics) {
      metrics.push_back({name, layer(name), unit});
    }
    if (!tracer_.write(opt_.trace_file)) {
      throw Error("cannot write trace file " + opt_.trace_file);
    }
  }

  std::printf("%s\n", record(metrics).c_str());
  return 0;
}

Options parse_options(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) throw Error("missing value after " + arg);
    const std::string value = argv[++i];
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed") {
      opt.seed = std::stoull(value);
    } else if (arg == "--seconds") {
      opt.seconds = std::stod(value);
    } else if (arg == "--trace") {
      opt.trace = value != "0";
    } else if (arg == "--trace-file") {
      opt.trace_file = value;
    } else if (arg == "--work-dir") {
      opt.work_dir = value;
    } else if (arg == "--reference-offset") {
      opt.reference_offset = std::stod(value);
    } else {
      throw Error("unknown option " + arg);
    }
  }
  if (opt.workload.empty()) throw Error("--workload is required");
  if (opt.trace && opt.trace_file.empty()) {
    throw Error("--trace 1 needs --trace-file");
  }
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options options = parse_options(argc, argv);
    ::unsetenv("SIA_AUTOTUNE");
    ::unsetenv("SIA_TRANSPORT");
    ::unsetenv("SIA_FAULT_PLAN");
    sip::register_builtin_superinstructions();
    sip::SuperInstructionRegistry::global().register_instruction(
        "fill_seeded_ints", builtin_fill_seeded_ints);
    Workload workload =
        make_workload(options.workload, options.seed, options.work_dir);
    Bench bench(options, std::move(workload));
    return bench.run();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sia_perfbench: %s\n", e.what());
    return 2;
  }
}
