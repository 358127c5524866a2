// svabench: the measuring half of perfbench (see perfbench/README.md).
//
//   svabench --workload build|build-socket|serve|serve-ingest --seed N
//            --seconds S --trace 0|1 --work-dir DIR --out FILE
//            [--size-mb M] [--corrupt]
//
// Generates the workload's inputs from the seed, times calls into the
// public entry points of engine, query, serve and ga from the outside,
// checks every answer against an untimed oracle, and writes the raw
// samples, spans and layer counters to FILE as one JSON object.
// perfbench/run.py turns that object into the benchmark's metrics.
//
// --corrupt flips one measured answer before the oracle runs, so the
// benchmark's own tests can prove a wrong answer fails the run.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <future>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <random>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "sva/corpus/generator.hpp"
#include "sva/corpus/reader.hpp"
#include "sva/engine/bundle.hpp"
#include "sva/engine/delta.hpp"
#include "sva/engine/digest.hpp"
#include "sva/engine/engine.hpp"
#include "sva/engine/stages.hpp"
#include "sva/ga/global_array.hpp"
#include "sva/ga/runtime.hpp"
#include "sva/query/session.hpp"
#include "sva/serve/protocol.hpp"
#include "sva/serve/server.hpp"
#include "trace.hpp"

namespace {

using namespace sva;
using svabench::Clock;
using svabench::Json;
using svabench::Scope;
using svabench::seconds_between;
using svabench::Tracer;

// ---- configuration ---------------------------------------------------------

constexpr int kBuildProcs = 4;     ///< P of every Engine::run the benchmark times
constexpr int kReferenceProcs = 2; ///< P of the reference build (checks P-independence)
constexpr int kOracleProcs = 4;    ///< P of the one-shot sessions answers are checked against
constexpr int kProbeProcs = 2;     ///< P of the query and delta probes (the serving P)
constexpr double kHoldOut = 0.10;  ///< serve-ingest: corpus tail held out for deltas
constexpr int kDeltas = 4;         ///< serve-ingest: delta files cut from the tail
constexpr int kSetups = 3;         ///< set-ups per untraced run (setup_s is their median)
constexpr double kNominalQps = 400.0;  ///< open-loop rate of the serve workloads
/// Fixed absolute rates (queries/s) of the serve workload's capacity ladder.
const std::vector<double> kLadder = {200, 300, 400, 600, 800, 1200, 1600};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  double size_mb = 32.0;
  bool corrupt = false;
  std::filesystem::path work_dir;
  std::filesystem::path out;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--corrupt") {
      a.corrupt = true;
      continue;
    }
    if (i + 1 >= argc) throw std::runtime_error("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::stoull(v);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(v);
    } else if (flag == "--trace") {
      a.trace = v == "1";
    } else if (flag == "--size-mb") {
      a.size_mb = std::stod(v);
    } else if (flag == "--work-dir") {
      a.work_dir = v;
    } else if (flag == "--out") {
      a.out = v;
    } else {
      throw std::runtime_error("unknown flag " + flag);
    }
  }
  if (a.workload != "build" && a.workload != "build-socket" && a.workload != "serve" &&
      a.workload != "serve-ingest") {
    throw std::runtime_error("unknown workload '" + a.workload + "'");
  }
  if (a.work_dir.empty() || a.out.empty()) {
    throw std::runtime_error("--work-dir and --out are required");
  }
  if (!(a.seconds > 0.0) || !(a.size_mb > 0.0)) {
    throw std::runtime_error("--seconds and --size-mb must be positive");
  }
  return a;
}

ga::SpmdOptions world(int procs, ga::Backend backend) {
  ga::SpmdOptions o;
  o.nprocs = procs;
  o.backend = backend;
  return o;
}

engine::EngineConfig pipeline_config() {
  // The sva_pipeline defaults.
  engine::EngineConfig c;
  c.topicality.num_major_terms = 800;
  c.kmeans.k = 16;
  return c;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The larger of this process's peak RSS and its largest reaped child's
/// (forked socket ranks), in KiB.
std::int64_t peak_rss_kb() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return std::max<std::int64_t>(self.ru_maxrss, children.ru_maxrss);
}

std::uint64_t answer_digest(const query::QueryResult& r) {
  const std::string line = serve::format_result(r);
  return engine::fnv1a64(line.data(), line.size());
}

// ---- raw result --------------------------------------------------------------

/// One open-loop phase at a fixed rate.  Query i was planned for
/// i / rate seconds after the phase epoch.
struct Phase {
  std::string name;
  double rate = 0.0;
  double duration_s = 0.0;
  bool traced = false;
  std::vector<double> done_s;  ///< completion offset, NaN when the query failed
  std::vector<double> lag_ms;  ///< how late the dispatcher submitted it
  std::vector<int> hit;        ///< 1 when submit() answered from the cache
  std::vector<double> ingest_start_s;
  std::vector<double> ingest_end_s;  ///< NaN when the ingest failed
};

/// Oracle bookkeeping for one submitted query.
struct Sent {
  std::size_t query = 0;    ///< index into the query pool
  std::uint64_t gen = 0;    ///< generation live when it was submitted
  std::uint64_t digest = 0; ///< answer digest
  bool ok = false;
};

struct Result {
  std::vector<double> setup_s;
  double build_mib = 0.0;  ///< MiB each timed Engine::run ingests
  std::uint64_t docs = 0;
  std::vector<double> build_s;
  std::vector<std::uint64_t> checksums;
  std::uint64_t reference_checksum = 0;
  std::vector<Phase> phases;
  std::vector<double> ingest_s;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t oracle_checked = 0;
  std::uint64_t oracle_mismatches = 0;
  std::vector<std::string> errors;
  std::int64_t peak_rss_kb = 0;
  std::map<std::string, double> counters;
  std::map<std::string, std::vector<double>> samples;
  /// Where the run's own wall time went: (checkpoint, seconds since start).
  std::vector<std::pair<std::string, double>> timeline;
  Clock::time_point started = Clock::now();

  void mark(const std::string& what) {
    timeline.emplace_back(what, seconds_between(started, Clock::now()));
  }

  void error(const std::string& what) {
    if (errors.size() < 20) errors.push_back(what);
  }
};

// ---- corpus ------------------------------------------------------------------

corpus::SourceSet make_corpus(const Args& a) {
  corpus::CorpusSpec spec = corpus::pubmed_like_spec(
      0, static_cast<std::size_t>(a.size_mb * static_cast<double>(1 << 20)));
  spec.seed = a.seed;
  return corpus::generate_corpus(spec);
}

double mib(std::size_t bytes) { return static_cast<double>(bytes) / (1 << 20); }

/// Flattens a document to one line of a delta file (the format
/// serve::Server::ingest reads: one document per non-empty line).
std::string delta_line(const corpus::RawDocument& doc) {
  std::string line;
  for (const auto& f : doc.fields) {
    if (!line.empty()) line += ' ';
    line += f.text;
  }
  std::replace(line.begin(), line.end(), '\n', ' ');
  std::replace(line.begin(), line.end(), '\r', ' ');
  return line;
}

/// Documents [lo, hi) of `full` as a delta: what the server parses out of
/// a delta file (one "body" field per line, ids = positions).
corpus::SourceSet delta_docs(const corpus::SourceSet& full, std::size_t lo, std::size_t hi) {
  corpus::SourceSet docs;
  for (std::size_t i = lo; i < hi; ++i) {
    std::string line = delta_line(full[i]);
    if (line.empty()) continue;
    corpus::RawDocument d;
    d.id = docs.size();
    d.fields.push_back({"body", std::move(line)});
    docs.add(std::move(d));
  }
  return docs;
}

/// First index of the held-out tail, and the size of one delta cut from it.
std::size_t base_docs(std::size_t n) {
  return static_cast<std::size_t>(std::llround(static_cast<double>(n) * (1.0 - kHoldOut)));
}
std::size_t delta_size(std::size_t n) { return (n - base_docs(n)) / kDeltas; }

/// The serve-ingest split: base documents plus delta files cut from the
/// held-out tail.
struct IngestInputs {
  corpus::SourceSet base;
  std::vector<std::filesystem::path> delta_files;
  std::vector<corpus::SourceSet> delta_docs;
};

IngestInputs split_for_ingest(const corpus::SourceSet& full, const std::filesystem::path& dir) {
  IngestInputs in;
  const std::size_t n_base = base_docs(full.size());
  for (std::size_t i = 0; i < n_base; ++i) in.base.add(full[i]);
  const std::size_t tail = full.size() - n_base;
  for (int k = 0; k < kDeltas; ++k) {
    const std::size_t lo = n_base + tail * static_cast<std::size_t>(k) / kDeltas;
    const std::size_t hi = n_base + tail * static_cast<std::size_t>(k + 1) / kDeltas;
    const auto path = dir / ("delta-" + std::to_string(k) + ".txt");
    corpus::SourceSet docs = delta_docs(full, lo, hi);
    std::ofstream out(path, std::ios::binary);
    for (const auto& d : docs.docs()) out << d.fields.front().text << '\n';
    if (!out) throw std::runtime_error("cannot write " + path.string());
    in.delta_files.push_back(path);
    in.delta_docs.push_back(std::move(docs));
  }
  return in;
}

/// Reader decorator counting fetches and fetch time per calling thread
/// (one thread per rank on every backend), so a collective can sum them.
thread_local std::uint64_t tls_fetches = 0;
thread_local std::uint64_t tls_fetch_ns = 0;

class CountingReader final : public corpus::CorpusReader {
 public:
  explicit CountingReader(const corpus::CorpusReader& under) : under_(&under) {}
  [[nodiscard]] std::size_t size() const override { return under_->size(); }
  [[nodiscard]] std::size_t doc_bytes(std::size_t i) const override {
    return under_->doc_bytes(i);
  }
  [[nodiscard]] corpus::RawDocument read(std::size_t i) const override {
    const auto t0 = Clock::now();
    corpus::RawDocument d = under_->read(i);
    count(t0);
    return d;
  }
  [[nodiscard]] const corpus::RawDocument* fetch(std::size_t i,
                                                 corpus::RawDocument& scratch) const override {
    const auto t0 = Clock::now();
    const corpus::RawDocument* d = under_->fetch(i, scratch);
    count(t0);
    return d;
  }

 private:
  static void count(Clock::time_point t0) {
    ++tls_fetches;
    tls_fetch_ns += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0).count());
  }
  const corpus::CorpusReader* under_;
};

// ---- builds ------------------------------------------------------------------

struct Build {
  double wall_s = 0.0;
  std::uint64_t checksum = 0;
  std::size_t dimension = 0;
  std::size_t clusters = 0;
};

/// One Engine::run at `procs` on `backend`, timed on rank 0 from a
/// barrier to its return (bundle export included when `bundle` is set).
Build timed_engine_run(const corpus::CorpusReader& reader, int procs, ga::Backend backend,
                       const std::filesystem::path& bundle) {
  Build b;
  const engine::EngineConfig config = pipeline_config();
  ga::spmd_run(world(procs, backend), [&](ga::Context& ctx) {
    engine::PipelineOptions options;
    options.export_bundle = bundle;
    engine::Engine eng(config);
    ctx.barrier();
    const auto t0 = Clock::now();
    std::optional<engine::EngineResult> r = eng.run(ctx, reader, options);
    const auto t1 = Clock::now();
    if (ctx.rank() == 0) {
      b.wall_s = seconds_between(t0, t1);
      b.checksum = engine::result_checksum(*r);
      b.dimension = r->dimension;
      b.clusters = r->clustering.centroids.rows();
    }
  });
  return b;
}

/// The traced build: the benchmark calls the public stage functions in
/// Engine::run's order with a StageTimer it owns, one span per call,
/// then reduces the per-rank reader counters to rank 0.
Build traced_stage_run(const corpus::CorpusReader& reader, ga::Backend backend,
                       const std::filesystem::path& bundle, Tracer& tracer, std::int64_t req,
                       Result& res) {
  Build b;
  const engine::EngineConfig config = pipeline_config();
  const CountingReader counting(reader);
  std::map<std::string, double> counters;
  ga::spmd_run(world(kBuildProcs, backend), [&](ga::Context& ctx) {
    Tracer quiet(false);
    Tracer& t = ctx.rank() == 0 ? tracer : quiet;
    tls_fetches = 0;
    tls_fetch_ns = 0;
    ctx.barrier();
    std::optional<engine::EngineResult> result;
    double scan_modeled = 0.0;
    double index_modeled = 0.0;
    {
      Scope root(t, "engine.run", 0, req);
      ga::StageTimer timer(ctx);
      std::optional<engine::IngestState> ingest;
      {
        Scope s(t, "engine.ingest", root.id(), req);
        ingest.emplace(engine::ingest_sharded(ctx, counting, config.tokenizer, config.indexing,
                                              {}, timer));
      }
      std::optional<engine::SignatureStageState> sig;
      {
        Scope s(t, "sig.stage", root.id(), req);
        sig.emplace(engine::run_signature_stage(ctx, *ingest, config, timer));
      }
      std::optional<engine::ClusterStageState> cl;
      {
        Scope s(t, "cluster.kmeans", root.id(), req);
        cl.emplace(engine::run_cluster_stage(ctx, *sig, config, timer));
      }
      std::optional<engine::ProjectionStageState> proj;
      {
        Scope s(t, "cluster.projection", root.id(), req);
        proj.emplace(engine::run_projection_stage(ctx, *ingest, *sig, *cl, config, timer));
      }
      const engine::ComponentTimings timings = engine::fold_timings(timer);
      scan_modeled = timings.scan;
      index_modeled = timings.index;
      const std::uint64_t occurrences = ingest->total_term_occurrences;
      const int rounds = sig->signature_rounds;
      const int iterations = cl->clustering.iterations;
      {
        Scope s(t, "engine.export", root.id(), req);
        std::vector<std::uint64_t> mine;
        mine.reserve(ingest->records.size());
        for (const auto& rec : ingest->records) mine.push_back(rec.raw_bytes);
        const auto all = ctx.gatherv(std::span<const std::uint64_t>(mine), 0);
        const std::vector<std::size_t> sizes(all.begin(), all.end());
        result.emplace(engine::assemble_result(std::move(*ingest), std::move(*sig),
                                               std::move(*cl), std::move(*proj), timings));
        engine::export_bundle(ctx, *result, config, bundle, sizes);
      }
      if (ctx.rank() == 0) {
        counters["text.occurrences"] = static_cast<double>(occurrences);
        counters["sig.rounds"] = rounds;
        counters["cluster.iterations"] = iterations;
      }
    }
    // The collective that brings the forked ranks' counters home.
    const std::uint64_t fetches = ctx.allreduce_sum(tls_fetches);
    const std::uint64_t fetch_ns = ctx.allreduce_sum(tls_fetch_ns);
    if (ctx.rank() == 0) {
      b.checksum = engine::result_checksum(*result);
      b.dimension = result->dimension;
      b.clusters = result->clustering.centroids.rows();
      counters["corpus.fetches"] = static_cast<double>(fetches);
      counters["corpus.fetch_ms"] = static_cast<double>(fetch_ns) / 1e6;
      counters["text.scan_modeled_s"] = scan_modeled;
      counters["index.invert_modeled_s"] = index_modeled;
    }
  });
  counters["engine.bundle_mb"] = mib(std::filesystem::file_size(bundle));
  for (const auto& [k, v] : counters) res.samples[k].push_back(v);
  return b;
}

std::uint64_t reference_checksum(const corpus::CorpusReader& reader) {
  return timed_engine_run(reader, kReferenceProcs, ga::Backend::kThread, {}).checksum;
}

// ---- layer probes (traced runs) -----------------------------------------------

void ga_probes(ga::Backend backend, Result& res) {
  std::vector<double> launch_ms;
  for (int i = 0; i < 5; ++i) {
    const auto t0 = Clock::now();
    ga::spmd_run(world(kBuildProcs, backend), [](ga::Context&) {});
    launch_ms.push_back(seconds_between(t0, Clock::now()) * 1e3);
  }
  res.counters["ga.spmd_launch_ms"] = median(launch_ms);
  ga::spmd_run(world(kBuildProcs, backend), [&](ga::Context& ctx) {
    std::vector<double> barrier_us;
    std::vector<double> allreduce_us;
    std::vector<double> gather_us;
    for (int i = 0; i < 20; ++i) ctx.barrier();
    for (int i = 0; i < 200; ++i) {
      const auto t0 = Clock::now();
      ctx.barrier();
      barrier_us.push_back(seconds_between(t0, Clock::now()) * 1e6);
    }
    std::vector<double> buf(8192);  // 64 KiB
    for (int i = 0; i < 50; ++i) {
      std::fill(buf.begin(), buf.end(), 1.0);
      ctx.barrier();
      const auto t0 = Clock::now();
      ctx.allreduce_sum(buf.data(), buf.size());
      allreduce_us.push_back(seconds_between(t0, Clock::now()) * 1e6);
    }
    {
      constexpr std::size_t kRows = 1 << 16;
      auto arr = ga::GlobalArray<double>::create(ctx, kRows);
      std::mt19937_64 rng(static_cast<std::uint64_t>(ctx.rank()) + 7);
      std::vector<std::size_t> idx(1024);
      for (auto& i : idx) i = rng() % kRows;
      std::vector<double> out(idx.size());
      ctx.barrier();
      for (int i = 0; i < 50; ++i) {
        const auto t0 = Clock::now();
        arr.gather(ctx, idx, std::span<double>(out));
        gather_us.push_back(seconds_between(t0, Clock::now()) * 1e6);
      }
      ctx.barrier();
    }
    if (ctx.rank() == 0) {
      res.counters["ga.barrier_us"] = median(barrier_us);
      res.counters["ga.allreduce_64k_us"] = median(allreduce_us);
      res.counters["ga.window_gather_us"] = median(gather_us);
    }
  });
}

// ---- the query mix -------------------------------------------------------------

/// Seeded generator of the serving mix: "more like this" on documents of
/// Zipf-skewed popularity (working set larger than the result cache),
/// unique probe vectors (always a cache miss), and cluster summaries.
class Mix {
 public:
  Mix(std::uint64_t seed, std::uint64_t num_docs, std::size_t dimension, std::size_t clusters)
      : rng_(seed), dimension_(dimension), clusters_(clusters), perm_(num_docs) {
    std::iota(perm_.begin(), perm_.end(), std::uint64_t{0});
    std::shuffle(perm_.begin(), perm_.end(), rng_);
    cdf_.resize(num_docs);
    double acc = 0.0;
    for (std::uint64_t r = 0; r < num_docs; ++r) {
      acc += 1.0 / static_cast<double>(r + 1);
      cdf_[r] = acc;
    }
  }

  query::Query next() {
    std::uniform_real_distribution<double> u(0.0, 1.0);
    const double pick = u(rng_);
    if (pick < kDocShare) {
      const double x = u(rng_) * cdf_.back();
      const auto r = static_cast<std::size_t>(
          std::lower_bound(cdf_.begin(), cdf_.end(), x) - cdf_.begin());
      return query::Query::similar_doc(perm_[std::min(r, perm_.size() - 1)], 10);
    }
    if (pick < kDocShare + kProbeShare) {
      std::vector<double> probe(dimension_);
      for (auto& v : probe) v = u(rng_);
      return query::Query::similar_probe(std::move(probe), 10);
    }
    return query::Query::cluster_summary(static_cast<int>(rng_() % clusters_), 5);
  }

 private:
  static constexpr double kDocShare = 0.6;
  static constexpr double kProbeShare = 0.3;
  std::mt19937_64 rng_;
  std::size_t dimension_;
  std::size_t clusters_;
  std::vector<std::uint64_t> perm_;
  std::vector<double> cdf_;
};

void query_probes(const std::filesystem::path& bundle, Mix& mix, Result& res) {
  std::vector<query::Query> singles;
  for (int i = 0; i < 40; ++i) singles.push_back(mix.next());
  std::vector<query::Query> batches;
  for (int i = 0; i < 20 * 16; ++i) batches.push_back(mix.next());
  ga::spmd_run(world(kProbeProcs, ga::Backend::kThread), [&](ga::Context& ctx) {
    ctx.barrier();
    const auto t0 = Clock::now();
    query::Session session = query::Session::open(ctx, bundle);
    ctx.barrier();
    const double open_ms = seconds_between(t0, Clock::now()) * 1e3;
    std::vector<double> b1;
    std::vector<double> b16;
    for (const auto& q : singles) {
      ctx.barrier();
      const auto s0 = Clock::now();
      (void)session.run_batch(std::span<const query::Query>(&q, 1));
      b1.push_back(seconds_between(s0, Clock::now()) * 1e3);
    }
    for (std::size_t i = 0; i < batches.size(); i += 16) {
      ctx.barrier();
      const auto s0 = Clock::now();
      (void)session.run_batch(std::span<const query::Query>(batches.data() + i, 16));
      b16.push_back(seconds_between(s0, Clock::now()) * 1e3);
    }
    if (ctx.rank() == 0) {
      res.counters["query.open_ms"] = open_ms;
      res.counters["query.sweep_b1_ms"] = median(b1);
      res.counters["query.sweep_b16_ms"] = median(b16);
    }
  });
}

/// engine::ingest_delta called directly on `base` in a P=2 world.
void delta_probe(const std::filesystem::path& base, const corpus::SourceSet& docs,
                 const std::filesystem::path& out, Result& res) {
  const corpus::InMemoryReader reader(docs);
  ga::spmd_run(world(kProbeProcs, ga::Backend::kThread), [&](ga::Context& ctx) {
    ctx.barrier();
    const auto t0 = Clock::now();
    (void)engine::ingest_delta(ctx, base, reader, out);
    if (ctx.rank() == 0) res.counters["engine.delta_s"] = seconds_between(t0, Clock::now());
  });
}

// ---- build workloads -----------------------------------------------------------

void run_build(const Args& a, ga::Backend backend, Result& res, Tracer& tracer) {
  corpus::SourceSet corpus;
  const int setups = a.trace ? 1 : kSetups;  // setup_s comes from untraced runs
  for (int i = 0; i < setups; ++i) {
    corpus = {};  // each set-up starts from nothing
    const auto t0 = Clock::now();
    corpus = make_corpus(a);
    res.setup_s.push_back(seconds_between(t0, Clock::now()));
  }
  res.mark("setup");
  const corpus::InMemoryReader reader(corpus);
  res.docs = corpus.size();
  res.build_mib = mib(corpus.total_bytes());
  const auto bundle = a.work_dir / "build.svab";

  // Closed loop, back to back.  A traced run alternates plain Engine::run
  // reps (the untraced baseline) with the span-recording stage
  // composition, so a slow spell of the host slows both alike.
  constexpr int kMinReps = 3;
  Build last;
  const auto loop_start = Clock::now();
  for (int rep = 0; rep < kMinReps || seconds_between(loop_start, Clock::now()) < a.seconds;
       ++rep) {
    last = timed_engine_run(reader, kBuildProcs, backend, bundle);
    res.build_s.push_back(last.wall_s);
    res.checksums.push_back(last.checksum);
    if (a.trace) {
      const Build b = traced_stage_run(reader, backend, bundle, tracer, rep + 1, res);
      res.checksums.push_back(b.checksum);
    }
  }
  res.peak_rss_kb = peak_rss_kb();
  res.mark("measure");
  res.attempted += res.checksums.size();

  if (a.corrupt) res.checksums.front() ^= 1;
  res.reference_checksum = reference_checksum(reader);
  for (const std::uint64_t c : res.checksums) {
    ++res.oracle_checked;
    if (c != res.reference_checksum) {
      ++res.oracle_mismatches;
      ++res.failed;
      res.error("build checksum " + engine::checksum_hex(c) + " != reference " +
                engine::checksum_hex(res.reference_checksum));
    }
  }

  res.mark("oracle");
  if (a.trace) {
    ga_probes(backend, res);
    Mix mix(a.seed ^ 0x9e3779b97f4a7c15ull, corpus.size(), last.dimension, last.clusters);
    query_probes(bundle, mix, res);
    // No held-out tail here: the last documents are ingested once more.
    const std::size_t n = corpus.size();
    delta_probe(bundle, delta_docs(corpus, n - delta_size(n), n), a.work_dir / "delta.svab", res);
  }
}

// ---- serve workloads -------------------------------------------------------------

/// Drives one open-loop phase: the calling thread dispatches on the
/// planned schedule (and submits the planned ingests); one harvester
/// thread completes the futures in submission order.  Cache hits come
/// back ready from submit() and are completed by the dispatcher itself.
class LoadGen {
 public:
  LoadGen(serve::Server& server, Mix& mix, Tracer& tracer)
      : server_(server), mix_(mix), tracer_(tracer) {}

  std::vector<query::Query> pool;  ///< every query sent, in order
  std::vector<Sent> sent;
  std::atomic<std::uint64_t> live_gen{0};
  /// Generation → bundle path, filled as ingests complete.
  std::map<std::uint64_t, std::filesystem::path> gen_bundle;
  std::vector<double> ingest_s;
  std::uint64_t ingest_attempts = 0;
  std::uint64_t ingest_failures = 0;
  std::vector<std::string> ingest_errors;

  struct IngestPlan {
    std::vector<double> at_s;  ///< offsets into the phase
    std::vector<std::filesystem::path> docs;
    std::filesystem::path out_dir;
  };

  Phase run(const std::string& name, double rate, double duration, bool traced,
            const IngestPlan* plan = nullptr) {
    Phase ph;
    ph.name = name;
    ph.rate = rate;
    ph.duration_s = duration;
    ph.traced = traced;
    Tracer quiet(false);
    Tracer& tr = traced ? tracer_ : quiet;
    const auto n = static_cast<std::size_t>(std::llround(rate * duration));
    const std::size_t base = pool.size();
    for (std::size_t i = 0; i < n; ++i) pool.push_back(mix_.next());
    sent.resize(base + n);
    ph.done_s.assign(n, std::nan(""));
    ph.lag_ms.assign(n, 0.0);
    ph.hit.assign(n, 0);
    // Sized up front: ingest waiters write their own slot concurrently.
    const std::size_t ingests = plan != nullptr ? plan->at_s.size() : 0;
    ph.ingest_start_s.assign(ingests, std::nan(""));
    ph.ingest_end_s.assign(ingests, std::nan(""));

    struct Item {
      std::size_t i = 0;
      std::int64_t span = 0;
      std::future<query::QueryResult> fut;
    };
    std::mutex m;
    std::condition_variable cv;
    std::deque<Item> queue;  // guarded by m
    bool done = false;       // guarded by m

    const auto epoch = Clock::now() + std::chrono::milliseconds(5);
    const auto planned = [&](std::size_t i) {
      return epoch + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(static_cast<double>(i) / rate));
    };
    const auto complete = [&](Item& it) {
      Sent& s = sent[base + it.i];
      try {
        const query::QueryResult r = it.fut.get();
        const auto t = Clock::now();
        s.digest = answer_digest(r);
        s.ok = true;
        ph.done_s[it.i] = seconds_between(epoch, t);
        tr.record("serve.query", planned(it.i), t, 0, static_cast<std::int64_t>(base + it.i) + 1,
                  1, it.span);
      } catch (const std::exception& e) {
        s.ok = false;
        std::lock_guard<std::mutex> lock(err_mutex_);
        if (errors_.size() < 10) errors_.push_back(e.what());
      }
    };

    std::thread harvester([&] {
      for (;;) {
        Item it;
        {
          std::unique_lock<std::mutex> lock(m);
          cv.wait(lock, [&] { return done || !queue.empty(); });
          if (queue.empty()) return;
          it = std::move(queue.front());
          queue.pop_front();
        }
        it.fut.wait();
        complete(it);
      }
    });

    std::vector<std::thread> ingest_waiters;
    // Joins the helper threads on every exit path, a throwing submit too.
    const auto finish = [&] {
      {
        std::lock_guard<std::mutex> lock(m);
        done = true;
      }
      cv.notify_one();
      harvester.join();
      for (auto& w : ingest_waiters) w.join();
    };
    try {
      std::size_t next_ingest = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const auto due = planned(i);
        while (plan != nullptr && next_ingest < plan->at_s.size() &&
               seconds_between(epoch, due) >= plan->at_s[next_ingest]) {
          start_ingest(*plan, next_ingest++, epoch, ph, tr, ingest_waiters);
        }
        std::this_thread::sleep_until(due);
        const auto t0 = Clock::now();
        ph.lag_ms[i] = seconds_between(due, t0) * 1e3;
        Sent& s = sent[base + i];
        s.query = base + i;
        s.gen = live_gen.load();
        Item it;
        it.i = i;
        it.span = tr.reserve();
        it.fut = server_.submit(pool[base + i]);
        tr.record("serve.submit", t0, Clock::now(), it.span,
                  static_cast<std::int64_t>(base + i) + 1, 0);
        if (it.fut.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
          ph.hit[i] = 1;
          complete(it);
        } else {
          std::lock_guard<std::mutex> lock(m);
          queue.push_back(std::move(it));
          cv.notify_one();
        }
      }
    } catch (...) {
      finish();
      throw;
    }
    finish();
    return ph;
  }

  std::vector<std::string> errors() const {
    std::lock_guard<std::mutex> lock(err_mutex_);
    return errors_;
  }

 private:
  void start_ingest(const IngestPlan& plan, std::size_t k, Clock::time_point epoch, Phase& ph,
                    Tracer& tr, std::vector<std::thread>& waiters) {
    // Numbered across phases: every ingest writes a fresh generation file
    // and takes the next delta of the held-out tail.
    const std::uint64_t nth = ingest_attempts++;
    const auto out = plan.out_dir / ("gen-" + std::to_string(nth + 1) + ".svab");
    const auto t0 = Clock::now();
    auto fut = server_.ingest(plan.docs[nth % plan.docs.size()], out);
    ph.ingest_start_s[k] = seconds_between(epoch, t0);
    waiters.emplace_back([this, &ph, &tr, k, epoch, t0, out, f = std::move(fut)]() mutable {
      try {
        const engine::DeltaReport report = f.get();
        const auto t1 = Clock::now();
        std::lock_guard<std::mutex> lock(err_mutex_);
        gen_bundle[report.generation] = out;
        live_gen.store(report.generation);
        ph.ingest_end_s[k] = seconds_between(epoch, t1);
        ingest_s.push_back(seconds_between(t0, t1));
        tr.record("serve.ingest", t0, t1, 0, -static_cast<std::int64_t>(k) - 1, 2);
      } catch (const std::exception& e) {
        std::lock_guard<std::mutex> lock(err_mutex_);
        ++ingest_failures;
        if (ingest_errors.size() < 10) ingest_errors.push_back(e.what());
      }
    });
  }

  serve::Server& server_;
  Mix& mix_;
  Tracer& tracer_;
  mutable std::mutex err_mutex_;
  std::vector<std::string> errors_;  ///< guarded by err_mutex_
};

/// One-shot answers: opens each generation's bundle in a fresh P=4 world
/// and answers every query that may have been served from it with
/// Session::run_batch; a served answer must match the generation live at
/// submit time or the one after it.
void check_serve_answers(const LoadGen& d, bool allow_next_gen, Result& res) {
  std::map<std::uint64_t, std::vector<std::size_t>> wanted;  // gen → sent indices
  for (std::size_t i = 0; i < d.sent.size(); ++i) {
    const Sent& s = d.sent[i];
    if (!s.ok) continue;
    wanted[s.gen].push_back(i);
    if (allow_next_gen && d.gen_bundle.count(s.gen + 1) != 0) wanted[s.gen + 1].push_back(i);
  }
  std::vector<char> matched(d.sent.size(), 0);
  for (const auto& [gen, idx] : wanted) {
    const auto path = d.gen_bundle.at(gen);
    std::unordered_map<std::uint64_t, std::size_t> first;  // query digest → slot
    std::vector<query::Query> unique;
    std::vector<std::size_t> slot_of(idx.size());
    for (std::size_t j = 0; j < idx.size(); ++j) {
      const query::Query& q = d.pool[d.sent[idx[j]].query];
      const std::uint64_t key = serve::query_digest(q);
      auto [it, fresh] = first.emplace(key, unique.size());
      if (fresh) unique.push_back(q);
      slot_of[j] = it->second;
    }
    std::vector<std::uint64_t> expect(unique.size());
    ga::spmd_run(world(kOracleProcs, ga::Backend::kThread), [&](ga::Context& ctx) {
      query::Session session = query::Session::open(ctx, path);
      constexpr std::size_t kChunk = 256;
      for (std::size_t lo = 0; lo < unique.size(); lo += kChunk) {
        const std::size_t len = std::min(kChunk, unique.size() - lo);
        const auto answers =
            session.run_batch(std::span<const query::Query>(unique.data() + lo, len));
        if (ctx.rank() == 0) {
          for (std::size_t j = 0; j < len; ++j) expect[lo + j] = answer_digest(answers[j]);
        }
      }
    });
    for (std::size_t j = 0; j < idx.size(); ++j) {
      if (d.sent[idx[j]].digest == expect[slot_of[j]]) matched[idx[j]] = 1;
    }
  }
  for (std::size_t i = 0; i < d.sent.size(); ++i) {
    if (!d.sent[i].ok) continue;
    ++res.oracle_checked;
    if (matched[i] == 0) {
      ++res.oracle_mismatches;
      ++res.failed;
      res.error("query " + std::to_string(i) + " answer differs from the one-shot session");
    }
  }
}

void run_serve(const Args& a, bool ingest, Result& res, Tracer& tracer) {
  const auto gen0 = a.work_dir / "gen-0.svab";
  std::unique_ptr<serve::Server> server;
  corpus::SourceSet corpus;
  std::optional<IngestInputs> split;
  Build built;
  const int setups = a.trace ? 1 : kSetups;  // setup_s comes from untraced runs
  for (int i = 0; i < setups; ++i) {
    if (server) {
      server->stop();
      server->join();
      server.reset();
    }
    split.reset();
    corpus = {};  // each set-up starts from nothing
    const auto t0 = Clock::now();
    corpus = make_corpus(a);
    if (ingest) split.emplace(split_for_ingest(corpus, a.work_dir));
    const corpus::SourceSet& base = ingest ? split->base : corpus;
    const corpus::InMemoryReader reader(base);
    built = timed_engine_run(reader, kBuildProcs, ga::Backend::kThread, gen0);
    server = std::make_unique<serve::Server>(gen0, serve::ServeOptions{});
    server->start();
    res.setup_s.push_back(seconds_between(t0, Clock::now()));
    res.build_s.push_back(built.wall_s);
    res.checksums.push_back(built.checksum);
    res.docs = base.size();
    res.build_mib = mib(base.total_bytes());
  }
  // Set-up builds are checked against each other (the same corpus at the
  // same P must give the same result); answers are checked below.
  for (const std::uint64_t c : res.checksums) {
    if (c != res.checksums.front()) {
      ++res.failed;
      res.error("set-up builds disagree: " + engine::checksum_hex(c));
    }
  }

  res.mark("setup");
  Mix mix(a.seed ^ 0x51ed270b27a1c3e5ull, res.docs, built.dimension, built.clusters);
  LoadGen load(*server, mix, tracer);
  load.gen_bundle[0] = gen0;

  // An untraced run spends its whole budget at the nominal rate.  A traced
  // run splits that into an untraced baseline and a traced half, and
  // (serve only) then climbs the capacity ladder.
  std::optional<LoadGen::IngestPlan> plan;
  if (ingest) {
    plan.emplace();
    plan->docs = split->delta_files;
    plan->out_dir = a.work_dir;
  }
  const double nominal_s = a.trace && !ingest ? 0.6 * a.seconds : a.seconds;
  const auto plan_for = [&](double duration) -> const LoadGen::IngestPlan* {
    if (!plan) return nullptr;
    plan->at_s.clear();
    const int count = std::max(1, static_cast<int>(std::lround(kDeltas * duration / a.seconds)));
    for (int k = 0; k < count; ++k) plan->at_s.push_back(duration * (k + 0.5) / count);
    return &*plan;
  };
  if (a.trace) {
    res.phases.push_back(load.run("nominal", kNominalQps, nominal_s / 2, false, plan_for(nominal_s / 2)));
    res.phases.push_back(load.run("nominal", kNominalQps, nominal_s / 2, true, plan_for(nominal_s / 2)));
  } else {
    res.phases.push_back(load.run("nominal", kNominalQps, nominal_s, false, plan_for(nominal_s)));
  }
  res.mark("nominal");
  if (a.trace && !ingest) {
    const double rung_s = 0.4 * a.seconds / static_cast<double>(kLadder.size());
    // Untraced, so every serve.query span belongs to the traced nominal
    // half that trace.overhead_ratio compares.
    for (const double rate : kLadder) {
      res.phases.push_back(load.run("ladder", rate, rung_s, false));
    }
  }
  res.peak_rss_kb = peak_rss_kb();
  res.mark("ladder");

  const serve::ServerStats st = server->stats();
  server->stop();
  server->join();
  server.reset();
  res.mark("stop");

  res.attempted += load.sent.size() + load.ingest_attempts;
  for (const Sent& s : load.sent) res.failed += s.ok ? 0 : 1;
  res.failed += load.ingest_failures;
  for (const auto& e : load.errors()) res.error(e);
  for (const auto& e : load.ingest_errors) res.error("ingest: " + e);
  res.ingest_s = load.ingest_s;

  if (a.corrupt) {
    for (Sent& s : load.sent) {
      if (s.ok) {
        s.digest ^= 1;
        break;
      }
    }
  }
  check_serve_answers(load, ingest, res);
  res.mark("oracle");

  res.counters["serve.sweeps"] = static_cast<double>(st.sweeps);
  res.counters["serve.queries_swept"] = static_cast<double>(st.queries_swept);
  res.counters["serve.batches"] = static_cast<double>(st.scheduler.batches);
  res.counters["serve.size_flushes"] = static_cast<double>(st.scheduler.size_flushes);
  res.counters["serve.cache_hits"] = static_cast<double>(st.cache.hits);
  res.counters["serve.cache_misses"] = static_cast<double>(st.cache.misses);
  res.counters["serve.cache_invalidations"] = static_cast<double>(st.cache.invalidations);
  res.counters["serve.ingests"] = static_cast<double>(st.ingests);
  res.counters["serve.rejected"] = static_cast<double>(st.rejected);
  res.counters["serve.world_failures"] = static_cast<double>(st.failures.world_failures);
  res.counters["serve.respawns"] = static_cast<double>(st.failures.respawns);
  res.counters["serve.expired"] = static_cast<double>(st.scheduler.expired);

  if (a.trace) {
    const corpus::InMemoryReader reader(ingest ? split->base : corpus);
    const auto probe_bundle = a.work_dir / "traced.svab";
    const Build b = traced_stage_run(reader, ga::Backend::kThread, probe_bundle, tracer, 1, res);
    ++res.attempted;
    if (b.checksum != built.checksum) {
      ++res.failed;
      res.error("traced stage build differs from the set-up build");
    }
    ga_probes(ga::Backend::kThread, res);
    query_probes(gen0, mix, res);
    const std::size_t n = corpus.size();
    delta_probe(gen0,
                ingest ? split->delta_docs.front() : delta_docs(corpus, n - delta_size(n), n),
                a.work_dir / "delta.svab", res);
  }
}

// ---- output ----------------------------------------------------------------------

void write_result(const Args& a, const Result& res, const Tracer& tracer) {
  Json j;
  j.begin();
  j.field("workload", a.workload);
  j.field("seed", a.seed);
  j.field("seconds", a.seconds);
  j.field("trace", a.trace);
  j.field("cores", static_cast<int>(std::thread::hardware_concurrency()));
  j.field("build_procs", kBuildProcs);
  j.field("docs", res.docs);
  j.field("build_mib", res.build_mib);
  j.array("setup_s", res.setup_s);
  j.array("build_s", res.build_s);
  j.array("checksums", res.checksums);
  j.field("reference_checksum", res.reference_checksum);
  j.array("ingest_s", res.ingest_s);
  j.begin_array("phases");
  for (const Phase& p : res.phases) {
    j.begin();
    j.field("name", p.name);
    j.field("rate", p.rate);
    j.field("duration_s", p.duration_s);
    j.field("traced", p.traced);
    j.array("done_s", p.done_s);
    j.array("lag_ms", p.lag_ms);
    j.array("hit", p.hit);
    j.array("ingest_start_s", p.ingest_start_s);
    j.array("ingest_end_s", p.ingest_end_s);
    j.end();
  }
  j.end_array();
  j.field("attempted", res.attempted);
  j.field("failed", res.failed);
  j.field("oracle_checked", res.oracle_checked);
  j.field("oracle_mismatches", res.oracle_mismatches);
  j.array("errors", res.errors);
  j.field("peak_rss_kb", res.peak_rss_kb);
  j.begin("counters");
  for (const auto& [k, v] : res.counters) j.field(k.c_str(), v);
  j.end();
  j.begin("samples");
  for (const auto& [k, v] : res.samples) j.array(k.c_str(), v);
  j.end();
  j.begin("timeline");
  for (const auto& [k, v] : res.timeline) j.field(k.c_str(), v);
  j.end();
  j.begin_array("spans");
  for (const auto& s : tracer.spans()) {
    j.begin();
    j.field("name", s.name);
    j.field("start_us", s.start_us);
    j.field("end_us", s.end_us);
    j.field("id", s.id);
    j.field("parent", s.parent);
    j.field("req", s.req);
    j.field("tid", s.tid);
    j.end();
  }
  j.end_array();
  j.end();
  std::ofstream out(a.out);
  out << j.str() << '\n';
  if (!out) throw std::runtime_error("cannot write " + a.out.string());
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse_args(argc, argv);
    std::filesystem::create_directories(a.work_dir);
    Tracer tracer(a.trace);
    Result res;
    if (a.workload == "build") {
      run_build(a, ga::Backend::kThread, res, tracer);
    } else if (a.workload == "build-socket") {
      run_build(a, ga::Backend::kSocket, res, tracer);
    } else {
      run_serve(a, a.workload == "serve-ingest", res, tracer);
    }
    res.mark("end");
    write_result(a, res, tracer);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "svabench: " << e.what() << "\n";
    return 1;
  }
}
