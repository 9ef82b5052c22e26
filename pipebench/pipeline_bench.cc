// Seeded end-to-end pipeline benchmark over the production default
// configuration (see pipebench/README.md).
//
// One invocation runs one workload: it generates the subscriptions and
// documents from --seed, sets the engine up several times, feeds XML
// text through exec::ParallelFilter for --seconds, checks match sets
// against a reference, and prints one JSON object of raw samples and
// totals on stdout. pipebench/run.py turns it into metrics.
//
//   pipeline_bench --workload nitf_churn --seed 1 --seconds 40 --trace 0
//
// With --trace 1 every batch is traced: spans around the calls into
// each module's public functions are kept in memory, and every fourth
// batch's documents are replayed through partition 0's matcher with
// the benchmark's own MatchContext to split the filter time into
// encode, predicate, expression and collect. Nothing inside src/ is
// instrumented by this file.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_set>
#include <vector>

#include <sys/resource.h>

#include "common/random.h"
#include "core/epoch_manager.h"
#include "core/match_context.h"
#include "core/matcher.h"
#include "core/publication.h"
#include "exec/parallel_filter.h"
#include "xml/document.h"
#include "xml/generator.h"
#include "xml/path.h"
#include "xml/standard_dtds.h"
#include "xpath/parser.h"
#include "xpath/query_generator.h"
#include "yfilter/yfilter.h"

namespace xpred::pipebench {
namespace {

using Clock = std::chrono::steady_clock;

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

double Ms(uint64_t ns) { return static_cast<double>(ns) / 1e6; }

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "pipeline_bench: %s\n", message.c_str());
  std::exit(1);
}

/// SplitMix64 step: derives independent sub-seeds from the run seed.
uint64_t Mix(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// ---------------------------------------------------------------------
// Workloads

struct WorkloadSpec {
  const char* name;
  bool psd;
  size_t expressions;
  bool distinct;
  uint32_t min_length;
  uint32_t filters;
  /// ParallelFilter::Options::threads; everything else is default.
  size_t threads;
  size_t batch_docs;
  /// Live mode: IndexEpochManager plus a concurrent writer thread.
  bool live;
  /// Writer schedule (open loop): ops per second and ops per Publish().
  /// A frozen filter cannot change under a batch, so its subscriptions
  /// are added in a phase of their own after the measured stream
  /// (Run::FrozenVisibility).
  double writer_ops_per_s;
  size_t publish_every;
  /// One batch per this much pipeline time is kept for the reference
  /// check. Keeping by time, not by count, holds the kept texts and
  /// match sets (and so peak RSS) to the same size whatever the
  /// throughput, and bounds the YFilter check, which is slower than the
  /// engine on attribute filters.
  double check_interval_s;
};

// Expressions use the settings of bench/bench_util.h (L=6, W=0.2,
// DO=0.2); documents use the generator defaults (depth 8), as
// `xpred_cli generate-docs` produces them.
const WorkloadSpec kWorkloads[] = {
    {"nitf_50k", false, 50000, true, 3, 0, 1, 1, false, 500, 20, 0.25},
    {"psd_attr", true, 10000, true, 3, 1, 2, 8, false, 500, 20, 2.0},
    {"nitf_churn", false, 200000, false, 4, 0, 2, 2, true, 200, 40, 1.0},
};

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

xpath::QueryGenerator MakeQueryGenerator(const WorkloadSpec& spec,
                                         bool distinct) {
  xpath::QueryGenerator::Options q;
  q.max_length = 6;
  q.min_length = spec.min_length;
  q.wildcard_prob = 0.2;
  q.descendant_prob = 0.2;
  q.distinct = distinct;
  q.filters_per_expr = spec.filters;
  return xpath::QueryGenerator(spec.psd ? &xml::PsdLikeDtd()
                                        : &xml::NitfLikeDtd(),
                               q);
}

/// Distinct generated documents as XML text, produced batch by batch
/// outside every timed region, so a run never repeats a document.
class DocSource {
 public:
  DocSource(const WorkloadSpec& spec, uint64_t seed)
      : gen_(spec.psd ? &xml::PsdLikeDtd() : &xml::NitfLikeDtd(),
             xml::DocumentGenerator::Options{}),
        seed_(seed) {}

  /// Texts of documents [first, first + n).
  void Generate(size_t first, size_t n, std::vector<std::string>* texts) {
    texts->clear();
    for (size_t i = first; i < first + n; ++i) {
      texts->push_back(gen_.Generate(Mix(seed_, i)).ToXml());
    }
  }

 private:
  xml::DocumentGenerator gen_;
  uint64_t seed_;
};

// ---------------------------------------------------------------------
// Spans: kept in memory, aggregated and written once at the end.

struct Span {
  const char* name;
  int32_t parent;  ///< Index into the span log, -1 for a root.
  uint32_t doc;    ///< Document index, UINT32_MAX when none.
  uint64_t start;
  uint64_t end;
};

class SpanLog {
 public:
  SpanLog() { spans_.reserve(1 << 16); }
  int32_t Add(const char* name, int32_t parent, uint32_t doc,
              uint64_t start, uint64_t end) {
    spans_.push_back(Span{name, parent, doc, start, end});
    return static_cast<int32_t>(spans_.size() - 1);
  }
  /// Opens a span whose end is set later with Close().
  int32_t Open(const char* name, int32_t parent, uint32_t doc) {
    return Add(name, parent, doc, NowNs(), 0);
  }
  void Close(int32_t id) { spans_[id].end = NowNs(); }
  void SetEnd(int32_t id, uint64_t end) { spans_[id].end = end; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

struct SpanTotal {
  uint64_t count = 0;
  uint64_t nanos = 0;
};

// ---------------------------------------------------------------------
// JSON output

class Json {
 public:
  void Key(const char* key) {
    Sep();
    out_ += '"';
    out_ += key;
    out_ += "\":";
    fresh_ = true;
  }
  void Num(double v) {
    Sep();
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out_ += buf;
  }
  void Int(uint64_t v) {
    Sep();
    out_ += std::to_string(v);
  }
  void Str(std::string_view s) {
    Sep();
    out_ += '"';
    for (char c : s) {
      if (c == '"' || c == '\\') {
        out_ += '\\';
        out_ += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", c);
        out_ += buf;
      } else {
        out_ += c;
      }
    }
    out_ += '"';
  }
  void Begin(char c) {
    Sep();
    out_ += c;
    fresh_ = true;
  }
  void End(char c) {
    out_ += c;
    fresh_ = false;
  }
  void NumArray(const std::vector<double>& v) {
    Begin('[');
    for (double x : v) Num(x);
    End(']');
  }
  const std::string& str() const { return out_; }

 private:
  void Sep() {
    if (!fresh_ && !out_.empty()) out_ += ',';
    fresh_ = false;
  }
  std::string out_;
  bool fresh_ = true;
};

// ---------------------------------------------------------------------
// The engine under test, in its production default configuration.

struct Engine {
  std::unique_ptr<core::IndexEpochManager> manager;
  std::unique_ptr<exec::ParallelFilter> filter;
};

/// Stores each delivered match set (already sorted by ParallelFilter).
class StoreSink : public exec::ResultSink {
 public:
  explicit StoreSink(std::vector<std::vector<core::ExprId>>* out,
                     std::vector<uint8_t>* ok)
      : out_(out), ok_(ok) {}
  void OnDocument(size_t doc_index, const Status& status,
                  std::span<const core::ExprId> matched) override {
    (*ok_)[doc_index] = status.ok() ? 1 : 0;
    (*out_)[doc_index].assign(matched.begin(), matched.end());
  }

 private:
  std::vector<std::vector<core::ExprId>>* out_;
  std::vector<uint8_t>* ok_;
};

/// Hands a one-element document to \p filter: set-up ends when the
/// first document is accepted, so lazy index preparation counts.
void AcceptFirstDocument(exec::ParallelFilter& filter) {
  Result<xml::Document> doc = xml::Document::Parse("<setup/>");
  if (!doc.ok()) Die("cannot parse the set-up document");
  exec::DocRef ref{&*doc};
  std::vector<std::vector<core::ExprId>> matched(1);
  std::vector<uint8_t> ok(1);
  StoreSink sink(&matched, &ok);
  Status st = filter.FilterBatch(std::span<const exec::DocRef>(&ref, 1), sink);
  if (!st.ok()) Die("set-up document rejected: " + st.ToString());
}

Engine SetUp(const WorkloadSpec& spec,
             const std::vector<std::string>& expressions) {
  Engine engine;
  exec::ParallelFilter::Options options;
  options.threads = spec.threads;
  if (spec.live) {
    engine.manager = std::make_unique<core::IndexEpochManager>(
        core::IndexEpochManager::Options{});
    for (const std::string& e : expressions) {
      Result<core::ExprId> sid = engine.manager->Subscribe(e);
      if (!sid.ok()) Die("Subscribe(" + e + "): " + sid.status().ToString());
    }
    // The second Publish fills the spare side; without it the first
    // writer publish would pay the whole initial load.
    for (int side = 0; side < 2; ++side) {
      Result<uint64_t> epoch = engine.manager->Publish();
      if (!epoch.ok()) Die("Publish: " + epoch.status().ToString());
    }
    engine.filter =
        std::make_unique<exec::ParallelFilter>(options, engine.manager.get());
  } else {
    engine.filter = std::make_unique<exec::ParallelFilter>(options);
    for (const std::string& e : expressions) {
      Result<core::ExprId> sid = engine.filter->AddExpression(e);
      if (!sid.ok()) {
        Die("AddExpression(" + e + "): " + sid.status().ToString());
      }
    }
  }
  AcceptFirstDocument(*engine.filter);
  return engine;
}

// ---------------------------------------------------------------------
// Batches

/// One batch of documents: texts in, parsed documents and delivered
/// match sets out.
struct Batch {
  size_t first = 0;  ///< Run-wide index of the first document.
  std::vector<std::string> texts;
  std::vector<xml::Document> docs;  ///< Empty where the text did not parse.
  std::vector<std::vector<core::ExprId>> matched;
  std::vector<uint8_t> ok;
  uint64_t start = 0;
  uint64_t parsed = 0;
  uint64_t end = 0;

  uint64_t Wall() const { return end - start; }
};

/// Parses a batch's XML texts on the calling thread, then filters them
/// with one FilterBatch call: the pipeline whose time the end-to-end
/// metrics report. \p spans (nullable) records the traced batches.
void RunBatch(exec::ParallelFilter& filter, Batch* batch, SpanLog* spans) {
  const size_t n = batch->texts.size();
  batch->docs.clear();
  batch->docs.resize(n);
  std::vector<exec::DocRef> refs;
  refs.reserve(n);
  std::vector<size_t> slot;  // refs index -> batch position
  batch->ok.assign(n, 0);
  int32_t root = -1;
  batch->start = NowNs();
  if (spans != nullptr) {
    root = spans->Add("pipeline.batch", -1, UINT32_MAX, batch->start, 0);
  }
  for (size_t i = 0; i < n; ++i) {
    const uint64_t p0 = spans != nullptr ? NowNs() : 0;
    Result<xml::Document> doc = xml::Document::Parse(batch->texts[i]);
    if (spans != nullptr) {
      spans->Add("xml.parse", root, static_cast<uint32_t>(batch->first + i),
                 p0, NowNs());
    }
    if (!doc.ok()) continue;
    batch->docs[i] = std::move(*doc);
    refs.push_back(exec::DocRef{&batch->docs[i]});
    slot.push_back(i);
  }
  batch->parsed = NowNs();
  std::vector<std::vector<core::ExprId>> matched(refs.size());
  std::vector<uint8_t> ok(refs.size(), 0);
  StoreSink sink(&matched, &ok);
  (void)filter.FilterBatch(refs, sink);
  batch->end = NowNs();
  if (spans != nullptr) {
    spans->Add("exec.filter_batch", root, UINT32_MAX, batch->parsed,
               batch->end);
    spans->SetEnd(root, batch->end);
  }
  batch->matched.assign(n, {});
  for (size_t k = 0; k < refs.size(); ++k) {
    batch->matched[slot[k]] = std::move(matched[k]);
    batch->ok[slot[k]] = ok[k];
  }
}

// ---------------------------------------------------------------------
// Traced replay of one document through a partition matcher.

struct ReplayCounts {
  uint64_t docs = 0;
  uint64_t paths = 0;            ///< Extracted root-to-leaf paths.
  uint64_t processed_paths = 0;  ///< First-seen within their document.
  uint64_t predicate_hits = 0;
  uint64_t matches = 0;
};

/// The matcher's per-document path key: tags plus every attribute
/// (paths with equal keys are skipped after the first).
void PathKey(std::span<const core::PathElementView> views, std::string* key) {
  key->clear();
  for (const core::PathElementView& v : views) {
    key->append(v.tag);
    if (v.attributes != nullptr) {
      for (const xml::Attribute& a : *v.attributes) {
        key->push_back('\x01');
        key->append(a.name);
        key->push_back('\x02');
        key->append(a.value);
      }
    }
    key->push_back('\x03');
  }
}

void ReplayDocument(const core::Matcher& matcher, const xml::Document& doc,
                    uint32_t doc_id, core::MatchContext* ctx, SpanLog* log,
                    ReplayCounts* counts) {
  const int32_t root = log->Open("core.replay", -1, doc_id);
  uint64_t t0 = NowNs();
  std::vector<xml::DocumentPath> paths = xml::ExtractPaths(doc);
  log->Add("xml.extract", root, doc_id, t0, NowNs());

  std::vector<core::PathElementView> views;
  std::unordered_set<std::string> seen;
  std::string key;
  core::Publication pub;
  core::MatchResultSet results;
  std::vector<core::ExprId> matched;

  t0 = NowNs();
  matcher.BeginDocumentStream(ctx);
  log->Add("core.begin", root, doc_id, t0, NowNs());
  for (const xml::DocumentPath& path : paths) {
    views.clear();
    for (uint32_t pos = 1; pos <= path.length(); ++pos) {
      views.push_back(core::PathElementView{path.Tag(pos),
                                            &path.Attributes(pos),
                                            path.Node(pos)});
    }
    t0 = NowNs();
    Status st = matcher.ProcessStreamedPath(views, ctx);
    const int32_t path_span = log->Add("core.path", root, doc_id, t0, NowNs());
    if (!st.ok()) Die("ProcessStreamedPath: " + st.ToString());
    ++counts->paths;
    PathKey(views, &key);
    if (!seen.insert(key).second) continue;
    // Replays of the two stages the path span contains; the
    // expression stage is the path span minus both.
    ++counts->processed_paths;
    t0 = NowNs();
    pub.Assign(views, matcher.interner());
    uint64_t t1 = NowNs();
    log->Add("core.encode", path_span, doc_id, t0, t1);
    counts->predicate_hits += matcher.predicate_index().Match(pub, &results);
    log->Add("core.predicate", path_span, doc_id, t1, NowNs());
  }
  t0 = NowNs();
  Status st = matcher.EndDocumentStream(ctx, &matched);
  log->Add("core.collect", root, doc_id, t0, NowNs());
  if (!st.ok()) Die("EndDocumentStream: " + st.ToString());
  counts->matches += matched.size();
  ++counts->docs;
  log->Close(root);
}

// ---------------------------------------------------------------------
// Writer side: subscription visibility.

struct WriterStats {
  std::vector<double> visible_ms;
  std::vector<double> lag_ms;
  std::vector<double> subscribe_us;
  std::vector<double> publish_ms;
  std::vector<double> ops_per_publish;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

/// One logged writer op, for the reference rebuild.
struct OpRecord {
  bool subscribe = false;
  core::ExprId sid = 0;
  uint32_t expr = 0;  ///< Index into the writer pool (subscribe only).
};

/// Ops visible at a published epoch: the first \p ops writer ops.
struct PublishRecord {
  uint64_t epoch = 0;
  size_t ops = 0;
};

/// Live mode: one writer thread subscribing and unsubscribing on a
/// fixed open-loop schedule, publishing every spec.publish_every ops.
class ChurnWriter {
 public:
  ChurnWriter(const WorkloadSpec& spec, core::IndexEpochManager* manager,
              const std::vector<std::string>* pool, size_t initial_subs,
              uint64_t seed)
      : spec_(spec), manager_(manager), pool_(pool), rng_(seed) {
    live_.reserve(initial_subs);
    for (size_t i = 0; i < initial_subs; ++i) {
      live_.push_back(static_cast<core::ExprId>(i));
    }
  }
  ChurnWriter(const ChurnWriter&) = delete;
  ChurnWriter& operator=(const ChurnWriter&) = delete;
  ~ChurnWriter() { Stop(); }

  void Start(uint64_t start_ns) {
    thread_ = std::thread([this, start_ns] { Run(start_ns); });
  }
  void Stop() {
    stop_.store(true, std::memory_order_release);
    if (thread_.joinable()) thread_.join();
  }

  /// Valid after Stop(), which joins the writer thread.
  const WriterStats& stats() const { return stats_; }
  const std::vector<OpRecord>& ops() const { return ops_; }
  const std::vector<PublishRecord>& publishes() const { return publishes_; }

 private:
  void Run(uint64_t start_ns) {
    const double period_ns = 1e9 / spec_.writer_ops_per_s;
    std::vector<uint64_t> pending_due;
    size_t next_expr = 0;
    for (uint64_t i = 0; !stop_.load(std::memory_order_acquire); ++i) {
      const uint64_t due =
          start_ns + static_cast<uint64_t>(static_cast<double>(i) * period_ns);
      uint64_t now = NowNs();
      if (now < due) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
        now = NowNs();
      }
      stats_.lag_ms.push_back(Ms(now - due));
      ++stats_.attempted;
      OpRecord op;
      if (i % 2 == 0 || live_.empty()) {
        const uint32_t e = static_cast<uint32_t>(next_expr++ % pool_->size());
        const uint64_t t0 = NowNs();
        Result<core::ExprId> sid = manager_->Subscribe((*pool_)[e]);
        stats_.subscribe_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
        if (!sid.ok()) {
          ++stats_.failed;
          continue;
        }
        op.subscribe = true;
        op.sid = *sid;
        op.expr = e;
        live_.push_back(*sid);
      } else {
        const size_t k = rng_.Uniform(live_.size());
        op.sid = live_[k];
        live_[k] = live_.back();
        live_.pop_back();
        if (!manager_->Unsubscribe(op.sid).ok()) {
          ++stats_.failed;
          continue;
        }
      }
      ops_.push_back(op);
      pending_due.push_back(due);
      if (pending_due.size() < spec_.publish_every) continue;
      const uint64_t p0 = NowNs();
      Result<uint64_t> epoch = manager_->Publish();
      const uint64_t p1 = NowNs();
      if (!epoch.ok()) {
        stats_.failed += pending_due.size();
        pending_due.clear();
        continue;
      }
      stats_.publish_ms.push_back(Ms(p1 - p0));
      stats_.ops_per_publish.push_back(
          static_cast<double>(pending_due.size()));
      for (uint64_t d : pending_due) stats_.visible_ms.push_back(Ms(p1 - d));
      pending_due.clear();
      publishes_.push_back(PublishRecord{*epoch, ops_.size()});
    }
  }

  const WorkloadSpec& spec_;
  core::IndexEpochManager* manager_;
  const std::vector<std::string>* pool_;
  Random rng_;
  std::vector<core::ExprId> live_;
  WriterStats stats_;
  std::vector<OpRecord> ops_;
  std::vector<PublishRecord> publishes_;
  std::atomic<bool> stop_{false};
  std::thread thread_;  // Declared last: it uses every member above.
};

// ---------------------------------------------------------------------
// Run

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  std::string trace_out;  ///< Where a traced run writes its spans.
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) Die("missing value for " + flag);
    std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::atof(v.c_str());
    } else if (flag == "--trace") {
      a.trace = v == "1";
    } else if (flag == "--trace-out") {
      a.trace_out = v;
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (a.workload.empty()) Die("--workload is required");
  if (a.seconds <= 0) Die("--seconds must be positive");
  return a;
}

/// Peak resident set of this process (VmHWM), in MiB.
double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// The guest's CPU ticks so far, summed over all CPUs (/proc/stat):
/// busy (user, nice, system, irq, softirq, steal) and steal, the time
/// the hypervisor ran something else while a CPU had work. Zero when
/// /proc/stat cannot be read.
struct CpuTicks {
  uint64_t busy = 0;
  uint64_t steal = 0;
};

CpuTicks ReadCpuTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  uint64_t v[8] = {};  // user nice system idle iowait irq softirq steal
  in >> cpu;
  for (uint64_t& x : v) in >> x;
  if (!in || cpu != "cpu") return {};
  return CpuTicks{v[0] + v[1] + v[2] + v[5] + v[6] + v[7], v[7]};
}

/// Reads a pool gauge or counter from a registry without registering.
double RegistryValue(obs::MetricsRegistry* registry, std::string_view name) {
  auto it = registry->families().find(name);
  if (it == registry->families().end() || it->second.instances.empty()) {
    return 0;
  }
  const obs::MetricsRegistry::Instance& inst =
      it->second.instances.begin()->second;
  return it->second.type == obs::MetricType::kCounter
             ? static_cast<double>(inst.counter.value())
             : inst.gauge.value();
}

/// First difference between two sorted match sets, as a subscription
/// id present in exactly one of them.
bool FirstDivergence(const std::vector<core::ExprId>& got,
                     const std::vector<core::ExprId>& want,
                     core::ExprId* sid) {
  size_t i = 0;
  size_t j = 0;
  while (i < got.size() || j < want.size()) {
    if (j == want.size() || (i < got.size() && got[i] < want[j])) {
      *sid = got[i];
      return true;
    }
    if (i == got.size() || want[j] < got[i]) {
      *sid = want[j];
      return true;
    }
    ++i;
    ++j;
  }
  return false;
}

class Run {
 public:
  Run(const Args& args, const WorkloadSpec& spec)
      : args_(args), spec_(spec), docs_(spec, Mix(args.seed, 2)) {}

  int Main() {
    Phase("generate", [&] { Generate(); });
    Phase("set-up", [&] {
      SetUpRepeatedly();
      DescribeIndex();
    });
    if (args_.trace) Phase("traced set-up", [&] { TracedSetUp(); });
    Phase("measure", [&] { Measure(); });
    if (!spec_.live) Phase("visibility", [&] { FrozenVisibility(); });
    peak_rss_mib_ = PeakRssMib();
    Phase("reference check", [&] { Check(); });
    Phase("set-up again", [&] { SetUpRepeatedly(); });
    Emit();
    return 0;
  }

 private:
  /// A document kept for the reference check.
  struct Kept {
    size_t doc = 0;
    uint64_t epoch = 0;  ///< Live mode: the batch's pinned epoch.
    std::string text;
    std::vector<core::ExprId> matched;
  };
  /// Set-ups per run; setup_s is their median. Half of them run before
  /// the measured stream and half after the reference check, so that
  /// the median samples the host at both ends of the run. Each half
  /// sets up at least kMinSetUps times, and more until kSetUpSeconds
  /// have passed, at most kMaxSetUps times.
  static constexpr size_t kMinSetUps = 3;
  static constexpr size_t kMaxSetUps = 8;
  static constexpr double kSetUpSeconds = 1.0;
  /// Frozen workloads: subscriptions added in the visibility phase;
  /// visible_p95_ms has 50 samples beyond it.
  static constexpr size_t kVisibleOps = 1000;
  /// Frozen workloads: documents filtered after the visibility phase
  /// and checked against a reference that holds the added subscriptions.
  static constexpr size_t kPostDocs = 4;
  /// The run goes on past --seconds until this many documents are
  /// filtered, so a p95 has 10 samples beyond it.
  static constexpr size_t kMinDocs = 200;
  /// Untimed batches before the measured stream, for this long.
  static constexpr double kWarmUpSeconds = 1.0;
  /// The measured stream stops at this multiple of --seconds of wall
  /// time (plus kWallCapSlackSeconds) even when short of kMinDocs.
  static constexpr uint64_t kWallCapFactor = 2;
  static constexpr double kWallCapSlackSeconds = 10.0;
  /// Replayed documents the registry cross-check filters again.
  static constexpr size_t kCrossCheckDocs = 16;

  /// Runs one phase of the run, logging its wall time to stderr.
  template <typename Fn>
  static void Phase(const char* name, Fn fn) {
    const uint64_t t0 = NowNs();
    fn();
    std::fprintf(stderr, "pipeline_bench: %-16s %8.3f s\n", name,
                 static_cast<double>(NowNs() - t0) / 1e9);
  }

  void Generate() {
    expressions_ = MakeQueryGenerator(spec_, spec_.distinct)
                       .GenerateWorkloadStrings(spec_.expressions,
                                                Mix(args_.seed, 1));
    std::unordered_set<std::string> distinct(expressions_.begin(),
                                             expressions_.end());
    // Writer subscriptions come from a disjoint seed of the same
    // generator. Live: enough for any schedule this run can reach.
    // Frozen: kVisibleOps expressions new to the filter, so that every
    // probe's adds change the index and each probe pays the rebuild.
    if (spec_.live) {
      writer_pool_ = MakeQueryGenerator(spec_, false)
                         .GenerateWorkloadStrings(20000, Mix(args_.seed, 3));
    } else {
      std::unordered_set<std::string> added;
      for (uint64_t round = 0; writer_pool_.size() < kVisibleOps; ++round) {
        if (round == 64) Die("too few new expressions");
        for (std::string& e : MakeQueryGenerator(spec_, true)
                                  .GenerateWorkloadStrings(
                                      4 * kVisibleOps,
                                      Mix(args_.seed, 100 + round))) {
          if (writer_pool_.size() == kVisibleOps) break;
          if (distinct.count(e) == 0 && added.insert(e).second) {
            writer_pool_.push_back(std::move(e));
          }
        }
      }
    }
    for (const std::string& e : distinct) {
      Result<xpath::PathExpr> parsed = xpath::ParseXPath(e);
      if (!parsed.ok()) Die("ParseXPath(" + e + ")");
      for (const xpath::Step& step : parsed->steps) {
        for (const xpath::AttributeFilter& a : step.attribute_filters) {
          referenced_attributes_.insert(a.name);
        }
      }
    }
  }

  /// One half of the run's set-ups. Each replaces engine_; after the
  /// second half nothing uses it any more.
  void SetUpRepeatedly() {
    double total_s = 0;
    for (size_t k = 0;
         k < kMaxSetUps && (k < kMinSetUps || total_s < kSetUpSeconds); ++k) {
      // Free the previous repetition first; the filter refers to the
      // manager, so it goes first.
      engine_.filter.reset();
      engine_.manager.reset();
      const CpuTicks ticks_before = ReadCpuTicks();
      const uint64_t t0 = NowNs();
      engine_ = SetUp(spec_, expressions_);
      setup_s_.push_back(static_cast<double>(NowNs() - t0) / 1e9);
      const CpuTicks ticks_after = ReadCpuTicks();
      setup_busy_ticks_.push_back(
          static_cast<double>(ticks_after.busy - ticks_before.busy));
      setup_steal_ticks_.push_back(
          static_cast<double>(ticks_after.steal - ticks_before.steal));
      total_s += setup_s_.back();
    }
  }

  void DescribeIndex() {
    exec::ParallelFilter& f = *engine_.filter;
    if (spec_.live) {
      core::IndexEpochManager::PinnedSnapshot snap = engine_.manager->Pin();
      for (size_t p = 0; p < snap->partition_count(); ++p) {
        index_bytes_ += snap->partition(p).ApproximateMemoryBytes();
        distinct_exprs_ += snap->partition(p).distinct_expression_count();
        distinct_preds_ += snap->partition(p).distinct_predicate_count();
      }
    } else {
      index_bytes_ = f.ApproximateMemoryBytes();
      for (size_t p = 0; p < f.partitions(); ++p) {
        distinct_exprs_ += f.partition_matcher(p).distinct_expression_count();
        distinct_preds_ += f.partition_matcher(p).distinct_predicate_count();
      }
    }
  }

  /// Replays set-up with per-call spans into a stand-alone default
  /// Matcher, which the registry cross-check then filters with.
  void TracedSetUp() {
    xcheck_ = std::make_unique<core::Matcher>();
    for (const std::string& e : expressions_) {
      const uint64_t t0 = NowNs();
      Result<xpath::PathExpr> parsed = xpath::ParseXPath(e);
      const uint64_t t1 = NowNs();
      if (!parsed.ok()) Die("ParseXPath(" + e + ")");
      Result<core::ExprId> sid = xcheck_->AddParsedExpression(*parsed);
      const uint64_t t2 = NowNs();
      if (!sid.ok()) Die("AddParsedExpression(" + e + ")");
      ++xpath_parse_.count;
      xpath_parse_.nanos += t1 - t0;
      ++core_add_.count;
      core_add_.nanos += t2 - t1;
    }
  }

  /// The measured document stream. Stops once it has run for
  /// --seconds of pipeline time and filtered kMinDocs documents.
  void Measure() {
    exec::ParallelFilter& f = *engine_.filter;
    const size_t n = spec_.batch_docs;
    // Warm-up: contexts, scratch and caches reach steady state. Its
    // documents are not filtered again.
    Batch batch;
    const uint64_t warm_until =
        NowNs() + static_cast<uint64_t>(kWarmUpSeconds * 1e9);
    do {
      batch.first = next_doc_;
      docs_.Generate(next_doc_, n, &batch.texts);
      RunBatch(f, &batch, nullptr);
      next_doc_ += n;
    } while (NowNs() < warm_until);

    std::unique_ptr<ChurnWriter> writer;
    if (spec_.live) {
      writer = std::make_unique<ChurnWriter>(
          spec_, engine_.manager.get(), &writer_pool_, expressions_.size(),
          Mix(args_.seed, 4));
      epoch_before_ = engine_.manager->stats();
      setup_epoch_ = engine_.manager->current_epoch();
    }
    obs::MetricsRegistry* registry = f.metrics_registry();
    const uint64_t budget_ns = static_cast<uint64_t>(args_.seconds * 1e9);
    const uint64_t wall_cap =
        NowNs() + kWallCapFactor * budget_ns +
        static_cast<uint64_t>(kWallCapSlackSeconds * 1e9);
    // Tracing overhead: every eighth traced batch is filtered a second
    // time untraced, alternating which pass goes first.
    const uint64_t check_interval_ns =
        static_cast<uint64_t>(spec_.check_interval_s * 1e9);
    uint64_t next_check_ns = 0;
    uint64_t calibrated_traced_ns = 0;
    uint64_t calibrated_untraced_ns = 0;
    core::MatchContext replay_ctx;
    if (writer) writer->Start(NowNs());
    for (size_t b = 0;; ++b) {
      batch.first = next_doc_;
      docs_.Generate(next_doc_, n, &batch.texts);
      const bool calibrate = args_.trace && b % 8 == 0;
      const bool untraced_first = (b / 8) % 2 == 0;
      uint64_t untraced_ns = 0;
      if (calibrate && untraced_first) {
        RunBatch(f, &batch, nullptr);
        untraced_ns = batch.Wall();
      }
      const double steals_before =
          RegistryValue(registry, "xpred_pool_steal_count");
      const CpuTicks ticks_before = ReadCpuTicks();
      RunBatch(f, &batch, args_.trace ? &spans_ : nullptr);
      const CpuTicks ticks_after = ReadCpuTicks();
      const uint64_t wall = batch.Wall();
      measured_ns_ += wall;
      batch_wall_ms_.push_back(Ms(wall));
      batch_busy_ticks_.push_back(
          static_cast<double>(ticks_after.busy - ticks_before.busy));
      batch_steal_ticks_.push_back(
          static_cast<double>(ticks_after.steal - ticks_before.steal));
      if (args_.trace) {
        batch_ms_.push_back(Ms(batch.end - batch.parsed));
        parse_frac_.push_back(static_cast<double>(batch.parsed - batch.start) /
                              static_cast<double>(wall));
        busy_frac_.push_back(
            RegistryValue(registry, "xpred_pool_worker_busy_fraction"));
        steals_per_batch_.push_back(
            RegistryValue(registry, "xpred_pool_steal_count") - steals_before);
      }
      if (calibrate) {
        if (!untraced_first) {
          RunBatch(f, &batch, nullptr);
          untraced_ns = batch.Wall();
        }
        calibrated_traced_ns += wall;
        calibrated_untraced_ns += untraced_ns;
      }
      // Everything below is outside the pipeline time.
      if (args_.trace && b % 4 == 1) ReplayBatch(batch, &replay_ctx);
      const bool keep = measured_ns_ >= next_check_ns;
      if (keep) next_check_ns += check_interval_ns;
      Record(batch, keep, spec_.live ? f.last_batch_epoch() : 0);
      next_doc_ += n;
      measured_docs_ += n;
      if ((measured_ns_ >= budget_ns && measured_docs_ >= kMinDocs) ||
          NowNs() > wall_cap) {
        break;
      }
    }
    if (calibrated_traced_ns > 0) {
      trace_overhead_frac_ =
          1.0 - static_cast<double>(calibrated_untraced_ns) /
                    static_cast<double>(calibrated_traced_ns);
    }
    if (writer) {
      writer->Stop();
      epoch_after_ = engine_.manager->stats();
      writer_ = writer->stats();
      ops_ = writer->ops();
      publishes_ = writer->publishes();
    }
  }

  /// Per measured batch, outside the pipeline time: failure and match
  /// counts, the workload descriptors, and the documents kept for the
  /// reference check.
  void Record(Batch& batch, bool keep, uint64_t epoch) {
    std::string tag_key;
    std::string projected_key;
    for (size_t i = 0; i < batch.texts.size(); ++i) {
      const size_t d = batch.first + i;
      bytes_ += batch.texts[i].size();
      if (!batch.ok[i]) {
        ++failed_docs_;
        continue;
      }
      matches_ += batch.matched[i].size();
      for (const xml::DocumentPath& path : xml::ExtractPaths(batch.docs[i])) {
        tag_key.clear();
        projected_key.clear();
        for (uint32_t pos = 1; pos <= path.length(); ++pos) {
          tag_key.append(path.Tag(pos));
          tag_key.push_back('/');
          projected_key.append(path.Tag(pos));
          for (const xml::Attribute& a : path.Attributes(pos)) {
            if (referenced_attributes_.count(a.name) == 0) continue;
            projected_key.push_back('@');
            projected_key.append(a.name);
            projected_key.push_back('=');
            projected_key.append(a.value);
          }
          projected_key.push_back('/');
        }
        ++paths_;
        if (!tag_keys_.insert(tag_key).second) ++tag_repeats_;
        if (!projected_keys_.insert(projected_key).second) ++projected_repeats_;
      }
      if (keep) {
        kept_.push_back(Kept{d, epoch, std::move(batch.texts[i]),
                             std::move(batch.matched[i])});
      }
    }
  }

  void ReplayBatch(const Batch& batch, core::MatchContext* ctx) {
    for (size_t i = 0; i < batch.docs.size(); ++i) {
      if (!batch.ok[i]) continue;
      const uint32_t id = static_cast<uint32_t>(batch.first + i);
      if (spec_.live) {
        core::IndexEpochManager::PinnedSnapshot snap = engine_.manager->Pin();
        ReplayDocument(snap->partition(0), batch.docs[i], id, ctx, &spans_,
                       &replay_);
      } else {
        ReplayDocument(engine_.filter->partition_matcher(0), batch.docs[i], id,
                       ctx, &spans_, &replay_);
      }
      if (xcheck_texts_.size() < kCrossCheckDocs) {
        xcheck_texts_.push_back(batch.texts[i]);
        xcheck_docs_.insert(id);
      }
    }
  }

  /// Frozen workloads: subscription visibility, in a phase of its own
  /// after the measured stream, so that stream never pays the index
  /// rebuild an add can cause.
  /// New subscriptions fall due on an open-loop schedule, and the
  /// calling thread adds each when due. After every spec_.publish_every
  /// ops it filters a one-element probe document, the frozen filter's
  /// counterpart of Publish(): that FilterBatch prepares the evaluation
  /// orders first, so its return is when the adds can match. The thread
  /// spins until an op is due, as nothing else runs in this phase and a
  /// sleep's wake-up jitter would be larger than an add. A kPostDocs
  /// batch of real documents follows, untimed, for the reference check.
  void FrozenVisibility() {
    exec::ParallelFilter& f = *engine_.filter;
    Result<xml::Document> probe = xml::Document::Parse("<probe/>");
    if (!probe.ok()) Die("cannot parse the probe document");
    const exec::DocRef probe_ref{&*probe};
    std::vector<std::vector<core::ExprId>> probe_matched(1);
    std::vector<uint8_t> probe_ok(1);
    StoreSink probe_sink(&probe_matched, &probe_ok);
    const double period_ns = 1e9 / spec_.writer_ops_per_s;
    const uint64_t start_ns = NowNs();
    auto due_at = [&](size_t op) {
      return start_ns + static_cast<uint64_t>(static_cast<double>(op) * period_ns);
    };
    std::vector<uint64_t> pending_due;
    for (size_t op = 0; op < kVisibleOps; ++op) {
      const uint64_t due = due_at(op);
      uint64_t now = NowNs();
      while (now < due) now = NowNs();
      ++writer_.attempted;
      writer_.lag_ms.push_back(Ms(now - due));
      Result<core::ExprId> sid = f.AddExpression(writer_pool_[op]);
      writer_.subscribe_us.push_back(static_cast<double>(NowNs() - now) / 1e3);
      if (sid.ok()) {
        frozen_added_.push_back(op);
        pending_due.push_back(due);
      } else {
        ++writer_.failed;
      }
      if ((op + 1) % spec_.publish_every != 0 && op + 1 < kVisibleOps) continue;
      const uint64_t p0 = NowNs();
      Status st = f.FilterBatch(std::span<const exec::DocRef>(&probe_ref, 1),
                                probe_sink);
      const uint64_t p1 = NowNs();
      if (!st.ok() || !probe_ok[0]) {
        writer_.failed += pending_due.size();
        pending_due.clear();
        continue;
      }
      writer_.publish_ms.push_back(Ms(p1 - p0));
      writer_.ops_per_publish.push_back(static_cast<double>(pending_due.size()));
      for (uint64_t d : pending_due) writer_.visible_ms.push_back(Ms(p1 - d));
      pending_due.clear();
    }

    Batch batch;
    batch.first = next_doc_;
    docs_.Generate(next_doc_, kPostDocs, &batch.texts);
    RunBatch(f, &batch, nullptr);
    adds_from_doc_ = next_doc_;
    for (size_t i = 0; i < kPostDocs; ++i) {
      ++post_docs_;
      if (!batch.ok[i]) {
        ++failed_docs_;
        continue;
      }
      kept_.push_back(Kept{next_doc_ + i, 0, std::move(batch.texts[i]),
                           std::move(batch.matched[i])});
    }
    next_doc_ += kPostDocs;
  }

  void CheckDocument(core::FilterEngine& ref, const Kept& kept) {
    ++checked_docs_;
    Result<xml::Document> doc = xml::Document::Parse(kept.text);
    std::vector<core::ExprId> want;
    if (!doc.ok() || !ref.FilterDocument(*doc, &want).ok()) {
      Die("reference failed on doc " + std::to_string(kept.doc));
    }
    std::sort(want.begin(), want.end());
    if (kept.matched == want) return;
    ++mismatches_;
    core::ExprId sid = 0;
    if (first_divergence_.empty() &&
        FirstDivergence(kept.matched, want, &sid)) {
      const bool extra =
          std::binary_search(kept.matched.begin(), kept.matched.end(), sid);
      first_divergence_ = "doc " + std::to_string(kept.doc) +
                          ", subscription " + std::to_string(sid) +
                          (extra ? ": matched, reference did not"
                                 : ": reference matched, engine did not");
    }
  }

  /// Reference check, outside the timed region.
  void Check() {
    if (spec_.live) {
      CheckLive();
    } else {
      CheckFrozen();
    }
  }

  /// Frozen workloads: kept documents against YFilter, a different
  /// algorithm family. The visibility phase's adds go into the
  /// reference, in order, before the documents filtered after them.
  void CheckFrozen() {
    yfilter::YFilter ref;
    for (const std::string& e : expressions_) {
      if (!ref.AddExpression(e).ok()) Die("reference AddExpression(" + e + ")");
    }
    bool added = false;
    for (const Kept& kept : kept_) {
      if (!added && kept.doc >= adds_from_doc_) {
        for (size_t op : frozen_added_) {
          if (!ref.AddExpression(writer_pool_[op]).ok()) {
            Die("reference AddExpression(" + writer_pool_[op] + ")");
          }
        }
        added = true;
      }
      CheckDocument(ref, kept);
    }
  }

  /// Live workload: kept batches against a Matcher fed the benchmark's
  /// own op log up to the batch's pinned epoch. The reference only
  /// moves forward, so each checked epoch is the one a fresh Matcher
  /// replaying the log would build.
  void CheckLive() {
    core::Matcher ref;
    for (const std::string& e : expressions_) {
      if (!ref.AddExpression(e).ok()) Die("reference AddExpression(" + e + ")");
    }
    size_t applied = 0;
    for (const Kept& kept : kept_) {
      size_t visible = 0;
      // The set-up epoch holds no writer op.
      if (kept.epoch > setup_epoch_) {
        auto it = std::find_if(
            publishes_.begin(), publishes_.end(),
            [&](const PublishRecord& p) { return p.epoch == kept.epoch; });
        if (it == publishes_.end()) {
          Die("batch pinned unknown epoch " + std::to_string(kept.epoch));
        }
        visible = it->ops;
      }
      if (visible < applied) Die("batch epochs went backwards");
      for (; applied < visible; ++applied) {
        const OpRecord& op = ops_[applied];
        if (op.subscribe) {
          Result<core::ExprId> sid = ref.AddExpression(writer_pool_[op.expr]);
          if (!sid.ok() || *sid != op.sid) Die("reference sid diverged");
        } else if (!ref.RemoveSubscription(op.sid).ok()) {
          Die("reference RemoveSubscription failed");
        }
      }
      CheckDocument(ref, kept);
    }
  }

  void Emit() {
    const double docs = static_cast<double>(std::max<size_t>(1, measured_docs_));
    const double paths = static_cast<double>(std::max<uint64_t>(1, paths_));
    Json j;
    j.Begin('{');
    j.Key("workload");
    j.Str(spec_.name);
    j.Key("seed");
    j.Int(args_.seed);
    j.Key("trace");
    j.Int(args_.trace ? 1 : 0);
    j.Key("threads");
    j.Int(spec_.threads);
    j.Key("batch_docs");
    j.Int(spec_.batch_docs);
    j.Key("attempted");
    j.Int(measured_docs_ + post_docs_ + writer_.attempted);
    j.Key("failed");
    j.Int(failed_docs_ + mismatches_ + writer_.failed);
    j.Key("checked_docs");
    j.Int(checked_docs_);
    j.Key("mismatched_docs");
    j.Int(mismatches_);
    j.Key("first_divergence");
    j.Str(first_divergence_);
    j.Key("docs");
    j.Int(measured_docs_);
    j.Key("measured_s");
    j.Num(static_cast<double>(measured_ns_) / 1e9);
    j.Key("setup_s");
    j.NumArray(setup_s_);
    j.Key("setup_busy_ticks");
    j.NumArray(setup_busy_ticks_);
    j.Key("setup_steal_ticks");
    j.NumArray(setup_steal_ticks_);
    j.Key("batch_wall_ms");
    j.NumArray(batch_wall_ms_);
    j.Key("batch_busy_ticks");
    j.NumArray(batch_busy_ticks_);
    j.Key("batch_steal_ticks");
    j.NumArray(batch_steal_ticks_);
    j.Key("index_bytes");
    j.Int(index_bytes_);
    j.Key("peak_rss_mib");
    j.Num(peak_rss_mib_);
    j.Key("writer");
    j.Begin('{');
    j.Key("ops_per_s");
    j.Num(spec_.writer_ops_per_s);
    j.Key("publish_every");
    j.Int(spec_.publish_every);
    j.Key("visible_ms");
    j.NumArray(writer_.visible_ms);
    j.Key("lag_ms");
    j.NumArray(writer_.lag_ms);
    j.Key("subscribe_us");
    j.NumArray(writer_.subscribe_us);
    j.Key("publish_ms");
    j.NumArray(writer_.publish_ms);
    j.Key("ops_per_publish");
    j.NumArray(writer_.ops_per_publish);
    if (spec_.live) {
      j.Key("epochs_published");
      j.Int(epoch_after_.publishes - epoch_before_.publishes);
      j.Key("ops_applied");
      j.Int(epoch_after_.ops_applied - epoch_before_.ops_applied);
      j.Key("retire_waits");
      j.Int(epoch_after_.retire_waits - epoch_before_.retire_waits);
      j.Key("retire_wait_spins");
      j.Int(epoch_after_.retire_wait_spins - epoch_before_.retire_wait_spins);
    }
    j.End('}');
    j.Key("descriptors");
    j.Begin('{');
    j.Key("subscriptions");
    j.Int(expressions_.size());
    j.Key("distinct_expressions");
    j.Int(distinct_exprs_);
    j.Key("distinct_predicates");
    j.Int(distinct_preds_);
    j.Key("referenced_attributes");
    j.Int(referenced_attributes_.size());
    j.Key("match_share");
    j.Num(static_cast<double>(matches_) / docs /
          static_cast<double>(expressions_.size()));
    j.Key("paths_per_doc");
    j.Num(static_cast<double>(paths_) / docs);
    j.Key("bytes_per_doc");
    j.Num(static_cast<double>(bytes_) / docs);
    j.Key("tag_path_repeat_share");
    j.Num(static_cast<double>(tag_repeats_) / paths);
    j.Key("projected_path_repeat_share");
    j.Num(static_cast<double>(projected_repeats_) / paths);
    j.End('}');
    if (args_.trace) EmitTrace(&j);
    j.End('}');
    std::printf("%s\n", j.str().c_str());
  }

  void EmitTrace(Json* j) {
    // Aggregate the span log by name.
    const char* names[] = {"pipeline.batch", "xml.parse", "exec.filter_batch",
                           "core.replay", "xml.extract", "core.begin",
                           "core.path", "core.encode", "core.predicate",
                           "core.collect"};
    auto total = [j](const char* name, const SpanTotal& t) {
      j->Key(name);
      j->Begin('{');
      j->Key("count");
      j->Int(t.count);
      j->Key("ns");
      j->Int(t.nanos);
      j->End('}');
    };
    // All spans, then only those of the cross-checked documents.
    for (const bool xcheck : {false, true}) {
      j->Key(xcheck ? "xcheck_spans" : "spans");
      j->Begin('{');
      for (const char* name : names) {
        SpanTotal t;
        for (const Span& s : spans_.spans()) {
          if (std::strcmp(s.name, name) != 0) continue;
          if (xcheck && xcheck_docs_.count(s.doc) == 0) continue;
          ++t.count;
          t.nanos += s.end - s.start;
        }
        total(name, t);
      }
      if (!xcheck) {
        total("xpath.parse", xpath_parse_);
        total("core.add", core_add_);
      }
      j->End('}');
    }
    j->Key("replay");
    j->Begin('{');
    j->Key("docs");
    j->Int(replay_.docs);
    j->Key("paths");
    j->Int(replay_.paths);
    j->Key("processed_paths");
    j->Int(replay_.processed_paths);
    j->Key("predicate_hits");
    j->Int(replay_.predicate_hits);
    j->Key("matches");
    j->Int(replay_.matches);
    j->End('}');
    j->Key("exec");
    j->Begin('{');
    j->Key("batch_ms");
    j->NumArray(batch_ms_);
    j->Key("busy_frac");
    j->NumArray(busy_frac_);
    j->Key("steals_per_batch");
    j->NumArray(steals_per_batch_);
    j->Key("driver_parse_frac");
    j->NumArray(parse_frac_);
    j->End('}');
    j->Key("trace_overhead_frac");
    j->Num(trace_overhead_frac_);
    EmitRegistryCrossCheck(j);
    if (!args_.trace_out.empty()) WriteSpans();
  }

  /// The engine's own stage totals (stats()) for replayed documents,
  /// read from the stand-alone Matcher built by TracedSetUp, which
  /// books them through its bound registry instruments.
  void EmitRegistryCrossCheck(Json* j) {
    xcheck_->ResetStats();
    std::vector<core::ExprId> matched;
    for (const std::string& text : xcheck_texts_) {
      Result<xml::Document> doc = xml::Document::Parse(text);
      matched.clear();
      if (!doc.ok() || !xcheck_->FilterDocument(*doc, &matched).ok()) {
        Die("cross-check FilterDocument failed");
      }
    }
    const core::EngineStats& s = xcheck_->stats();
    j->Key("registry");
    j->Begin('{');
    j->Key("docs");
    j->Int(s.documents);
    j->Key("encode_us");
    j->Num(s.encode_micros);
    j->Key("predicate_us");
    j->Num(s.predicate_micros);
    j->Key("expression_us");
    j->Num(s.expression_micros);
    j->Key("collect_us");
    j->Num(s.collect_micros);
    j->End('}');
  }

  void WriteSpans() const {
    std::ofstream out(args_.trace_out);
    if (!out) Die("cannot write " + args_.trace_out);
    out << "name,parent,doc,start_ns,end_ns\n";
    for (const Span& s : spans_.spans()) {
      out << s.name << ',' << s.parent << ',';
      if (s.doc != UINT32_MAX) out << s.doc;
      out << ',' << s.start << ',' << s.end << '\n';
    }
  }

  const Args& args_;
  const WorkloadSpec& spec_;
  DocSource docs_;
  std::vector<std::string> expressions_;
  std::vector<std::string> writer_pool_;
  std::set<std::string> referenced_attributes_;
  Engine engine_;

  std::vector<double> setup_s_;
  std::vector<double> setup_busy_ticks_;
  std::vector<double> setup_steal_ticks_;
  size_t index_bytes_ = 0;
  size_t distinct_exprs_ = 0;
  size_t distinct_preds_ = 0;

  size_t next_doc_ = 0;
  size_t measured_docs_ = 0;
  uint64_t measured_ns_ = 0;
  std::vector<double> batch_wall_ms_;
  std::vector<double> batch_busy_ticks_;
  std::vector<double> batch_steal_ticks_;
  uint64_t failed_docs_ = 0;
  std::vector<Kept> kept_;
  /// Frozen workloads: writer_pool_ indices added, in order, and the
  /// first document filtered after them.
  std::vector<size_t> frozen_added_;
  size_t adds_from_doc_ = SIZE_MAX;
  size_t post_docs_ = 0;

  // Descriptors, accumulated per batch.
  uint64_t matches_ = 0;
  uint64_t bytes_ = 0;
  uint64_t paths_ = 0;
  uint64_t tag_repeats_ = 0;
  uint64_t projected_repeats_ = 0;
  std::unordered_set<std::string> tag_keys_;
  std::unordered_set<std::string> projected_keys_;

  WriterStats writer_;
  std::vector<OpRecord> ops_;
  std::vector<PublishRecord> publishes_;
  core::IndexEpochManager::Stats epoch_before_;
  core::IndexEpochManager::Stats epoch_after_;
  uint64_t setup_epoch_ = 0;

  double peak_rss_mib_ = 0;
  uint64_t checked_docs_ = 0;
  uint64_t mismatches_ = 0;
  std::string first_divergence_;

  // Traced run only.
  SpanLog spans_;
  SpanTotal xpath_parse_;
  SpanTotal core_add_;
  ReplayCounts replay_;
  std::unique_ptr<core::Matcher> xcheck_;
  std::vector<std::string> xcheck_texts_;
  std::unordered_set<uint32_t> xcheck_docs_;
  std::vector<double> batch_ms_;
  std::vector<double> busy_frac_;
  std::vector<double> steals_per_batch_;
  std::vector<double> parse_frac_;
  double trace_overhead_frac_ = 0;
};

}  // namespace
}  // namespace xpred::pipebench

int main(int argc, char** argv) {
  using namespace xpred::pipebench;
  Args args = ParseArgs(argc, argv);
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) Die("unknown workload " + args.workload);
  Run run(args, *spec);
  return run.Main();
}
