// perfbench — the repository benchmark's measuring program.
//
// One process runs one workload from one seed:
//
//   perfbench --workload ring --seed 7 --seconds 15 --trace 0 --out DIR
//
// A workload is K ring-account corpora (K = WorkloadSpec::corpora, each
// generated from its own seed derived from --seed) and one joiner
// configuration. A round joins every corpus once.
//
//  1. Set-up: the K corpora are generated and interned several times;
//     setup_s is the median.
//  2. Warm-up: untimed rounds let page faults, thread spin-up and the
//     allocator settle. Each corpus's first join gives the (a, b, NSLD)
//     digest every later join of that corpus must reproduce.
//  3. Timed rounds run back to back (a closed loop of one caller) until
//     --seconds have passed. join_s is the median over rounds of the mean
//     wall seconds of one SelfJoin call; join_cpu_s is the same for
//     process CPU seconds.
//  4. Output checks: TSJ equals BruteForceNsldSelfJoin on a seeded
//     subsample (TSJ workloads), sampled reported NSLD values recompute
//     exactly, and on the hmj workload HMJ equals TSJ on every corpus.
//
// With --trace 0 the last stdout line is the end-to-end JSON result.
// With --trace 1 untraced and traced rounds alternate: traced joins record
// spans around the calls into each module, plus spans laid out from the
// JobStats the engines return; the layer probes run once; the last line
// holds the per-layer metrics. One probe joins the first corpus again
// with shuffle spill on, which measures the spill layer and must
// reproduce the in-memory result. Spans stay in memory and are written as
// Chrome trace-event JSON into DIR at exit.
//
// Every number comes from a public entry point, the counters the joins
// already return, or a span around a public call.

#include <sys/resource.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/random.h"
#include "eval/join_metrics.h"
#include "graph/similarity_graph.h"
#include "hmj/hmj.h"
#include "massjoin/mass_join.h"
#include "tokenized/sld.h"
#include "tsj/tsj.h"
#include "workload/ring_workload.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace tsj {
namespace perfbench {
namespace {

// ---- Workloads -------------------------------------------------------------

enum class JoinerKind { kTsj, kHmj };

struct WorkloadSpec {
  const char* name;
  size_t accounts;  // per corpus
  size_t accounts_per_ring;
  size_t corpora;   // per run; more corpora average out seed-to-seed cost
  size_t workers;
  JoinerKind joiner;
  // Fig. 7's corpus shape: 2-4 tokens of 2-4 syllables.
  bool multi_token_names;
  size_t warmup_rounds;
};

// Budget of the traced run's spill probe: about half the ~4.0M in-memory
// shuffle peak of a 30k corpus at 4 workers. Constant, so the spill work
// does not depend on a prior run.
constexpr size_t kSpillBudgetRecords = 2000000;

// Shuffle spill is a probe of the traced run, not a workload: the wall
// time of a spilling join follows the host's disk, and its quartile
// spread over ten seeds read 0.10 in one set and 0.44 in the next.
constexpr WorkloadSpec kWorkloads[] = {
    {"ring", 100000, 150, 1, 4, JoinerKind::kTsj, false, 2},
    {"ring-serial", 30000, 150, 2, 1, JoinerKind::kTsj, false, 1},
    // Denser rings than the default: with one ring per 150 accounts the
    // 48 rings of 8 corpora move ring_recall by 13% (quartile spread)
    // from seed to seed.
    {"hmj", 1000, 25, 16, 4, JoinerKind::kHmj, true, 1},
};

constexpr double kThreshold = 0.1;
constexpr uint32_t kMaxTokenFrequency = 1000;
constexpr int kMinSetupRepeats = 3;
constexpr int kMaxSetupRepeats = 25;
constexpr double kSetupSeconds = 1.0;
constexpr size_t kMinTimedRounds = 3;
constexpr size_t kBruteForceSample = 600;
constexpr size_t kRecheckedPairs = 2000;
constexpr size_t kBoundedProbePairs = 100000;
constexpr size_t kUnboundedProbePairs = 20000;

// The default account workload of the figure harnesses (1-4 tokens of 1-4
// syllables, Zipf 0.9, rings of 3-8 members; one ring per 150 accounts
// unless the spec says otherwise). The seed draws the accounts, rings and
// edits; the token vocabulary keeps the generator's default seed, because
// a seeded vocabulary moves the join's work by about 11% (quartile spread)
// from seed to seed at 100k accounts.
RingWorkloadOptions WorkloadOptions(const WorkloadSpec& spec, uint64_t seed) {
  RingWorkloadOptions options;
  options.num_accounts = spec.accounts;
  options.num_rings = spec.accounts / spec.accounts_per_ring;
  options.min_ring_size = 3;
  options.max_ring_size = 8;
  options.names.vocabulary_size = std::max<size_t>(500, spec.accounts / 5);
  options.names.zipf_skew = 0.9;
  options.names.min_tokens = spec.multi_token_names ? 2 : 1;
  options.names.max_tokens = 4;
  options.names.min_syllables = spec.multi_token_names ? 2 : 1;
  options.names.max_syllables = 4;
  options.seed = seed;
  return options;
}

// A non-empty spill_dir turns shuffle spill on under the constant budget.
TsjOptions MakeTsjOptions(const WorkloadSpec& spec,
                          const std::string& spill_dir = "") {
  TsjOptions options;
  options.threshold = kThreshold;
  options.max_token_frequency = kMaxTokenFrequency;
  options.matching = TokenMatching::kFuzzy;
  options.mapreduce.num_workers = spec.workers;
  if (!spill_dir.empty()) {
    options.enable_shuffle_spill = true;
    options.mapreduce.memory_budget_records = kSpillBudgetRecords;
    options.mapreduce.spill_dir = spill_dir;
  }
  return options;
}

HmjOptions MakeHmjOptions(const WorkloadSpec& spec) {
  HmjOptions options;
  options.threshold = kThreshold;
  options.mapreduce.num_workers = spec.workers;
  return options;
}

// ---- Clocks and process counters -------------------------------------------

using Clock = std::chrono::steady_clock;
const Clock::time_point kProcessStart = Clock::now();

double NowSeconds() {
  return std::chrono::duration<double>(Clock::now() - kProcessStart).count();
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double D(uint64_t v) { return static_cast<double>(v); }

// ---- Spans -----------------------------------------------------------------

// One span: a named interval, the span that caused it, and the join it
// belongs to (0 = not part of a join). Derived spans are laid out from
// engine-reported durations instead of being timed here.
struct Span {
  std::string name;
  double start = 0;
  double end = 0;
  int id = 0;
  int parent = 0;
  int join = 0;
  bool derived = false;
};

// In-memory span recorder; every call is a no-op when disabled.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  int Begin(const std::string& name, int parent = 0, int join = 0) {
    if (!enabled_) return 0;
    spans_.push_back(Span{name, NowSeconds(), 0, next_id_, parent, join});
    return next_id_++;
  }
  void End(int id) {
    if (id > 0) spans_[id - 1].end = NowSeconds();
  }
  int AddDerived(const std::string& name, double start, double seconds,
                 int parent, int join) {
    if (!enabled_) return 0;
    spans_.push_back(
        Span{name, start, start + seconds, next_id_, parent, join, true});
    return next_id_++;
  }
  double Duration(int id) const {
    return id > 0 ? spans_[id - 1].end - spans_[id - 1].start : 0.0;
  }

  // Chrome trace-event JSON: one "X" (complete) event per span, in
  // microseconds, one timeline row per join.
  void Write(const std::string& path,
             const std::map<std::string, std::string>& metadata) const {
    std::ofstream out(path);
    out << "{\"otherData\":{";
    bool first = true;
    for (const auto& [key, value] : metadata) {
      out << (first ? "" : ",") << '"' << key << "\":\"" << value << '"';
      first = false;
    }
    out << "},\"traceEvents\":[";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char buf[512];
      std::snprintf(buf, sizeof(buf),
                    "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,"
                    "\"parent\":%d,\"join\":%d,\"derived\":%s}}",
                    i == 0 ? "" : ",", s.name.c_str(), s.join, s.start * 1e6,
                    (s.end - s.start) * 1e6, s.id, s.parent, s.join,
                    s.derived ? "true" : "false");
      out << buf;
    }
    out << "]}\n";
  }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  int next_id_ = 1;
};

// Span around one scope.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name)
      : tracer_(tracer), id_(tracer->Begin(name)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

// Lays the engine-reported phases of each job out as derived child spans
// of `parent`, back to back from `start`. The engines run phases one after
// another but report durations, not start times, so the layout follows
// the pipeline's job order rather than the exact chronology.
void AddJobSpans(Tracer* tracer, const PipelineStats& pipeline, double start,
                 int parent, int join) {
  double t = start;
  for (const JobStats& job : pipeline.jobs) {
    const int job_span = tracer->AddDerived(
        "mr." + job.name, t, job.total_wall_seconds(), parent, join);
    tracer->AddDerived("map", t, job.map_wall_seconds, job_span, join);
    t += job.map_wall_seconds;
    tracer->AddDerived("shuffle", t, job.shuffle_wall_seconds, job_span, join);
    t += job.shuffle_wall_seconds;
    tracer->AddDerived("reduce", t, job.reduce_wall_seconds, job_span, join);
    t += job.reduce_wall_seconds;
  }
}

// ---- Joins -----------------------------------------------------------------

struct JoinOutcome {
  Status status;
  std::vector<TsjPair> pairs;
  TsjRunInfo tsj;
  HmjRunInfo hmj;
  double wall_s = 0;
  double cpu_s = 0;
  // Traced joins only.
  double pre_pipeline_s = 0;
  double jobs_s = 0;
};

void SortPairs(std::vector<TsjPair>* pairs) {
  std::sort(pairs->begin(), pairs->end(),
            [](const TsjPair& x, const TsjPair& y) {
              return x.a != y.a ? x.a < y.a : x.b < y.b;
            });
}

// Order-independent identity of a result: (a, b, NSLD bits) in (a, b)
// order.
uint64_t Digest(std::vector<TsjPair> pairs) {
  SortPairs(&pairs);
  uint64_t h = pairs.size();
  for (const TsjPair& p : pairs) {
    h = Mix64(h ^ ((static_cast<uint64_t>(p.a) << 32) | p.b));
    h = Mix64(h ^ std::bit_cast<uint64_t>(p.nsld));
  }
  return h;
}

bool SamePairs(std::vector<TsjPair> x, std::vector<TsjPair> y) {
  SortPairs(&x);
  SortPairs(&y);
  if (x.size() != y.size()) return false;
  for (size_t i = 0; i < x.size(); ++i) {
    if (x[i].a != y[i].a || x[i].b != y[i].b || x[i].nsld != y[i].nsld) {
      return false;
    }
  }
  return true;
}

// One corpus of the workload and the reference result its joins must
// reproduce.
struct CorpusRun {
  RingWorkload workload;
  std::optional<uint64_t> digest;  // of the first join
  std::vector<TsjPair> reference;  // the first join's pairs
  TsjRunInfo reference_tsj;        // hmj workload: TSJ on this corpus
};

class Bench {
 public:
  Bench(const WorkloadSpec& spec, bool trace) : spec_(spec), tracer_(trace) {}

  Tracer* tracer() { return &tracer_; }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

  void Fail(const std::string& what) {
    ++failed_;
    std::cout << "FAILED " << what << "\n";
  }
  void CountCheck() { ++attempted_; }

  // Joins every corpus once; `join_id` > 0 traces the round's joins with
  // consecutive ids from it. Returns the outcomes in corpus order.
  std::vector<JoinOutcome> Round(std::vector<CorpusRun>* corpora,
                                 int join_id) {
    std::vector<JoinOutcome> outcomes;
    for (CorpusRun& run : *corpora) {
      outcomes.push_back(join_id > 0 ? TracedJoin(run, join_id++)
                                     : Join(run.workload.corpus));
      Check(&run, outcomes.back());
    }
    return outcomes;
  }

 private:
  JoinOutcome Join(const Corpus& corpus) {
    JoinOutcome outcome;
    const double cpu0 = CpuSeconds();
    const Clock::time_point t0 = Clock::now();
    StatusOr<std::vector<TsjPair>> result =
        spec_.joiner == JoinerKind::kTsj
            ? TokenizedStringJoiner(MakeTsjOptions(spec_))
                  .SelfJoin(corpus, &outcome.tsj)
            : HybridMetricJoiner(MakeHmjOptions(spec_))
                  .SelfJoin(corpus, &outcome.hmj);
    outcome.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
    outcome.cpu_s = CpuSeconds() - cpu0;
    if (result.ok()) {
      outcome.pairs = std::move(*result);
    } else {
      outcome.status = result.status();
    }
    if (spec_.joiner == JoinerKind::kHmj && !outcome.hmj.completed) {
      outcome.status = Status::Internal("HMJ exceeded its work limit");
    }
    return outcome;
  }

  // A join under a root span: the pre-pipeline token statistics (timed
  // through the public call SelfJoin makes before its first job), the
  // SelfJoin call, and its jobs laid out from JobStats.
  JoinOutcome TracedJoin(const CorpusRun& run, int join_id) {
    const bool is_tsj = spec_.joiner == JoinerKind::kTsj;
    const int root = tracer_.Begin(is_tsj ? "join.tsj" : "join.hmj", 0,
                                   join_id);
    double pre_s = 0;
    if (is_tsj) {
      const int span = tracer_.Begin("corpus.ComputeTokenStringFrequencies",
                                     root, join_id);
      (void)run.workload.corpus.ComputeTokenStringFrequencies();
      tracer_.End(span);
      pre_s = tracer_.Duration(span);
    }
    const int call =
        tracer_.Begin(is_tsj ? "tsj.SelfJoin" : "hmj.SelfJoin", root, join_id);
    const double call_start = NowSeconds();
    JoinOutcome outcome = Join(run.workload.corpus);
    tracer_.End(call);
    const PipelineStats& pipeline =
        is_tsj ? outcome.tsj.pipeline : outcome.hmj.pipeline;
    AddJobSpans(&tracer_, pipeline, call_start, call, join_id);
    tracer_.End(root);
    outcome.pre_pipeline_s = pre_s;
    outcome.jobs_s = pipeline.total_wall_seconds();
    return outcome;
  }

  // Counts the join and checks it against the corpus's first join.
  void Check(CorpusRun* run, const JoinOutcome& outcome) {
    ++attempted_;
    if (!outcome.status.ok()) {
      Fail("join: " + outcome.status.ToString());
      return;
    }
    const uint64_t digest = Digest(outcome.pairs);
    if (!run->digest) {
      run->digest = digest;
      run->reference = outcome.pairs;
    } else if (digest != *run->digest) {
      Fail("join: output differs from the corpus's first join");
    }
  }

  const WorkloadSpec& spec_;
  Tracer tracer_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

// ---- Output checks ---------------------------------------------------------

// TSJ on a seeded subsample (whole rings first, then random accounts)
// must equal the brute-force NSLD self-join of that subsample.
bool SubsampleMatchesBruteForce(const WorkloadSpec& spec,
                                const RingWorkload& workload,
                                uint64_t seed) {
  Rng rng(seed ^ 0x5eedc0deULL);
  std::vector<char> taken(workload.names.size(), 0);
  std::vector<uint32_t> ids;
  std::vector<size_t> ring_order(workload.rings.size());
  for (size_t r = 0; r < ring_order.size(); ++r) ring_order[r] = r;
  rng.Shuffle(&ring_order);
  for (size_t r : ring_order) {
    if (ids.size() + workload.rings[r].size() > kBruteForceSample / 2) break;
    for (uint32_t id : workload.rings[r]) {
      ids.push_back(id);
      taken[id] = 1;
    }
  }
  const size_t target = std::min(kBruteForceSample, workload.names.size());
  while (ids.size() < target) {
    const auto id = static_cast<uint32_t>(rng.Uniform(workload.names.size()));
    if (!taken[id]) {
      taken[id] = 1;
      ids.push_back(id);
    }
  }
  Corpus sample;
  for (uint32_t id : ids) sample.AddString(workload.names[id]);
  auto joined =
      TokenizedStringJoiner(MakeTsjOptions(spec)).SelfJoin(sample);
  return joined.ok() &&
         SamePairs(*joined, BruteForceNsldSelfJoin(sample, kThreshold));
}

// Every sampled reported NSLD must recompute exactly and lie within the
// threshold.
bool ReportedNsldRecomputes(const RingWorkload& workload,
                            const std::vector<TsjPair>& pairs,
                            uint64_t seed) {
  if (pairs.empty()) return true;
  Rng rng(seed ^ 0xc4ec4ULL);
  const size_t n = std::min(kRecheckedPairs, pairs.size());
  for (size_t i = 0; i < n; ++i) {
    const TsjPair& p = pairs[rng.Uniform(pairs.size())];
    if (p.a >= p.b || p.b >= workload.names.size()) return false;
    const double nsld = Nsld(workload.names[p.a], workload.names[p.b]);
    if (nsld != p.nsld || nsld > kThreshold) return false;
  }
  return true;
}

std::vector<std::pair<uint32_t, uint32_t>> Edges(
    const std::vector<TsjPair>& pairs) {
  std::vector<std::pair<uint32_t, uint32_t>> edges;
  edges.reserve(pairs.size());
  for (const TsjPair& p : pairs) edges.emplace_back(p.a, p.b);
  return edges;
}

// Planted ring-member pairs, and how many of them share a connected
// component of the result's similarity graph.
std::pair<uint64_t, uint64_t> RingPairsFound(
    const RingWorkload& workload, const std::vector<TsjPair>& pairs) {
  const std::vector<Cluster> clusters =
      ClusterBySimilarity(workload.names.size(), Edges(pairs));
  std::vector<int64_t> component(workload.names.size(), -1);
  for (size_t c = 0; c < clusters.size(); ++c) {
    for (uint32_t id : clusters[c]) component[id] = static_cast<int64_t>(c);
  }
  uint64_t planted = 0, found = 0;
  for (const auto& ring : workload.rings) {
    for (size_t i = 0; i < ring.size(); ++i) {
      for (size_t j = i + 1; j < ring.size(); ++j) {
        ++planted;
        found += component[ring[i]] >= 0 &&
                 component[ring[i]] == component[ring[j]];
      }
    }
  }
  return {found, planted};
}

// ---- Layer probes (traced run only) ----------------------------------------

std::vector<std::string> SurvivingTokenTexts(const Corpus& corpus) {
  const std::vector<uint32_t> frequency =
      corpus.ComputeTokenStringFrequencies();
  std::vector<std::string> texts;
  for (TokenId token = 0; token < frequency.size(); ++token) {
    if (frequency[token] <= kMaxTokenFrequency) {
      texts.push_back(corpus.token_text(token));
    }
  }
  return texts;
}

// Microseconds per BoundedSld call (token-id path, no pair cache) over
// reported pairs; clears *all_within if a reported pair misses its budget.
double BoundedUsPerPair(const Corpus& corpus, const std::vector<TsjPair>& pairs,
                        bool* all_within) {
  const size_t n = std::min(kBoundedProbePairs, pairs.size());
  if (n == 0) return 0.0;
  SldVerifyScratch scratch;
  const Clock::time_point t0 = Clock::now();
  for (size_t i = 0; i < n; ++i) {
    const TsjPair& p = pairs[i];
    const int64_t budget = SldBudgetFromThreshold(
        kThreshold, corpus.aggregate_length(p.a), corpus.aggregate_length(p.b));
    const BoundedSldResult r =
        BoundedSld(corpus, corpus.tokens(p.a), corpus.tokens(p.b), budget,
                   TokenAligning::kExact, &scratch, nullptr);
    if (!r.within_budget) *all_within = false;
  }
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count() /
         D(n);
}

// Microseconds per unbounded Sld (DP plus Hungarian) on a seeded sample
// of account pairs.
double UnboundedUsPerPair(const RingWorkload& workload, uint64_t seed) {
  Rng rng(seed ^ 0x51dULL);
  const size_t n = workload.names.size();
  std::vector<std::pair<size_t, size_t>> sample(kUnboundedProbePairs);
  for (auto& [x, y] : sample) {
    x = rng.Uniform(n);
    y = rng.Uniform(n);
  }
  int64_t total_sld = 0;
  const Clock::time_point t0 = Clock::now();
  for (const auto& [x, y] : sample) {
    total_sld += Sld(workload.names[x], workload.names[y]);
  }
  const double us =
      std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
  std::cout << "probe sld.Sld: " << sample.size() << " pairs, total SLD "
            << total_sld << "\n";
  return us / D(sample.size());
}

// ---- Metrics ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// Per-layer counters of one join. `t` holds the TSJ counters: the timed
// join's own, or on the hmj workload those of the TSJ reference join on
// the same corpus.
std::vector<Metric> JoinLayerMetrics(const WorkloadSpec& spec,
                                     const JoinOutcome& join,
                                     const TsjRunInfo& t, size_t accounts) {
  const bool is_tsj = spec.joiner == JoinerKind::kTsj;
  const HmjRunInfo& h = join.hmj;
  const PipelineStats& pipeline = is_tsj ? t.pipeline : h.pipeline;
  auto tsj_phase = [&t](const std::string& prefix, double JobStats::*phase) {
    double total = 0;
    for (const JobStats& job : t.pipeline.jobs) {
      if (job.name.rfind(prefix, 0) == 0) total += job.*phase;
    }
    return total;
  };
  const uint64_t calls =
      is_tsj ? t.batched_verify_calls : h.batched_verify_calls;
  const uint64_t lanes =
      is_tsj ? t.batched_verify_lanes_filled : h.batched_verify_lanes_filled;
  const uint64_t slots =
      is_tsj ? t.batched_verify_lane_slots : h.batched_verify_lane_slots;
  return {
      {"tsj.distinct_candidates", D(t.distinct_candidates), "count"},
      {"tsj.dedup_ratio",
       Ratio(D(t.distinct_candidates),
             D(t.shared_token_candidates + t.similar_token_candidates)),
       "ratio"},
      {"tsj.filter_prune_ratio",
       Ratio(D(t.length_filtered + t.histogram_filtered),
             D(t.distinct_candidates)),
       "ratio"},
      {"tsj.verify_yield", Ratio(D(t.result_pairs), D(t.verified_candidates)),
       "ratio"},
      {"mr.shared_token.reduce_s",
       tsj_phase("tsj-shared-token", &JobStats::reduce_wall_seconds), "s"},
      {"mr.dedup_verify.shuffle_s",
       tsj_phase("tsj-dedup-verify", &JobStats::shuffle_wall_seconds), "s"},
      {"mr.dedup_verify.reduce_s",
       tsj_phase("tsj-dedup-verify", &JobStats::reduce_wall_seconds), "s"},
      {"mr.peak_shuffle_records",
       D(is_tsj ? t.peak_shuffle_records
                : pipeline.max_peak_shuffle_records()),
       "count"},
      {"mr.combiner_kept_ratio",
       Ratio(D(pipeline.total_combiner_output_records()),
             D(pipeline.total_combiner_input_records())),
       "ratio"},
      {"mr.partitions", D(t.shuffle_partitions), "count"},
      {"mr.task_failures", D(pipeline.total_task_failures()), "count"},
      {"mr.task_retries", D(pipeline.total_task_retries()), "count"},
      {"sld.verify_work_units", D(t.verify_work_units), "count"},
      {"cache.l1_hit_ratio",
       Ratio(D(t.token_pair_cache_l1_hits),
             D(t.token_pair_cache_l1_hits + t.token_pair_cache_l1_misses)),
       "ratio"},
      {"cache.shared_hit_ratio",
       Ratio(D(t.token_pair_cache_hits),
             D(t.token_pair_cache_hits + t.token_pair_cache_misses)),
       "ratio"},
      {"cache.flush_batches", D(t.token_pair_cache_flush_batches), "count"},
      {"batch.lane_fill", Ratio(D(lanes), D(slots)), "ratio"},
      {"batch.edges_per_call", Ratio(D(lanes), D(calls)), "edges/call"},
      {"massjoin.similar_token_pairs", D(t.similar_token_pairs), "count"},
      {"hmj.distance_computations", D(h.distance_computations), "count"},
      {"hmj.pivot_filtered", D(h.pivot_filtered), "count"},
      {"hmj.replication", is_tsj ? 0.0 : Ratio(D(h.assignments), D(accounts)),
       "ratio"},
  };
}

std::string MetricsJson(bool correct, uint64_t attempted, uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.12g", metrics[i].value);
    out << (i == 0 ? "" : ", ") << '"' << metrics[i].name
        << "\": {\"value\": " << value << ", \"unit\": \"" << metrics[i].unit
        << "\"}";
  }
  out << "}}";
  return out.str();
}

std::string FilesystemType(const std::string& path) {
  struct statfs fs {};
  if (statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<uint64_t>(fs.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x9123683E: return "btrfs";
    case 0x58465342: return "xfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%llx",
                    static_cast<unsigned long long>(fs.f_type));
      return buf;
    }
  }
}

// ---- Driver ----------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".";
};

int Usage() {
  std::cerr << "usage: perfbench --workload <ring|ring-serial|hmj>"
               " --seed N --seconds S --trace 0|1 --out DIR\n";
  return 2;
}

std::optional<Args> ParseArgs(int argc, char** argv) {
  if (argc % 2 != 1) return std::nullopt;
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace" && (value == "0" || value == "1")) {
      args.trace = value == "1";
    } else if (flag == "--out") {
      args.out_dir = value;
    } else {
      return std::nullopt;
    }
    if (end != nullptr && (end == value.c_str() || *end != '\0')) {
      return std::nullopt;
    }
  }
  if (args.workload.empty() || !(args.seconds > 0)) return std::nullopt;
  return args;
}

int Run(const Args& args) {
  const WorkloadSpec* found = nullptr;
  for (const WorkloadSpec& w : kWorkloads) {
    if (args.workload == w.name) found = &w;
  }
  if (found == nullptr) return Usage();
  const WorkloadSpec& spec = *found;
  const bool is_tsj = spec.joiner == JoinerKind::kTsj;
  const double k = D(spec.corpora);

  const std::string build_type = PERFBENCH_BUILD_TYPE;
  const unsigned cpus = std::thread::hardware_concurrency();
  std::cout << "workload=" << spec.name << " seed=" << args.seed
            << " corpora=" << spec.corpora << " accounts=" << spec.accounts
            << " workers=" << spec.workers
            << " joiner=" << (is_tsj ? "tsj" : "hmj") << " T=" << kThreshold
            << " M=" << kMaxTokenFrequency << " trace=" << args.trace << "\n";
  std::cout << "build_type=" << build_type << " cpus=" << cpus << "\n";
  if (build_type != "Release") {
    std::cout << "WARNING: not a Release build; timings are not comparable\n";
  }

  std::filesystem::create_directories(args.out_dir);
  std::string spill_dir;
  if (args.trace && is_tsj) {
    spill_dir = (std::filesystem::path(args.out_dir) /
                 ("spill-" + std::to_string(getpid())))
                    .string();
    std::filesystem::create_directories(spill_dir);
    std::cout << "spill_dir=" << spill_dir
              << " fs=" << FilesystemType(spill_dir)
              << " budget_records=" << kSpillBudgetRecords << "\n";
  }
  Bench bench(spec, args.trace);
  Tracer* tracer = bench.tracer();

  // 1. Set-up, repeated: generate and intern the corpora.
  std::vector<double> setup_times, generate_times;
  std::vector<CorpusRun> corpora;
  const double setup_start = NowSeconds();
  for (int rep = 0; rep < kMaxSetupRepeats; ++rep) {
    if (rep >= kMinSetupRepeats &&
        NowSeconds() - setup_start >= kSetupSeconds) {
      break;
    }
    corpora.clear();
    const Clock::time_point t0 = Clock::now();
    for (size_t c = 0; c < spec.corpora; ++c) {
      ScopedSpan span(tracer, "workload.GenerateRingWorkload");
      const Clock::time_point g0 = Clock::now();
      corpora.emplace_back();
      corpora.back().workload = GenerateRingWorkload(
          WorkloadOptions(spec, args.seed * spec.corpora + c));
      generate_times.push_back(
          std::chrono::duration<double>(Clock::now() - g0).count());
    }
    setup_times.push_back(
        std::chrono::duration<double>(Clock::now() - t0).count());
  }

  // 2. Warm-up rounds; they also fix each corpus's reference result.
  for (size_t i = 0; i < spec.warmup_rounds; ++i) bench.Round(&corpora, 0);

  // 3. Timed rounds; in the traced run untraced and traced rounds
  // alternate, so both see the same machine state.
  std::vector<double> join_walls, join_cpus, traced_walls, job_walls,
      pre_walls;
  std::vector<JoinOutcome> last_traced;
  int next_join_id = 1;
  const double loop_start = NowSeconds();
  while (join_walls.size() < kMinTimedRounds ||
         NowSeconds() - loop_start < args.seconds) {
    double wall = 0, cpu = 0;
    for (const JoinOutcome& o : bench.Round(&corpora, 0)) {
      wall += o.wall_s;
      cpu += o.cpu_s;
    }
    join_walls.push_back(wall / k);
    join_cpus.push_back(cpu / k);
    if (!args.trace) continue;
    last_traced = bench.Round(&corpora, next_join_id);
    next_join_id += static_cast<int>(spec.corpora);
    double traced = 0, jobs = 0, pre = 0;
    for (const JoinOutcome& o : last_traced) {
      traced += o.wall_s;
      jobs += o.jobs_s;
      pre += o.pre_pipeline_s;
    }
    traced_walls.push_back(traced / k);
    job_walls.push_back(jobs / k);
    pre_walls.push_back(pre / k);
  }

  // 4. Output checks.
  for (size_t c = 0; c < corpora.size(); ++c) {
    CorpusRun& run = corpora[c];
    if (!run.digest) continue;  // its joins failed, already counted
    const uint64_t check_seed = args.seed * spec.corpora + c;
    if (is_tsj) {
      if (c == 0) {
        ScopedSpan span(tracer, "eval.BruteForceNsldSelfJoin");
        bench.CountCheck();
        if (!SubsampleMatchesBruteForce(spec, run.workload, check_seed)) {
          bench.Fail("check: TSJ differs from brute force on a subsample");
        }
      }
      bench.CountCheck();
      if (!ReportedNsldRecomputes(run.workload, run.reference, check_seed)) {
        bench.Fail("check: a reported NSLD does not recompute");
      }
    } else {
      ScopedSpan span(tracer, "tsj.SelfJoin.reference");
      bench.CountCheck();
      auto tsj_pairs = TokenizedStringJoiner(MakeTsjOptions(spec))
                           .SelfJoin(run.workload.corpus, &run.reference_tsj);
      if (!tsj_pairs.ok() || !SamePairs(*tsj_pairs, run.reference)) {
        bench.Fail("check: HMJ result differs from TSJ");
      }
    }
  }

  uint64_t ring_pairs_found = 0, ring_pairs_planted = 0;
  double recall_s = 0;
  {
    ScopedSpan span(tracer, "eval.RingRecall");
    const Clock::time_point t0 = Clock::now();
    for (const CorpusRun& run : corpora) {
      const auto [found_pairs, planted] =
          RingPairsFound(run.workload, run.reference);
      ring_pairs_found += found_pairs;
      ring_pairs_planted += planted;
    }
    recall_s = std::chrono::duration<double>(Clock::now() - t0).count() / k;
  }

  const double join_s = Median(join_walls);
  std::cout << "timed_rounds=" << join_walls.size() << " join_s_median="
            << join_s << " join_s_min="
            << *std::min_element(join_walls.begin(), join_walls.end())
            << " join_s_max="
            << *std::max_element(join_walls.begin(), join_walls.end())
            << " error_rate="
            << Ratio(D(bench.failed()), D(bench.attempted())) << "\n";
  std::cout << "join_s per round:";
  for (double s : join_walls) std::cout << ' ' << s;
  std::cout << "\nresult_pairs per corpus:";
  for (const CorpusRun& run : corpora) std::cout << ' ' << run.reference.size();
  std::cout << "\n";

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"join_s", join_s, "s"},
        {"join_cpu_s", Median(join_cpus), "s"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
        {"setup_s", Median(setup_times), "s"},
        {"join_ok_rate",
         1.0 - Ratio(D(bench.failed()), D(bench.attempted())), "ratio"},
        {"ring_recall", Ratio(D(ring_pairs_found), D(ring_pairs_planted)),
         "ratio"},
    };
  } else {
    // Counters of the last traced round, averaged over its joins.
    for (size_t c = 0; c < last_traced.size(); ++c) {
      const TsjRunInfo& t = is_tsj ? last_traced[c].tsj
                                   : corpora[c].reference_tsj;
      const std::vector<Metric> m = JoinLayerMetrics(
          spec, last_traced[c], t, corpora[c].workload.names.size());
      if (metrics.empty()) {
        metrics = m;
        for (Metric& x : metrics) x.value /= k;
      } else {
        for (size_t i = 0; i < m.size(); ++i) {
          metrics[i].value += m[i].value / k;
        }
      }
    }

    // Layer probes on the first corpus, once per run, each under a span.
    const RingWorkload& first = corpora.front().workload;
    const std::vector<TsjPair>& first_pairs = corpora.front().reference;
    bool probes_agree = true;
    double massjoin_s = 0, bounded_us = 0, unbounded_us = 0, cluster_s = 0;
    // The spill layer: the first corpus joined once more with shuffle
    // spill on; its result must equal the in-memory joins'.
    TsjRunInfo spill_info;
    double spill_join_s = 0;
    if (is_tsj) {
      ScopedSpan span(tracer, "tsj.SelfJoin.spill");
      const Clock::time_point t0 = Clock::now();
      auto spilled = TokenizedStringJoiner(MakeTsjOptions(spec, spill_dir))
                         .SelfJoin(first.corpus, &spill_info);
      spill_join_s = std::chrono::duration<double>(Clock::now() - t0).count();
      probes_agree = spilled.ok() && corpora.front().digest &&
                     Digest(*spilled) == *corpora.front().digest;
    }
    {
      const std::vector<std::string> texts = SurvivingTokenTexts(first.corpus);
      MassJoinOptions options;
      options.mapreduce.num_workers = spec.workers;
      ScopedSpan span(tracer, "massjoin.RunMassJoinSelfNld");
      const Clock::time_point t0 = Clock::now();
      auto pairs = RunMassJoinSelfNld(texts, kThreshold, options);
      massjoin_s = std::chrono::duration<double>(Clock::now() - t0).count();
      probes_agree = probes_agree && pairs.ok();
    }
    {
      ScopedSpan span(tracer, "sld.BoundedSld");
      bounded_us = BoundedUsPerPair(first.corpus, first_pairs, &probes_agree);
    }
    {
      ScopedSpan span(tracer, "sld.Sld");
      unbounded_us = UnboundedUsPerPair(first, args.seed);
    }
    {
      const auto edges = Edges(first_pairs);
      ScopedSpan span(tracer, "graph.ClusterBySimilarity");
      const Clock::time_point t0 = Clock::now();
      (void)ClusterBySimilarity(first.names.size(), edges);
      cluster_s = std::chrono::duration<double>(Clock::now() - t0).count();
    }
    bench.CountCheck();
    if (!probes_agree) bench.Fail("check: a layer probe disagrees with a join");

    const double traced_join_s = Median(traced_walls);
    const double jobs_s = Median(job_walls);
    const double pre_s = Median(pre_walls);
    const PipelineStats& spill = spill_info.pipeline;
    const std::vector<Metric> extra = {
        {"spill.join_s", spill_join_s, "s"},
        {"spill.records", D(spill.total_spilled_records()), "count"},
        {"spill.files", D(spill.total_spill_files()), "count"},
        {"spill.bytes", D(spill.total_spill_bytes()), "bytes"},
        {"spill.compression",
         Ratio(D(spill.total_spill_raw_bytes()), D(spill.total_spill_bytes())),
         "ratio"},
        {"spill.merge_passes", D(spill.total_merge_passes()), "count"},
        {"spill.prefetch_hits", D(spill.total_prefetch_hits()), "count"},
        {"spill.peak_resident_records",
         D(spill.total_spilled_records() > 0
               ? spill.max_peak_resident_records()
               : 0),
         "count"},
        {"sld.bounded_us_per_pair", bounded_us, "us"},
        {"sld.unbounded_us_per_pair", unbounded_us, "us"},
        {"massjoin.self_nld_s", massjoin_s, "s"},
        {"workload.generate_s", Median(generate_times), "s"},
        {"graph.cluster_s", cluster_s, "s"},
        {"eval.ring_recall_s", recall_s, "s"},
        {"trace.overhead", Ratio(traced_join_s, join_s), "ratio"},
        {"trace.join_s", traced_join_s, "s"},
        {"trace.jobs_s", jobs_s, "s"},
        {"trace.pre_pipeline_s", pre_s, "s"},
        {"trace.unattributed_s", traced_join_s - jobs_s - pre_s, "s"},
    };
    metrics.insert(metrics.end(), extra.begin(), extra.end());
    std::cout << "traced_rounds=" << traced_walls.size()
              << " attribution per join: " << traced_join_s << " s = jobs "
              << jobs_s << " s + pre-pipeline " << pre_s
              << " s + unattributed " << traced_join_s - jobs_s - pre_s
              << " s\n";
    const std::string trace_path =
        (std::filesystem::path(args.out_dir) /
         ("trace-" + std::string(spec.name) + "-" + std::to_string(args.seed) +
          ".json"))
            .string();
    tracer->Write(trace_path, {{"workload", spec.name},
                               {"seed", std::to_string(args.seed)},
                               {"build_type", build_type},
                               {"cpus", std::to_string(cpus)}});
    std::cout << "trace_file=" << trace_path << "\n";
  }
  if (!spill_dir.empty()) std::filesystem::remove_all(spill_dir);

  const bool correct = bench.failed() == 0;
  std::cout << MetricsJson(correct, bench.attempted(), bench.failed(), metrics)
            << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench
}  // namespace tsj

int main(int argc, char** argv) {
  const std::optional<tsj::perfbench::Args> args =
      tsj::perfbench::ParseArgs(argc, argv);
  if (!args) return tsj::perfbench::Usage();
  return tsj::perfbench::Run(*args);
}
