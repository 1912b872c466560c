// Deterministic, seeded fault injection for the whole engine.
//
// Every fallible layer declares named *injection sites* — stable string
// identifiers for a place where a real-world fault could strike. These six
// are all the engine evaluates (kFaultSites below):
//
//   task.map       start of a map task (mapreduce.h, all three engines)
//   task.reduce    start of a reduce/merge partition task
//   alloc.shuffle  shuffle-buffer growth (modelled as ResourceExhausted)
//   spill.open     opening a spill file (SpillContext::NewIo wrapper)
//   spill.write    a spill run/segment write (SpillContext::NewIo wrapper)
//   merge.read     reading a spill run back during the k-way merge
//
// A site is evaluated with FAULT_POINT("name"), which returns Status::OK()
// unless the process-wide FaultInjector is armed for that site. Evaluation
// order per site is tracked by a per-site atomic counter, and whether the
// k-th evaluation fires is a pure function of (site spec, k) — so a given
// CC_FAULT_SPEC value produces the same fault schedule on every run with
// the same thread-to-task assignment, and exactly the same *set* of fired
// faults per site regardless of interleaving when tasks evaluate a site
// once each.
//
// Keyed evaluation: the shared-counter index breaks down once a task
// evaluates its site *more than once* — a retried task re-evaluates its
// site while its siblings run, advancing the counter in
// scheduler-dependent interleavings, so replays of the same
// CC_FAULT_SPEC could fire on different tasks run-to-run.
// FAULT_POINT_AT("name", k) therefore lets the call site supply the
// 1-based index explicitly; the task layer keys it by (task, attempt) —
// attempt 0 of task t uses k = base + t + 1, while retries map into
// disjoint per-task index blocks above base + n. `base` comes from
// ReserveBlock(site, count): each phase that evaluates a site claims the
// next contiguous index range, so sequential phases (jobs run one after
// another) never reuse indices and a "once" spec still fires exactly
// once per process — in the first phase, at the task the index names —
// instead of once per phase. Reservation order is the phases' program
// order, which is deterministic, so the whole schedule replays exactly.
// The per-site evaluation counter still increments for observability,
// but no longer decides.
//
// CC_FAULT_SPEC grammar
// ---------------------
//   spec   := entry (';' entry)*
//   entry  := site '=' mode         (each site at most once per spec)
//   site   := one of kFaultSites, e.g. task.reduce
//   mode   := 'once' ['@' N]        fire on the N-th evaluation only
//                                   (1-based; default N=1)
//           | 'every' '@' N         fire on every N-th evaluation
//           | 'p' FLOAT ['@seed' S] fire each evaluation independently
//                                   with probability FLOAT in [0, 1]
//                                   (NaN is rejected), decided by a
//                                   SplitMix64 draw over (S, k); default
//                                   seed S=0
//
// Examples:
//   CC_FAULT_SPEC='task.reduce=p0.01@seed42;spill.write=once@3'
//   CC_FAULT_SPEC='merge.read=once'
//
// Disabled cost: when no spec is armed, FAULT_POINT compiles to one
// relaxed atomic bool load (the bench_ablation "+ fault framework
// (disabled)" row pins this at < 1% wall on the 10k ring workload).
//
// Injected faults carry StatusCode::kUnavailable ("injected fault at
// <site>") except alloc.* sites, which model memory pressure and carry
// kResourceExhausted. Both codes are retryable by the task layer.

#ifndef TSJ_COMMON_FAULT_H_
#define TSJ_COMMON_FAULT_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace tsj {

/// The injection sites the engine evaluates (see the file comment).
inline constexpr std::array<std::string_view, 6> kFaultSites = {
    "task.map",   "task.reduce", "alloc.shuffle",
    "spill.open", "spill.write", "merge.read"};

/// Process-wide deterministic fault injector. All methods are thread-safe;
/// configuration replaces the armed spec atomically with respect to
/// evaluations (a site evaluated concurrently with Configure sees either
/// the old or the new spec, never a torn one).
class FaultInjector {
 public:
  /// The singleton every FAULT_POINT consults.
  static FaultInjector& Global();

  /// Arms the injector with a CC_FAULT_SPEC-grammar string (empty string
  /// disarms). Returns InvalidArgument on a malformed spec — including
  /// one that names a site outside kFaultSites (such an entry could never
  /// fire) or a site twice, or whose probability is not a number in
  /// [0, 1] — leaving the previous configuration in place. Resets
  /// per-site counters.
  Status Configure(const std::string& spec);

  /// Re-arms from the CC_FAULT_SPEC environment variable (disarms when
  /// unset/empty). Tests that call Configure() directly should restore
  /// the environment configuration with this afterwards, because the
  /// injector is process-global. Malformed env specs disarm and are
  /// reported once on stderr (env vars can't propagate a Status).
  void ConfigureFromEnv();

  /// True when at least one site is armed. One relaxed atomic load — the
  /// entire disabled-path cost of an injection site.
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Evaluates `site`: OK, or the injected fault's Status. Sites named
  /// alloc.* fire kResourceExhausted, everything else kUnavailable.
  Status Evaluate(const char* site);

  /// Like Evaluate, but the fire decision uses the caller-supplied 1-based
  /// index `k` instead of the per-site counter, making the decision
  /// independent of cross-thread interleaving (the counter still
  /// increments for evaluations() observability). Two attempts of the
  /// same logical task must pass distinct `k` values.
  Status EvaluateAt(const char* site, uint64_t k);

  /// Claims the next `count` evaluation indices of `site` for one phase of
  /// keyed evaluations and returns the claimed base (the phase's keys are
  /// base+1 .. base+count). Returns 0 when the site is disarmed — all
  /// phases then share the zero base, which is harmless because nothing
  /// can fire. Reset by Configure, like the counters.
  uint64_t ReserveBlock(const char* site, uint64_t count);

  /// Total faults fired for `site` since the last Configure (0 when the
  /// site is unknown or disarmed).
  uint64_t fired(const std::string& site) const;

  /// Total faults fired across all sites since the last Configure.
  uint64_t total_fired() const;

  /// Evaluations of `site` since the last Configure (armed sites only).
  uint64_t evaluations(const std::string& site) const;

 private:
  enum class Mode { kOnce, kEvery, kProbability };

  struct SiteSpec {
    std::string site;
    Mode mode = Mode::kOnce;
    uint64_t n = 1;        // once@N / every@N
    double probability = 0.0;
    uint64_t seed = 0;
    bool resource_exhausted = false;  // alloc.* sites
    std::atomic<uint64_t> evaluations{0};
    std::atomic<uint64_t> fired{0};
    std::atomic<uint64_t> reserved{0};  // ReserveBlock high-water mark

    SiteSpec() = default;
    SiteSpec(const SiteSpec& other)
        : site(other.site),
          mode(other.mode),
          n(other.n),
          probability(other.probability),
          seed(other.seed),
          resource_exhausted(other.resource_exhausted),
          evaluations(other.evaluations.load(std::memory_order_relaxed)),
          fired(other.fired.load(std::memory_order_relaxed)),
          reserved(other.reserved.load(std::memory_order_relaxed)) {}
  };

  FaultInjector() = default;

  static Status ParseSpec(const std::string& spec,
                          std::vector<SiteSpec>* out);

  // Shared core of Evaluate/EvaluateAt: when `keyed`, the fire decision
  // uses `k`; otherwise it uses the post-increment per-site counter.
  Status EvaluateImpl(const char* site, bool keyed, uint64_t k);

  // The armed spec. Guarded by a shared_ptr-style generation swap: a
  // plain mutex on the (cold) Configure path, lock-free reads via an
  // acquire load of the published vector pointer on the Evaluate path.
  std::atomic<bool> enabled_{false};
  std::atomic<const std::vector<SiteSpec>*> sites_{nullptr};
  // Retired generations; freed only at process exit so in-flight
  // Evaluate calls can never see a dangling pointer. Configure happens
  // a handful of times per process, so this never grows meaningfully.
  std::vector<const std::vector<SiteSpec>*> retired_;
};

/// Evaluates the named injection site: Status::OK() unless the global
/// injector is armed for it. Usage:
///   if (Status s = FAULT_POINT("task.map"); !s.ok()) return s;
#define FAULT_POINT(site)                                   \
  (::tsj::FaultInjector::Global().enabled()                 \
       ? ::tsj::FaultInjector::Global().Evaluate(site)      \
       : ::tsj::Status::OK())

/// Keyed variant: the fire decision is a pure function of (site spec, k)
/// with `k` supplied by the caller, so a task's attempts replay
/// deterministically however its siblings interleave. Usage:
///   if (Status s = FAULT_POINT_AT("task.map", task + 1); !s.ok()) ...
#define FAULT_POINT_AT(site, k)                               \
  (::tsj::FaultInjector::Global().enabled()                   \
       ? ::tsj::FaultInjector::Global().EvaluateAt(site, (k)) \
       : ::tsj::Status::OK())

}  // namespace tsj

#endif  // TSJ_COMMON_FAULT_H_
