#include "common/fault.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>

namespace tsj {
namespace {

std::mutex& ConfigureMutex() {
  static std::mutex mu;
  return mu;
}

// SplitMix64: the standard 64-bit finalizer-style mixer. Used to turn
// (seed, evaluation index) into an i.i.d.-quality draw so probability-mode
// decisions are a pure function of the spec and the per-site counter.
uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

bool ParseUint(const std::string& text, uint64_t* out) {
  if (text.empty()) return false;
  uint64_t value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') return false;
    if (value > (UINT64_MAX - (c - '0')) / 10) return false;
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  *out = value;
  return true;
}

}  // namespace

FaultInjector& FaultInjector::Global() {
  static FaultInjector* injector = [] {
    auto* fi = new FaultInjector();
    fi->ConfigureFromEnv();
    return fi;
  }();
  return *injector;
}

Status FaultInjector::ParseSpec(const std::string& spec,
                                std::vector<SiteSpec>* out) {
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t end = spec.find(';', pos);
    if (end == std::string::npos) end = spec.size();
    const std::string entry = spec.substr(pos, end - pos);
    pos = end + 1;
    if (entry.empty()) continue;

    const size_t eq = entry.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 == entry.size()) {
      return Status::InvalidArgument("fault spec entry is not site=mode: '" +
                                     entry + "'");
    }
    SiteSpec site;
    site.site = entry.substr(0, eq);
    if (std::find(kFaultSites.begin(), kFaultSites.end(), site.site) ==
        kFaultSites.end()) {
      return Status::InvalidArgument("unknown fault site: '" + site.site +
                                     "'");
    }
    site.resource_exhausted = site.site.rfind("alloc.", 0) == 0;
    const std::string mode = entry.substr(eq + 1);

    if (mode.rfind("once", 0) == 0) {
      site.mode = Mode::kOnce;
      site.n = 1;
      if (mode.size() > 4) {
        if (mode[4] != '@' || !ParseUint(mode.substr(5), &site.n) ||
            site.n == 0) {
          return Status::InvalidArgument("bad once mode: '" + mode + "'");
        }
      }
    } else if (mode.rfind("every@", 0) == 0) {
      site.mode = Mode::kEvery;
      if (!ParseUint(mode.substr(6), &site.n) || site.n == 0) {
        return Status::InvalidArgument("bad every mode: '" + mode + "'");
      }
    } else if (!mode.empty() && mode[0] == 'p') {
      site.mode = Mode::kProbability;
      std::string prob = mode.substr(1);
      const size_t at = prob.find("@seed");
      if (at != std::string::npos) {
        if (!ParseUint(prob.substr(at + 5), &site.seed)) {
          return Status::InvalidArgument("bad probability seed: '" + mode +
                                         "'");
        }
        prob = prob.substr(0, at);
      }
      char* parse_end = nullptr;
      errno = 0;
      site.probability = std::strtod(prob.c_str(), &parse_end);
      // Written as a range check so NaN, which compares false with
      // everything, is rejected instead of arming a site that never fires.
      if (prob.empty() || parse_end == nullptr || *parse_end != '\0' ||
          errno == ERANGE ||
          !(site.probability >= 0.0 && site.probability <= 1.0)) {
        return Status::InvalidArgument("bad probability: '" + mode + "'");
      }
    } else {
      return Status::InvalidArgument("unknown fault mode: '" + mode + "'");
    }
    // Every lookup stops at a site's first entry, so a second entry for
    // the same site could never fire.
    for (const SiteSpec& earlier : *out) {
      if (earlier.site == site.site) {
        return Status::InvalidArgument("fault spec names site '" +
                                       site.site + "' twice");
      }
    }
    out->push_back(site);
  }
  return Status::OK();
}

Status FaultInjector::Configure(const std::string& spec) {
  auto parsed = std::make_unique<std::vector<SiteSpec>>();
  if (Status s = ParseSpec(spec, parsed.get()); !s.ok()) return s;

  std::lock_guard<std::mutex> lock(ConfigureMutex());
  const std::vector<SiteSpec>* old =
      sites_.load(std::memory_order_acquire);
  if (old != nullptr) retired_.push_back(old);
  const bool armed = !parsed->empty();
  sites_.store(parsed.release(), std::memory_order_release);
  enabled_.store(armed, std::memory_order_release);
  return Status::OK();
}

void FaultInjector::ConfigureFromEnv() {
  const char* env = std::getenv("CC_FAULT_SPEC");
  const std::string spec = env ? env : "";
  if (Status s = Configure(spec); !s.ok()) {
    std::fprintf(stderr, "CC_FAULT_SPEC ignored: %s\n",
                 s.ToString().c_str());
    Configure("");  // a malformed spec disarms rather than half-arms
  }
}

Status FaultInjector::Evaluate(const char* site) {
  return EvaluateImpl(site, /*keyed=*/false, 0);
}

Status FaultInjector::EvaluateAt(const char* site, uint64_t k) {
  return EvaluateImpl(site, /*keyed=*/true, k);
}

uint64_t FaultInjector::ReserveBlock(const char* site, uint64_t count) {
  const std::vector<SiteSpec>* sites =
      sites_.load(std::memory_order_acquire);
  if (sites == nullptr) return 0;
  for (const SiteSpec& spec : *sites) {
    if (std::strcmp(spec.site.c_str(), site) != 0) continue;
    return const_cast<std::atomic<uint64_t>&>(spec.reserved)
        .fetch_add(count, std::memory_order_relaxed);
  }
  return 0;
}

Status FaultInjector::EvaluateImpl(const char* site, bool keyed,
                                   uint64_t keyed_k) {
  const std::vector<SiteSpec>* sites =
      sites_.load(std::memory_order_acquire);
  if (sites == nullptr) return Status::OK();
  for (const SiteSpec& spec : *sites) {
    if (std::strcmp(spec.site.c_str(), site) != 0) continue;
    // 1-based evaluation index; the fire decision is a pure function of
    // (spec, k), so schedules replay deterministically. Keyed call sites
    // supply k themselves (interleaving-independent); the counter still
    // advances so evaluations() keeps counting either way.
    const uint64_t counted =
        const_cast<std::atomic<uint64_t>&>(spec.evaluations)
            .fetch_add(1, std::memory_order_relaxed) +
        1;
    const uint64_t k = keyed ? keyed_k : counted;
    bool fire = false;
    switch (spec.mode) {
      case Mode::kOnce:
        fire = (k == spec.n);
        break;
      case Mode::kEvery:
        fire = (k % spec.n == 0);
        break;
      case Mode::kProbability: {
        const uint64_t draw = SplitMix64(spec.seed * 0x9e3779b97f4a7c15ULL + k);
        fire = static_cast<double>(draw) <
               spec.probability * 18446744073709551616.0;  // 2^64
        break;
      }
    }
    if (!fire) return Status::OK();
    const_cast<std::atomic<uint64_t>&>(spec.fired)
        .fetch_add(1, std::memory_order_relaxed);
    const std::string msg = std::string("injected fault at ") + site;
    if (spec.resource_exhausted) return Status::ResourceExhausted(msg);
    return Status::Unavailable(msg);
  }
  return Status::OK();
}

uint64_t FaultInjector::fired(const std::string& site) const {
  const std::vector<SiteSpec>* sites =
      sites_.load(std::memory_order_acquire);
  if (sites == nullptr) return 0;
  for (const SiteSpec& spec : *sites) {
    if (spec.site == site) {
      return spec.fired.load(std::memory_order_relaxed);
    }
  }
  return 0;
}

uint64_t FaultInjector::total_fired() const {
  const std::vector<SiteSpec>* sites =
      sites_.load(std::memory_order_acquire);
  if (sites == nullptr) return 0;
  uint64_t total = 0;
  for (const SiteSpec& spec : *sites) {
    total += spec.fired.load(std::memory_order_relaxed);
  }
  return total;
}

uint64_t FaultInjector::evaluations(const std::string& site) const {
  const std::vector<SiteSpec>* sites =
      sites_.load(std::memory_order_acquire);
  if (sites == nullptr) return 0;
  for (const SiteSpec& spec : *sites) {
    if (spec.site == site) {
      return spec.evaluations.load(std::memory_order_relaxed);
    }
  }
  return 0;
}

}  // namespace tsj
