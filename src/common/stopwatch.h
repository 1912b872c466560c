// Wall-clock stopwatch used by benchmark harnesses and by the MapReduce
// engine to measure per-phase wall times.

#ifndef TSJ_COMMON_STOPWATCH_H_
#define TSJ_COMMON_STOPWATCH_H_

#include <chrono>

namespace tsj {

/// Measures elapsed wall time from construction or the last Reset().
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  void Reset() { start_ = Clock::now(); }

  /// Seconds elapsed since construction / last Reset().
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  /// Milliseconds elapsed since construction / last Reset().
  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace tsj

#endif  // TSJ_COMMON_STOPWATCH_H_
