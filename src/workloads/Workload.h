//===- workloads/Workload.h - Benchmark workload interface ------*- C++ -*-===//
//
// C++ analogues of the paper's 15 Java benchmarks (Section 6), written
// against the monitored runtime. Each workload reproduces the *shape* of the
// original: its threading structure, synchronization idioms, the ratio of
// lock traffic to data traffic, and — crucially — its inventory of atomicity
// bugs (check-then-act, unsynchronized read-modify-write, barrier/flag
// handoffs, fork/join aggregation).
//
// Each workload declares:
//   - nonAtomicMethods(): the ground-truth set of methods that are genuinely
//     not atomic (a violating schedule exists). Velodrome warnings must
//     always land inside this set (zero false alarms — Table 2); Atomizer
//     warnings outside it are counted as false alarms.
//   - guardSites(): named synchronization sites the defect-injection
//     framework (Section 6's study) can disable one at a time.
//
// Two monitored operations are never unsequenced operands of one
// expression, as in `T.read(A) + T.read(B)`: C++ leaves their order
// unspecified, so the recorded trace would depend on the compiler and its
// flags (the ASan build and the plain one once disagreed on mtrt). Read
// into separate statements; `T.write(X, T.read(X) + 1)` is sequenced.
//
//===----------------------------------------------------------------------===//

#ifndef VELO_WORKLOADS_WORKLOAD_H
#define VELO_WORKLOADS_WORKLOAD_H

#include "rt/Runtime.h"

#include <memory>
#include <set>
#include <string>
#include <vector>

namespace velo {

/// Base class for benchmark workloads.
class Workload {
public:
  virtual ~Workload() = default;

  /// Benchmark name as in Table 1 ("elevator", "tsp", ...).
  virtual const char *name() const = 0;

  /// One-line description of the program being modeled.
  virtual const char *description() const = 0;

  /// Path of the implementing source file (for the Size column of Table 1).
  virtual const char *sourceFile() const = 0;

  /// Ground truth: method labels that are genuinely non-atomic.
  virtual std::vector<std::string> nonAtomicMethods() const = 0;

  /// Synchronization sites the injection framework may disable.
  virtual std::vector<std::string> guardSites() const { return {}; }

  /// Execute the workload in the given runtime (creates its variables,
  /// locks, and threads; returns when all threads have finished).
  virtual void run(Runtime &RT) const = 0;

  /// Work multiplier: tests use 1, the benchmark harness larger values.
  int Scale = 1;

  /// Guard sites disabled by the injection framework.
  std::set<std::string> DisabledGuards;

protected:
  /// Is the named guard site still enabled?
  bool guardEnabled(const std::string &Site) const {
    return DisabledGuards.find(Site) == DisabledGuards.end();
  }
};

/// Factories, one per benchmark (defined in the per-workload .cpp files).
std::unique_ptr<Workload> makeElevator();
std::unique_ptr<Workload> makeHedc();
std::unique_ptr<Workload> makeTsp();
std::unique_ptr<Workload> makeSor();
std::unique_ptr<Workload> makeJbb();
std::unique_ptr<Workload> makeMtrt();
std::unique_ptr<Workload> makeMoldyn();
std::unique_ptr<Workload> makeMontecarlo();
std::unique_ptr<Workload> makeRaytracer();
std::unique_ptr<Workload> makeColt();
std::unique_ptr<Workload> makePhilo();
std::unique_ptr<Workload> makeRaja();
std::unique_ptr<Workload> makeMultiset();
std::unique_ptr<Workload> makeWebl();
std::unique_ptr<Workload> makeJigsaw();

/// All fifteen benchmarks, in Table 1 order.
std::vector<std::unique_ptr<Workload>> makeAllWorkloads();

/// Look up one benchmark by name (null if unknown).
std::unique_ptr<Workload> makeWorkload(const std::string &Name);

} // namespace velo

#endif // VELO_WORKLOADS_WORKLOAD_H
