//===- staticpass/StaticPipeline.h - Whole-trace convenience API -*- C++ -*-===//
//
// One-call wrappers over the two-pass pipeline for callers that hold the
// whole trace in memory (tests, fuzzing, velodrome-analyze, the bench
// harness). The analysis plan (analysis/Plan.h), behind velodrome-check
// and velodrome-run, drives TraceClassifier and ReductionFilter directly
// instead.
//
//===----------------------------------------------------------------------===//

#ifndef VELO_STATICPASS_STATICPIPELINE_H
#define VELO_STATICPASS_STATICPIPELINE_H

#include "events/Trace.h"
#include "staticpass/PassManager.h"
#include "staticpass/ReductionFilter.h"

namespace velo {

/// Pass A: gather whole-trace facts.
AnalysisFacts classifyTrace(const Trace &T);

/// Pass A + classification passes: the drop plan for Mask.
ReductionPlan planTrace(const Trace &T, PassMask Mask);

/// Pass B: the reduced trace — kept events in order, symbol table copied
/// verbatim so ids and names are unchanged. StatsOut, when non-null,
/// receives the per-pass drop counters.
Trace reduceTrace(const Trace &T, const ReductionPlan &Plan,
                  PassStats *StatsOut = nullptr);

} // namespace velo

#endif // VELO_STATICPASS_STATICPIPELINE_H
