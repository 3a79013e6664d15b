//===- analysis/Backend.cpp - Back-end driver helpers ---------------------===//

#include "analysis/Backend.h"

namespace velo {

void replay(const Trace &T, Backend &B) {
  B.beginAnalysis(T.symbols());
  uint64_t Ordinal = 0;
  for (const Event &E : T) {
    B.setEventOrdinal(++Ordinal);
    B.onEvent(E);
  }
  B.endAnalysis();
}

void replayAll(const Trace &T, const std::vector<Backend *> &Backends) {
  for (Backend *B : Backends)
    B->beginAnalysis(T.symbols());
  uint64_t Ordinal = 0;
  for (const Event &E : T) {
    ++Ordinal;
    for (Backend *B : Backends) {
      B->setEventOrdinal(Ordinal);
      B->onEvent(E);
    }
  }
  for (Backend *B : Backends)
    B->endAnalysis();
}

void Backend::serializeBase(SnapshotWriter &W) const {
  W.u64(NumEvents);
  W.u64(Reports.size());
  for (const Warning &R : Reports) {
    W.str(R.Analysis);
    W.str(R.Category);
    W.u32(R.Method);
    W.str(R.Message);
    W.str(R.Dot);
    W.str(R.RuleId);
    W.u32(R.Thread);
    W.u64(R.Ordinal);
    W.u64(R.Related.size());
    for (const WarningSite &S : R.Related) {
      W.u32(S.Thread);
      W.u64(S.Ordinal);
      W.u32(S.Method);
      W.str(S.Note);
    }
  }
}

bool Backend::deserializeBase(SnapshotReader &R) {
  NumEvents = R.u64();
  uint64_t N = R.u64();
  Reports.clear();
  for (uint64_t I = 0; I < N && !R.failed(); ++I) {
    Warning W;
    W.Analysis = R.str();
    W.Category = R.str();
    W.Method = R.u32();
    W.Message = R.str();
    W.Dot = R.str();
    W.RuleId = R.str();
    W.Thread = R.u32();
    W.Ordinal = R.u64();
    uint64_t NumSites = R.u64();
    for (uint64_t J = 0; J < NumSites && !R.failed(); ++J) {
      WarningSite S;
      S.Thread = R.u32();
      S.Ordinal = R.u64();
      S.Method = R.u32();
      S.Note = R.str();
      W.Related.push_back(std::move(S));
    }
    Reports.push_back(std::move(W));
  }
  return !R.failed();
}

} // namespace velo
