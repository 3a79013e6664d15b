//===- analysis/Governor.cpp - Resource governor & degradation ------------===//

#include "analysis/Governor.h"

#include "support/ParseInt.h"

namespace velo {

namespace {

/// An optional wrapped checker's snapshot: a presence flag, then its blob.
void writeOptional(SnapshotWriter &W, const Backend *B) {
  W.boolean(B != nullptr);
  if (!B)
    return;
  SnapshotWriter Blob;
  B->serialize(Blob);
  W.blob(Blob);
}

/// Fails when the flag disagrees with this configuration (resumed with a
/// different back-end set) or the blob does not decode.
bool readOptional(SnapshotReader &R, Backend *B) {
  if (R.boolean() != (B != nullptr))
    return false;
  if (!B)
    return true;
  SnapshotReader Blob = R.blob();
  return B->deserialize(Blob);
}

} // namespace

std::vector<Flag> governorFlags(GovernorLimits &L) {
  return {u64Flag("--max-events=N", L.MaxEvents,
                  "stop the analysis after N events (0 = unlimited)"),
          u64Flag("--max-live-nodes=N", L.MaxLiveNodes,
                  "graph node cap; on breach fall back to the vector-clock "
                  "checker (default 60000)"),
          {"--max-memory-mb=N",
           [&L](const std::string &V) {
             uint64_t Mb = 0;
             if (!parseU64(V.c_str(), Mb) || Mb > UINT64_MAX / (1 << 20))
               return false;
             L.MaxMemoryBytes = Mb << 20;
             return true;
           },
           "estimated-memory cap (0 = unlimited)"},
          u64Flag("--deadline-ms=N", L.DeadlineMillis,
                  "wall-clock budget (0 = unlimited)")};
}

const char *GovernorLimits::capBeyondDefaults(bool ProbedOnly) const {
  const GovernorLimits D = defaults();
  if (!ProbedOnly && MaxEvents)
    return "--max-events";
  if (MaxLiveNodes && MaxLiveNodes != D.MaxLiveNodes)
    return "--max-live-nodes";
  if (MaxMemoryBytes)
    return "--max-memory-mb";
  if (!ProbedOnly && DeadlineMillis)
    return "--deadline-ms";
  return nullptr;
}

void GovernedAnalysis::beginAnalysis(const SymbolTable &Syms) {
  Backend::beginAnalysis(Syms);
  State = GovernorState::Normal;
  Reason.clear();
  Delivered = 0;
  Start = std::chrono::steady_clock::now();
  Primary.beginAnalysis(Syms);
  if (Fallback)
    Fallback->beginAnalysis(Syms);
  if (Reference)
    Reference->beginAnalysis(Syms);
}

void GovernedAnalysis::degradeOrExhaust(std::string Why) {
  if (Fallback && State == GovernorState::Normal) {
    State = GovernorState::Degraded;
    Reason = std::move(Why);
    return;
  }
  exhaust(std::move(Why));
}

void GovernedAnalysis::exhaust(std::string Why) {
  State = GovernorState::Exhausted;
  Reason = std::move(Why);
}

void GovernedAnalysis::onEvent(const Event &E) {
  if (State == GovernorState::Exhausted)
    return;
  countEvent();

  // The reference takes every event offered while Normal, the one that
  // ends Normal included (even when the event budget refuses it below).
  if (Reference && State == GovernorState::Normal) {
    Reference->setEventOrdinal(eventOrdinal());
    Reference->onEvent(E);
  }

  if (Limits.MaxEvents && Delivered >= Limits.MaxEvents) {
    // The fallback pays per-event too, so an event budget cannot be saved
    // by degrading — stop outright.
    exhaust("event budget of " + std::to_string(Limits.MaxEvents) +
            " exhausted");
    return;
  }

  ++Delivered;
  if (State == GovernorState::Normal) {
    Primary.setEventOrdinal(eventOrdinal());
    Primary.onEvent(E);
  }
  if (Fallback) {
    Fallback->setEventOrdinal(eventOrdinal());
    Fallback->onEvent(E);
  }

  if (State == GovernorState::Normal && PrimaryFailed) {
    std::string Why = PrimaryFailed();
    if (!Why.empty())
      degradeOrExhaust(std::move(Why));
  }

  if (State == GovernorState::Normal &&
      (Limits.MaxLiveNodes || Limits.MaxMemoryBytes) && ResourceProbe) {
    uint64_t Nodes = 0, Bytes = 0;
    ResourceProbe(Nodes, Bytes);
    if (Limits.MaxLiveNodes && Nodes > Limits.MaxLiveNodes)
      degradeOrExhaust("live graph nodes " + std::to_string(Nodes) +
                       " exceed cap " + std::to_string(Limits.MaxLiveNodes));
    else if (Limits.MaxMemoryBytes && Bytes > Limits.MaxMemoryBytes)
      degradeOrExhaust("estimated analysis memory " + std::to_string(Bytes) +
                       " bytes exceeds cap " +
                       std::to_string(Limits.MaxMemoryBytes));
  }

  uint32_t Interval = Limits.CheckIntervalEvents ? Limits.CheckIntervalEvents : 1;
  if (Limits.DeadlineMillis && State != GovernorState::Exhausted &&
      Delivered % Interval == 0) {
    auto Elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                       std::chrono::steady_clock::now() - Start)
                       .count();
    if (static_cast<uint64_t>(Elapsed) > Limits.DeadlineMillis)
      exhaust("wall-clock deadline of " +
              std::to_string(Limits.DeadlineMillis) + " ms exceeded after " +
              std::to_string(Delivered) + " events");
  }
}

void GovernedAnalysis::endAnalysis() {
  // Both checkers settle even after degradation/exhaustion: violations
  // found on the delivered prefix are definite.
  Primary.endAnalysis();
  if (Fallback)
    Fallback->endAnalysis();
  // A stopped reference is left as it was at the breach.
  if (Reference && State == GovernorState::Normal)
    Reference->endAnalysis();
}

void GovernedAnalysis::serialize(SnapshotWriter &W) const {
  serializeBase(W);
  W.u8(static_cast<uint8_t>(State));
  W.str(Reason);
  W.u64(Delivered);
  auto ElapsedMs = std::chrono::duration_cast<std::chrono::milliseconds>(
                       std::chrono::steady_clock::now() - Start)
                       .count();
  W.u64(static_cast<uint64_t>(ElapsedMs < 0 ? 0 : ElapsedMs));
  SnapshotWriter PrimaryBlob;
  Primary.serialize(PrimaryBlob);
  W.blob(PrimaryBlob);
  writeOptional(W, Fallback);
  writeOptional(W, Reference);
}

bool GovernedAnalysis::deserialize(SnapshotReader &R) {
  if (!deserializeBase(R))
    return false;
  uint8_t RawState = R.u8();
  if (RawState > static_cast<uint8_t>(GovernorState::Exhausted))
    return false;
  State = static_cast<GovernorState>(RawState);
  Reason = R.str();
  Delivered = R.u64();
  uint64_t ElapsedMs = R.u64();
  // The deadline budget spans the whole analysis, crashes included: shift
  // the start time back by the time already consumed before the snapshot.
  Start = std::chrono::steady_clock::now() -
          std::chrono::milliseconds(ElapsedMs);
  SnapshotReader PrimaryBlob = R.blob();
  return Primary.deserialize(PrimaryBlob) && readOptional(R, Fallback) &&
         readOptional(R, Reference) && !R.failed();
}

GovernorVerdict GovernedAnalysis::verdict() const {
  bool PrimarySaw = Primary.sawViolation();
  bool FallbackSaw = Fallback && Fallback->sawViolation();
  if (PrimarySaw || FallbackSaw)
    return GovernorVerdict::Violation;
  if (State == GovernorState::Exhausted)
    return GovernorVerdict::Unknown;
  return GovernorVerdict::Serializable;
}

} // namespace velo
