//===- serve/FaultInject.cpp - Deterministic fault injection --------------===//

#include "serve/FaultInject.h"

#include "support/ParseInt.h"

namespace velo {
namespace serve {

bool parseFaultSpec(const std::string &Spec, FaultPlan &Plan,
                    std::string &Err) {
  size_t Pos = 0;
  while (Pos < Spec.size()) {
    size_t Comma = Spec.find(',', Pos);
    std::string Item = Spec.substr(
        Pos, Comma == std::string::npos ? std::string::npos : Comma - Pos);
    Pos = Comma == std::string::npos ? Spec.size() : Comma + 1;
    if (Item.empty())
      continue;

    size_t Colon = Item.find(':');
    if (Colon == std::string::npos) {
      Err = "malformed fault spec '" + Item + "' (expected kind:N)";
      return false;
    }
    std::string Kind = Item.substr(0, Colon);
    std::string Rest = Item.substr(Colon + 1);
    uint64_t N = 0;
    if (Kind == "wedge") {
      size_t Colon2 = Rest.find(':');
      uint64_t Ms = 0;
      if (Colon2 == std::string::npos ||
          !parseU64(Rest.substr(0, Colon2).c_str(), N) ||
          !parseU64(Rest.substr(Colon2 + 1).c_str(), Ms) || N == 0) {
        Err = "malformed fault spec '" + Item + "' (expected wedge:N:MS)";
        return false;
      }
      Plan.WedgeAtFrame = N;
      Plan.WedgeMillis = Ms;
      continue;
    }
    if (!parseU64(Rest.c_str(), N) || N == 0) {
      Err = "malformed fault spec '" + Item + "' (count must be a positive "
            "integer)";
      return false;
    }
    if (Kind == "kill-worker")
      Plan.KillWorkerAtFrame = N;
    else if (Kind == "enomem")
      Plan.EnomemAtFrame = N;
    else if (Kind == "eagain")
      Plan.EagainEveryIo = N;
    else if (Kind == "evict")
      Plan.EvictAtFrame = N;
    else {
      Err = "unknown fault kind '" + Kind + "'";
      return false;
    }
  }
  return true;
}

bool applyFaultEnv(FaultPlan &Plan, std::string &Err) {
  const char *Env = std::getenv("VELO_SERVE_FAULT");
  if (!Env || !*Env)
    return true;
  return parseFaultSpec(Env, Plan, Err);
}

} // namespace serve
} // namespace velo
