//===- workloads/Mtrt.cpp - SPEC JVM98 multithreaded ray tracer ------------===//
//
// Analogue of `mtrt` (SPEC JVM98 227_mtrt): two-or-more render threads
// trace rays through a scene that the main thread builds before forking.
// The scene is immutable during rendering and is published through the
// fork edges — the heavy use of "uninstrumented-library-style" shared reads
// is why the paper's Atomizer produced 27 false alarms here while Velodrome
// produced none.
//
//   non-atomic (ground truth):
//     RayTracer.updateChecksum  the classic unguarded checksum RMW
//     WorkPool.nextRow          row cursor read and advance in separate
//                               critical sections
//
//   atomic but Atomizer-flagged (false alarms): Scene.intersect,
//     Scene.shade, Camera.rayFor — multi-read methods over fork-published
//     immutable scene data
//
//===----------------------------------------------------------------------===//

#include "workloads/Workload.h"

namespace velo {
namespace {

class MtrtWorkload : public Workload {
public:
  const char *name() const override { return "mtrt"; }
  const char *description() const override {
    return "multithreaded ray tracer over a fork-published immutable scene";
  }
  const char *sourceFile() const override { return __FILE__; }

  std::vector<std::string> nonAtomicMethods() const override {
    return {"RayTracer.updateChecksum", "WorkPool.nextRow"};
  }

  std::vector<std::string> guardSites() const override {
    return {"pool.mu"};
  }

  void run(Runtime &RT) const override {
    const int NumThreads = 2;
    const int NumSpheres = 5;
    const int Rows = 8 * Scale;

    std::vector<SharedVar *> SphereX, SphereR, LightI;
    for (int S = 0; S < NumSpheres; ++S) {
      SphereX.push_back(&RT.var("Scene.sphereX[" + std::to_string(S) + "]"));
      SphereR.push_back(&RT.var("Scene.sphereR[" + std::to_string(S) + "]"));
    }
    for (int L = 0; L < 2; ++L)
      LightI.push_back(&RT.var("Scene.lightI[" + std::to_string(L) + "]"));
    SharedVar &CamFov = RT.var("Camera.fov");
    SharedVar &NextRow = RT.var("WorkPool.nextRow");
    SharedVar &Checksum = RT.var("RayTracer.checksum");
    LockVar &PoolMu = RT.lock("WorkPool.mu");

    bool GuardPool = guardEnabled("pool.mu");

    RT.run([&, NumThreads, NumSpheres, Rows](MonitoredThread &Main) {
      // Build the scene before forking: immutable afterwards.
      for (int S = 0; S < NumSpheres; ++S) {
        Main.write(*SphereX[S], 10 * S + 3);
        Main.write(*SphereR[S], S + 1);
      }
      Main.write(*LightI[0], 80);
      Main.write(*LightI[1], 40);
      Main.write(CamFov, 60);
      Main.write(NextRow, 0);

      std::vector<Tid> Renderers;
      for (int R = 0; R < NumThreads; ++R) {
        Renderers.push_back(Main.fork([&, NumSpheres, Rows](
                                          MonitoredThread &T) {
          for (;;) {
            // WorkPool.nextRow: cursor probe and advance split across two
            // critical sections — duplicate rows under contention.
            int64_t Row;
            {
              AtomicRegion A(T, "WorkPool.nextRow");
              if (GuardPool)
                T.lockAcquire(PoolMu);
              Row = T.read(NextRow);
              if (GuardPool)
                T.lockRelease(PoolMu);
              if (Row < Rows) {
                if (GuardPool)
                  T.lockAcquire(PoolMu);
                T.write(NextRow, T.read(NextRow) + 1);
                if (GuardPool)
                  T.lockRelease(PoolMu);
              }
            }
            if (Row >= Rows)
              return;

            // Scene-inspection battery: mtrt's render inner loop calls
            // many small read-only helpers over the fork-published scene.
            // Each is atomic (the scene is immutable), yet each makes >= 2
            // "racy" reads by lockset reckoning — the methods behind the
            // paper's 27 mtrt false alarms.
            {
              static const char *const Inspect[] = {
                  "Scene.boundingBox", "Scene.lightCount",
                  "Scene.materialOf",  "Camera.aspect",
                  "Scene.normalAt",    "Scene.background",
                  "Scene.ambient",     "Octree.lookup"};
              AtomicRegion A(T, Inspect[Row % 8]);
              int S1 = static_cast<int>(Row % NumSpheres);
              int S2 = static_cast<int>((Row + 1) % NumSpheres);
              int64_t Probe = T.read(*SphereX[S1]);
              Probe += T.read(*SphereR[S2]);
              Probe += T.read(*LightI[Row % 2]);
              (void)Probe;
            }

            int64_t RowSum = 0;
            for (int Px = 0; Px < 4; ++Px) {
              int64_t Dir;
              { // Camera.rayFor: fork-published camera reads (FP).
                AtomicRegion A(T, "Camera.rayFor");
                int64_t Fov = T.read(CamFov);
                Dir = (Row * 17 + Px * 31) % (Fov + 1);
              }
              int64_t Hit;
              { // Scene.intersect: walks every sphere (reads, FP).
                AtomicRegion A(T, "Scene.intersect");
                Hit = -1;
                for (int S = 0; S < NumSpheres; ++S) {
                  int64_t X = T.read(*SphereX[S]);
                  int64_t Rad = T.read(*SphereR[S]);
                  if ((Dir - X) * (Dir - X) <= Rad * Rad) {
                    Hit = S;
                    break;
                  }
                }
              }
              { // Scene.shade: light reads (FP).
                AtomicRegion A(T, "Scene.shade");
                int64_t Shade = 0;
                if (Hit >= 0) {
                  Shade = T.read(*LightI[0]);
                  Shade += T.read(*LightI[1]) / (Hit + 1);
                }
                RowSum += Shade;
              }
            }

            // RayTracer.updateChecksum: the famous JGF/SPEC checksum bug —
            // a global += with no synchronization.
            {
              AtomicRegion A(T, "RayTracer.updateChecksum");
              T.write(Checksum, T.read(Checksum) + RowSum);
            }
          }
        }));
      }
      for (Tid R : Renderers)
        Main.join(R);
    });
  }
};

} // namespace

std::unique_ptr<Workload> makeMtrt() {
  return std::make_unique<MtrtWorkload>();
}

} // namespace velo
