//===- workloads/Colt.cpp - Scientific computing library (CERN Colt) -------===//
//
// Analogue of the `colt` scientific library benchmark: concurrent clients
// hammer a matrix object with lazily cached aggregates, a streaming
// descriptive-statistics object, a histogram, and an append buffer. Library
// code is full of small methods; many cache or aggregate lazily with
// check-then-init idioms that are not atomic — colt is where the paper's
// Table 2 reports one of the larger warning counts (27 methods, 20 caught).
//
//   non-atomic (ground truth):
//     Matrix.cacheRowSum    check-then-init of the row-sum cache
//     Matrix.cacheColSum    check-then-init of the column-sum cache
//     Matrix.trace          unguarded diagonal scan
//     Histogram.add         bin counter RMW, no lock
//     Histogram.rebin       drain and rebuild in separate sections
//     Descriptive.addValue  n/sum/sumsq updated in separate sections
//     Descriptive.moment    torn read of n and sum
//     Descriptive.minMax    check-then-update of running min and max
//     Buffer.append         size check and slot write split
//     Buffer.flushCheck     size read unguarded, clear guarded
//     Sort.swapCount        global swap counter RMW, no lock
//
//   atomic: Matrix.get, Matrix.set, Matrix.scale (single sections under
//           matrix.mu), Histogram.total (single section), Buffer.size
//
//   injection sites: matrix.mu, hist.mu, buffer.mu, desc.mu — the Section 6
//   study removes these one at a time (colt is one of its two subjects).
//
//===----------------------------------------------------------------------===//

#include "workloads/Workload.h"

namespace velo {
namespace {

class ColtWorkload : public Workload {
public:
  const char *name() const override { return "colt"; }
  const char *description() const override {
    return "CERN Colt-style matrix/statistics library under concurrency";
  }
  const char *sourceFile() const override { return __FILE__; }

  std::vector<std::string> nonAtomicMethods() const override {
    return {"Matrix.cacheRowSum",  "Matrix.cacheColSum", "Matrix.trace",
            "Histogram.add",       "Histogram.rebin",    "Histogram.total",
            "Descriptive.addValue", "Descriptive.moment", "Descriptive.minMax",
            "Buffer.append",       "Buffer.flushCheck",  "Sort.swapCount"};
  }

  std::vector<std::string> guardSites() const override {
    return {"matrix.mu", "hist.mu", "buffer.mu", "desc.mu"};
  }

  void run(Runtime &RT) const override {
    const int NumClients = 4;
    const int OpsPerClient = 16 * Scale;
    const int Dim = 3;
    const int Bins = 5;
    const int BufCap = 12;

    LockVar &MatrixMu = RT.lock("Matrix.mu");
    LockVar &HistMu = RT.lock("Histogram.mu");
    LockVar &BufferMu = RT.lock("Buffer.mu");
    LockVar &DescMu = RT.lock("Descriptive.mu");

    std::vector<SharedVar *> Cells, BinCount, BufData, RowSum, ColSum;
    for (int I = 0; I < Dim * Dim; ++I)
      Cells.push_back(&RT.var("Matrix.cells[" + std::to_string(I) + "]"));
    for (int I = 0; I < Dim; ++I) {
      RowSum.push_back(&RT.var("Matrix.rowSum[" + std::to_string(I) + "]"));
      ColSum.push_back(&RT.var("Matrix.colSum[" + std::to_string(I) + "]"));
    }
    for (int I = 0; I < Bins; ++I)
      BinCount.push_back(&RT.var("Histogram.bin[" + std::to_string(I) + "]"));
    for (int I = 0; I < BufCap; ++I)
      BufData.push_back(&RT.var("Buffer.data[" + std::to_string(I) + "]"));
    SharedVar &RowSumValid = RT.var("Matrix.rowSumValid");
    SharedVar &ColSumValid = RT.var("Matrix.colSumValid");
    SharedVar &DescN = RT.var("Descriptive.n");
    SharedVar &DescSum = RT.var("Descriptive.sum");
    SharedVar &DescSumSq = RT.var("Descriptive.sumSq");
    SharedVar &DescMin = RT.var("Descriptive.min");
    SharedVar &DescMax = RT.var("Descriptive.max");
    SharedVar &BufSize = RT.var("Buffer.size");
    SharedVar &Swaps = RT.var("Sort.swaps");
    SharedVar &WindowLo = RT.var("Descriptive.windowLo");
    SharedVar &WindowHi = RT.var("Descriptive.windowHi");
    SharedVar &Overflow = RT.var("Histogram.overflow");
    SharedVar &Underflow = RT.var("Histogram.underflow");

    bool GMat = guardEnabled("matrix.mu");
    bool GHist = guardEnabled("hist.mu");
    bool GBuf = guardEnabled("buffer.mu");
    bool GDesc = guardEnabled("desc.mu");

    RT.run([&, NumClients, OpsPerClient, Dim, Bins, BufCap](
               MonitoredThread &Main) {
      Main.write(DescMin, 1'000'000);
      Main.write(DescMax, -1'000'000);

      std::vector<Tid> Clients;
      for (int C = 0; C < NumClients; ++C) {
        Clients.push_back(Main.fork([&, OpsPerClient, Dim, Bins,
                                     BufCap](MonitoredThread &T) {
          for (int OpIdx = 0; OpIdx < OpsPerClient; ++OpIdx) {
            int64_t V = static_cast<int64_t>(T.rng().below(100));
            int Cell = static_cast<int>(T.rng().below(Dim * Dim));
            switch (T.rng().below(12)) {
            case 0: { // Matrix.set (atomic)
              AtomicRegion A(T, "Matrix.set");
              if (GMat)
                T.lockAcquire(MatrixMu);
              T.write(*Cells[Cell], V);
              T.write(RowSumValid, 0); // invalidate caches
              T.write(ColSumValid, 0);
              if (GMat)
                T.lockRelease(MatrixMu);
              break;
            }
            case 1: { // Matrix.get (atomic)
              AtomicRegion A(T, "Matrix.get");
              if (GMat)
                T.lockAcquire(MatrixMu);
              T.read(*Cells[Cell]);
              if (GMat)
                T.lockRelease(MatrixMu);
              break;
            }
            case 2: { // Matrix.scale (atomic)
              AtomicRegion A(T, "Matrix.scale");
              if (GMat)
                T.lockAcquire(MatrixMu);
              for (int I = 0; I < Dim; ++I)
                T.write(*Cells[I], T.read(*Cells[I]) * 2 % 97);
              T.write(RowSumValid, 0);
              if (GMat)
                T.lockRelease(MatrixMu);
              break;
            }
            case 3: { // Matrix.cacheRowSum: check-then-init, two sections
              AtomicRegion A(T, "Matrix.cacheRowSum");
              if (GMat)
                T.lockAcquire(MatrixMu);
              bool Valid = T.read(RowSumValid) != 0;
              if (GMat)
                T.lockRelease(MatrixMu);
              if (!Valid) {
                if (GMat)
                  T.lockAcquire(MatrixMu);
                for (int R = 0; R < Dim; ++R) {
                  int64_t Sum = 0;
                  for (int K = 0; K < Dim; ++K)
                    Sum += T.read(*Cells[R * Dim + K]);
                  T.write(*RowSum[R], Sum);
                }
                T.write(RowSumValid, 1);
                if (GMat)
                  T.lockRelease(MatrixMu);
              }
              break;
            }
            case 4: { // Matrix.cacheColSum: same idiom
              AtomicRegion A(T, "Matrix.cacheColSum");
              if (GMat)
                T.lockAcquire(MatrixMu);
              bool Valid = T.read(ColSumValid) != 0;
              if (GMat)
                T.lockRelease(MatrixMu);
              if (!Valid) {
                if (GMat)
                  T.lockAcquire(MatrixMu);
                for (int K = 0; K < Dim; ++K) {
                  int64_t Sum = 0;
                  for (int R = 0; R < Dim; ++R)
                    Sum += T.read(*Cells[R * Dim + K]);
                  T.write(*ColSum[K], Sum);
                }
                T.write(ColSumValid, 1);
                if (GMat)
                  T.lockRelease(MatrixMu);
              }
              break;
            }
            case 5: { // Matrix.trace: unguarded diagonal scan
              AtomicRegion A(T, "Matrix.trace");
              int64_t Tr = 0;
              for (int I = 0; I < Dim; ++I)
                Tr += T.read(*Cells[I * Dim + I]);
              (void)Tr;
              break;
            }
            case 6: { // Histogram.add: unguarded bin RMW; total guarded
              AtomicRegion A(T, "Histogram.add");
              int B = static_cast<int>(V % Bins);
              T.write(*BinCount[B], T.read(*BinCount[B]) + 1);
              break;
            }
            case 7: { // Histogram.rebin: drain then rebuild, two sections
              AtomicRegion A(T, "Histogram.rebin");
              int64_t Total = 0;
              if (GHist)
                T.lockAcquire(HistMu);
              for (int B = 0; B < Bins; ++B)
                Total += T.read(*BinCount[B]);
              if (GHist)
                T.lockRelease(HistMu);
              if (GHist)
                T.lockAcquire(HistMu);
              for (int B = 0; B < Bins; ++B)
                T.write(*BinCount[B], Total / Bins);
              if (GHist)
                T.lockRelease(HistMu);
              break;
            }
            case 8: { // Descriptive.addValue: three separate sections
              AtomicRegion A(T, "Descriptive.addValue");
              if (GDesc)
                T.lockAcquire(DescMu);
              T.write(DescN, T.read(DescN) + 1);
              if (GDesc)
                T.lockRelease(DescMu);
              if (GDesc)
                T.lockAcquire(DescMu);
              T.write(DescSum, T.read(DescSum) + V);
              if (GDesc)
                T.lockRelease(DescMu);
              if (GDesc)
                T.lockAcquire(DescMu);
              T.write(DescSumSq, T.read(DescSumSq) + V * V);
              if (GDesc)
                T.lockRelease(DescMu);
              break;
            }
            case 9: { // Descriptive.moment + minMax
              {
                AtomicRegion A(T, "Descriptive.moment");
                int64_t N = T.read(DescN); // unguarded torn read
                int64_t Sum = T.read(DescSum);
                (void)(N + Sum);
              }
              {
                AtomicRegion A(T, "Descriptive.minMax");
                int64_t Min = T.read(DescMin);
                if (V < Min)
                  T.write(DescMin, V);
                int64_t Max = T.read(DescMax);
                if (V > Max)
                  T.write(DescMax, V);
              }
              break;
            }
            case 10: { // Buffer.append + flushCheck + size
              {
                AtomicRegion A(T, "Buffer.append");
                int64_t N = T.read(BufSize); // unguarded size probe
                if (N < BufCap) {
                  if (GBuf)
                    T.lockAcquire(BufferMu);
                  int64_t Now = T.read(BufSize);
                  if (Now < BufCap) {
                    T.write(*BufData[Now], V);
                    T.write(BufSize, Now + 1);
                  }
                  if (GBuf)
                    T.lockRelease(BufferMu);
                }
              }
              {
                AtomicRegion A(T, "Buffer.flushCheck");
                int64_t N = T.read(BufSize); // unguarded
                if (N >= BufCap - 2) {
                  if (GBuf)
                    T.lockAcquire(BufferMu);
                  T.write(BufSize, 0);
                  if (GBuf)
                    T.lockRelease(BufferMu);
                }
              }
              {
                AtomicRegion A(T, "Buffer.size");
                if (GBuf)
                  T.lockAcquire(BufferMu);
                T.read(BufSize);
                if (GBuf)
                  T.lockRelease(BufferMu);
              }
              {
                // Buffer.last: size lookup plus tail read in one guarded
                // section — atomic until the injection study removes
                // buffer.mu, at which point the tail read can see a
                // concurrent append/flush between the two accesses.
                AtomicRegion A(T, "Buffer.last");
                if (GBuf)
                  T.lockAcquire(BufferMu);
                int64_t N = T.read(BufSize);
                if (N > 0 && N <= BufCap)
                  T.read(*BufData[N - 1]);
                // Stability re-check: without the lock, any concurrent
                // append/flush between the two size reads pins this method.
                T.read(BufSize);
                if (GBuf)
                  T.lockRelease(BufferMu);
              }
              break;
            }
            case 11: { // Guarded methods over lock-exclusive state (the
              // window bounds and overflow counters are touched *only*
              // under their locks): atomic while guarded; the injection
              // study removes desc.mu / hist.mu to create fresh defects.
              for (int Round = 0; Round < 3; ++Round) {
                if ((V + Round) % 2 == 0) {
                  {
                    AtomicRegion A(T, "Descriptive.setWindow");
                    if (GDesc)
                      T.lockAcquire(DescMu);
                    T.write(WindowLo, V + Round);
                    T.write(WindowHi, V + Round + 10);
                    if (GDesc)
                      T.lockRelease(DescMu);
                  }
                  {
                    AtomicRegion A(T, "Descriptive.windowWidth");
                    if (GDesc)
                      T.lockAcquire(DescMu);
                    int64_t Width = T.read(WindowHi);
                    Width -= T.read(WindowLo);
                    (void)Width;
                    if (GDesc)
                      T.lockRelease(DescMu);
                  }
                } else {
                  {
                    AtomicRegion A(T, "Histogram.recordOverflow");
                    if (GHist)
                      T.lockAcquire(HistMu);
                    T.write(Overflow, T.read(Overflow) + 1);
                    T.write(Underflow, T.read(Underflow) + (V % 2));
                    if (GHist)
                      T.lockRelease(HistMu);
                  }
                  {
                    AtomicRegion A(T, "Histogram.checkRange");
                    if (GHist)
                      T.lockAcquire(HistMu);
                    int64_t Out = T.read(Overflow);
                    Out += T.read(Underflow);
                    (void)Out;
                    if (GHist)
                      T.lockRelease(HistMu);
                  }
                }
              }
              break;
            }
            default: { // Sort.swapCount + Histogram.total
              {
                AtomicRegion A(T, "Sort.swapCount");
                T.write(Swaps, T.read(Swaps) + V % 3);
              }
              {
                AtomicRegion A(T, "Histogram.total");
                // The bins are hammered by unguarded Histogram.add RMWs,
                // so even this locked scan is torn — genuinely non-atomic.
                if (GHist)
                  T.lockAcquire(HistMu);
                int64_t Total = 0;
                for (int B = 0; B < Bins; ++B)
                  Total += T.read(*BinCount[B]);
                (void)Total;
                if (GHist)
                  T.lockRelease(HistMu);
              }
              break;
            }
            }
          }
        }));
      }
      for (Tid C : Clients)
        Main.join(C);
    });
  }
};

} // namespace

std::unique_ptr<Workload> makeColt() {
  return std::make_unique<ColtWorkload>();
}

} // namespace velo
