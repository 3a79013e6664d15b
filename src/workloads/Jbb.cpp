//===- workloads/Jbb.cpp - Business-object order processing ----------------===//
//
// Analogue of SPEC JBB2000: warehouse threads process orders against
// per-warehouse district and stock state (each guarded by the warehouse
// lock), with a company-wide ledger and a phase flag driven by the main
// thread.
//
// This workload reproduces the paper's observation that jbb is where the
// Atomizer's false alarms concentrate (42 of them): configuration is
// published to workers through the fork edge and the phase flag through a
// bare write — both perfectly serializable, both invisible to a lockset
// analysis. Velodrome sees the fork and write-read edges and stays silent.
//
//   non-atomic (ground truth):
//     Company.recordRevenue   ledger RMW, no lock
//     District.nextOrderId    id read and increment in two sections
//     Stock.replenishCheck    low-stock check in one section, reorder in
//                             another (check-then-act)
//     Company.auditTotals     unguarded torn scan of every warehouse ytd
//     Customer.payment        balance read unguarded, write under the lock
//
//   atomic but Atomizer-flagged (false alarms):
//     Worker.checkPhase, Worker.loadConfig — racy-looking reads ordered by
//     fork edges / the phase-flag write-read edge
//
//   atomic: Warehouse.newOrder, Warehouse.delivery, District.report
//
//===----------------------------------------------------------------------===//

#include "workloads/Workload.h"

namespace velo {
namespace {

class JbbWorkload : public Workload {
public:
  const char *name() const override { return "jbb"; }
  const char *description() const override {
    return "SPEC JBB-style warehouse order processing with phase control";
  }
  const char *sourceFile() const override { return __FILE__; }

  std::vector<std::string> nonAtomicMethods() const override {
    return {"Company.recordRevenue", "District.nextOrderId",
            "Stock.replenishCheck", "Company.auditTotals",
            "Customer.payment",     "Customer.creditScreen"};
  }

  std::vector<std::string> guardSites() const override {
    return {"warehouse.mu"};
  }

  void run(Runtime &RT) const override {
    const int NumWarehouses = 4;
    const int Orders = 10 * Scale;
    const int Items = 6;

    std::vector<LockVar *> WhMu;
    std::vector<SharedVar *> Ytd, NextOrder, CustBalance, PendingOrders;
    std::vector<std::vector<SharedVar *>> Stock(NumWarehouses);
    for (int W = 0; W < NumWarehouses; ++W) {
      std::string Ws = std::to_string(W);
      WhMu.push_back(&RT.lock("Warehouse.mu[" + Ws + "]"));
      Ytd.push_back(&RT.var("Warehouse.ytd[" + Ws + "]"));
      NextOrder.push_back(&RT.var("District.nextOrder[" + Ws + "]"));
      CustBalance.push_back(&RT.var("Customer.balance[" + Ws + "]"));
      PendingOrders.push_back(&RT.var("Warehouse.pending[" + Ws + "]"));
      for (int I = 0; I < Items; ++I)
        Stock[W].push_back(
            &RT.var("Stock.qty[" + Ws + "][" + std::to_string(I) + "]"));
    }
    SharedVar &Ledger = RT.var("Company.ledger");
    SharedVar &Phase = RT.var("Company.phase");
    SharedVar &CfgItems = RT.var("Config.items");
    SharedVar &CfgPayRate = RT.var("Config.payRate");

    bool Guard = guardEnabled("warehouse.mu");

    RT.run([&, NumWarehouses, Orders, Items](MonitoredThread &Main) {
      // Configuration written once by main, before forking: the workers'
      // unguarded reads are ordered by the fork edges (race-free), but a
      // lockset analysis cannot see that.
      Main.write(CfgItems, Items);
      Main.write(CfgPayRate, 7);
      Main.write(Phase, 0); // 0 = ramp-up, 1 = measurement

      std::vector<Tid> Warehouses;
      for (int W = 0; W < NumWarehouses; ++W) {
        Warehouses.push_back(Main.fork([&, W, Orders](MonitoredThread &T) {
          int64_t MyItems, PayRate;
          { // Worker.loadConfig: fork-published reads (Atomizer FP).
            AtomicRegion A(T, "Worker.loadConfig");
            MyItems = T.read(CfgItems);
            PayRate = T.read(CfgPayRate);
          }
          for (int O = 0; O < Orders; ++O) {
            { // Worker.checkPhase: flag-handoff read plus a fork-published
              // config read — two "racy" accesses for a lockset analysis
              // (Atomizer FP), but fully ordered by the write-read and fork
              // edges, so Velodrome-clean.
              AtomicRegion A(T, "Worker.checkPhase");
              int64_t Ph = T.read(Phase);
              int64_t Limit = T.read(CfgItems);
              (void)(Ph + Limit);
            }

            // Read-only helper battery over fork-published configuration
            // and the phase flag: atomic (ordered by fork and write-read
            // edges) but all lockset-racy — the bulk of jbb's Atomizer
            // false alarms in the paper (42 of them).
            {
              static const char *const Helpers[] = {
                  "Worker.priceOf",    "Worker.taxRate",
                  "Worker.creditCheck", "Worker.catalogScan",
                  "Worker.warmup",     "Worker.auditConfig"};
              AtomicRegion A(T, Helpers[O % 6]);
              int64_t Probe = T.read(CfgItems);
              Probe += T.read(CfgPayRate);
              if (O % 2 == 0)
                Probe += T.read(Phase);
              (void)Probe;
            }

            // District.nextOrderId: read in one critical section,
            // increment in a second one — duplicate order ids.
            int64_t OrderId;
            {
              AtomicRegion A(T, "District.nextOrderId");
              if (Guard)
                T.lockAcquire(*WhMu[W]);
              OrderId = T.read(*NextOrder[W]);
              if (Guard)
                T.lockRelease(*WhMu[W]);
              if (Guard)
                T.lockAcquire(*WhMu[W]);
              T.write(*NextOrder[W], OrderId + 1);
              if (Guard)
                T.lockRelease(*WhMu[W]);
            }

            // Warehouse.newOrder: stock updates in one critical section.
            int64_t Total = 0;
            {
              AtomicRegion A(T, "Warehouse.newOrder");
              if (Guard)
                T.lockAcquire(*WhMu[W]);
              for (int L = 0; L < 3; ++L) {
                int Item = static_cast<int>(T.rng().below(MyItems));
                int64_t Qty = T.read(*Stock[W][Item]);
                T.write(*Stock[W][Item], Qty - 1);
                Total += OrderId % 50 + L;
              }
              T.write(*Ytd[W], T.read(*Ytd[W]) + Total);
              T.write(*PendingOrders[W], T.read(*PendingOrders[W]) + 1);
              if (Guard)
                T.lockRelease(*WhMu[W]);
            }

            // Stock.replenishCheck: low-stock probe and the reorder are
            // separate critical sections on the same warehouse.
            {
              AtomicRegion A(T, "Stock.replenishCheck");
              int Item = static_cast<int>(T.rng().below(MyItems));
              if (Guard)
                T.lockAcquire(*WhMu[W]);
              int64_t Qty = T.read(*Stock[W][Item]);
              if (Guard)
                T.lockRelease(*WhMu[W]);
              if (Qty < 5) {
                if (Guard)
                  T.lockAcquire(*WhMu[W]);
                T.write(*Stock[W][Item], Qty + 20);
                if (Guard)
                  T.lockRelease(*WhMu[W]);
              }
            }

            // Customer.payment: pays a customer of a *random* warehouse;
            // the balance read escapes the critical section, so concurrent
            // payments to the same customer lose updates.
            {
              AtomicRegion A(T, "Customer.payment");
              int V = static_cast<int>(T.rng().below(NumWarehouses));
              int64_t Bal = T.read(*CustBalance[V]); // unguarded read
              if (Guard)
                T.lockAcquire(*WhMu[V]);
              T.write(*CustBalance[V], Bal + PayRate);
              if (Guard)
                T.lockRelease(*WhMu[V]);
            }

            // Company.recordRevenue: company ledger RMW, no lock.
            {
              AtomicRegion A(T, "Company.recordRevenue");
              T.write(Ledger, T.read(Ledger) + Total);
            }

            // Warehouse.delivery: pop the oldest undelivered order and
            // credit the warehouse — one critical section (atomic).
            if (O % 3 == 0) {
              AtomicRegion A(T, "Warehouse.delivery");
              if (Guard)
                T.lockAcquire(*WhMu[W]);
              int64_t Pending = T.read(*PendingOrders[W]);
              if (Pending > 0) {
                T.write(*PendingOrders[W], Pending - 1);
                T.write(*Ytd[W], T.read(*Ytd[W]) + 1);
              }
              if (Guard)
                T.lockRelease(*WhMu[W]);
            }

            // Warehouse.orderStatus: read-only scan of this warehouse's
            // order book under its lock (atomic) — the TPC-C-style
            // OrderStatus transaction.
            if (O % 4 == 1) {
              AtomicRegion A(T, "Warehouse.orderStatus");
              if (Guard)
                T.lockAcquire(*WhMu[W]);
              int64_t Status = T.read(*PendingOrders[W]) * 100;
              Status += T.read(*NextOrder[W]);
              (void)Status;
              if (Guard)
                T.lockRelease(*WhMu[W]);
            }

            // Customer.creditScreen: the fuzzy-read query (TPC-C's
            // StockLevel is the analogous "allowed to be inconsistent"
            // transaction): probe a customer's balance twice without the
            // warehouse lock to estimate payment velocity. A concurrent
            // guarded payment between the two reads pins this transaction
            // — genuinely non-atomic, and deliberately confined to the
            // balance variable, whose only guarded accessors are
            // single-write payment sections (which stay atomic).
            if (O % 4 == 2) {
              AtomicRegion A(T, "Customer.creditScreen");
              int V = static_cast<int>(T.rng().below(NumWarehouses));
              int64_t Before = T.read(*CustBalance[V]);
              int64_t After = T.read(*CustBalance[V]);
              (void)(After - Before);
            }
          }
        }));
      }

      // Main thread: flips the phase, audits totals while warehouses run.
      for (int R = 0; R < Orders; ++R) {
        if (R == 2)
          Main.write(Phase, 1); // the flag handoff (plain write)
        { // Company.auditTotals: unguarded torn scan of every warehouse.
          AtomicRegion A(Main, "Company.auditTotals");
          int64_t Sum = 0;
          for (int W = 0; W < NumWarehouses; ++W)
            Sum += Main.read(*Ytd[W]);
          (void)Sum;
        }
        Main.yield();
      }

      for (Tid W : Warehouses)
        Main.join(W);

      { // District.report: post-join aggregation (atomic via join edges).
        AtomicRegion A(Main, "District.report");
        int64_t Sum = 0;
        for (int W = 0; W < NumWarehouses; ++W)
          Sum += Main.read(*NextOrder[W]);
        (void)Sum;
      }
    });
  }
};

} // namespace

std::unique_ptr<Workload> makeJbb() { return std::make_unique<JbbWorkload>(); }

} // namespace velo
