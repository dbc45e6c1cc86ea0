//===- stamp/Vacation.cpp --------------------------------------------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//

#include "stamp/Vacation.h"

#include <cassert>
#include <vector>

using namespace gstm;

VacationParams VacationParams::forSize(SizeClass S) {
  VacationParams P;
  switch (S) {
  case SizeClass::Small:
    P.NumRelations = 48;
    P.NumCustomers = 48;
    P.OpsPerThread = 96;
    break;
  case SizeClass::Medium:
    P.NumRelations = 128;
    P.NumCustomers = 128;
    P.OpsPerThread = 256;
    break;
  case SizeClass::Large:
    P.NumRelations = 512;
    P.NumCustomers = 512;
    P.OpsPerThread = 1024;
    break;
  }
  return P;
}

void VacationWorkload::setup(Tl2Stm &Stm, unsigned NumThreads,
                             uint64_t Seed) {
  Threads = NumThreads;
  RunSeed = Seed;
  SplitMix64 Rng(Seed ^ 0xabcdef1234567890ULL);

  // Tree nodes: assets + customer (re-)inserts + NIL sentinels. A
  // reservation's retries reuse one spare node (doReserve), so however
  // often it aborts, one operation takes at most one tree node and one
  // list node; 2x the operation count is ample headroom.
  uint32_t TotalOps = Params.OpsPerThread * NumThreads;
  uint32_t TreeCapacity = NumTables * Params.NumRelations +
                          Params.NumCustomers + 2 * TotalOps +
                          NumTables + 2;
  TreePool = std::make_unique<TmRbTree::Pool>(TreeCapacity);
  // Reservation nodes: at most one per reserve (never recycled).
  ListPool = std::make_unique<TmList::Pool>(4 * TotalOps + 64);

  Tables.clear();
  InitialFree.assign(static_cast<size_t>(NumTables) * Params.NumRelations,
                     0);
  // Setup is single-threaded but the trees only expose transactional
  // mutators, so drive them through a local transaction context.
  Tl2Txn Init(Stm, /*Thread=*/0);
  for (uint32_t T = 0; T < NumTables; ++T) {
    Tables.push_back(std::make_unique<TmRbTree>(*TreePool));
    for (uint32_t A = 0; A < Params.NumRelations; ++A) {
      uint32_t Price = 50 + static_cast<uint32_t>(Rng.nextBounded(450));
      uint32_t Free = 1 + static_cast<uint32_t>(Rng.nextBounded(4));
      InitialFree[static_cast<size_t>(T) * Params.NumRelations + A] = Free;
      Init.run(0, [&](Tl2Txn &Tx) {
        Tables[T]->insert(Tx, A, packAsset(Price, Free));
      });
    }
  }
  Customers = std::make_unique<TmRbTree>(*TreePool);
  Reservations = std::make_unique<TmList[]>(Params.NumCustomers);
}

void VacationWorkload::doReserve(Tl2Txn &Txn, SplitMix64 &Rng) {
  uint32_t Customer =
      static_cast<uint32_t>(Rng.nextBounded(Params.NumCustomers));
  uint32_t Table = static_cast<uint32_t>(Rng.nextBounded(NumTables));
  // Pre-draw the probed asset ids so retries replay identical queries.
  std::vector<uint32_t> Probes(Params.QueriesPerReserve);
  for (uint32_t &A : Probes)
    A = static_cast<uint32_t>(Rng.nextBounded(Params.NumRelations));

  // One spare node per insert site, kept across retries: a starving
  // reservation leaks at most these two nodes, which the pools budget for.
  uint32_t CustomerSpare = TmRbTree::Pool::Null;
  uint32_t ReservationSpare = TmList::Pool::Null;
  Txn.run(/*Tx=*/0, [&](Tl2Txn &Tx) {
    // Find the highest-priced probed asset with a free seat (STAMP's
    // "best reservation" rule).
    bool Found = false;
    uint32_t BestAsset = 0;
    uint32_t BestPrice = 0;
    uint64_t BestPacked = 0;
    for (uint32_t A : Probes) {
      auto Packed = Tables[Table]->find(Tx, A);
      if (!Packed || assetFree(*Packed) == 0)
        continue;
      if (!Found || assetPrice(*Packed) > BestPrice) {
        Found = true;
        BestAsset = A;
        BestPrice = assetPrice(*Packed);
        BestPacked = *Packed;
      }
    }
    if (!Found)
      return;

    uint64_t Key = packReservation(Table, BestAsset);
    // One seat per (customer, asset): skip when already reserved.
    if (Reservations[Customer].find(Tx, *ListPool, Key))
      return;
    Tables[Table]->update(
        Tx, BestAsset, packAsset(BestPrice, assetFree(BestPacked) - 1));
    // No-op when already present.
    Customers->insert(Tx, Customer, 1, &CustomerSpare);
    Reservations[Customer].insert(Tx, *ListPool, Key, BestPrice,
                                  &ReservationSpare);
  });
}

void VacationWorkload::doDeleteCustomer(Tl2Txn &Txn, SplitMix64 &Rng) {
  uint32_t Customer =
      static_cast<uint32_t>(Rng.nextBounded(Params.NumCustomers));

  Txn.run(/*Tx=*/1, [&](Tl2Txn &Tx) {
    if (!Customers->find(Tx, Customer))
      return;
    // Release every reservation back to its table, then drop the
    // customer record.
    std::vector<uint64_t> Keys;
    Reservations[Customer].forEach(Tx, *ListPool,
                                   [&Keys](uint64_t Key, uint64_t) {
                                     Keys.push_back(Key);
                                   });
    for (uint64_t Key : Keys) {
      uint32_t Table = static_cast<uint32_t>(Key >> 32);
      uint32_t Asset = static_cast<uint32_t>(Key);
      auto Packed = Tables[Table]->find(Tx, Asset);
      assert(Packed && "reservation for a missing asset");
      Tables[Table]->update(
          Tx, Asset, packAsset(assetPrice(*Packed), assetFree(*Packed) + 1));
      Reservations[Customer].remove(Tx, *ListPool, Key);
    }
    Customers->remove(Tx, Customer);
  });
}

void VacationWorkload::doUpdateTables(Tl2Txn &Txn, SplitMix64 &Rng) {
  uint32_t Table = static_cast<uint32_t>(Rng.nextBounded(NumTables));
  std::vector<std::pair<uint32_t, uint32_t>> Updates(
      Params.QueriesPerReserve);
  for (auto &[Asset, Price] : Updates) {
    Asset = static_cast<uint32_t>(Rng.nextBounded(Params.NumRelations));
    Price = 50 + static_cast<uint32_t>(Rng.nextBounded(450));
  }

  Txn.run(/*Tx=*/2, [&](Tl2Txn &Tx) {
    for (auto [Asset, Price] : Updates) {
      auto Packed = Tables[Table]->find(Tx, Asset);
      if (!Packed)
        continue;
      Tables[Table]->update(Tx, Asset,
                            packAsset(Price, assetFree(*Packed)));
    }
  });
}

void VacationWorkload::threadBody(Tl2Stm &Stm, ThreadId Thread) {
  Tl2Txn Txn(Stm, Thread);
  SplitMix64 Rng(RunSeed * 0x100000001b3ULL + Thread + 1);

  for (uint32_t Op = 0; Op < Params.OpsPerThread; ++Op) {
    uint64_t Roll = Rng.nextBounded(100);
    if (Roll < Params.ReservePercent)
      doReserve(Txn, Rng);
    else if (Roll < Params.ReservePercent +
                        (100 - Params.ReservePercent) / 2)
      doDeleteCustomer(Txn, Rng);
    else
      doUpdateTables(Txn, Rng);
  }
}

bool VacationWorkload::verify(Tl2Stm &Stm) {
  (void)Stm;
  // Conservation: for every asset, free seats plus outstanding
  // reservations must equal the initial allocation.
  std::vector<uint32_t> Reserved(
      static_cast<size_t>(NumTables) * Params.NumRelations, 0);
  for (uint32_t C = 0; C < Params.NumCustomers; ++C)
    Reservations[C].forEachDirect(*ListPool,
                                  [&](uint64_t Key, uint64_t) {
                                    uint32_t Table =
                                        static_cast<uint32_t>(Key >> 32);
                                    uint32_t Asset =
                                        static_cast<uint32_t>(Key);
                                    ++Reserved[static_cast<size_t>(Table) *
                                                   Params.NumRelations +
                                               Asset];
                                  });

  for (uint32_t T = 0; T < NumTables; ++T) {
    if (!Tables[T]->validateDirect())
      return false;
    bool Ok = true;
    Tables[T]->forEachDirect([&](uint64_t Asset, uint64_t Packed) {
      size_t Index =
          static_cast<size_t>(T) * Params.NumRelations + Asset;
      if (assetFree(Packed) + Reserved[Index] != InitialFree[Index])
        Ok = false;
    });
    if (!Ok)
      return false;
  }
  return Customers->validateDirect();
}

