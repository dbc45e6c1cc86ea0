//===- stamp/Genome.cpp ----------------------------------------------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//

#include "stamp/Genome.h"

#include "support/SplitMix64.h"

#include <algorithm>
#include <cassert>
#include <unordered_map>
#include <unordered_set>

using namespace gstm;

GenomeParams GenomeParams::forSize(SizeClass S) {
  GenomeParams P;
  switch (S) {
  case SizeClass::Small:
    P.GenomeBases = 2048;
    P.SegmentBases = 16;
    P.NumSegments = 1024;
    break;
  case SizeClass::Medium:
    P.GenomeBases = 16384;
    P.SegmentBases = 16;
    P.NumSegments = 8192;
    break;
  case SizeClass::Large:
    P.GenomeBases = 65536;
    P.SegmentBases = 16;
    P.NumSegments = 49152;
    break;
  }
  return P;
}

uint64_t GenomeWorkload::encode(uint32_t Pos, uint32_t Count) const {
  assert(Pos + Count <= Genome.size() && "segment out of range");
  uint64_t Packed = 0;
  for (uint32_t I = 0; I < Count; ++I)
    Packed = (Packed << 2) | Genome[Pos + I];
  // Set a guard bit above the payload so distinct lengths cannot alias
  // and no segment encodes to the hash maps' "absent" ambiguity of 0.
  return Packed | (uint64_t{1} << (2 * Count));
}

void GenomeWorkload::setup(Tl2Stm &Stm, unsigned NumThreads, uint64_t Seed) {
  (void)Stm;
  assert(Params.SegmentBases % 2 == 0 && Params.SegmentBases <= 30 &&
         "segment length must be even and fit the 2-bit packing");
  Threads = NumThreads;
  SplitMix64 Rng(Seed * 0x9e3779b97f4a7c15ULL + 11);

  Genome.resize(Params.GenomeBases);
  for (uint8_t &Base : Genome)
    Base = static_cast<uint8_t>(Rng.nextBounded(4));

  Segments.resize(Params.NumSegments);
  std::unordered_set<uint64_t> Reference;
  for (uint64_t &Seg : Segments) {
    uint32_t Pos = static_cast<uint32_t>(
        Rng.nextBounded(Params.GenomeBases - Params.SegmentBases));
    Seg = encode(Pos, Params.SegmentBases);
    Reference.insert(Seg);
  }
  ReferenceUnique = Reference.size();

  // Pool: dedup nodes + prefix nodes + 2 link nodes per unique segment,
  // plus headroom for nodes leaked by insert transactions: each insert
  // site keeps one spare node across its transaction's attempts, so a
  // transaction strands at most one node per site, when a retry finds
  // its key already present (TmPool discipline).
  NodePool = std::make_unique<TmList::Pool>(
      static_cast<uint32_t>(16 * Params.NumSegments + 4096));
  // Bucket count tuned well below the segment count so dedup inserts
  // contend on chains, as STAMP's genome does on its shared hashtable.
  uint32_t Buckets = std::max<uint32_t>(32, Params.NumSegments / 64);
  SegTable = std::make_unique<TmHashMap>(Buckets);
  PrefixTable = std::make_unique<TmHashMap>(Buckets);
  SuccTable = std::make_unique<TmHashMap>(Buckets);
  PredTable = std::make_unique<TmHashMap>(Buckets);
  PhaseBarrier = std::make_unique<Barrier>(NumThreads);
  UniqueCount.storeDirect(0);
  LinkCount.storeDirect(0);

  OwnedSegments.assign(NumThreads, {});
}

void GenomeWorkload::threadBody(Tl2Stm &Stm, ThreadId Thread) {
  Tl2Txn Txn(Stm, Thread);
  uint32_t Chunk = (Params.NumSegments + Threads - 1) / Threads;
  uint32_t Begin = Thread * Chunk;
  uint32_t End = std::min(Params.NumSegments, Begin + Chunk);

  // Phase 1: deduplicate segments through the shared hash set. The
  // thread whose insert wins owns the segment for phase 2.
  std::vector<uint64_t> &Owned = OwnedSegments[Thread];
  for (uint32_t I = Begin; I < End; ++I) {
    uint64_t Seg = Segments[I];
    bool Inserted = false;
    uint32_t Spare = TmList::Pool::Null;
    Txn.run(/*Tx=*/0, [&](Tl2Txn &Tx) {
      Inserted = SegTable->insert(Tx, *NodePool, Seg, 1, &Spare);
      if (Inserted)
        Tx.store(UniqueCount, Tx.load(UniqueCount) + 1);
    });
    if (Inserted)
      Owned.push_back(Seg);
  }
  PhaseBarrier->arriveAndWait();

  // Phase 2a: publish each unique segment under its front half so
  // overlap candidates can find it.
  uint32_t Half = Params.SegmentBases / 2;
  uint64_t HalfMask = (uint64_t{1} << (2 * Half)) - 1;
  uint64_t Guard = uint64_t{1} << (2 * Half);
  auto FrontHalf = [&](uint64_t Seg) {
    return ((Seg >> (2 * Half)) & HalfMask) | Guard;
  };
  auto BackHalf = [&](uint64_t Seg) { return (Seg & HalfMask) | Guard; };

  for (uint64_t Seg : Owned) {
    uint32_t Spare = TmList::Pool::Null;
    Txn.run(/*Tx=*/1, [&](Tl2Txn &Tx) {
      // First publisher of a shared front half wins, as in STAMP's
      // unique-prefix matching.
      PrefixTable->insert(Tx, *NodePool, FrontHalf(Seg), Seg, &Spare);
    });
  }
  PhaseBarrier->arriveAndWait();

  // Phase 2b: claim predecessor/successor links atomically.
  for (uint64_t Seg : Owned) {
    uint32_t SuccSpare = TmList::Pool::Null;
    uint32_t PredSpare = TmList::Pool::Null;
    Txn.run(/*Tx=*/2, [&](Tl2Txn &Tx) {
      auto Succ = PrefixTable->find(Tx, *NodePool, BackHalf(Seg));
      if (!Succ || *Succ == Seg)
        return;
      // Both ends must be unclaimed; the transaction makes the
      // two-table claim atomic.
      if (SuccTable->find(Tx, *NodePool, Seg))
        return;
      if (PredTable->find(Tx, *NodePool, *Succ))
        return;
      SuccTable->insert(Tx, *NodePool, Seg, *Succ, &SuccSpare);
      PredTable->insert(Tx, *NodePool, *Succ, Seg, &PredSpare);
      Tx.store(LinkCount, Tx.load(LinkCount) + 1);
    });
  }
}

bool GenomeWorkload::verify(Tl2Stm &Stm) {
  (void)Stm;
  // Dedup must produce exactly the reference distinct-segment count.
  size_t Unique = 0;
  SegTable->forEachDirect(*NodePool,
                          [&Unique](uint64_t, uint64_t) { ++Unique; });
  if (Unique != ReferenceUnique)
    return false;
  if (UniqueCount.loadDirect() != ReferenceUnique)
    return false; // transactional counter must agree with the table

  // Links must be mutually consistent and unique on both sides: the
  // succ relation is injective and PredTable is exactly its inverse.
  bool Ok = true;
  std::unordered_map<uint64_t, uint64_t> SuccOf;
  std::unordered_set<uint64_t> SeenSucc;
  SuccTable->forEachDirect(*NodePool, [&](uint64_t Seg, uint64_t Succ) {
    SuccOf[Seg] = Succ;
    if (!SeenSucc.insert(Succ).second)
      Ok = false;
  });
  size_t PredCount = 0;
  PredTable->forEachDirect(*NodePool, [&](uint64_t Succ, uint64_t Seg) {
    ++PredCount;
    auto It = SuccOf.find(Seg);
    if (It == SuccOf.end() || It->second != Succ)
      Ok = false;
  });
  return Ok && PredCount == SuccOf.size() &&
         LinkCount.loadDirect() == SuccOf.size();
}

