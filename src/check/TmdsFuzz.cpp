//===- check/TmdsFuzz.cpp --------------------------------------------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//

#include "check/TmdsFuzz.h"

#include "support/SplitMix64.h"

#include <map>

using namespace gstm;

const char *gstm::tmdsStructureName(TmdsStructure S) {
  switch (S) {
  case TmdsStructure::SkipList:
    return "skiplist";
  case TmdsStructure::BTree:
    return "btree";
  }
  return "?";
}

bool gstm::tmdsStructureFromName(const std::string &Name,
                                 TmdsStructure &Out) {
  for (TmdsStructure S : {TmdsStructure::SkipList, TmdsStructure::BTree})
    if (Name == tmdsStructureName(S)) {
      Out = S;
      return true;
    }
  return false;
}

std::vector<std::pair<uint64_t, uint64_t>> TmdsPlan::expectedFinal() const {
  std::map<uint64_t, uint64_t> M(Prepopulate.begin(), Prepopulate.end());
  for (const auto &Txns : PerThread)
    for (const TmdsTxn &T : Txns)
      for (const TmdsOp &Op : T.Ops)
        switch (Op.K) {
        case TmdsOp::Kind::Insert:
          M.emplace(Op.Key, Op.Value); // no overwrite: insert() rejects dups
          break;
        case TmdsOp::Kind::Update:
          if (auto It = M.find(Op.Key); It != M.end())
            It->second = Op.Value;
          break;
        case TmdsOp::Kind::Remove:
          M.erase(Op.Key);
          break;
        case TmdsOp::Kind::Find:
        case TmdsOp::Kind::Scan:
        case TmdsOp::Kind::Size:
          break;
        }
  return {M.begin(), M.end()};
}

TmdsPlan gstm::makeTmdsPlan(uint64_t Seed, const TmdsFuzzConfig &Cfg) {
  // Different multiplier stream than makeFuzzPlan so the two fuzzers
  // explore uncorrelated workloads for the same seed range.
  SplitMix64 Rng(Seed * 0x9e3779b97f4a7c15ULL + 0xd1b54a32d192ed03ULL);
  TmdsPlan Plan;

  for (uint64_t K = 1; K <= Cfg.Keys; ++K)
    if ((Rng.next() & 1) != 0)
      Plan.Prepopulate.emplace_back(K, Rng.next());

  // Mutation-key partition: thread T owns the keys congruent to T, which
  // is what makes the std::map oracle schedule-independent.
  std::vector<std::vector<uint64_t>> Owned(Cfg.Threads);
  for (uint64_t K = 1; K <= Cfg.Keys; ++K)
    Owned[K % Cfg.Threads].push_back(K);

  Plan.PerThread.resize(Cfg.Threads);
  for (unsigned T = 0; T < Cfg.Threads; ++T) {
    Plan.PerThread[T].resize(Cfg.TxnsPerThread);
    const bool HasOwned = !Owned[T].empty();
    for (unsigned X = 0; X < Cfg.TxnsPerThread; ++X) {
      TmdsTxn &Txn = Plan.PerThread[T][X];
      unsigned NumOps = 1 + static_cast<unsigned>(Rng.nextBounded(
                                Cfg.OpsPerTxn ? Cfg.OpsPerTxn : 1));
      Txn.Ops.resize(NumOps);
      for (TmdsOp &Op : Txn.Ops) {
        uint64_t Roll = Rng.nextBounded(8);
        auto OwnedKey = [&] {
          return Owned[T][Rng.nextBounded(Owned[T].size())];
        };
        auto AnyKey = [&] {
          // Deliberately probes just past the keyspace too.
          return 1 + Rng.nextBounded(Cfg.Keys + 2);
        };
        if (Roll <= 1 && HasOwned) {
          Op.K = TmdsOp::Kind::Insert;
          Op.Key = OwnedKey();
          Op.Value = Rng.next();
        } else if (Roll == 2 && HasOwned) {
          Op.K = TmdsOp::Kind::Update;
          Op.Key = OwnedKey();
          Op.Value = Rng.next();
        } else if (Roll == 3 && HasOwned) {
          Op.K = TmdsOp::Kind::Remove;
          Op.Key = OwnedKey();
        } else if (Roll == 6) {
          Op.K = TmdsOp::Kind::Scan;
          Op.Key = AnyKey();
          Op.Count = 1 + static_cast<uint32_t>(Rng.nextBounded(6));
        } else if (Roll == 7) {
          Op.K = TmdsOp::Kind::Size;
        } else {
          Op.K = TmdsOp::Kind::Find;
          Op.Key = AnyKey();
        }
      }
    }
  }
  return Plan;
}
