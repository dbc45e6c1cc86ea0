//===- stamp/Intruder.cpp --------------------------------------------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//

#include "stamp/Intruder.h"

#include "support/SplitMix64.h"

#include <algorithm>
#include <cassert>

using namespace gstm;

/// The signature the detection phase scans for.
static constexpr const char *AttackSignature = "ATTACK";

IntruderParams IntruderParams::forSize(SizeClass S) {
  IntruderParams P;
  switch (S) {
  case SizeClass::Small:
    P.NumFlows = 128;
    P.MaxFragsPerFlow = 6;
    break;
  case SizeClass::Medium:
    P.NumFlows = 1024;
    P.MaxFragsPerFlow = 8;
    break;
  case SizeClass::Large:
    P.NumFlows = 8192;
    P.MaxFragsPerFlow = 8;
    break;
  }
  return P;
}

void IntruderWorkload::setup(Tl2Stm &Stm, unsigned NumThreads,
                             uint64_t Seed) {
  (void)Stm;
  Threads = NumThreads;
  SplitMix64 Rng(Seed * 0xd1b54a32d192ed03ULL + 3);

  static constexpr char Alphabet[] = "abcdefghijklmnopqrstuvwxyz";
  Payloads.assign(Params.NumFlows, {});
  PlantedAttack.assign(Params.NumFlows, false);
  PlantedCount = 0;

  std::vector<uint64_t> Packets;
  for (uint32_t Flow = 0; Flow < Params.NumFlows; ++Flow) {
    std::string &Payload = Payloads[Flow];
    Payload.resize(Params.PayloadBases);
    for (char &C : Payload)
      C = Alphabet[Rng.nextBounded(26)];
    if (Rng.nextBounded(100) < Params.AttackPercent) {
      // Plant the signature at a random offset.
      size_t Span = std::char_traits<char>::length(AttackSignature);
      assert(Payload.size() >= Span && "payload shorter than signature");
      size_t At = Rng.nextBounded(Payload.size() - Span + 1);
      Payload.replace(At, Span, AttackSignature);
      PlantedAttack[Flow] = true;
      ++PlantedCount;
    }
    uint32_t NumFrags =
        1 + static_cast<uint32_t>(Rng.nextBounded(Params.MaxFragsPerFlow));
    for (uint32_t Frag = 0; Frag < NumFrags; ++Frag)
      Packets.push_back(packPacket(Flow, Frag, NumFrags));
  }
  // Interleave the flows' fragments: Fisher-Yates shuffle.
  for (size_t I = Packets.size(); I > 1; --I)
    std::swap(Packets[I - 1], Packets[Rng.nextBounded(I)]);

  PacketQueue = std::make_unique<TmQueue>(Packets.size() + 1);
  for (uint64_t P : Packets)
    PacketQueue->pushDirect(P);
  CompletedQueue = std::make_unique<TmQueue>(Params.NumFlows + 1);
  // One reassembly node per flow plus headroom for nodes leaked by
  // decoder transactions (the hot conflict site): each keeps one spare
  // node across its attempts, so it strands at most that one.
  NodePool = std::make_unique<TmList::Pool>(Params.NumFlows * 6 + 64);
  Reassembly = std::make_unique<TmHashMap>(
      std::max<uint32_t>(32, Params.NumFlows / 4));
  DetectedAttacks.store(0, std::memory_order_relaxed);
}

void IntruderWorkload::threadBody(Tl2Stm &Stm, ThreadId Thread) {
  Tl2Txn Txn(Stm, Thread);
  uint64_t LocalDetected = 0;

  for (;;) {
    // Capture phase: pop one fragment.
    std::optional<uint64_t> Packet;
    Txn.run(/*Tx=*/0,
            [&](Tl2Txn &Tx) { Packet = PacketQueue->pop(Tx); });
    if (!Packet)
      break;

    uint32_t Flow = static_cast<uint32_t>(*Packet >> 32);
    uint32_t NumFrags = static_cast<uint32_t>(*Packet & 0xffff);

    // Decoder phase: account the fragment; completing the flow removes
    // its reassembly entry and publishes it for detection.
    bool Completed = false;
    uint32_t Spare = TmList::Pool::Null;
    Txn.run(/*Tx=*/1, [&](Tl2Txn &Tx) {
      Completed = false;
      auto Received = Reassembly->find(Tx, *NodePool, Flow);
      uint64_t Count = Received ? *Received + 1 : 1;
      if (Count == NumFrags) {
        if (Received)
          Reassembly->remove(Tx, *NodePool, Flow);
        CompletedQueue->push(Tx, Flow);
        Completed = true;
        return;
      }
      Reassembly->insertOrAssign(Tx, *NodePool, Flow, Count, &Spare);
    });

    // Detection phase: pure computation on the immutable payload.
    if (Completed &&
        Payloads[Flow].find(AttackSignature) != std::string::npos)
      ++LocalDetected;
  }
  DetectedAttacks.fetch_add(LocalDetected, std::memory_order_relaxed);
}

bool IntruderWorkload::verify(Tl2Stm &Stm) {
  (void)Stm;
  // Every flow must complete exactly once and every planted attack must
  // be found (random payloads can also contain the signature by chance;
  // with a 6-letter signature that probability is negligible but we
  // still allow >=).
  if (CompletedQueue->sizeDirect() != Params.NumFlows)
    return false;
  size_t Leftover = 0;
  Reassembly->forEachDirect(*NodePool,
                            [&Leftover](uint64_t, uint64_t) { ++Leftover; });
  if (Leftover != 0)
    return false;
  return DetectedAttacks.load(std::memory_order_relaxed) >= PlantedCount;
}

