//===- synquake/Game.cpp ---------------------------------------------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//

#include "synquake/Game.h"

#include "support/SplitMix64.h"
#include "support/Timer.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <thread>

using namespace gstm;

const char *gstm::questPatternName(QuestPattern Q) {
  switch (Q) {
  case QuestPattern::WorstCase4:
    return "4worst_case";
  case QuestPattern::Moving4:
    return "4moving";
  case QuestPattern::Quadrants4:
    return "4quadrants";
  case QuestPattern::CenterSpread6:
    return "4center_spread6";
  }
  return "?";
}

bool gstm::questPatternFromName(const std::string &Name, QuestPattern &Out) {
  for (QuestPattern Q : {QuestPattern::WorstCase4, QuestPattern::Moving4,
                         QuestPattern::Quadrants4, QuestPattern::CenterSpread6})
    if (Name == questPatternName(Q)) {
      Out = Q;
      return true;
    }
  return false;
}

uint32_t SynQuakeGame::cellIndexFor(double X, double Y) const {
  uint32_t Side = cellsPerSide();
  auto Clamp = [&](double V) {
    if (V < 0)
      return uint32_t{0};
    uint32_t C = static_cast<uint32_t>(V) >> Params.CellShift;
    return std::min(C, Side - 1);
  };
  return Clamp(Y) * Side + Clamp(X);
}

void SynQuakeGame::setup(LibTm &Tm, unsigned NumThreads, uint64_t Seed) {
  (void)Tm;
  Threads = NumThreads;
  RunSeed = Seed;
  SplitMix64 Rng(Seed * 0x9e3779b97f4a7c15ULL + 31);

  uint32_t Side = cellsPerSide();
  uint32_t NumCells = Side * Side;
  Cells = std::make_unique<TObj<CellState>[]>(NumCells);
  InitialResource = 0;
  for (uint32_t C = 0; C < NumCells; ++C) {
    CellState CS;
    CS.Resource = 1 << 16; // effectively inexhaustible within a run
    Cells[C].storeDirect(CS);
    InitialResource += CS.Resource;
  }

  Players = std::make_unique<TObj<PlayerState>[]>(Params.NumPlayers);
  for (uint32_t P = 0; P < Params.NumPlayers; ++P) {
    PlayerState PS;
    PS.X = static_cast<float>(Rng.nextDouble() * Params.MapSize);
    PS.Y = static_cast<float>(Rng.nextDouble() * Params.MapSize);
    PS.Health = 100;
    PS.Score = 0;
    Players[P].storeDirect(PS);
    uint32_t Cell = cellIndexFor(PS.X, PS.Y);
    CellState CS = Cells[Cell].loadDirect();
    ++CS.Occupancy;
    Cells[Cell].storeDirect(CS);
  }

  FrameBarrier = std::make_unique<Barrier>(NumThreads);
  FrameSeconds.assign(Params.Frames, 0.0);
}

void SynQuakeGame::questTarget(uint32_t Player, uint32_t Frame, double &TX,
                               double &TY) const {
  double Center = Params.MapSize / 2.0;
  switch (Params.Quest) {
  case QuestPattern::WorstCase4:
    TX = Center;
    TY = Center;
    return;
  case QuestPattern::Moving4: {
    double Angle = 0.15 * Frame;
    TX = Center + 0.3 * Params.MapSize * std::cos(Angle);
    TY = Center + 0.3 * Params.MapSize * std::sin(Angle);
    return;
  }
  case QuestPattern::Quadrants4: {
    double Quarter = Params.MapSize / 4.0;
    TX = (Player & 1) ? 3 * Quarter : Quarter;
    TY = (Player & 2) ? 3 * Quarter : Quarter;
    return;
  }
  case QuestPattern::CenterSpread6: {
    // Deterministic per-player offset of up to six cells around the
    // central quest.
    SplitMix64 Hash(Player * 0xd1b54a32d192ed03ULL + 97);
    double Radius =
        Hash.nextDouble() * 6.0 * (uint64_t{1} << Params.CellShift);
    double Angle = Hash.nextDouble() * 6.28318530717958;
    TX = Center + Radius * std::cos(Angle);
    TY = Center + Radius * std::sin(Angle);
    return;
  }
  }
}

void SynQuakeGame::playerFrame(LibTxn &Txn, uint32_t Player,
                               uint32_t Frame) {
  double TX, TY;
  questTarget(Player, Frame, TX, TY);

  // Movement transaction: step toward the quest with crowd avoidance
  // (reading the neighboring cells widens the read set the way
  // SynQuake's area-of-interest queries do), migrating between cells.
  Txn.run(/*Tx=*/0, [&](LibTxn &Tx) {
    PlayerState PS = Tx.read(Players[Player]);
    double DX = TX - PS.X;
    double DY = TY - PS.Y;
    double Dist = std::sqrt(DX * DX + DY * DY);
    uint32_t OldCell = cellIndexFor(PS.X, PS.Y);
    if (Dist > 1e-9) {
      double Step = std::min(Params.MoveSpeed, Dist);
      double NX = PS.X + DX / Dist * Step;
      double NY = PS.Y + DY / Dist * Step;
      // Area-of-interest scan: peek at the destination's four neighbor
      // cells and lean away from the most crowded one.
      uint32_t Side = cellsPerSide();
      uint32_t Dest = cellIndexFor(NX, NY);
      uint32_t DestX = Dest % Side, DestY = Dest / Side;
      int32_t BestOcc = -1;
      double AwayX = 0, AwayY = 0;
      const int32_t NDX[4] = {1, -1, 0, 0}, NDY[4] = {0, 0, 1, -1};
      for (int Dir = 0; Dir < 4; ++Dir) {
        int32_t CX = static_cast<int32_t>(DestX) + NDX[Dir];
        int32_t CY = static_cast<int32_t>(DestY) + NDY[Dir];
        if (CX < 0 || CY < 0 || CX >= static_cast<int32_t>(Side) ||
            CY >= static_cast<int32_t>(Side))
          continue;
        CellState Nb = Tx.read(Cells[CY * Side + CX]);
        if (Nb.Occupancy > BestOcc) {
          BestOcc = Nb.Occupancy;
          AwayX = -NDX[Dir];
          AwayY = -NDY[Dir];
        }
      }
      if (BestOcc > 0) {
        NX += AwayX * Params.MoveSpeed * 0.1;
        NY += AwayY * Params.MoveSpeed * 0.1;
      }
      PS.X = static_cast<float>(NX);
      PS.Y = static_cast<float>(NY);
    }
    uint32_t NewCell = cellIndexFor(PS.X, PS.Y);
    if (NewCell != OldCell) {
      CellState OldCS = Tx.read(Cells[OldCell]);
      --OldCS.Occupancy;
      Tx.write(Cells[OldCell], OldCS);
    }
    CellState NewCS = Tx.read(Cells[NewCell]);
    if (NewCell != OldCell)
      ++NewCS.Occupancy;
    NewCS.LastPlayer = Player + 1;
    Tx.write(Cells[NewCell], NewCS);
    Tx.write(Players[Player], PS);
  });

  // Interaction transaction: near the quest, pick up a resource and
  // fight whoever was last seen in the cell.
  Txn.run(/*Tx=*/1, [&](LibTxn &Tx) {
    PlayerState PS = Tx.read(Players[Player]);
    double DX = TX - PS.X;
    double DY = TY - PS.Y;
    if (DX * DX + DY * DY >
        Params.InteractRadius * Params.InteractRadius)
      return;

    uint32_t Cell = cellIndexFor(PS.X, PS.Y);
    CellState CS = Tx.read(Cells[Cell]);
    if (CS.Resource > 0) {
      --CS.Resource;
      ++PS.Score;
    }
    uint32_t Victim = CS.LastPlayer;
    Tx.write(Cells[Cell], CS);

    if (Victim != 0 && Victim - 1 != Player &&
        Victim - 1 < Params.NumPlayers) {
      PlayerState VS = Tx.read(Players[Victim - 1]);
      VS.Health -= 5;
      if (VS.Health <= 0) {
        // Respawn at a deterministic pseudo-random location.
        SplitMix64 Hash((uint64_t{Victim} << 32) ^ Frame ^ RunSeed);
        VS.X = static_cast<float>(Hash.nextDouble() * Params.MapSize);
        VS.Y = static_cast<float>(Hash.nextDouble() * Params.MapSize);
        VS.Health = 100;
        // Migrate the victim's cell occupancy.
        uint32_t VOld = cellIndexFor(Tx.read(Players[Victim - 1]).X,
                                     Tx.read(Players[Victim - 1]).Y);
        uint32_t VNew = cellIndexFor(VS.X, VS.Y);
        if (VOld != VNew) {
          CellState OldCS = Tx.read(Cells[VOld]);
          --OldCS.Occupancy;
          Tx.write(Cells[VOld], OldCS);
          CellState NewCS = Tx.read(Cells[VNew]);
          ++NewCS.Occupancy;
          Tx.write(Cells[VNew], NewCS);
        }
      }
      Tx.write(Players[Victim - 1], VS);
    }
    Tx.write(Players[Player], PS);
  });

  // Non-TM game computation (collision, animation, scoring cosmetics):
  // keeps the frame's TM share realistic.
  uint64_t Physics = Player * 0x9e3779b97f4a7c15ULL + Frame;
  for (uint32_t I = 0; I < Params.PhysicsIterations; ++I)
    Physics = Physics * 6364136223846793005ULL + 1442695040888963407ULL;
  PhysicsSink.fetch_add(Physics & 1, std::memory_order_relaxed);
}

std::vector<double> SynQuakeGame::run(LibTm &Tm, unsigned NumThreads) {
  assert(NumThreads == Threads &&
         "run() must use the thread count the frame barrier was built "
         "for in setup()");
  std::vector<std::thread> Workers;
  Workers.reserve(NumThreads);
  for (unsigned T = 0; T < NumThreads; ++T) {
    Workers.emplace_back([&, T] {
      LibTxn Txn(Tm, static_cast<ThreadId>(T));
      uint32_t Chunk = (Params.NumPlayers + NumThreads - 1) / NumThreads;
      uint32_t Begin = T * Chunk;
      uint32_t End = std::min(Params.NumPlayers, Begin + Chunk);

      Timer FrameTimer;
      for (uint32_t Frame = 0; Frame < Params.Frames; ++Frame) {
        FrameBarrier->arriveAndWait();
        if (T == 0)
          FrameTimer.reset();
        for (uint32_t P = Begin; P < End; ++P)
          playerFrame(Txn, P, Frame);
        FrameBarrier->arriveAndWait();
        if (T == 0)
          FrameSeconds[Frame] = FrameTimer.elapsedSeconds();
      }
    });
  }
  for (std::thread &W : Workers)
    W.join();
  return FrameSeconds;
}

uint64_t SynQuakeGame::totalScoreDirect() const {
  uint64_t Total = 0;
  for (uint32_t P = 0; P < Params.NumPlayers; ++P)
    Total += Players[P].loadDirect().Score;
  return Total;
}

bool SynQuakeGame::verify() const {
  uint32_t Side = cellsPerSide();
  // Occupancy conservation: the cells' occupant counters must sum to the
  // player population and match the players' actual positions.
  std::vector<int64_t> Expected(static_cast<size_t>(Side) * Side, 0);
  for (uint32_t P = 0; P < Params.NumPlayers; ++P) {
    PlayerState PS = Players[P].loadDirect();
    if (PS.X < 0 || PS.Y < 0 || PS.X > Params.MapSize ||
        PS.Y > Params.MapSize)
      return false;
    ++Expected[cellIndexFor(PS.X, PS.Y)];
  }
  int64_t Remaining = 0;
  for (uint32_t C = 0; C < Side * Side; ++C) {
    CellState CS = Cells[C].loadDirect();
    if (CS.Occupancy != Expected[C])
      return false;
    Remaining += CS.Resource;
  }
  // Score/resource conservation: every consumed resource unit scored
  // exactly one point somewhere.
  return static_cast<int64_t>(totalScoreDirect()) ==
         InitialResource - Remaining;
}
