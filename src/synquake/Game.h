//===- synquake/Game.h - SynQuake game-server simulation -----------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A reproduction of SynQuake (Lupei et al., PPoPP'10), the 2D Quake 3
/// derivative the paper optimizes on LibTM: a 1024x1024 map partitioned
/// into grid cells, with players attracted to *quests* (high-interest map
/// areas that concentrate the player movement and therefore the
/// transactional contention). Server threads process disjoint player
/// ranges each frame; every player action — movement across cells,
/// resource pickup, combat against the last player seen in the cell — is
/// a transaction over the player and cell objects. Frames are separated
/// by barriers and individually timed; the paper's metric is the variance
/// of this frame processing time.
///
/// The four quest configurations match the paper's Sec. VIII setup:
/// 4worst_case and 4moving for training, 4quadrants and 4center_spread6
/// for testing.
///
//===----------------------------------------------------------------------===//

#ifndef GSTM_SYNQUAKE_GAME_H
#define GSTM_SYNQUAKE_GAME_H

#include "libtm/LibTm.h"
#include "support/Barrier.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace gstm {

/// Player-attraction pattern of one run.
enum class QuestPattern : uint8_t {
  /// All players converge on a single point (training; maximal bias).
  WorstCase4,
  /// A single attraction point orbits the map center (training).
  Moving4,
  /// Four fixed attraction points, one per map quadrant (testing).
  Quadrants4,
  /// Central quest with a per-player spread of up to six cells (testing).
  CenterSpread6,
};

const char *questPatternName(QuestPattern Q);
/// Looks up a questPatternName; false on any other name.
bool questPatternFromName(const std::string &Name, QuestPattern &Out);

/// Parameters of one SynQuake simulation.
struct SynQuakeParams {
  uint32_t NumPlayers = 256;
  /// Map is MapSize x MapSize world units.
  uint32_t MapSize = 1024;
  /// Cells are (1 << CellShift) units on a side.
  uint32_t CellShift = 6;
  uint32_t Frames = 48;
  QuestPattern Quest = QuestPattern::Quadrants4;
  /// World units a player covers per frame.
  double MoveSpeed = 24.0;
  /// Distance from the quest target within which players interact.
  double InteractRadius = 96.0;
  /// Iterations of the per-player non-TM "physics" loop per frame —
  /// stands in for the game computation (collision, animation) that real
  /// Quake frames spend outside transactions.
  uint32_t PhysicsIterations = 2000;
};

/// Mutable player state, one TObj each.
struct PlayerState {
  float X = 0;
  float Y = 0;
  int32_t Health = 100;
  uint32_t Score = 0;
};

/// Mutable cell state, one TObj each.
struct CellState {
  int64_t Resource = 0;
  int32_t Occupancy = 0;
  uint32_t LastPlayer = 0; // 1-based; 0 = none
};

/// One SynQuake simulation instance (per run).
class SynQuakeGame {
public:
  explicit SynQuakeGame(const SynQuakeParams &Params) : Params(Params) {}

  /// Two transaction sites: movement and interaction.
  static constexpr unsigned NumTxSites = 2;

  /// Builds the world (single-threaded).
  void setup(LibTm &Tm, unsigned NumThreads, uint64_t Seed);

  /// Runs all frames with \p NumThreads server threads; returns the
  /// processing time of each frame in seconds.
  std::vector<double> run(LibTm &Tm, unsigned NumThreads);

  /// Post-run invariants: occupancy conservation, score/resource
  /// conservation, players in bounds.
  bool verify() const;

  uint32_t cellsPerSide() const { return Params.MapSize >> Params.CellShift; }
  uint64_t totalScoreDirect() const;

private:
  uint32_t cellIndexFor(double X, double Y) const;
  /// Attraction point for \p Player at \p Frame under the active quest.
  void questTarget(uint32_t Player, uint32_t Frame, double &TX,
                   double &TY) const;
  void playerFrame(LibTxn &Txn, uint32_t Player, uint32_t Frame);

  SynQuakeParams Params;
  unsigned Threads = 0;
  uint64_t RunSeed = 0;

  std::unique_ptr<TObj<PlayerState>[]> Players;
  std::unique_ptr<TObj<CellState>[]> Cells;
  int64_t InitialResource = 0;
  std::unique_ptr<Barrier> FrameBarrier;
  std::vector<double> FrameSeconds;
  /// Defeats optimization of the physics loop; never read meaningfully.
  std::atomic<uint64_t> PhysicsSink{0};
};

} // namespace gstm

#endif // GSTM_SYNQUAKE_GAME_H
