//===- tools/bench_regress.cpp - Perf trajectory regression gate ----------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//
//
// Compares the two newest BENCH_<n>.json snapshots in --dir (the perf
// trajectory written by tools/bench_runner): for every entry present in
// both, the newer median must not exceed the older by more than the noise
// tolerance. The per-entry tolerance is the base --tolerance widened by
// each snapshot's own observed spread ((p99 - median) / median), so noisy
// metrics do not produce false alarms and quiet metrics stay tight.
//
// Tail fields are nullable: low-sample suites publish p99/p999 as null
// (a nearest-rank p99 over a handful of repeats is just the max). When
// p99 is absent on either side the median gate falls back to the fixed
// base tolerance; when it is present on both sides (histogram-backed
// suites: oltp, synquake), the p99 itself is gated exactly like the
// median, so tail-latency regressions fail CI too.
//
// Exit status: 0 = no regression (trivially so with fewer than two
// snapshots — the first snapshot of a trajectory has no predecessor),
// 1 = at least one regression, 2 = usage/parse errors.
//
//===----------------------------------------------------------------------===//

#include "support/Json.h"
#include "support/Options.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

using namespace gstm;
namespace fs = std::filesystem;

namespace {

struct Entry {
  std::string Key; // suite/name/threads
  std::string Unit;
  double Median = 0;
  /// Histogram-backed tails; absent (null in the snapshot) below the
  /// sample floor.
  std::optional<double> P99, P999;
};

struct Snapshot {
  unsigned Number = 0;
  fs::path File;
  std::vector<Entry> Entries;
};

bool loadSnapshot(Snapshot &S) {
  std::ifstream In(S.File);
  std::stringstream Buf;
  Buf << In.rdbuf();
  std::optional<JsonValue> Doc = parseJson(Buf.str());
  if (!Doc || !Doc->isObject())
    return false;
  const JsonValue *Schema = Doc->find("schema");
  if (!Schema || Schema->Str != "gstm.bench.v1")
    return false;
  const JsonValue *Rows = Doc->find("entries");
  if (!Rows || !Rows->isArray())
    return false;
  for (const JsonValue &Row : Rows->Items) {
    const JsonValue *Suite = Row.find("suite");
    const JsonValue *Name = Row.find("name");
    const JsonValue *Threads = Row.find("threads");
    const JsonValue *Unit = Row.find("unit");
    const JsonValue *Median = Row.find("median");
    if (!Suite || !Name || !Threads || !Median)
      continue;
    Entry E;
    E.Key = Suite->Str + "/" + Name->Str + "/t" +
            std::to_string(Threads->asU64());
    E.Unit = Unit ? Unit->Str : "";
    E.Median = Median->asDouble();
    // p99/p999 may be missing entirely (old snapshots) or null (below
    // the sample floor); both read back as "absent".
    const JsonValue *P99 = Row.find("p99");
    if (P99 && P99->K == JsonValue::Kind::Number)
      E.P99 = P99->asDouble();
    const JsonValue *P999 = Row.find("p999");
    if (P999 && P999->K == JsonValue::Kind::Number)
      E.P999 = P999->asDouble();
    S.Entries.push_back(std::move(E));
  }
  return true;
}

/// Relative spread of one measurement: how far its own tail sits above
/// its median. Used to widen the tolerance for inherently noisy metrics;
/// 0 (no widening — fixed tolerance) when the tail is absent.
double spreadOf(const Entry &E) {
  if (!E.P99 || E.Median <= 0)
    return 0;
  return std::max(0.0, (*E.P99 - E.Median) / E.Median);
}

} // namespace

int main(int Argc, char **Argv) {
  OptionSet Cli("bench_regress",
                "gates the newest perf snapshot against its predecessor",
                {
                    {"dir", "DIR",
                     "directory holding BENCH_<n>.json (default .)"},
                    {"tolerance", "F",
                     "base relative tolerance (default 0.30 — single-core "
                     "CI medians are noisy)"},
                });
  Options Opts = Cli.parseOrExit(Argc, Argv);
  const fs::path Dir = Opts.getString("dir", ".");
  const double BaseTol = Opts.getDouble("tolerance", 0.30, 0, HUGE_VAL);

  std::vector<Snapshot> Snaps;
  std::error_code Ec;
  for (const auto &DirEntry : fs::directory_iterator(Dir, Ec)) {
    unsigned N = 0;
    int Consumed = 0;
    const std::string File = DirEntry.path().filename().string();
    // %n anchors the match: "BENCH_2.json.bak" parses but leaves a tail,
    // so only exact BENCH_<n>.json names count as snapshots.
    if (std::sscanf(File.c_str(), "BENCH_%u.json%n", &N, &Consumed) == 1 &&
        N > 0 && static_cast<size_t>(Consumed) == File.size())
      Snaps.push_back(Snapshot{N, DirEntry.path(), {}});
  }
  if (Snaps.size() < 2) {
    std::printf("bench_regress: %zu snapshot(s) in %s — nothing to "
                "compare, trivially passing\n",
                Snaps.size(), Dir.string().c_str());
    return 0;
  }
  std::sort(Snaps.begin(), Snaps.end(),
            [](const Snapshot &A, const Snapshot &B) {
              return A.Number < B.Number;
            });
  Snapshot &Old = Snaps[Snaps.size() - 2];
  Snapshot &New = Snaps[Snaps.size() - 1];
  if (!loadSnapshot(Old) || !loadSnapshot(New)) {
    std::fprintf(stderr, "bench_regress: cannot parse %s or %s\n",
                 Old.File.string().c_str(), New.File.string().c_str());
    return 2;
  }

  unsigned Regressions = 0, Compared = 0;
  for (const Entry &N : New.Entries) {
    auto It = std::find_if(
        Old.Entries.begin(), Old.Entries.end(),
        [&](const Entry &O) { return O.Key == N.Key; });
    if (It == Old.Entries.end() || It->Median <= 0)
      continue; // new metric (or degenerate baseline): nothing to gate
    ++Compared;
    const double Tol = std::max({BaseTol, spreadOf(*It), spreadOf(N)});
    auto Gate = [&](const char *Metric, double OldV, double NewV) {
      const double Rel = NewV / OldV - 1.0;
      const char *Verdict = Rel > Tol            ? "REGRESSION"
                            : Rel < -BaseTol / 2 ? "improved"
                                                 : "ok";
      if (Rel > Tol)
        ++Regressions;
      std::printf(
          "%-11s %-44s %-6s %12.4g -> %12.4g %s (%+.1f%%, tol %.0f%%)\n",
          Verdict, N.Key.c_str(), Metric, OldV, NewV, N.Unit.c_str(),
          Rel * 100, Tol * 100);
    };
    Gate("median", It->Median, N.Median);
    // Histogram-backed tails gate too — but only when both sides have
    // one, so introducing tails (or dropping below the sample floor)
    // never trips the gate by itself.
    if (It->P99 && N.P99 && *It->P99 > 0)
      Gate("p99", *It->P99, *N.P99);
  }
  std::printf("bench_regress: %s (#%u) vs %s (#%u): %u compared, "
              "%u regression(s)\n",
              New.File.filename().string().c_str(), New.Number,
              Old.File.filename().string().c_str(), Old.Number, Compared,
              Regressions);
  return Regressions ? 1 : 0;
}
