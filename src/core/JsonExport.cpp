//===- core/JsonExport.cpp -------------------------------------------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//

#include "core/JsonExport.h"

#include <cstdio>

using namespace gstm;

namespace {

/// The flat counters shared by the aggregate and per-thread objects.
void writeSnapshotFields(JsonWriter &W, const StatsSnapshot &S) {
  W.key("commits").value(S.Commits);
  W.key("read_only_commits").value(S.ReadOnlyCommits);
  W.key("aborts").value(S.Aborts);

  W.key("abort_causes").beginObject();
  for (size_t C = 0; C < NumAbortCauses; ++C)
    W.key(abortCauseName(static_cast<AbortCauseKind>(C)))
        .value(S.AbortsByCause[C]);
  W.endObject();

  W.key("abort_sites").beginObject();
  for (size_t I = 0; I < NumAbortSites; ++I)
    W.key(abortSiteName(static_cast<AbortSite>(I))).value(S.AbortsBySite[I]);
  W.endObject();

  W.key("retry_histogram").beginArray();
  for (size_t B = 0; B < RetryHistogramBuckets; ++B)
    W.value(S.RetryHistogram[B]);
  W.endArray();

  W.key("attempts").value(S.Attempts);
  W.key("attempt_nanos").value(S.AttemptNanos);
  W.key("commit_ring_lookups").value(S.CommitRingLookups);
  W.key("commit_ring_misses").value(S.CommitRingMisses);
  W.key("cross_shard_commits").value(S.CrossShardCommits);
  W.key("cross_shard_aborts").value(S.CrossShardAborts);
  W.key("prepare_retries").value(S.PrepareRetries);
}

void writeGuideStats(JsonWriter &W, const GuideStats &G) {
  W.beginObject();
  W.key("gate_checks").value(G.GateChecks);
  W.key("holds").value(G.Holds);
  W.key("gate_retries").value(G.GateRetries);
  W.key("forced_releases").value(G.ForcedReleases);
  W.key("all_held_releases").value(G.AllHeldReleases);
  W.key("unknown_states").value(G.UnknownStates);
  W.key("known_states").value(G.KnownStates);
  W.endObject();
}

void writeSideAggregate(JsonWriter &W, const SideAggregate &Side) {
  W.beginObject();
  W.key("mean_wall_seconds").value(Side.MeanWallSeconds);
  W.key("distinct_states").value(static_cast<uint64_t>(Side.DistinctStates));
  W.key("all_verified").value(Side.AllVerified);

  W.key("thread_time_stddev").beginArray();
  for (const RunningStat &S : Side.ThreadTimes)
    W.value(S.stddev());
  W.endArray();

  W.key("thread_tail_metric").beginArray();
  for (const AbortHistogram &H : Side.ThreadHists)
    W.value(H.tailMetric());
  W.endArray();

  W.key("guide");
  writeGuideStats(W, Side.Guide);

  W.key("telemetry");
  writeTelemetryJson(W, Side.Telemetry, {});
  W.endObject();
}

} // namespace

void gstm::writeTelemetryJson(JsonWriter &W, const StatsSnapshot &Agg,
                              const std::vector<StatsSnapshot> &PerThread) {
  W.beginObject();
  writeSnapshotFields(W, Agg);
  if (!PerThread.empty()) {
    W.key("per_thread").beginArray();
    for (size_t T = 0; T < PerThread.size(); ++T) {
      // Threads that never ran a transaction still get an entry so the
      // array index equals the ThreadId.
      W.beginObject();
      W.key("thread").value(static_cast<uint64_t>(T));
      writeSnapshotFields(W, PerThread[T]);
      W.endObject();
    }
    W.endArray();
  }
  W.endObject();
}

std::string gstm::runResultJson(const RunResult &R) {
  JsonWriter W;
  W.beginObject();
  W.key("wall_seconds").value(R.WallSeconds);
  W.key("verified").value(R.Verified);

  W.key("thread_seconds").beginArray();
  for (double S : R.ThreadSeconds)
    W.value(S);
  W.endArray();

  W.key("guide");
  writeGuideStats(W, R.Guide);

  W.key("telemetry");
  writeTelemetryJson(W, R.Telemetry, R.ThreadTelemetry);
  W.endObject();
  return W.take();
}

std::string gstm::experimentJson(const ExperimentResult &R) {
  JsonWriter W;
  W.beginObject();

  W.key("analyzer").beginObject();
  W.key("guidance_metric_percent").value(R.Report.GuidanceMetricPercent);
  W.key("num_states").value(static_cast<uint64_t>(R.Report.NumStates));
  W.key("num_transitions").value(R.Report.NumTransitions);
  W.key("mean_out_degree").value(R.Report.MeanOutDegree);
  W.key("mean_guided_out_degree").value(R.Report.MeanGuidedOutDegree);
  W.key("optimizable").value(R.Report.Optimizable);
  W.endObject();

  W.key("guided_ran").value(R.GuidedRan);
  W.key("default");
  writeSideAggregate(W, R.Default);
  W.key("guided");
  writeSideAggregate(W, R.Guided);

  // Derived metrics; NaN entries render as null per JsonWriter.
  W.key("variance_improvement_percent").beginArray();
  for (double V : R.varianceImprovementPercent())
    W.value(V);
  W.endArray();
  W.key("tail_improvement_percent").beginArray();
  for (double V : R.tailImprovementPercent())
    W.value(V);
  W.endArray();
  W.key("mean_tail_improvement_percent")
      .value(R.meanTailImprovementPercent());
  W.key("nondeterminism_reduction_percent")
      .value(R.nondeterminismReductionPercent());
  W.key("slowdown_factor").value(R.slowdownFactor());
  W.key("default_abort_ratio").value(R.defaultAbortRatio());
  W.key("guided_abort_ratio").value(R.guidedAbortRatio());

  W.endObject();
  return W.take();
}

bool gstm::writeTextFile(const std::string &Path, const std::string &Text) {
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  if (!F)
    return false;
  size_t Written = std::fwrite(Text.data(), 1, Text.size(), F);
  bool Ok = Written == Text.size();
  return std::fclose(F) == 0 && Ok;
}

std::optional<std::string> gstm::readTextFile(const std::string &Path) {
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F)
    return std::nullopt;
  std::string Out;
  char Buf[4096];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    Out.append(Buf, N);
  bool Ok = std::ferror(F) == 0;
  std::fclose(F);
  if (!Ok)
    return std::nullopt;
  return Out;
}

std::optional<StatsSnapshot> gstm::snapshotFromJson(const JsonValue &V) {
  if (!V.isObject())
    return std::nullopt;
  const JsonValue *Commits = V.find("commits");
  const JsonValue *Aborts = V.find("aborts");
  const JsonValue *Causes = V.find("abort_causes");
  const JsonValue *Sites = V.find("abort_sites");
  const JsonValue *Hist = V.find("retry_histogram");
  if (!Commits || !Aborts || !Causes || !Sites || !Hist ||
      !Causes->isObject() || !Sites->isObject() || !Hist->isArray())
    return std::nullopt;

  StatsSnapshot S;
  S.Commits = Commits->asU64();
  S.Aborts = Aborts->asU64();
  if (const JsonValue *Ro = V.find("read_only_commits"))
    S.ReadOnlyCommits = Ro->asU64();
  for (size_t C = 0; C < NumAbortCauses; ++C)
    if (const JsonValue *N =
            Causes->find(abortCauseName(static_cast<AbortCauseKind>(C))))
      S.AbortsByCause[C] = N->asU64();
  for (size_t I = 0; I < NumAbortSites; ++I)
    if (const JsonValue *N =
            Sites->find(abortSiteName(static_cast<AbortSite>(I))))
      S.AbortsBySite[I] = N->asU64();
  for (size_t B = 0; B < Hist->Items.size() && B < RetryHistogramBuckets;
       ++B)
    S.RetryHistogram[B] = Hist->Items[B].asU64();
  if (const JsonValue *A = V.find("attempts"))
    S.Attempts = A->asU64();
  if (const JsonValue *N = V.find("attempt_nanos"))
    S.AttemptNanos = N->asU64();
  if (const JsonValue *N = V.find("commit_ring_lookups"))
    S.CommitRingLookups = N->asU64();
  if (const JsonValue *N = V.find("commit_ring_misses"))
    S.CommitRingMisses = N->asU64();
  if (const JsonValue *N = V.find("cross_shard_commits"))
    S.CrossShardCommits = N->asU64();
  if (const JsonValue *N = V.find("cross_shard_aborts"))
    S.CrossShardAborts = N->asU64();
  if (const JsonValue *N = V.find("prepare_retries"))
    S.PrepareRetries = N->asU64();
  return S;
}
