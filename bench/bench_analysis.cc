// Analysis engine bench: module size x pipeline sweep over the
// interprocedural corpus (corpus.h), emitting BENCH_analysis.json.
//
// Per module row (~10k / ~40k / >=100k MIR instructions) the bench times the
// full two-stage identification pipeline under each engine:
//   - steensgaard            unification (DSA-style), near-linear
//   - andersen-wave          sparse bitmaps + difference propagation +
//                            online cycle collapse, field-insensitive
//   - field-sensitive        the same wave solver over (object, field)
//                            locations
// and reports: solve wall time (median of kReps interleaved reps), solution
// memory, precision (spurious type (iii) marks = marked memops whose source
// line carries the corpus' "noise:" ground-truth prefix), and plan quality
// through DeriveAssignmentPlan (how many variables each engine routes to
// kNull / kTotalOrder / kPartialOrder — precision loss shows up as PO
// fallback).
//
// The run fails when the field-sensitive report differs from the
// field-insensitive one on any row: the corpus has only opaque pointer
// arithmetic, so field sensitivity must change no mark.
//
// CI gate: MVEE_BENCH_ANALYSIS_MAX_STEENSGAARD_RATIO fails the run when
// either Andersen pipeline takes more than the given multiple of the
// Steensgaard pipeline's median time on the largest (>=100k instruction)
// row. 0/unset = report only.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <utility>
#include <string>
#include <vector>

#include "bench/common.h"
#include "mvee/analysis/assignment_plan.h"
#include "mvee/analysis/corpus.h"
#include "mvee/analysis/field_sensitive.h"
#include "mvee/analysis/syncop_analysis.h"

namespace {

using namespace mvee;

size_t SpuriousMarks(const SyncOpReport& report) {
  size_t spurious = 0;
  for (const auto& site : report.type_iii) {
    if (site.source_line.rfind("noise:", 0) == 0) {
      ++spurious;
    }
  }
  return spurious;
}

struct PlanCounts {
  size_t null_routes = 0;
  size_t total_order = 0;
  size_t partial_order = 0;
  size_t per_variable = 0;
  size_t escaping_thread_local = 0;  // Escaping locals wrongly kept kNull-able.
};

PlanCounts CountPlan(const MirModule& module, const SyncOpReport& report,
                     const std::vector<int32_t>& escaping_objects) {
  const AssignmentPlanReport plan = DeriveAssignmentPlan(module, report);
  PlanCounts counts;
  for (const auto& variable : plan.variables) {
    switch (variable.kind) {
      case AgentKind::kNull:
        ++counts.null_routes;
        break;
      case AgentKind::kTotalOrder:
        ++counts.total_order;
        break;
      case AgentKind::kPartialOrder:
        ++counts.partial_order;
        break;
      default:
        ++counts.per_variable;
        break;
    }
    for (int32_t escaping : escaping_objects) {
      if (variable.object == escaping &&
          variable.verdict == AssignmentVerdict::kThreadLocal) {
        ++counts.escaping_thread_local;
      }
    }
  }
  return counts;
}

struct EngineRow {
  std::string module;
  size_t instructions = 0;
  std::string engine;
  double solve_seconds = 0.0;
  SyncOpReport report;
  PlanCounts plan;
};

constexpr int kReps = 5;

double MedianSeconds(std::vector<double> seconds) {
  std::sort(seconds.begin(), seconds.end());
  return seconds[seconds.size() / 2];
}

void WriteAnalysisJson(const std::vector<EngineRow>& rows, double wave_ratio,
                       double field_sensitive_ratio, bool parity_ok) {
  const std::string path = bench::ResolveBenchJsonPath("BENCH_analysis.json");
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "bench_analysis: cannot open %s\n", path.c_str());
    return;
  }
  std::fprintf(file, "{\n  \"analysis\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const EngineRow& row = rows[i];
    std::fprintf(
        file,
        "    {\"module\": \"%s\", \"instructions\": %zu, \"engine\": \"%s\", "
        "\"solve_seconds\": %.6f, \"points_to_bytes\": %llu, "
        "\"solver_iterations\": %llu, \"sccs_collapsed\": %llu, "
        "\"call_edges_resolved\": %llu, \"type_iii\": %zu, \"spurious_marks\": %zu, "
        "\"unmarked_memops\": %zu, \"null_routes\": %zu, \"total_order_routes\": %zu, "
        "\"partial_order_routes\": %zu, \"per_variable_routes\": %zu}%s\n",
        row.module.c_str(), row.instructions, row.engine.c_str(), row.solve_seconds,
        static_cast<unsigned long long>(row.report.stats.points_to_bytes),
        static_cast<unsigned long long>(row.report.stats.solver_iterations),
        static_cast<unsigned long long>(row.report.stats.sccs_collapsed),
        static_cast<unsigned long long>(row.report.stats.call_edges_resolved),
        row.report.type_iii.size(), SpuriousMarks(row.report), row.report.unmarked_memops,
        row.plan.null_routes, row.plan.total_order, row.plan.partial_order,
        row.plan.per_variable, i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(file, "  ],\n  \"wave_vs_steensgaard\": %.3f,\n", wave_ratio);
  std::fprintf(file, "  \"field_sensitive_vs_steensgaard\": %.3f,\n", field_sensitive_ratio);
  std::fprintf(file, "  \"precision_parity\": %s\n}\n", parity_ok ? "true" : "false");
  std::fclose(file);
  std::printf("wrote %s (%zu rows)\n", path.c_str(), rows.size());
}

// Exact end-to-end agreement between two identification reports.
bool ReportsMatch(const SyncOpReport& a, const SyncOpReport& b) {
  auto sites_match = [](const std::vector<SyncOpSite>& x, const std::vector<SyncOpSite>& y) {
    if (x.size() != y.size()) {
      return false;
    }
    for (size_t i = 0; i < x.size(); ++i) {
      if (x[i].function != y[i].function || x[i].instruction_index != y[i].instruction_index) {
        return false;
      }
    }
    return true;
  };
  return sites_match(a.type_i, b.type_i) && sites_match(a.type_ii, b.type_ii) &&
         sites_match(a.type_iii, b.type_iii) && a.sync_objects == b.sync_objects &&
         a.unmarked_memops == b.unmarked_memops;
}

}  // namespace

int main() {
  bench::PrintHeader("Analysis engines: solve time / memory / precision / plan quality");

  double max_ratio = 0.0;
  if (const char* env = std::getenv("MVEE_BENCH_ANALYSIS_MAX_STEENSGAARD_RATIO")) {
    max_ratio = std::atof(env);
  }

  std::vector<EngineRow> rows;
  double wave_ratio = 0.0;
  double field_sensitive_ratio = 0.0;
  size_t largest_instructions = 0;
  bool parity_ok = true;

  for (const InterprocSpec& spec : ScaledInterprocSpecs()) {
    const InterprocCorpus corpus = BuildInterprocModule(spec);
    const size_t instructions = corpus.module.InstructionCount();
    std::printf("\n%s: %zu instructions, %zu objects, %zu functions, %zu noise memops\n",
                spec.module_name, instructions, corpus.module.objects.size(),
                corpus.module.functions.size(), corpus.noise_memops);
    std::printf("%-20s %12s %12s %10s %10s %8s %22s\n", "engine", "solve s", "mem bytes",
                "type(iii)", "spurious", "iters", "plan null/TO/PO/PVO");

    using Identify = SyncOpReport (*)(const MirModule&, const SyncOpAnalysisOptions&);
    const std::pair<const char*, Identify> engines[] = {
        {"steensgaard", IdentifySyncOps},
        {"andersen-wave", IdentifySyncOpsAndersen},
        {"field-sensitive", IdentifySyncOpsFieldSensitive},
    };
    // Reps interleave the engines, so host drift during the row lands on
    // every engine alike.
    std::vector<EngineRow> engine_rows(std::size(engines));
    std::vector<std::vector<double>> seconds(std::size(engines));
    for (int rep = 0; rep < kReps; ++rep) {
      for (size_t e = 0; e < std::size(engines); ++e) {
        const auto start = std::chrono::steady_clock::now();
        engine_rows[e].report = engines[e].second(corpus.module, {});
        seconds[e].push_back(
            std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count());
      }
    }
    for (size_t e = 0; e < std::size(engines); ++e) {
      EngineRow& row = engine_rows[e];
      row.module = corpus.module.name;
      row.instructions = instructions;
      row.engine = engines[e].first;
      row.solve_seconds = MedianSeconds(seconds[e]);
      row.plan = CountPlan(corpus.module, row.report, corpus.escaping_objects);
      char plan[64];
      std::snprintf(plan, sizeof(plan), "%zu/%zu/%zu/%zu", row.plan.null_routes,
                    row.plan.total_order, row.plan.partial_order, row.plan.per_variable);
      std::printf("%-20s %12.4f %12llu %10zu %10zu %8llu %22s\n", row.engine.c_str(),
                  row.solve_seconds,
                  static_cast<unsigned long long>(row.report.stats.points_to_bytes),
                  row.report.type_iii.size(), SpuriousMarks(row.report),
                  static_cast<unsigned long long>(row.report.stats.solver_iterations), plan);
      if (row.plan.escaping_thread_local != 0) {
        std::printf("  WARNING: %zu escaping locals kept a thread-local verdict\n",
                    row.plan.escaping_thread_local);
      }
      rows.push_back(row);
    }

    const EngineRow& steensgaard = engine_rows[0];
    const EngineRow& wave = engine_rows[1];
    const EngineRow& sensitive = engine_rows[2];
    if (!ReportsMatch(wave.report, sensitive.report)) {
      std::fprintf(stderr,
                   "FAIL: %s: field-sensitive and field-insensitive reports disagree on a "
                   "module with only opaque pointer arithmetic\n",
                   spec.module_name);
      parity_ok = false;
    }
    const double row_wave_ratio = wave.solve_seconds / steensgaard.solve_seconds;
    const double row_sensitive_ratio = sensitive.solve_seconds / steensgaard.solve_seconds;
    std::printf("  vs steensgaard: wave %.3fx, field-sensitive %.3fx (parity %s)\n",
                row_wave_ratio, row_sensitive_ratio, parity_ok ? "ok" : "BROKEN");
    if (instructions > largest_instructions) {
      largest_instructions = instructions;
      wave_ratio = row_wave_ratio;
      field_sensitive_ratio = row_sensitive_ratio;
    }
  }

  WriteAnalysisJson(rows, wave_ratio, field_sensitive_ratio, parity_ok);

  bool gate_ok = parity_ok;
  if (max_ratio > 0.0 && std::max(wave_ratio, field_sensitive_ratio) > max_ratio) {
    std::fprintf(stderr,
                 "FAIL: on the %zu-instruction module wave takes %.3fx and field-sensitive "
                 "%.3fx the Steensgaard pipeline's time; allowed %.3fx\n",
                 largest_instructions, wave_ratio, field_sensitive_ratio, max_ratio);
    gate_ok = false;
  }
  std::printf("\nvs steensgaard on largest module (%zu instructions): wave %.3fx, "
              "field-sensitive %.3fx%s\n",
              largest_instructions, wave_ratio, field_sensitive_ratio,
              max_ratio > 0.0 ? (gate_ok ? " (gate ok)" : " (gate FAILED)") : "");
  return gate_ok ? 0 : 1;
}
