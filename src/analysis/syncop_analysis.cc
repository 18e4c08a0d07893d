#include "mvee/analysis/syncop_analysis.h"

#include <sstream>

#include "mvee/analysis/andersen.h"
#include "mvee/analysis/field_sensitive.h"
#include "mvee/analysis/points_to.h"

namespace mvee {

namespace {

// The two-stage identification of §4.3, walked once for every points-to
// engine. The engine answers three questions:
//  - seed(ptr): add every location pointer register `ptr` may reference to
//    the sync set, and their objects to report->sync_objects (stage 1);
//  - seed_object(object): add all of `object` to the sync set, beyond
//    report->sync_objects, which the walk fills itself (volatile extension);
//  - may_hit(ptr): may `ptr` reference a sync location (stage 2)?
template <typename Seed, typename SeedObject, typename MayHit>
void WalkSyncOps(const MirModule& module, const SyncOpAnalysisOptions& options,
                 SyncOpReport* report, Seed&& seed, SeedObject&& seed_object,
                 MayHit&& may_hit) {
  // Stage 1: mark type (i) and (ii) instructions; the locations their
  // pointer operands may reference seed the sync variables.
  for (const auto& function : module.functions) {
    for (size_t i = 0; i < function.instructions.size(); ++i) {
      const MirInst& inst = function.instructions[i];
      if (inst.op != MirOp::kLockRmw && inst.op != MirOp::kXchg) {
        continue;
      }
      auto& bucket = inst.op == MirOp::kLockRmw ? report->type_i : report->type_ii;
      bucket.push_back({function.name, i, inst.source_line, inst.op});
      seed(inst.ptr);
    }
  }

  // Volatile extension (§4.3): volatile objects are sync variables too, the
  // whole object (a volatile qualifier covers every field).
  if (options.treat_volatile_as_sync) {
    for (size_t obj = 0; obj < module.objects.size(); ++obj) {
      if (module.objects[obj].is_volatile) {
        report->sync_objects.insert(static_cast<int32_t>(obj));
        seed_object(static_cast<int32_t>(obj));
      }
    }
  }

  // Stage 2: an aligned load/store is a type (iii) sync op iff it may alias
  // a sync variable.
  for (const auto& function : module.functions) {
    for (size_t i = 0; i < function.instructions.size(); ++i) {
      const MirInst& inst = function.instructions[i];
      if (inst.op != MirOp::kLoad && inst.op != MirOp::kStore) {
        continue;
      }
      if (may_hit(inst.ptr)) {
        report->type_iii.push_back({function.name, i, inst.source_line, inst.op});
      } else {
        ++report->unmarked_memops;
      }
    }
  }
}

}  // namespace

SyncOpReport IdentifySyncOps(const MirModule& module, const SyncOpAnalysisOptions& options) {
  SyncOpReport report;
  report.module_name = module.name;
  PointsToAnalysis points_to(module);
  report.stats = points_to.stats();
  WalkSyncOps(
      module, options, &report,
      [&](int32_t ptr) {
        for (int32_t obj : points_to.PointsTo(ptr)) {
          report.sync_objects.insert(obj);
        }
      },
      [](int32_t) {},
      [&](int32_t ptr) { return points_to.MayPointInto(ptr, report.sync_objects); });
  return report;
}

SyncOpReport IdentifySyncOpsAndersen(const MirModule& module,
                                     const SyncOpAnalysisOptions& options) {
  SyncOpReport report;
  report.module_name = module.name;
  AndersenAnalysis points_to(module);
  report.stats = points_to.stats();
  WalkSyncOps(
      module, options, &report,
      [&](int32_t ptr) {
        points_to.ForEachPointee(ptr, [&](int32_t obj) { report.sync_objects.insert(obj); });
      },
      [](int32_t) {},
      [&](int32_t ptr) { return points_to.MayPointInto(ptr, report.sync_objects); });
  return report;
}

SyncOpReport IdentifySyncOpsFieldSensitive(const MirModule& module,
                                           const SyncOpAnalysisOptions& options) {
  SyncOpReport report;
  report.module_name = module.name;
  FieldSensitiveAnalysis points_to(module);
  report.stats = points_to.stats();
  // Every location that may alias a sync-variable location: stage 2 at field
  // granularity, so a load/store of a *different field* of an object whose
  // refcount field is locked stays unmarked.
  SparseBitmap sync_mask;
  WalkSyncOps(
      module, options, &report,
      [&](int32_t ptr) {
        for (const FieldLoc& loc : points_to.PointsTo(ptr)) {
          report.sync_objects.insert(loc.object);
        }
        points_to.AddAliases(ptr, &sync_mask);
      },
      [&](int32_t obj) { points_to.AddObject(obj, &sync_mask); },
      [&](int32_t ptr) { return points_to.MayPointInto(ptr, sync_mask); });
  return report;
}

std::string FormatTable3(const std::vector<SyncOpReport>& reports) {
  std::ostringstream out;
  out << "Module                     (i)    (ii)   (iii)  solver\n";
  out << "-------------------------------------------------------\n";
  for (const auto& report : reports) {
    out << report.module_name;
    for (size_t pad = report.module_name.size(); pad < 25; ++pad) {
      out << ' ';
    }
    char row[128];
    std::snprintf(row, sizeof(row), "%6zu %6zu %6zu  %s iters=%llu\n", report.type_i.size(),
                  report.type_ii.size(), report.type_iii.size(), report.stats.solver.c_str(),
                  static_cast<unsigned long long>(report.stats.solver_iterations));
    out << row;
  }
  return out.str();
}

}  // namespace mvee
