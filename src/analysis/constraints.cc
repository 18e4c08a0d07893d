#include "mvee/analysis/constraints.h"

#include <algorithm>

namespace mvee {

size_t AppendCallCopies(const MirModule& module, int32_t callee_function, int32_t call_dst,
                        const std::vector<int32_t>& args,
                        std::vector<std::pair<int32_t, int32_t>>* out) {
  if (callee_function < 0 || static_cast<size_t>(callee_function) >= module.functions.size()) {
    return 0;
  }
  const MirFunction& callee = module.functions[callee_function];
  size_t appended = 0;
  const size_t bound = std::min(args.size(), callee.params.size());
  for (size_t i = 0; i < bound; ++i) {
    if (args[i] >= 0) {
      out->emplace_back(callee.params[i], args[i]);
      ++appended;
    }
  }
  if (call_dst >= 0 && callee.return_reg >= 0) {
    out->emplace_back(call_dst, callee.return_reg);
    ++appended;
  }
  return appended;
}

ConstraintProgram BuildConstraintProgram(const MirModule& module, FieldMode mode) {
  ConstraintProgram program;
  program.mode = mode;
  program.reg_count = module.register_count;
  program.object_function.reserve(module.objects.size());
  for (const MirObject& object : module.objects) {
    program.object_function.push_back(object.function_index);
  }

  LocationLayout& layout = program.layout;
  int32_t base_slot = 0;
  if (mode == FieldMode::kSensitive) {
    layout.slot_fields = {-1, 0};  // The any-field wildcard, then the base.
    for (const auto& function : module.functions) {
      for (const auto& inst : function.instructions) {
        if (inst.op == MirOp::kGep && inst.field > 0) {
          layout.slot_fields.push_back(inst.field);
        }
      }
    }
    std::sort(layout.slot_fields.begin(), layout.slot_fields.end());
    layout.slot_fields.erase(std::unique(layout.slot_fields.begin(), layout.slot_fields.end()),
                             layout.slot_fields.end());
    layout.slots_per_object = static_cast<int32_t>(layout.slot_fields.size());
    base_slot = LocationLayout::kBaseSlot;
  }
  // Negative field indices are opaque arithmetic.
  const auto slot_of = [&](int32_t field) {
    return field < 0 ? LocationLayout::kAnySlot
                     : static_cast<int32_t>(std::lower_bound(layout.slot_fields.begin(),
                                                             layout.slot_fields.end(), field) -
                                            layout.slot_fields.begin());
  };

  for (const auto& function : module.functions) {
    for (const auto& inst : function.instructions) {
      switch (inst.op) {
        case MirOp::kAddrOf:
        case MirOp::kAlloc:
          program.addr_of.emplace_back(
              inst.dst, inst.object < 0
                            ? inst.object
                            : static_cast<int32_t>(layout.Location(inst.object, base_slot)));
          break;
        case MirOp::kGep:
          if (mode == FieldMode::kSensitive) {
            program.field_selects.push_back({inst.dst, inst.src, slot_of(inst.field)});
            break;
          }
          [[fallthrough]];
        case MirOp::kMov:
          program.copies.emplace_back(inst.dst, inst.src);
          break;
        case MirOp::kCall: {
          // Static callee: lower parameter/return flow to copy edges now.
          const int32_t callee = (inst.object >= 0 &&
                                  static_cast<size_t>(inst.object) < module.objects.size())
                                     ? module.objects[inst.object].function_index
                                     : -1;
          if (callee >= 0) {
            ++program.direct_call_edges;
          }
          AppendCallCopies(module, callee, inst.dst, inst.args, &program.copies);
          break;
        }
        case MirOp::kIndirectCall:
          program.indirect_calls.push_back({inst.ptr, inst.dst, inst.args});
          break;
        default:
          break;
      }
    }
  }
  return program;
}

}  // namespace mvee
