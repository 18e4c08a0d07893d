// Inclusion-constraint extraction for the wave Andersen solver
// (wave_solver.h), and the abstract-location encoding it solves over.
//
// The translation from MIR to constraints lives here, once, so the
// differential tests can hold the solver to one semantics (the textbook
// oracle in tests/andersen_oracle.h implements the same rules from MIR):
//
//   AddrOf/Alloc   p = &x          {loc(x, 0)} ⊆ pts(p)
//   Mov            p = q           pts(q) ⊆ pts(p)
//   Gep            p = q + f       field-insensitive: pts(q) ⊆ pts(p)
//                                  field-sensitive: {select(l, f) : l ∈
//                                  pts(q)} ⊆ pts(p)
//   kCall          r = f(a0..an)   pts(ai) ⊆ pts(param_i(f)),
//                                  pts(ret(f)) ⊆ pts(r)
//   kIndirectCall  r = (*fp)(...)  for every function object F reached by
//                                  pts(fp): the kCall rule with callee F
//
// Direct calls have a static callee, so their parameter/return flow lowers
// to plain copy edges at build time. Indirect calls stay symbolic: their
// callee set grows with the points-to solution (the mutually-recursive
// call-graph / points-to fixpoint), so the solver resolves them on the fly.
//
// Field mode is chosen by the entry point, not by users: the Andersen
// pipeline, the agent plan and call-copy resolution are field-insensitive
// (a location is an object id); the field-sensitive sync-op pipeline
// (field_sensitive.h) numbers (object, field) pairs densely.

#ifndef MVEE_ANALYSIS_CONSTRAINTS_H_
#define MVEE_ANALYSIS_CONSTRAINTS_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "mvee/analysis/mir.h"

namespace mvee {

enum class FieldMode : uint8_t {
  kInsensitive,  // kGep is a copy; a location is an object id.
  kSensitive,    // kGep selects a field; a location is an (object, field).
};

// One unresolved indirect call site.
struct IndirectCallConstraint {
  int32_t fptr = -1;          // Function-pointer register.
  int32_t dst = -1;           // Register receiving the return value (-1 = none).
  std::vector<int32_t> args;  // Argument registers, positional.
};

// Field-sensitive only: pts(dst) ⊇ {Select(l, slot) : l ∈ pts(src)}.
struct FieldSelectConstraint {
  int32_t dst = -1;
  int32_t src = -1;
  int32_t slot = 0;  // Selected field's slot; kAnySlot for opaque arithmetic.
};

// Dense abstract-location ids: location = object * slots_per_object +
// slot, and slot_fields[slot] is the slot's field (sorted ascending, so
// location order is (object, field) order). Field-insensitive: one slot, and
// a location is the object id. Field-sensitive: slot 0 is the any-field
// wildcard, slot 1 field 0 (an object's base), then every positive field
// index some kGep selects.
struct LocationLayout {
  static constexpr int32_t kAnySlot = 0;
  static constexpr int32_t kBaseSlot = 1;

  int32_t slots_per_object = 1;
  std::vector<int32_t> slot_fields = {0};

  uint32_t Location(int32_t object, int32_t slot) const {
    return static_cast<uint32_t>(object) * static_cast<uint32_t>(slots_per_object) +
           static_cast<uint32_t>(slot);
  }
  int32_t ObjectOf(uint32_t location) const {
    return static_cast<int32_t>(location / static_cast<uint32_t>(slots_per_object));
  }
  int32_t FieldOf(uint32_t location) const {
    return slot_fields[location % static_cast<uint32_t>(slots_per_object)];
  }
  // The smear rules: a field selected off an object's base keeps its
  // field; selecting off any other field (field-of-field, which nested
  // aggregates would need), off the wildcard (arithmetic on a smeared
  // pointer), or with an opaque offset yields the any-field wildcard.
  uint32_t Select(uint32_t location, int32_t slot) const {
    const uint32_t s = static_cast<uint32_t>(slots_per_object);
    const uint32_t base = location - location % s;
    return base + static_cast<uint32_t>(location % s == kBaseSlot ? slot : kAnySlot);
  }
};

struct ConstraintProgram {
  FieldMode mode = FieldMode::kInsensitive;
  LocationLayout layout;
  int32_t reg_count = 0;
  // (dst register, location): {location} ⊆ pts(dst). AddrOf/Alloc name an
  // object's base (field 0).
  std::vector<std::pair<int32_t, int32_t>> addr_of;
  // (dst, src): pts(src) ⊆ pts(dst). Includes lowered direct-call edges.
  std::vector<std::pair<int32_t, int32_t>> copies;
  std::vector<FieldSelectConstraint> field_selects;
  std::vector<IndirectCallConstraint> indirect_calls;
  // object id -> function index (>= 0) for function objects, else -1.
  std::vector<int32_t> object_function;
  // Direct call-graph edges resolved at build time (one per kCall site with
  // a valid callee; their copy edges are already lowered into `copies`).
  uint64_t direct_call_edges = 0;
};

ConstraintProgram BuildConstraintProgram(const MirModule& module, FieldMode mode);

// Appends the copy edges (dst, src) induced by binding call site
// (dst, args) to `callee` (a function index): args -> params positionally,
// callee return_reg -> dst. Returns how many edges were appended.
size_t AppendCallCopies(const MirModule& module, int32_t callee_function, int32_t call_dst,
                        const std::vector<int32_t>& args,
                        std::vector<std::pair<int32_t, int32_t>>* out);

}  // namespace mvee

#endif  // MVEE_ANALYSIS_CONSTRAINTS_H_
