#include "model/hw_block.hpp"

#include <cassert>
#include <cstdlib>

namespace apex::model {

using ir::Op;

HwBlockClass
blockClassOf(Op op)
{
    switch (op) {
      case Op::kAdd:
      case Op::kSub:
        return HwBlockClass::kAddSub;
      case Op::kMul:
        return HwBlockClass::kMul;
      case Op::kShl:
      case Op::kLshr:
      case Op::kAshr:
        return HwBlockClass::kShift;
      case Op::kAnd:
      case Op::kOr:
      case Op::kXor:
      case Op::kNot:
        return HwBlockClass::kLogicWord;
      case Op::kEq:
      case Op::kNeq:
      case Op::kUlt:
      case Op::kUle:
      case Op::kUgt:
      case Op::kUge:
      case Op::kSlt:
      case Op::kSle:
      case Op::kSgt:
      case Op::kSge:
        return HwBlockClass::kCompare;
      case Op::kMin:
      case Op::kMax:
      case Op::kAbs:
        return HwBlockClass::kMinMax;
      case Op::kSel:
        return HwBlockClass::kSelect;
      case Op::kLut:
      case Op::kBitAnd:
      case Op::kBitOr:
      case Op::kBitXor:
      case Op::kBitNot:
        return HwBlockClass::kLutBit;
      case Op::kConst:
        return HwBlockClass::kConstReg;
      case Op::kConstBit:
        return HwBlockClass::kConstRegBit;
      default:
        assert(false && "op has no hardware block class");
        std::abort();
    }
}

std::vector<Op>
opsOfClass(HwBlockClass cls)
{
    std::vector<Op> result;
    for (int i = 0; i < ir::kNumOps; ++i) {
        const Op op = static_cast<Op>(i);
        if ((ir::opIsCompute(op) || op == Op::kConst ||
             op == Op::kConstBit) &&
            blockClassOf(op) == cls) {
            result.push_back(op);
        }
    }
    return result;
}

std::string_view
blockClassName(HwBlockClass cls)
{
    switch (cls) {
      case HwBlockClass::kAddSub:      return "addsub";
      case HwBlockClass::kMul:         return "mul";
      case HwBlockClass::kShift:       return "shift";
      case HwBlockClass::kLogicWord:   return "logic";
      case HwBlockClass::kCompare:     return "cmp";
      case HwBlockClass::kMinMax:      return "minmax";
      case HwBlockClass::kSelect:      return "sel";
      case HwBlockClass::kLutBit:      return "lut";
      case HwBlockClass::kConstReg:    return "creg";
      case HwBlockClass::kConstRegBit: return "cregb";
      default:                         return "?";
    }
}

} // namespace apex::model
