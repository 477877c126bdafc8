#include "ir/op.hpp"

#include <array>
#include <sstream>

#include "core/status.hpp"

namespace apex::ir {

namespace {

constexpr std::array<OpInfo, kNumOps> kOpTable = {{
    // name        arity result              compute structural
    {"input",      0, ValueType::kWord, false, true},
    {"input_bit",  0, ValueType::kBit,  false, true},
    {"output",     1, ValueType::kWord, false, true},
    {"output_bit", 1, ValueType::kBit,  false, true},
    {"const",      0, ValueType::kWord, false, true},
    {"const_bit",  0, ValueType::kBit,  false, true},
    {"reg",        1, ValueType::kWord, false, true},
    {"regfile",    1, ValueType::kWord, false, true},
    {"mem",        1, ValueType::kWord, false, true},

    {"add",        2, ValueType::kWord, true, false},
    {"sub",        2, ValueType::kWord, true, false},
    {"mul",        2, ValueType::kWord, true, false},
    {"abs",        1, ValueType::kWord, true, false},
    {"min",        2, ValueType::kWord, true, false},
    {"max",        2, ValueType::kWord, true, false},
    {"shl",        2, ValueType::kWord, true, false},
    {"lshr",       2, ValueType::kWord, true, false},
    {"ashr",       2, ValueType::kWord, true, false},

    {"and",        2, ValueType::kWord, true, false},
    {"or",         2, ValueType::kWord, true, false},
    {"xor",        2, ValueType::kWord, true, false},
    {"not",        1, ValueType::kWord, true, false},

    {"eq",         2, ValueType::kBit,  true, false},
    {"neq",        2, ValueType::kBit,  true, false},
    {"ult",        2, ValueType::kBit,  true, false},
    {"ule",        2, ValueType::kBit,  true, false},
    {"ugt",        2, ValueType::kBit,  true, false},
    {"uge",        2, ValueType::kBit,  true, false},
    {"slt",        2, ValueType::kBit,  true, false},
    {"sle",        2, ValueType::kBit,  true, false},
    {"sgt",        2, ValueType::kBit,  true, false},
    {"sge",        2, ValueType::kBit,  true, false},

    {"sel",        3, ValueType::kWord, true, false},
    {"lut",        3, ValueType::kBit,  true, false},
    {"bit_and",    2, ValueType::kBit,  true, false},
    {"bit_or",     2, ValueType::kBit,  true, false},
    {"bit_xor",    2, ValueType::kBit,  true, false},
    {"bit_not",    1, ValueType::kBit,  true, false},
}};

/** Sign-extend the low @p width bits of @p v to a signed 64-bit value. */
std::int64_t
signExtend(std::uint64_t v, int width)
{
    const std::uint64_t sign_bit = std::uint64_t{1} << (width - 1);
    const std::uint64_t mask = (std::uint64_t{1} << width) - 1;
    v &= mask;
    return (v & sign_bit) ? static_cast<std::int64_t>(v | ~mask)
                          : static_cast<std::int64_t>(v);
}

} // namespace

const OpInfo &
opInfo(Op op)
{
    const int i = static_cast<int>(op);
    if (i < 0 || i >= kNumOps)
        throw IrError(ErrorCode::kInvalidIr,
                      "opInfo: op value " + std::to_string(i) +
                          " is out of range");
    return kOpTable[i];
}

std::string_view
opName(Op op)
{
    return opInfo(op).name;
}

Op
opFromName(std::string_view name)
{
    for (int i = 0; i < kNumOps; ++i) {
        if (kOpTable[i].name == name)
            return static_cast<Op>(i);
    }
    throw IrError(ErrorCode::kInvalidArgument,
                  "opFromName: unknown op name '" + std::string(name) +
                      "'");
}

int
opArity(Op op)
{
    return opInfo(op).arity;
}

bool
opIsCompute(Op op)
{
    return opInfo(op).isCompute;
}

ValueType
opResultType(Op op)
{
    return opInfo(op).result;
}

ValueType
opOperandType(Op op, int port)
{
    switch (op) {
      case Op::kSel:
        return port == 0 ? ValueType::kBit : ValueType::kWord;
      case Op::kLut:
      case Op::kBitAnd:
      case Op::kBitOr:
      case Op::kBitXor:
      case Op::kBitNot:
      case Op::kOutputBit:
        return ValueType::kBit;
      default:
        return ValueType::kWord;
    }
}

std::uint64_t
evalOp(Op op, std::uint64_t a, std::uint64_t b, std::uint64_t c,
       std::uint64_t param, int width)
{
    if (width < 1 || width > 64)
        throw IrError(ErrorCode::kInvalidArgument,
                      "evalOp: width " + std::to_string(width) +
                          " is outside [1, 64]");
    const std::uint64_t mask = (width == 64)
        ? ~std::uint64_t{0}
        : (std::uint64_t{1} << width) - 1;
    a &= mask;
    b &= mask;
    const int shamt = static_cast<int>(b & (width - 1));
    const std::int64_t sa = signExtend(a, width);
    const std::int64_t sb = signExtend(b, width);

    switch (op) {
      case Op::kAdd:  return (a + b) & mask;
      case Op::kSub:  return (a - b) & mask;
      case Op::kMul:  return (a * b) & mask;
      case Op::kAbs:  return static_cast<std::uint64_t>(sa < 0 ? -sa : sa)
                             & mask;
      case Op::kMin:  return static_cast<std::uint64_t>(sa < sb ? sa : sb)
                             & mask;
      case Op::kMax:  return static_cast<std::uint64_t>(sa > sb ? sa : sb)
                             & mask;
      case Op::kShl:  return (a << shamt) & mask;
      case Op::kLshr: return (a >> shamt) & mask;
      case Op::kAshr: return static_cast<std::uint64_t>(sa >> shamt) & mask;
      case Op::kAnd:  return a & b;
      case Op::kOr:   return a | b;
      case Op::kXor:  return a ^ b;
      case Op::kNot:  return ~a & mask;
      case Op::kEq:   return a == b;
      case Op::kNeq:  return a != b;
      case Op::kUlt:  return a < b;
      case Op::kUle:  return a <= b;
      case Op::kUgt:  return a > b;
      case Op::kUge:  return a >= b;
      case Op::kSlt:  return sa < sb;
      case Op::kSle:  return sa <= sb;
      case Op::kSgt:  return sa > sb;
      case Op::kSge:  return sa >= sb;
      case Op::kSel:  return (a & 1) ? (b & mask) : (c & mask);
      case Op::kLut: {
        const int idx = static_cast<int>(((a & 1) << 2) | ((b & 1) << 1) |
                                         (c & 1));
        return (param >> idx) & 1;
      }
      case Op::kBitAnd: return (a & b) & 1;
      case Op::kBitOr:  return (a | b) & 1;
      case Op::kBitXor: return (a ^ b) & 1;
      case Op::kBitNot: return (~a) & 1;
      default: {
        std::ostringstream os;
        os << "evalOp: op '" << opName(op) << "' is not a compute op";
        throw IrError(ErrorCode::kInvalidIr, os.str());
      }
    }
}

} // namespace apex::ir
