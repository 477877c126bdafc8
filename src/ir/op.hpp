#ifndef APEX_IR_OP_H_
#define APEX_IR_OP_H_

#include <cstdint>
#include <string>
#include <string_view>

/**
 * @file
 * Operation vocabulary of the APEX dataflow IR.
 *
 * This is the CoreIR-substitute op set: the word-level (16-bit) integer
 * operations supported by the baseline CGRA PE from Bahr et al. (Fig. 1
 * of the APEX paper), plus structural ops (inputs, outputs, constants,
 * pipeline registers, register files and memory tiles) that appear in
 * lowered application dataflow graphs.
 */

namespace apex::ir {

/** Word width of the CGRA datapath, in bits. */
inline constexpr int kWordWidth = 16;

/** All operations a dataflow-graph node can carry. */
enum class Op : std::uint8_t {
    // Structural / IO ops.
    kInput,     ///< Streaming application input (word).
    kInputBit,  ///< Streaming application input (1 bit).
    kOutput,    ///< Streaming application output (word).
    kOutputBit, ///< Streaming application output (1 bit).
    kConst,     ///< Word constant (e.g. a convolution weight).
    kConstBit,  ///< One-bit constant.
    kReg,       ///< Single pipeline register (1-cycle delay).
    kRegFile,   ///< Register file acting as a FIFO of depth `param`.
    kMem,       ///< Memory tile (line buffer / double-buffered SRAM).

    // Word-level arithmetic (two operands unless noted).
    kAdd,
    kSub,
    kMul,
    kAbs,  ///< One operand: |a| with two's-complement semantics.
    kMin,  ///< Signed minimum.
    kMax,  ///< Signed maximum.
    kShl,  ///< Left shift, out = a << (b & 15).
    kLshr, ///< Logical right shift.
    kAshr, ///< Arithmetic right shift.

    // Word-level bitwise logic.
    kAnd,
    kOr,
    kXor,
    kNot, ///< One operand.

    // Comparisons: word x word -> bit.
    kEq,
    kNeq,
    kUlt,
    kUle,
    kUgt,
    kUge,
    kSlt,
    kSle,
    kSgt,
    kSge,

    // Selection and 1-bit logic.
    kSel,    ///< out = sel ? a : b.  Operands: (sel:bit, a:word, b:word).
    kLut,    ///< 3-input 1-bit LUT; truth table in `param` (8 bits).
    kBitAnd, ///< 1-bit AND.
    kBitOr,  ///< 1-bit OR.
    kBitXor, ///< 1-bit XOR.
    kBitNot, ///< 1-bit NOT (one operand).

    kNumOps, ///< Sentinel; not a real op.
};

/** Number of distinct ops (excluding the sentinel). */
inline constexpr int kNumOps = static_cast<int>(Op::kNumOps);

/** Result type of an op: 16-bit word or single bit. */
enum class ValueType : std::uint8_t { kWord, kBit };

/** Static metadata for one op. */
struct OpInfo {
    std::string_view name; ///< Lowercase mnemonic, e.g. "add".
    int arity;             ///< Number of data operands (-1: variadic).
    ValueType result;      ///< Result value type.
    bool isCompute;        ///< Maps onto a PE functional unit.
    bool isStructural;     ///< IO / const / reg / mem plumbing.
};

/** @return the static metadata record for @p op. */
const OpInfo &opInfo(Op op);

/** @return the lowercase mnemonic for @p op (e.g. "add"). */
std::string_view opName(Op op);

/** Parse a mnemonic produced by opName(); aborts on unknown names. */
Op opFromName(std::string_view name);

/** @return number of data operands of @p op (kLut -> 3, kSel -> 3...). */
int opArity(Op op);

/** @return true if @p op executes on a PE functional unit. */
bool opIsCompute(Op op);

/** @return the result type (word or bit) of @p op. */
ValueType opResultType(Op op);

/** @return the value type expected on operand @p port of @p op. */
ValueType opOperandType(Op op, int port);

/**
 * Evaluate a compute op on concrete operands.
 *
 * Word operands/results occupy the low @p width bits; bit operands are
 * 0/1.  @p width defaults to the datapath width but can be reduced so
 * rewrite-rule validation can exhaustively sweep small widths.
 *
 * @param op     Operation to evaluate (must satisfy opIsCompute()).
 * @param a      First operand.
 * @param b      Second operand (ignored for unary ops).
 * @param c      Third operand (kSel selector is operand 0; kLut uses all).
 * @param param  Node parameter (LUT truth table).
 * @param width  Datapath width in bits, 1..16.
 * @return the result, masked to the result type's width.
 */
std::uint64_t evalOp(Op op, std::uint64_t a, std::uint64_t b,
                     std::uint64_t c, std::uint64_t param,
                     int width = kWordWidth);

} // namespace apex::ir

#endif // APEX_IR_OP_H_
