"""Pre-decoded threaded-code execution engine.

The seed interpreter walked a ~60-branch ``if/elif`` chain for every dynamic
instruction and chased ``instruction.rs1.index`` attributes on each visit.
This module lowers a finalized :class:`~repro.isa.Program` **once** into flat
per-instruction operand tuples (register indices as plain ints, pre-wrapped
immediates, resolved branch targets and data addresses) and then *binds* the
decoded form to a machine's register files and memory as a table of
specialized zero-argument closures — classic threaded code.  The dispatch
loop in :meth:`repro.sim.machine.Machine.run` becomes::

    while pc != text_len:
        exec_counts[pc] += 1
        executed += 1
        pc = handlers[pc]()

Decode products are cached on the ``Program`` (invalidated automatically when
the control-tagging pass re-tags instructions), so campaigns that run the
same program thousands of times pay the decode cost once.  Binding closures
to a fresh machine is O(static program size) and is repaid within the first
few hundred dynamic instructions.

Three artefacts come out of a decode:

* ``specs`` — per-instruction operand tuples consumed by the handler makers;
* exposure bit-vectors per :class:`ProtectionMode` (so golden runs skip the
  injection bookkeeping entirely — only runs with a non-empty injection plan
  bind the slower "exposed" handler variants);
* static classification index vectors (arithmetic / memory / branch / call /
  other / tagged / exposed) so run statistics are one ``sum(map(...))`` pass
  over the execution counts instead of per-instruction attribute chasing.

Everything stored on :class:`DecodedProgram` is plain data plus references to
module-level functions, so decoded programs pickle cleanly into campaign
worker processes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..isa import Opcode, Program
from ..isa.encoding import FLOAT_BITS, INT_BITS, flip_float_bit, flip_int_bit, wrap_int
from .errors import ArithmeticFault, ControlFault, MemoryFault
from .faults import (
    InjectionEvent,
    InjectionPlan,
    ProtectionMode,
    exposure_flags,
)

#: Handler: executes one instruction against bound machine state and returns
#: the next program counter.
Handler = Callable[[], int]

# Spec tuple layout: (index, rd, rs1, rs2, imm, target, next_pc).  Register
# fields are plain int indices (-1 when the operand is absent); ``imm`` is
# pre-processed per opcode (e.g. LI immediates are pre-wrapped, OUT channels
# pre-truncated); ``target`` holds the resolved branch index or data address.
Spec = Tuple[int, int, int, int, object, int, int]


# ----------------------------------------------------------------------
# Fast handler makers: one specialized closure per static instruction.
# The wrap-to-signed-32-bit formula ((x + 0x80000000) & 0xFFFFFFFF) -
# 0x80000000 is branchless and identical to encoding.wrap_int for every
# Python int.
# ----------------------------------------------------------------------

def _mk_add(spec, m):
    i, d, a, b, imm, t, n = spec
    ir = m.int_regs
    if d <= 0:
        return lambda: n
    def h():
        ir[d] = ((ir[a] + ir[b] + 0x80000000) & 0xFFFFFFFF) - 0x80000000
        return n
    return h


def _mk_addi(spec, m):
    i, d, a, b, imm, t, n = spec
    ir = m.int_regs
    k = imm + 0x80000000
    if d <= 0:
        return lambda: n
    def h():
        ir[d] = ((ir[a] + k) & 0xFFFFFFFF) - 0x80000000
        return n
    return h


def _mk_sub(spec, m):
    i, d, a, b, imm, t, n = spec
    ir = m.int_regs
    if d <= 0:
        return lambda: n
    def h():
        ir[d] = ((ir[a] - ir[b] + 0x80000000) & 0xFFFFFFFF) - 0x80000000
        return n
    return h


def _mk_mul(spec, m):
    i, d, a, b, imm, t, n = spec
    ir = m.int_regs
    if d <= 0:
        return lambda: n
    def h():
        ir[d] = ((ir[a] * ir[b] + 0x80000000) & 0xFFFFFFFF) - 0x80000000
        return n
    return h


def _mk_div(spec, m):
    i, d, a, b, imm, t, n = spec
    ir = m.int_regs
    def h():
        divisor = ir[b]
        if divisor == 0:
            raise ArithmeticFault("integer division by zero", i)
        if d > 0:
            ir[d] = ((int(ir[a] / divisor) + 0x80000000) & 0xFFFFFFFF) - 0x80000000
        return n
    return h


def _mk_rem(spec, m):
    i, d, a, b, imm, t, n = spec
    ir = m.int_regs
    def h():
        divisor = ir[b]
        if divisor == 0:
            raise ArithmeticFault("integer remainder by zero", i)
        if d > 0:
            dividend = ir[a]
            ir[d] = ((dividend - int(dividend / divisor) * divisor + 0x80000000)
                     & 0xFFFFFFFF) - 0x80000000
        return n
    return h


def _mk_and(spec, m):
    i, d, a, b, imm, t, n = spec
    ir = m.int_regs
    if d <= 0:
        return lambda: n
    def h():
        ir[d] = ir[a] & ir[b]
        return n
    return h


def _mk_or(spec, m):
    i, d, a, b, imm, t, n = spec
    ir = m.int_regs
    if d <= 0:
        return lambda: n
    def h():
        ir[d] = ir[a] | ir[b]
        return n
    return h


def _mk_xor(spec, m):
    i, d, a, b, imm, t, n = spec
    ir = m.int_regs
    if d <= 0:
        return lambda: n
    def h():
        ir[d] = ir[a] ^ ir[b]
        return n
    return h


def _mk_nor(spec, m):
    i, d, a, b, imm, t, n = spec
    ir = m.int_regs
    if d <= 0:
        return lambda: n
    def h():
        ir[d] = ((~(ir[a] | ir[b]) + 0x80000000) & 0xFFFFFFFF) - 0x80000000
        return n
    return h


def _mk_sll(spec, m):
    i, d, a, b, imm, t, n = spec
    ir = m.int_regs
    if d <= 0:
        return lambda: n
    def h():
        ir[d] = (((ir[a] << (ir[b] & 31)) + 0x80000000) & 0xFFFFFFFF) - 0x80000000
        return n
    return h


def _mk_srl(spec, m):
    i, d, a, b, imm, t, n = spec
    ir = m.int_regs
    if d <= 0:
        return lambda: n
    def h():
        ir[d] = ((((ir[a] & 0xFFFFFFFF) >> (ir[b] & 31)) + 0x80000000)
                 & 0xFFFFFFFF) - 0x80000000
        return n
    return h


def _mk_sra(spec, m):
    i, d, a, b, imm, t, n = spec
    ir = m.int_regs
    if d <= 0:
        return lambda: n
    def h():
        ir[d] = (((ir[a] >> (ir[b] & 31)) + 0x80000000) & 0xFFFFFFFF) - 0x80000000
        return n
    return h


def _mk_slt(spec, m):
    i, d, a, b, imm, t, n = spec
    ir = m.int_regs
    if d <= 0:
        return lambda: n
    def h():
        ir[d] = 1 if ir[a] < ir[b] else 0
        return n
    return h


def _mk_sle(spec, m):
    i, d, a, b, imm, t, n = spec
    ir = m.int_regs
    if d <= 0:
        return lambda: n
    def h():
        ir[d] = 1 if ir[a] <= ir[b] else 0
        return n
    return h


def _mk_seq(spec, m):
    i, d, a, b, imm, t, n = spec
    ir = m.int_regs
    if d <= 0:
        return lambda: n
    def h():
        ir[d] = 1 if ir[a] == ir[b] else 0
        return n
    return h


def _mk_sne(spec, m):
    i, d, a, b, imm, t, n = spec
    ir = m.int_regs
    if d <= 0:
        return lambda: n
    def h():
        ir[d] = 1 if ir[a] != ir[b] else 0
        return n
    return h


def _mk_andi(spec, m):
    i, d, a, b, imm, t, n = spec
    ir = m.int_regs
    if d <= 0:
        return lambda: n
    def h():
        ir[d] = ir[a] & imm
        return n
    return h


def _mk_ori(spec, m):
    i, d, a, b, imm, t, n = spec
    ir = m.int_regs
    if d <= 0:
        return lambda: n
    def h():
        ir[d] = ir[a] | imm
        return n
    return h


def _mk_xori(spec, m):
    i, d, a, b, imm, t, n = spec
    ir = m.int_regs
    if d <= 0:
        return lambda: n
    def h():
        ir[d] = ir[a] ^ imm
        return n
    return h


def _mk_slli(spec, m):
    i, d, a, b, imm, t, n = spec
    ir = m.int_regs
    sh = imm & 31
    if d <= 0:
        return lambda: n
    def h():
        ir[d] = (((ir[a] << sh) + 0x80000000) & 0xFFFFFFFF) - 0x80000000
        return n
    return h


def _mk_srli(spec, m):
    i, d, a, b, imm, t, n = spec
    ir = m.int_regs
    sh = imm & 31
    if d <= 0:
        return lambda: n
    def h():
        ir[d] = ((((ir[a] & 0xFFFFFFFF) >> sh) + 0x80000000) & 0xFFFFFFFF) - 0x80000000
        return n
    return h


def _mk_srai(spec, m):
    i, d, a, b, imm, t, n = spec
    ir = m.int_regs
    sh = imm & 31
    if d <= 0:
        return lambda: n
    def h():
        ir[d] = (((ir[a] >> sh) + 0x80000000) & 0xFFFFFFFF) - 0x80000000
        return n
    return h


def _mk_slti(spec, m):
    i, d, a, b, imm, t, n = spec
    ir = m.int_regs
    if d <= 0:
        return lambda: n
    def h():
        ir[d] = 1 if ir[a] < imm else 0
        return n
    return h


def _mk_li(spec, m):
    i, d, a, b, imm, t, n = spec
    ir = m.int_regs
    if d <= 0:
        return lambda: n
    def h():
        ir[d] = imm  # pre-wrapped at decode time
        return n
    return h


# -- Floating point -----------------------------------------------------

def _mk_fadd(spec, m):
    i, d, a, b, imm, t, n = spec
    fr = m.float_regs
    if d < 0:
        return lambda: n
    def h():
        fr[d] = fr[a] + fr[b]
        return n
    return h


def _mk_fsub(spec, m):
    i, d, a, b, imm, t, n = spec
    fr = m.float_regs
    if d < 0:
        return lambda: n
    def h():
        fr[d] = fr[a] - fr[b]
        return n
    return h


def _mk_fmul(spec, m):
    i, d, a, b, imm, t, n = spec
    fr = m.float_regs
    if d < 0:
        return lambda: n
    def h():
        fr[d] = fr[a] * fr[b]
        return n
    return h


def _fdiv_value(numerator, denominator):
    if denominator == 0.0:
        if numerator == 0.0 or numerator != numerator:
            return float("nan")
        return math.copysign(float("inf"), numerator)
    return numerator / denominator


def _mk_fdiv(spec, m):
    i, d, a, b, imm, t, n = spec
    fr = m.float_regs
    if d < 0:
        return lambda: n
    def h():
        numerator = fr[a]
        denominator = fr[b]
        if denominator == 0.0:
            if numerator == 0.0 or numerator != numerator:
                fr[d] = float("nan")
            else:
                fr[d] = math.copysign(float("inf"), numerator)
        else:
            fr[d] = numerator / denominator
        return n
    return h


def _mk_fneg(spec, m):
    i, d, a, b, imm, t, n = spec
    fr = m.float_regs
    if d < 0:
        return lambda: n
    def h():
        fr[d] = -fr[a]
        return n
    return h


def _mk_fabs(spec, m):
    i, d, a, b, imm, t, n = spec
    fr = m.float_regs
    if d < 0:
        return lambda: n
    def h():
        fr[d] = abs(fr[a])
        return n
    return h


def _mk_fmin(spec, m):
    i, d, a, b, imm, t, n = spec
    fr = m.float_regs
    if d < 0:
        return lambda: n
    def h():
        fr[d] = min(fr[a], fr[b])
        return n
    return h


def _mk_fmax(spec, m):
    i, d, a, b, imm, t, n = spec
    fr = m.float_regs
    if d < 0:
        return lambda: n
    def h():
        fr[d] = max(fr[a], fr[b])
        return n
    return h


def _mk_fsqrt(spec, m):
    i, d, a, b, imm, t, n = spec
    fr = m.float_regs
    if d < 0:
        return lambda: n
    sqrt = math.sqrt
    def h():
        operand = fr[a]
        fr[d] = sqrt(operand) if operand >= 0.0 else float("nan")
        return n
    return h


def _mk_fli(spec, m):
    i, d, a, b, imm, t, n = spec
    fr = m.float_regs
    if d < 0:
        return lambda: n
    value = float(imm)
    def h():
        fr[d] = value
        return n
    return h


def _mk_feq(spec, m):
    i, d, a, b, imm, t, n = spec
    ir = m.int_regs
    fr = m.float_regs
    if d <= 0:
        return lambda: n
    def h():
        ir[d] = 1 if fr[a] == fr[b] else 0
        return n
    return h


def _mk_flt(spec, m):
    i, d, a, b, imm, t, n = spec
    ir = m.int_regs
    fr = m.float_regs
    if d <= 0:
        return lambda: n
    def h():
        ir[d] = 1 if fr[a] < fr[b] else 0
        return n
    return h


def _mk_fle(spec, m):
    i, d, a, b, imm, t, n = spec
    ir = m.int_regs
    fr = m.float_regs
    if d <= 0:
        return lambda: n
    def h():
        ir[d] = 1 if fr[a] <= fr[b] else 0
        return n
    return h


def _mk_cvtif(spec, m):
    i, d, a, b, imm, t, n = spec
    ir = m.int_regs
    fr = m.float_regs
    if d >= 0:
        def h():
            fr[d] = float(ir[a])
            return n
    else:
        def h():
            float(ir[a])  # can overflow on corrupted register values
            return n
    return h


def _cvtfi_value(operand):
    if operand != operand:  # NaN
        return 0
    if operand >= 2147483648.0:
        return 2147483647
    if operand <= -2147483649.0:
        return -2147483648
    return int(operand)


def _mk_cvtfi(spec, m):
    i, d, a, b, imm, t, n = spec
    ir = m.int_regs
    fr = m.float_regs
    def h():
        operand = fr[a]
        if operand != operand:  # NaN
            result = 0
        elif operand >= 2147483648.0:
            result = 2147483647
        elif operand <= -2147483649.0:
            result = -2147483648
        else:
            result = int(operand)
        if d > 0:
            ir[d] = result
        return n
    return h


# -- Memory -------------------------------------------------------------

def _mk_lw(spec, m):
    i, d, a, b, imm, t, n = spec
    ir = m.int_regs
    cells = m.memory.cells
    get = cells.get
    if d > 0:
        def h():
            address = ir[a] + imm
            if address < -2147483648 or address >= 2147483648:
                raise MemoryFault(f"load from invalid address {address}", i)
            value = get(address, 0)
            ir[d] = value if isinstance(value, int) else int(value)
            return n
    else:
        # No architectural destination, but the load and int conversion
        # still happen (a non-finite cell crashes), as in the reference.
        def h():
            address = ir[a] + imm
            if address < -2147483648 or address >= 2147483648:
                raise MemoryFault(f"load from invalid address {address}", i)
            value = get(address, 0)
            if not isinstance(value, int):
                int(value)
            return n
    return h


def _mk_flw(spec, m):
    i, d, a, b, imm, t, n = spec
    ir = m.int_regs
    fr = m.float_regs
    get = m.memory.cells.get
    if d >= 0:
        def h():
            address = ir[a] + imm
            if address < -2147483648 or address >= 2147483648:
                raise MemoryFault(f"load from invalid address {address}", i)
            fr[d] = float(get(address, 0))
            return n
    else:
        def h():
            address = ir[a] + imm
            if address < -2147483648 or address >= 2147483648:
                raise MemoryFault(f"load from invalid address {address}", i)
            float(get(address, 0))
            return n
    return h


def _mk_sw(spec, m):
    i, d, a, b, imm, t, n = spec
    ir = m.int_regs
    cells = m.memory.cells
    def h():
        address = ir[a] + imm
        if address < -2147483648 or address >= 2147483648:
            raise MemoryFault(f"store to invalid address {address}", i)
        cells[address] = ir[b]
        return n
    return h


def _mk_fsw(spec, m):
    i, d, a, b, imm, t, n = spec
    ir = m.int_regs
    fr = m.float_regs
    cells = m.memory.cells
    def h():
        address = ir[a] + imm
        if address < -2147483648 or address >= 2147483648:
            raise MemoryFault(f"store to invalid address {address}", i)
        cells[address] = fr[b]
        return n
    return h


def _mk_la(spec, m):
    i, d, a, b, imm, t, n = spec
    ir = m.int_regs
    if d <= 0:
        return lambda: n
    def h():
        ir[d] = t  # data address resolved at decode time
        return n
    return h


# -- Control flow -------------------------------------------------------

def _mk_beq(spec, m):
    i, d, a, b, imm, t, n = spec
    ir = m.int_regs
    return lambda: t if ir[a] == ir[b] else n


def _mk_bne(spec, m):
    i, d, a, b, imm, t, n = spec
    ir = m.int_regs
    return lambda: t if ir[a] != ir[b] else n


def _mk_blt(spec, m):
    i, d, a, b, imm, t, n = spec
    ir = m.int_regs
    return lambda: t if ir[a] < ir[b] else n


def _mk_ble(spec, m):
    i, d, a, b, imm, t, n = spec
    ir = m.int_regs
    return lambda: t if ir[a] <= ir[b] else n


def _mk_bgt(spec, m):
    i, d, a, b, imm, t, n = spec
    ir = m.int_regs
    return lambda: t if ir[a] > ir[b] else n


def _mk_bge(spec, m):
    i, d, a, b, imm, t, n = spec
    ir = m.int_regs
    return lambda: t if ir[a] >= ir[b] else n


def _mk_beqz(spec, m):
    i, d, a, b, imm, t, n = spec
    ir = m.int_regs
    return lambda: t if ir[a] == 0 else n


def _mk_bnez(spec, m):
    i, d, a, b, imm, t, n = spec
    ir = m.int_regs
    return lambda: t if ir[a] != 0 else n


def _mk_j(spec, m):
    i, d, a, b, imm, t, n = spec
    return lambda: t


def _mk_jal(spec, m):
    i, d, a, b, imm, t, n = spec
    ir = m.int_regs
    if d <= 0:
        return lambda: t
    def h():
        ir[d] = n  # link register gets the fall-through index
        return t
    return h


def _mk_jr(spec, m):
    i, d, a, b, imm, t, n = spec
    ir = m.int_regs
    text_len = len(m.program.instructions)
    def h():
        target = ir[a]
        if not isinstance(target, int) or target < 0 or target > text_len:
            raise ControlFault(f"jump to invalid address {target!r}", i)
        return target
    return h


# -- System -------------------------------------------------------------

def _mk_out(spec, m):
    i, d, a, b, imm, t, n = spec
    ir = m.int_regs
    outputs = m.outputs
    def h():
        outputs.setdefault(imm, []).append(ir[a])
        return n
    return h


def _mk_fout(spec, m):
    i, d, a, b, imm, t, n = spec
    fr = m.float_regs
    outputs = m.outputs
    def h():
        outputs.setdefault(imm, []).append(fr[a])
        return n
    return h


def _mk_halt(spec, m):
    i, d, a, b, imm, t, n = spec
    text_len = len(m.program.instructions)
    return lambda: text_len


def _mk_nop(spec, m):
    i, d, a, b, imm, t, n = spec
    return lambda: n


FAST_MAKERS: Dict[Opcode, Callable] = {
    Opcode.ADD: _mk_add, Opcode.ADDI: _mk_addi, Opcode.SUB: _mk_sub,
    Opcode.MUL: _mk_mul, Opcode.DIV: _mk_div, Opcode.REM: _mk_rem,
    Opcode.AND: _mk_and, Opcode.OR: _mk_or, Opcode.XOR: _mk_xor,
    Opcode.NOR: _mk_nor, Opcode.SLL: _mk_sll, Opcode.SRL: _mk_srl,
    Opcode.SRA: _mk_sra, Opcode.SLT: _mk_slt, Opcode.SLE: _mk_sle,
    Opcode.SEQ: _mk_seq, Opcode.SNE: _mk_sne, Opcode.ANDI: _mk_andi,
    Opcode.ORI: _mk_ori, Opcode.XORI: _mk_xori, Opcode.SLLI: _mk_slli,
    Opcode.SRLI: _mk_srli, Opcode.SRAI: _mk_srai, Opcode.SLTI: _mk_slti,
    Opcode.LI: _mk_li,
    Opcode.FADD: _mk_fadd, Opcode.FSUB: _mk_fsub, Opcode.FMUL: _mk_fmul,
    Opcode.FDIV: _mk_fdiv, Opcode.FNEG: _mk_fneg, Opcode.FABS: _mk_fabs,
    Opcode.FMIN: _mk_fmin, Opcode.FMAX: _mk_fmax, Opcode.FSQRT: _mk_fsqrt,
    Opcode.FLI: _mk_fli, Opcode.FEQ: _mk_feq, Opcode.FLT: _mk_flt,
    Opcode.FLE: _mk_fle, Opcode.CVTIF: _mk_cvtif, Opcode.CVTFI: _mk_cvtfi,
    Opcode.LW: _mk_lw, Opcode.FLW: _mk_flw, Opcode.SW: _mk_sw,
    Opcode.FSW: _mk_fsw, Opcode.LA: _mk_la,
    Opcode.BEQ: _mk_beq, Opcode.BNE: _mk_bne, Opcode.BLT: _mk_blt,
    Opcode.BLE: _mk_ble, Opcode.BGT: _mk_bgt, Opcode.BGE: _mk_bge,
    Opcode.BEQZ: _mk_beqz, Opcode.BNEZ: _mk_bnez, Opcode.J: _mk_j,
    Opcode.JAL: _mk_jal, Opcode.JR: _mk_jr,
    Opcode.OUT: _mk_out, Opcode.FOUT: _mk_fout, Opcode.HALT: _mk_halt,
    Opcode.NOP: _mk_nop,
}


# ----------------------------------------------------------------------
# Compute makers: used for instructions exposed to an active injection
# plan.  Each returns a zero-argument closure producing the instruction's
# *raw* result (identical value, wrap and fault behaviour as the fast
# handler); the injection wrapper flips / records / writes back.
# ----------------------------------------------------------------------

def _ck_add(spec, m):
    i, d, a, b, imm, t, n = spec
    ir = m.int_regs
    return lambda: ((ir[a] + ir[b] + 0x80000000) & 0xFFFFFFFF) - 0x80000000


def _ck_addi(spec, m):
    i, d, a, b, imm, t, n = spec
    ir = m.int_regs
    k = imm + 0x80000000
    return lambda: ((ir[a] + k) & 0xFFFFFFFF) - 0x80000000


def _ck_sub(spec, m):
    i, d, a, b, imm, t, n = spec
    ir = m.int_regs
    return lambda: ((ir[a] - ir[b] + 0x80000000) & 0xFFFFFFFF) - 0x80000000


def _ck_mul(spec, m):
    i, d, a, b, imm, t, n = spec
    ir = m.int_regs
    return lambda: ((ir[a] * ir[b] + 0x80000000) & 0xFFFFFFFF) - 0x80000000


def _ck_div(spec, m):
    i, d, a, b, imm, t, n = spec
    ir = m.int_regs
    def c():
        divisor = ir[b]
        if divisor == 0:
            raise ArithmeticFault("integer division by zero", i)
        return ((int(ir[a] / divisor) + 0x80000000) & 0xFFFFFFFF) - 0x80000000
    return c


def _ck_rem(spec, m):
    i, d, a, b, imm, t, n = spec
    ir = m.int_regs
    def c():
        divisor = ir[b]
        if divisor == 0:
            raise ArithmeticFault("integer remainder by zero", i)
        dividend = ir[a]
        return ((dividend - int(dividend / divisor) * divisor + 0x80000000)
                & 0xFFFFFFFF) - 0x80000000
    return c


def _ck_and(spec, m):
    i, d, a, b, imm, t, n = spec
    ir = m.int_regs
    return lambda: ir[a] & ir[b]


def _ck_or(spec, m):
    i, d, a, b, imm, t, n = spec
    ir = m.int_regs
    return lambda: ir[a] | ir[b]


def _ck_xor(spec, m):
    i, d, a, b, imm, t, n = spec
    ir = m.int_regs
    return lambda: ir[a] ^ ir[b]


def _ck_nor(spec, m):
    i, d, a, b, imm, t, n = spec
    ir = m.int_regs
    return lambda: ((~(ir[a] | ir[b]) + 0x80000000) & 0xFFFFFFFF) - 0x80000000


def _ck_sll(spec, m):
    i, d, a, b, imm, t, n = spec
    ir = m.int_regs
    return lambda: (((ir[a] << (ir[b] & 31)) + 0x80000000) & 0xFFFFFFFF) - 0x80000000


def _ck_srl(spec, m):
    i, d, a, b, imm, t, n = spec
    ir = m.int_regs
    return lambda: ((((ir[a] & 0xFFFFFFFF) >> (ir[b] & 31)) + 0x80000000)
                    & 0xFFFFFFFF) - 0x80000000


def _ck_sra(spec, m):
    i, d, a, b, imm, t, n = spec
    ir = m.int_regs
    return lambda: (((ir[a] >> (ir[b] & 31)) + 0x80000000) & 0xFFFFFFFF) - 0x80000000


def _ck_slt(spec, m):
    i, d, a, b, imm, t, n = spec
    ir = m.int_regs
    return lambda: 1 if ir[a] < ir[b] else 0


def _ck_sle(spec, m):
    i, d, a, b, imm, t, n = spec
    ir = m.int_regs
    return lambda: 1 if ir[a] <= ir[b] else 0


def _ck_seq(spec, m):
    i, d, a, b, imm, t, n = spec
    ir = m.int_regs
    return lambda: 1 if ir[a] == ir[b] else 0


def _ck_sne(spec, m):
    i, d, a, b, imm, t, n = spec
    ir = m.int_regs
    return lambda: 1 if ir[a] != ir[b] else 0


def _ck_andi(spec, m):
    i, d, a, b, imm, t, n = spec
    ir = m.int_regs
    return lambda: ir[a] & imm


def _ck_ori(spec, m):
    i, d, a, b, imm, t, n = spec
    ir = m.int_regs
    return lambda: ir[a] | imm


def _ck_xori(spec, m):
    i, d, a, b, imm, t, n = spec
    ir = m.int_regs
    return lambda: ir[a] ^ imm


def _ck_slli(spec, m):
    i, d, a, b, imm, t, n = spec
    ir = m.int_regs
    sh = imm & 31
    return lambda: (((ir[a] << sh) + 0x80000000) & 0xFFFFFFFF) - 0x80000000


def _ck_srli(spec, m):
    i, d, a, b, imm, t, n = spec
    ir = m.int_regs
    sh = imm & 31
    return lambda: ((((ir[a] & 0xFFFFFFFF) >> sh) + 0x80000000)
                    & 0xFFFFFFFF) - 0x80000000


def _ck_srai(spec, m):
    i, d, a, b, imm, t, n = spec
    ir = m.int_regs
    sh = imm & 31
    return lambda: (((ir[a] >> sh) + 0x80000000) & 0xFFFFFFFF) - 0x80000000


def _ck_slti(spec, m):
    i, d, a, b, imm, t, n = spec
    ir = m.int_regs
    return lambda: 1 if ir[a] < imm else 0


def _ck_li(spec, m):
    i, d, a, b, imm, t, n = spec
    return lambda: imm


def _ck_fadd(spec, m):
    i, d, a, b, imm, t, n = spec
    fr = m.float_regs
    return lambda: fr[a] + fr[b]


def _ck_fsub(spec, m):
    i, d, a, b, imm, t, n = spec
    fr = m.float_regs
    return lambda: fr[a] - fr[b]


def _ck_fmul(spec, m):
    i, d, a, b, imm, t, n = spec
    fr = m.float_regs
    return lambda: fr[a] * fr[b]


def _ck_fdiv(spec, m):
    i, d, a, b, imm, t, n = spec
    fr = m.float_regs
    return lambda: _fdiv_value(fr[a], fr[b])


def _ck_fneg(spec, m):
    i, d, a, b, imm, t, n = spec
    fr = m.float_regs
    return lambda: -fr[a]


def _ck_fabs(spec, m):
    i, d, a, b, imm, t, n = spec
    fr = m.float_regs
    return lambda: abs(fr[a])


def _ck_fmin(spec, m):
    i, d, a, b, imm, t, n = spec
    fr = m.float_regs
    return lambda: min(fr[a], fr[b])


def _ck_fmax(spec, m):
    i, d, a, b, imm, t, n = spec
    fr = m.float_regs
    return lambda: max(fr[a], fr[b])


def _ck_fsqrt(spec, m):
    i, d, a, b, imm, t, n = spec
    fr = m.float_regs
    sqrt = math.sqrt
    def c():
        operand = fr[a]
        return sqrt(operand) if operand >= 0.0 else float("nan")
    return c


def _ck_fli(spec, m):
    i, d, a, b, imm, t, n = spec
    value = float(imm)
    return lambda: value


def _ck_feq(spec, m):
    i, d, a, b, imm, t, n = spec
    fr = m.float_regs
    return lambda: 1 if fr[a] == fr[b] else 0


def _ck_flt(spec, m):
    i, d, a, b, imm, t, n = spec
    fr = m.float_regs
    return lambda: 1 if fr[a] < fr[b] else 0


def _ck_fle(spec, m):
    i, d, a, b, imm, t, n = spec
    fr = m.float_regs
    return lambda: 1 if fr[a] <= fr[b] else 0


def _ck_cvtif(spec, m):
    i, d, a, b, imm, t, n = spec
    ir = m.int_regs
    fr = m.float_regs
    return lambda: float(ir[a])


def _ck_cvtfi(spec, m):
    i, d, a, b, imm, t, n = spec
    fr = m.float_regs
    return lambda: _cvtfi_value(fr[a])


def _ck_lw(spec, m):
    i, d, a, b, imm, t, n = spec
    ir = m.int_regs
    get = m.memory.cells.get
    def c():
        address = ir[a] + imm
        if address < -2147483648 or address >= 2147483648:
            raise MemoryFault(f"load from invalid address {address}", i)
        value = get(address, 0)
        return value if isinstance(value, int) else int(value)
    return c


def _ck_flw(spec, m):
    i, d, a, b, imm, t, n = spec
    ir = m.int_regs
    get = m.memory.cells.get
    def c():
        address = ir[a] + imm
        if address < -2147483648 or address >= 2147483648:
            raise MemoryFault(f"load from invalid address {address}", i)
        return float(get(address, 0))
    return c


def _ck_la(spec, m):
    i, d, a, b, imm, t, n = spec
    return lambda: t


def _ck_jal(spec, m):
    i, d, a, b, imm, t, n = spec
    return lambda: n  # the link value; control transfer handled by the wrapper


COMPUTE_MAKERS: Dict[Opcode, Callable] = {
    Opcode.ADD: _ck_add, Opcode.ADDI: _ck_addi, Opcode.SUB: _ck_sub,
    Opcode.MUL: _ck_mul, Opcode.DIV: _ck_div, Opcode.REM: _ck_rem,
    Opcode.AND: _ck_and, Opcode.OR: _ck_or, Opcode.XOR: _ck_xor,
    Opcode.NOR: _ck_nor, Opcode.SLL: _ck_sll, Opcode.SRL: _ck_srl,
    Opcode.SRA: _ck_sra, Opcode.SLT: _ck_slt, Opcode.SLE: _ck_sle,
    Opcode.SEQ: _ck_seq, Opcode.SNE: _ck_sne, Opcode.ANDI: _ck_andi,
    Opcode.ORI: _ck_ori, Opcode.XORI: _ck_xori, Opcode.SLLI: _ck_slli,
    Opcode.SRLI: _ck_srli, Opcode.SRAI: _ck_srai, Opcode.SLTI: _ck_slti,
    Opcode.LI: _ck_li,
    Opcode.FADD: _ck_fadd, Opcode.FSUB: _ck_fsub, Opcode.FMUL: _ck_fmul,
    Opcode.FDIV: _ck_fdiv, Opcode.FNEG: _ck_fneg, Opcode.FABS: _ck_fabs,
    Opcode.FMIN: _ck_fmin, Opcode.FMAX: _ck_fmax, Opcode.FSQRT: _ck_fsqrt,
    Opcode.FLI: _ck_fli, Opcode.FEQ: _ck_feq, Opcode.FLT: _ck_flt,
    Opcode.FLE: _ck_fle, Opcode.CVTIF: _ck_cvtif, Opcode.CVTFI: _ck_cvtfi,
    Opcode.LW: _ck_lw, Opcode.FLW: _ck_flw, Opcode.LA: _ck_la,
    Opcode.JAL: _ck_jal,
}

#: Opcodes whose result is a float (written to the float register file and
#: flipped as a 64-bit IEEE-754 pattern under injection).
FLOAT_RESULT_OPS = frozenset({
    Opcode.FADD, Opcode.FSUB, Opcode.FMUL, Opcode.FDIV, Opcode.FNEG,
    Opcode.FABS, Opcode.FMIN, Opcode.FMAX, Opcode.FSQRT, Opcode.FLI,
    Opcode.CVTIF, Opcode.FLW,
})


def _wrap_exposed(compute, is_float, d, nxt, index, opname, plan, targets, state,
                  int_regs, float_regs):
    """Injection wrapper for one exposed static instruction.

    Replicates the seed interpreter's writeback block exactly: when this
    dynamic occurrence is the plan's next target, flip one result bit and
    record the event; the exposed-dynamic counter advances on every
    occurrence; ``$0`` destination writes are discarded.
    """
    ntargets = len(targets)
    choose_bit = plan.choose_bit
    record = plan.record
    if is_float:
        def h():
            result = compute()
            tp = state[0]
            ec = state[1]
            if tp < ntargets and ec == targets[tp]:
                bit = choose_bit(FLOAT_BITS)
                corrupted = flip_float_bit(result, bit)
                record(InjectionEvent(
                    dynamic_index=ec, static_index=index, opcode=opname,
                    bit=bit, original=result, corrupted=corrupted,
                ))
                result = corrupted
                state[0] = tp + 1
            state[1] = ec + 1
            float_regs[d] = result
            return nxt
    else:
        def h():
            result = compute()
            tp = state[0]
            ec = state[1]
            if tp < ntargets and ec == targets[tp]:
                bit = choose_bit(INT_BITS)
                corrupted = flip_int_bit(result, bit)
                record(InjectionEvent(
                    dynamic_index=ec, static_index=index, opcode=opname,
                    bit=bit, original=result, corrupted=corrupted,
                ))
                result = corrupted
                state[0] = tp + 1
            state[1] = ec + 1
            if d:  # the zero register stays hard-wired
                int_regs[d] = result
            return nxt
    return h


def _wrap_exposed_model(compute, corrupt, consumes, is_float, d, nxt, index,
                        opname, plan, targets, state, int_regs, float_regs):
    """Generic injection wrapper for non-default fault models.

    Same shape as :func:`_wrap_exposed` (which stays the specialised,
    bit-identical wrapper for the default ``control-bit`` model), but the
    corruption is delegated to the model's corruptor closure, which
    returns ``(corrupted, bit, detail)`` — see
    :class:`repro.sim.models.FaultModel.make_corruptor`.

    When ``consumes`` is False (``FaultModel.consumes_result``) the
    victim's own operation is **not executed** at a fired occurrence: the
    corruptor replaces it outright, so a substituted operation can never
    surface the victim's faults (a corrupted-opcode ``DIV`` with a zero
    divisor must not raise the division fault of an operation that never
    ran).  The event's ``original`` is ``None`` in that case.
    """
    ntargets = len(targets)
    record = plan.record
    if is_float:
        def h():
            tp = state[0]
            ec = state[1]
            if tp < ntargets and ec == targets[tp]:
                original = compute() if consumes else None
                corrupted, bit, detail = corrupt(original)
                record(InjectionEvent(
                    dynamic_index=ec, static_index=index, opcode=opname,
                    bit=bit, original=original, corrupted=corrupted,
                    detail=detail,
                ))
                state[0] = tp + 1
                state[1] = ec + 1
                float_regs[d] = corrupted
            else:
                state[1] = ec + 1
                float_regs[d] = compute()
            return nxt
    else:
        def h():
            tp = state[0]
            ec = state[1]
            if tp < ntargets and ec == targets[tp]:
                original = compute() if consumes else None
                corrupted, bit, detail = corrupt(original)
                record(InjectionEvent(
                    dynamic_index=ec, static_index=index, opcode=opname,
                    bit=bit, original=original, corrupted=corrupted,
                    detail=detail,
                ))
                state[0] = tp + 1
                state[1] = ec + 1
                if d:  # the zero register stays hard-wired
                    int_regs[d] = corrupted
            else:
                state[1] = ec + 1
                if d:
                    int_regs[d] = compute()
                else:
                    compute()  # faults and conversions still happen
            return nxt
    return h


@dataclass
class ClassVectors:
    """Static classification index vectors for one decoded program.

    Each list holds the static instruction indices of one class; run
    statistics reduce to ``sum(map(exec_counts.__getitem__, vector))`` per
    class — one pass over precomputed indices instead of re-classifying
    every instruction on every run.
    """

    arithmetic: List[int] = field(default_factory=list)
    memory: List[int] = field(default_factory=list)
    branch: List[int] = field(default_factory=list)
    call: List[int] = field(default_factory=list)
    other: List[int] = field(default_factory=list)
    tagged: List[int] = field(default_factory=list)
    exposed_protected: List[int] = field(default_factory=list)
    exposed_unprotected: List[int] = field(default_factory=list)

    def exposed(self, mode: ProtectionMode) -> List[int]:
        """Static indices of the instructions exposed under ``mode``."""
        if mode is ProtectionMode.PROTECTED:
            return self.exposed_protected
        if mode is ProtectionMode.UNPROTECTED:
            return self.exposed_unprotected
        return []


@dataclass
class DecodedProgram:
    """Flat, pre-resolved form of a finalized :class:`Program`.

    Pure data (tuples, ints, bools, references to module-level maker
    functions), so it pickles into campaign worker processes along with the
    program it annotates.
    """

    program: Program
    specs: List[Spec]
    ops: List[Opcode]
    opnames: List[str]
    exposed_protected: List[bool]
    exposed_unprotected: List[bool]
    classes: ClassVectors
    tag_signature: Tuple[bool, ...]
    text_len: int
    entry_index: int

    # ------------------------------------------------------------------
    # Binding: decoded form -> per-machine threaded handler table.
    # ------------------------------------------------------------------
    def bind(self, machine) -> List[Handler]:
        """Bind fast handlers (no injection bookkeeping) to a machine."""
        specs = self.specs
        makers = FAST_MAKERS
        return [makers[op](specs[index], machine)
                for index, op in enumerate(self.ops)]

    def exposure(self, mode: ProtectionMode) -> List[bool]:
        if mode is ProtectionMode.PROTECTED:
            return self.exposed_protected
        if mode is ProtectionMode.UNPROTECTED:
            return self.exposed_unprotected
        return [False] * self.text_len

    def bind_injected(self, machine, plan: InjectionPlan,
                      state: Optional[List[int]] = None,
                      fast: Optional[List[Handler]] = None) -> List[Handler]:
        """Bind handlers with injection wrappers on exposed instructions.

        ``state`` is the wrappers' shared ``[next-target pointer,
        exposed-dynamic counter]`` list, ``[0, 0]`` for a from-scratch run.
        A caller that passes its own list may re-seed it between stretches
        of execution, which lets the fork engine (:mod:`repro.sim.fork`)
        run fast handlers up to just before a target and then hand over to
        the wrappers with the pointer and counter it derived from the
        execution counts: the plan's absolute targets still fire at exactly
        the same dynamic occurrences as in a from-scratch run.

        ``fast`` reuses an already-bound fast handler table for the same
        machine instead of binding a fresh one (the list is copied, not
        mutated).  Wrappers that have no target left to fire only advance
        the exposed counter — state evolution is identical to the fast
        table — so a caller holding ``fast`` may swap it in for any stretch
        whose exposed count it tracks itself, as the fork engine does.

        The plan's :mod:`fault model <repro.sim.models>` supplies the site
        flags and corruption: the default ``control-bit`` model keeps the
        original specialised wrapper (bit-identical to the pre-model
        engine); other result models go through the generic wrapper with a
        model-built corruptor.  State-kind models (``memory-bit``) never
        reach this method — the machine runs them with its state-corruption
        loop instead.
        """
        handlers = list(fast) if fast is not None else self.bind(machine)
        model = plan.model_impl
        if model.kind != "result":
            raise ValueError(
                f"fault model {model.name!r} corrupts machine state, not "
                f"instruction results; it cannot be bound as handlers"
            )
        default_model = model.name == "control-bit"
        flags = (self.exposure(plan.mode) if default_model
                 else model.exposure(self, plan.mode))
        targets = list(plan.targets)
        if state is None:
            state = [0, 0]  # [next-target pointer, exposed-dynamic counter]
        specs = self.specs
        ops = self.ops
        opnames = self.opnames
        ir = machine.int_regs
        fr = machine.float_regs
        for index, exposed in enumerate(flags):
            if not exposed:
                continue
            op = ops[index]
            spec = specs[index]
            compute = COMPUTE_MAKERS[op](spec, machine)
            # Exposed instructions never branch conditionally: the only
            # control-flow opcode that writes a register is JAL, whose next
            # pc is its (pre-resolved) static target.
            nxt = spec[5] if op is Opcode.JAL else spec[6]
            is_float = op in FLOAT_RESULT_OPS
            if default_model:
                handlers[index] = _wrap_exposed(
                    compute, is_float, spec[1], nxt, index,
                    opnames[index], plan, targets, state, ir, fr,
                )
            else:
                corrupt = model.make_corruptor(op, spec, machine, is_float,
                                               plan)
                handlers[index] = _wrap_exposed_model(
                    compute, corrupt, model.consumes_result, is_float,
                    spec[1], nxt, index, opnames[index], plan, targets,
                    state, ir, fr,
                )
        return handlers


def _decode(program: Program) -> DecodedProgram:
    specs: List[Spec] = []
    ops: List[Opcode] = []
    opnames: List[str] = []
    classes = ClassVectors()
    instructions = program.instructions
    for index, instruction in enumerate(instructions):
        op = instruction.op
        rd = instruction.rd.index if instruction.rd is not None else -1
        rs1 = instruction.rs1.index if instruction.rs1 is not None else -1
        rs2 = instruction.rs2.index if instruction.rs2 is not None else -1
        imm = instruction.imm
        target = 0
        if instruction.label is not None:
            if op is Opcode.LA:
                target = program.data_address(instruction.label)
            elif instruction.is_control:
                target = program.resolve_label(instruction.label)
        if op is Opcode.LI:
            imm = wrap_int(int(imm))
        elif op in (Opcode.OUT, Opcode.FOUT):
            imm = int(imm)
        specs.append((index, rd, rs1, rs2, imm, target, index + 1))
        ops.append(op)
        opnames.append(op.name)
        # Classification mirrors the seed interpreter's priority order.
        if instruction.is_arithmetic:
            classes.arithmetic.append(index)
        elif instruction.is_memory:
            classes.memory.append(index)
        elif instruction.is_branch:
            classes.branch.append(index)
        elif instruction.info.is_call:
            classes.call.append(index)
        else:
            classes.other.append(index)
        if instruction.low_reliability:
            classes.tagged.append(index)
    exposed_protected = exposure_flags(instructions, ProtectionMode.PROTECTED)
    exposed_unprotected = exposure_flags(instructions, ProtectionMode.UNPROTECTED)
    classes.exposed_protected = [i for i, f in enumerate(exposed_protected) if f]
    classes.exposed_unprotected = [i for i, f in enumerate(exposed_unprotected) if f]
    return DecodedProgram(
        program=program,
        specs=specs,
        ops=ops,
        opnames=opnames,
        exposed_protected=exposed_protected,
        exposed_unprotected=exposed_unprotected,
        classes=classes,
        tag_signature=tuple(ins.low_reliability for ins in instructions),
        text_len=len(instructions),
        entry_index=program.entry_index,
    )


def decode_program(program: Program) -> DecodedProgram:
    """Return the cached decode of ``program``, rebuilding if stale.

    The cache lives on the program object (``program._decoded_cache``) and is
    validated against the current low-reliability tag vector, so re-running
    the control-tagging pass — or flipping tags by hand in a test —
    transparently triggers a re-decode.
    """
    cached = getattr(program, "_decoded_cache", None)
    if cached is not None:
        signature = tuple(ins.low_reliability for ins in program.instructions)
        if cached.tag_signature == signature and cached.text_len == len(program.instructions):
            return cached
    decoded = _decode(program)
    program._decoded_cache = decoded
    return decoded
