"""A small-step concrete interpreter for the IR.

This gives the IR of :mod:`repro.ir` an executable semantics — operationally,
in the small-step style (one instruction at a time over an explicit machine
state), so every intermediate state is observable and a run can be stopped at
the first undefined-behavior event or at a fuel limit.  The dialect executed
is the paper's C*: the deterministic "what the hardware does" semantics that
an unoptimizing compiler produces — two's-complement wraparound, defined
oversized shifts, division by zero yielding 0 — while the
:class:`~repro.exec.ubdetect.UBMonitor` records which of those steps were
undefined in C proper.

Machine state:

* an SSA environment mapping instruction results / arguments to ``width``-bit
  unsigned bit patterns,
* a byte-addressable :class:`Memory` with a bump allocator for allocas and
  allocation records (so lifetime events can be attributed),
* an :class:`ExternalEnv` supplying deterministic values for everything the
  function cannot compute itself — loads from un-backed addresses, results
  of external calls, undef values.  The environment is seeded (for the
  differential runner) and accepts per-instruction overrides keyed by result
  name (how the witness layer injects a solver model), so the same inputs
  replayed through the original and the optimized clone of a function see
  the *same* external world — the property differential testing relies on.

Calls follow inlining-consistent semantics: callees defined in the supplied
module are interpreted recursively (sharing fuel, bounded call depth), a few
library functions (``abs``/``labs``/``memcpy``/``free``/``realloc``) get
their C meaning, and everything else is an external value — exactly the
model :mod:`repro.core.encode` uses, so a solver model round-trips.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.exec.ubdetect import UBEvent, UBMonitor, to_signed, to_unsigned
from repro.ir.function import BasicBlock, Function, Module
from repro.ir.instructions import (
    Alloca,
    BinaryOp,
    BinOpKind,
    Branch,
    Call,
    Cast,
    CastKind,
    CondBranch,
    GetElementPtr,
    ICmp,
    ICmpPred,
    Instruction,
    Load,
    Phi,
    Return,
    Select,
    Store,
    Unreachable,
)
from repro.ir.types import type_size_bytes
from repro.ir.values import Constant, GlobalVariable, UndefValue, Value


class ExecStatus(enum.Enum):
    """How a concrete run ended."""

    RETURNED = "returned"
    STOPPED_ON_UB = "stopped on undefined behavior"
    OUT_OF_FUEL = "out of fuel"
    TRAPPED = "trapped"            # malformed IR or interpreter limit


class InterpTrap(Exception):
    """Raised internally when execution cannot continue."""


@dataclass
class ExecResult:
    """Outcome of one concrete run."""

    status: ExecStatus
    value: Optional[int] = None          # unsigned bit pattern of the return
    width: int = 0                       # bit width of the return value
    events: List[UBEvent] = field(default_factory=list)
    steps: int = 0
    block_trace: List[str] = field(default_factory=list)
    error: str = ""

    @property
    def returned(self) -> bool:
        return self.status is ExecStatus.RETURNED

    @property
    def ub_kinds(self) -> Set:
        return {event.kind for event in self.events}

    def observable(self) -> Tuple[str, Optional[int]]:
        """The externally visible outcome, for divergence comparison."""
        return (self.status.value, self.value)

    def signed_value(self) -> Optional[int]:
        if self.value is None or self.width == 0:
            return self.value
        return to_signed(self.value, self.width)

    def describe(self) -> str:
        out = [f"status: {self.status.value}"]
        if self.value is not None:
            out.append(f"returned {self.signed_value()} "
                       f"(0x{self.value:x}, i{self.width})")
        out.append(f"{self.steps} steps over blocks "
                   f"{' -> '.join(self.block_trace) or '<none>'}")
        for event in self.events:
            out.append(f"UB: {event.describe()}")
        if self.error:
            out.append(f"error: {self.error}")
        return "\n".join(out)


def seed_hash(seed: int, key: str, width: int) -> int:
    """The deterministic seed-derivation primitive of the exec subsystem.

    One definition on purpose: the external environment and the
    differential runner's argument vectors must draw from the same stream,
    or seeded runs stop being comparable.
    """
    digest = hashlib.sha256(f"{seed}:{key}".encode()).digest()
    return int.from_bytes(digest[:8], "little") & ((1 << width) - 1)


class ExternalEnv:
    """Deterministic source of every value the program cannot compute.

    ``overrides`` maps instruction result names (and ``arg.<name>`` /
    ``undef.<name>`` keys) to concrete values; the witness layer fills it
    from a solver model.  Everything else is derived from ``seed`` by
    hashing, so two runs with the same environment see the same world.
    ``zero_fill`` makes un-overridden values 0 instead of hash noise, which
    matches the solver's default model completion.
    """

    def __init__(self, seed: int = 0, overrides: Optional[Dict[str, int]] = None,
                 zero_fill: bool = True) -> None:
        self.seed = seed
        self.overrides: Dict[str, int] = dict(overrides or {})
        self.zero_fill = zero_fill

    def _hash(self, key: str, width: int) -> int:
        return seed_hash(self.seed, key, width)

    def value_for(self, key: str, width: int) -> int:
        if key in self.overrides:
            return to_unsigned(self.overrides[key], width)
        if self.zero_fill:
            return 0
        return self._hash(key, width)

    def byte_at(self, address: int) -> int:
        if self.zero_fill:
            return 0
        return self._hash(f"mem@{address}", 8)


@dataclass
class Allocation:
    """One block of interpreter-owned memory."""

    base: int
    size: int
    name: str = ""
    freed: bool = False


class Memory:
    """Byte-addressable little-endian memory with a bump allocator.

    Addresses never handed out by :meth:`allocate` (e.g. pointer bit patterns
    chosen by the solver) are *external*: loads from them fall back to the
    :class:`ExternalEnv`, stores to them are remembered in the same byte
    store, so the program observes a consistent world either way.
    """

    #: Allocas live well away from 0 so null checks behave.
    BASE_ADDRESS = 0x10_0000

    def __init__(self, env: ExternalEnv) -> None:
        self.env = env
        self._bytes: Dict[int, int] = {}
        self._next = self.BASE_ADDRESS
        self.allocations: List[Allocation] = []

    def allocate(self, size: int, name: str = "") -> int:
        size = max(1, size)
        base = self._next
        self._next += (size + 15) & ~15
        self.allocations.append(Allocation(base, size, name))
        return base

    def store(self, address: int, value: int, nbytes: int) -> None:
        for i in range(nbytes):
            self._bytes[(address + i) & ((1 << 64) - 1)] = (value >> (8 * i)) & 0xFF

    def load(self, address: int, nbytes: int) -> Tuple[int, bool]:
        """Read ``nbytes`` little-endian; False when any byte was external."""
        value = 0
        backed = True
        for i in range(nbytes):
            addr = (address + i) & ((1 << 64) - 1)
            byte = self._bytes.get(addr)
            if byte is None:
                byte = self.env.byte_at(addr)
                backed = False
            value |= byte << (8 * i)
        return value, backed


class Interpreter:
    """Interprets one function call (and, transitively, defined callees)."""

    LIBRARY_CALLEES = {"abs", "labs", "memcpy", "free", "realloc"}
    MEMCPY_CAP = 4096              # bytes actually copied for huge lengths

    def __init__(self, function: Function, module: Optional[Module] = None,
                 env: Optional[ExternalEnv] = None, fuel: int = 50_000,
                 stop_on_ub: bool = False, max_call_depth: int = 8) -> None:
        self.function = function
        self.module = module
        self.env = env if env is not None else ExternalEnv()
        self.fuel = fuel
        self.stop_on_ub = stop_on_ub
        self.max_call_depth = max_call_depth
        self.monitor = UBMonitor()
        self.memory = Memory(self.env)
        self._globals: Dict[str, int] = {}
        self._steps = 0
        self._trace: List[str] = []

    # -- public API -------------------------------------------------------------

    def run(self, args: Sequence[int] = ()) -> ExecResult:
        """Execute the function on concrete ``args`` (signed ints accepted)."""
        try:
            value, width = self._call(self.function, list(args), depth=0)
            status = ExecStatus.RETURNED
            error = ""
        except _StopOnUB:
            value, width, error = None, 0, ""
            status = ExecStatus.STOPPED_ON_UB
        except _OutOfFuel:
            value, width, error = None, 0, ""
            status = ExecStatus.OUT_OF_FUEL
        except InterpTrap as trap:
            value, width = None, 0
            status, error = ExecStatus.TRAPPED, str(trap)
        return ExecResult(status=status, value=value, width=width,
                          events=list(self.monitor.events), steps=self._steps,
                          block_trace=list(self._trace), error=error)

    # -- the machine ------------------------------------------------------------

    def _call(self, function: Function, args: List[int],
              depth: int) -> Tuple[Optional[int], int]:
        if depth > self.max_call_depth:
            raise InterpTrap(f"call depth exceeds {self.max_call_depth}")
        if not function.blocks:
            raise InterpTrap(f"function @{function.name} has no body")
        values: Dict[int, int] = {}
        for argument, value in zip(function.arguments, args):
            width = argument.type.bit_width
            values[id(argument)] = to_unsigned(value, width)
        for argument in function.arguments[len(args):]:
            width = argument.type.bit_width
            values[id(argument)] = self.env.value_for(
                f"arg.{argument.name}", width)

        block = function.entry
        previous: Optional[BasicBlock] = None
        while True:
            self._trace.append(block.name)
            self._resolve_phis(block, previous, values)
            transfer = None
            for inst in block.instructions:
                if isinstance(inst, Phi):
                    continue
                self._tick()
                self.monitor.begin_step(self._steps)
                transfer = self._execute(inst, values, depth)
                if transfer is not None:
                    break
            if transfer is None:
                raise InterpTrap(f"block %{block.name} fell through")
            kind, payload = transfer
            if kind == "return":
                return payload
            previous, block = block, payload

    def _resolve_phis(self, block: BasicBlock, previous: Optional[BasicBlock],
                      values: Dict[int, int]) -> None:
        phis = block.phis()
        if not phis:
            return
        resolved: List[Tuple[Phi, int]] = []
        for phi in phis:
            self._tick()
            incoming = phi.incoming_for(previous) if previous is not None else None
            if incoming is None:
                raise InterpTrap(
                    f"phi %{phi.name} has no incoming value for predecessor "
                    f"%{previous.name if previous else '<entry>'}")
            resolved.append((phi, self._value(incoming, values)))
        # Phis read their operands simultaneously, before any is written.
        for phi, value in resolved:
            values[id(phi)] = to_unsigned(value, phi.type.bit_width)

    def _execute(self, inst: Instruction, values: Dict[int, int],
                 depth: int):
        if isinstance(inst, BinaryOp):
            values[id(inst)] = self._binop(inst, values)
        elif isinstance(inst, ICmp):
            values[id(inst)] = self._icmp(inst, values)
        elif isinstance(inst, Select):
            cond = self._value(inst.condition, values)
            chosen = inst.on_true if cond != 0 else inst.on_false
            values[id(inst)] = to_unsigned(self._value(chosen, values),
                                           inst.type.bit_width)
        elif isinstance(inst, Cast):
            values[id(inst)] = self._cast(inst, values)
        elif isinstance(inst, Alloca):
            values[id(inst)] = self.memory.allocate(
                type_size_bytes(inst.allocated_type), inst.name)
        elif isinstance(inst, Load):
            values[id(inst)] = self._load(inst, values)
        elif isinstance(inst, Store):
            self._store(inst, values)
        elif isinstance(inst, GetElementPtr):
            values[id(inst)] = self._gep(inst, values)
        elif isinstance(inst, Call):
            result = self._call_instruction(inst, values, depth)
            if not inst.type.is_void():
                values[id(inst)] = result
        elif isinstance(inst, Branch):
            return ("branch", inst.target)
        elif isinstance(inst, CondBranch):
            cond = self._value(inst.condition, values)
            return ("branch", inst.if_true if cond != 0 else inst.if_false)
        elif isinstance(inst, Return):
            if inst.value is None:
                return ("return", (None, 0))
            width = inst.value.type.bit_width
            return ("return", (to_unsigned(self._value(inst.value, values),
                                           width), width))
        elif isinstance(inst, Unreachable):
            raise InterpTrap("executed an unreachable instruction")
        else:
            raise InterpTrap(f"cannot interpret {type(inst).__name__}")
        return None

    # -- operators ----------------------------------------------------------------

    def _binop(self, inst: BinaryOp, values: Dict[int, int]) -> int:
        width = inst.type.bit_width
        lhs = to_unsigned(self._value(inst.lhs, values), width)
        rhs = to_unsigned(self._value(inst.rhs, values), width)
        self.monitor.check_binop(inst, lhs, rhs)
        self._maybe_stop()
        slhs, srhs = to_signed(lhs, width), to_signed(rhs, width)
        kind = inst.kind
        if kind is BinOpKind.ADD:
            result = lhs + rhs
        elif kind is BinOpKind.SUB:
            result = lhs - rhs
        elif kind is BinOpKind.MUL:
            result = lhs * rhs
        elif kind is BinOpKind.SDIV:
            result = 0 if rhs == 0 else _truncdiv(slhs, srhs)
        elif kind is BinOpKind.UDIV:
            result = 0 if rhs == 0 else lhs // rhs
        elif kind is BinOpKind.SREM:
            result = 0 if rhs == 0 else slhs - srhs * _truncdiv(slhs, srhs)
        elif kind is BinOpKind.UREM:
            result = 0 if rhs == 0 else lhs % rhs
        elif kind is BinOpKind.SHL:
            result = lhs << rhs if rhs < width else 0
        elif kind is BinOpKind.LSHR:
            result = lhs >> rhs if rhs < width else 0
        elif kind is BinOpKind.ASHR:
            if rhs < width:
                result = slhs >> rhs
            else:
                result = -1 if slhs < 0 else 0
        elif kind is BinOpKind.AND:
            result = lhs & rhs
        elif kind is BinOpKind.OR:
            result = lhs | rhs
        elif kind is BinOpKind.XOR:
            result = lhs ^ rhs
        else:
            raise InterpTrap(f"unhandled binary op {kind}")
        return to_unsigned(result, width)

    _ICMP_SIGNED = {ICmpPred.SLT, ICmpPred.SLE, ICmpPred.SGT, ICmpPred.SGE}

    def _icmp(self, inst: ICmp, values: Dict[int, int]) -> int:
        width = inst.lhs.type.bit_width
        lhs = to_unsigned(self._value(inst.lhs, values), width)
        rhs = to_unsigned(self._value(inst.rhs, values), width)
        if inst.pred in self._ICMP_SIGNED:
            lhs, rhs = to_signed(lhs, width), to_signed(rhs, width)
        pred = inst.pred
        if pred is ICmpPred.EQ:
            result = lhs == rhs
        elif pred is ICmpPred.NE:
            result = lhs != rhs
        elif pred in (ICmpPred.ULT, ICmpPred.SLT):
            result = lhs < rhs
        elif pred in (ICmpPred.ULE, ICmpPred.SLE):
            result = lhs <= rhs
        elif pred in (ICmpPred.UGT, ICmpPred.SGT):
            result = lhs > rhs
        else:
            result = lhs >= rhs
        return int(result)

    def _cast(self, inst: Cast, values: Dict[int, int]) -> int:
        source_width = inst.value.type.bit_width
        target_width = inst.type.bit_width
        source = to_unsigned(self._value(inst.value, values), source_width)
        if inst.kind is CastKind.SEXT:
            return to_unsigned(to_signed(source, source_width), target_width)
        # trunc / zext / ptrtoint / inttoptr / bitcast: the bit pattern,
        # truncated or zero-extended to the target width.
        return to_unsigned(source, target_width)

    # -- memory -------------------------------------------------------------------

    def _load(self, inst: Load, values: Dict[int, int]) -> int:
        address = self._value(inst.pointer, values)
        root, root_value = self._pointer_root(inst.pointer, values)
        self.monitor.check_access(inst, root_value, address,
                                  root_name=root.short_name())
        self._maybe_stop()
        width = inst.type.bit_width
        nbytes = type_size_bytes(inst.type)
        value, backed = self.memory.load(address, nbytes)
        if not backed:
            key = self._key(inst)
            if key in self.env.overrides:
                return to_unsigned(self.env.overrides[key], width)
            if not self.env.zero_fill:
                return self.env.value_for(key, width)
        return to_unsigned(value, width)

    def _store(self, inst: Store, values: Dict[int, int]) -> None:
        address = self._value(inst.pointer, values)
        root, root_value = self._pointer_root(inst.pointer, values)
        self.monitor.check_access(inst, root_value, address,
                                  root_name=root.short_name())
        self._maybe_stop()
        value = self._value(inst.value, values)
        self.memory.store(address, value, type_size_bytes(inst.value.type))

    def _gep(self, inst: GetElementPtr, values: Dict[int, int]) -> int:
        width = inst.type.bit_width
        pointer = to_unsigned(self._value(inst.pointer, values), width)
        index = to_unsigned(self._value(inst.index, values), width)
        self.monitor.check_gep(inst, pointer, index, width)
        self._maybe_stop()
        return to_unsigned(pointer + to_signed(index, width) * inst.element_size,
                           width)

    def _pointer_root(self, pointer: Value,
                      values: Dict[int, int]) -> Tuple[Value, int]:
        """The GEP/cast chain root and its concrete value (for null/UAF checks)."""
        current = pointer
        while True:
            if isinstance(current, GetElementPtr):
                current = current.pointer
            elif isinstance(current, Cast) and current.value.type.is_pointer():
                current = current.value
            else:
                return current, self._value(current, values)

    # -- calls --------------------------------------------------------------------

    def _call_instruction(self, inst: Call, values: Dict[int, int],
                          depth: int) -> int:
        args = [self._value(arg, values) for arg in inst.args]
        width = inst.type.bit_width if not inst.type.is_void() else 8

        if inst.callee in ("abs", "labs") and args:
            arg_width = inst.args[0].type.bit_width
            self.monitor.check_abs(inst, args[0], arg_width)
            self._maybe_stop()
            signed = to_signed(args[0], arg_width)
            return to_unsigned(-signed if signed < 0 else signed, width)
        if inst.callee == "memcpy" and len(args) >= 3:
            self.monitor.check_memcpy(inst, args[0], args[1], args[2])
            self._maybe_stop()
            for i in range(min(args[2], self.MEMCPY_CAP)):
                byte, _backed = self.memory.load(args[1] + i, 1)
                self.memory.store(args[0] + i, byte, 1)
            return to_unsigned(args[0], width)
        if inst.callee == "free" and args:
            self.monitor.note_free(inst, args[0])
            for allocation in self.memory.allocations:
                if allocation.base == args[0]:
                    allocation.freed = True
            return 0
        if inst.callee == "realloc" and args:
            result = self._external_value(inst, width)
            self.monitor.note_realloc(inst, args[0], result)
            return result

        key = self._key(inst)
        if key in self.env.overrides:
            return to_unsigned(self.env.overrides[key], width)
        if self.module is not None:
            callee = self.module.get_function(inst.callee)
            if callee is not None and not callee.is_declaration:
                value, callee_width = self._call(callee, args, depth + 1)
                if value is None:
                    return 0
                return to_unsigned(to_signed(value, max(1, callee_width)), width)
        return self._external_value(inst, width)

    def _external_value(self, inst: Instruction, width: int) -> int:
        return self.env.value_for(self._key(inst), width)

    # -- plumbing -----------------------------------------------------------------

    def _value(self, value: Value, values: Dict[int, int]) -> int:
        if isinstance(value, Constant):
            return value.as_unsigned()
        known = values.get(id(value))
        if known is not None:
            return known
        if isinstance(value, UndefValue):
            result = self.env.value_for(f"undef.{value.name}",
                                        value.type.bit_width)
            values[id(value)] = result
            return result
        if isinstance(value, GlobalVariable):
            address = self._globals.get(value.name)
            if address is None:
                address = self.memory.allocate(8, name=f"@{value.name}")
                self._globals[value.name] = address
            values[id(value)] = address
            return address
        raise InterpTrap(f"use of undefined value {value.short_name()}")

    def _key(self, inst: Instruction) -> str:
        """Stable per-instruction key for the external environment.

        Result names are unique within a function and survive cloning and
        optimization, so the original and the optimized copy of a function
        draw the same external values.
        """
        if inst.name:
            return inst.name
        block = inst.parent
        if block is not None:
            return f"@{block.name}#{block.instructions.index(inst)}"
        return f"@?{inst.opcode()}"

    def _tick(self) -> None:
        self._steps += 1
        if self._steps > self.fuel:
            raise _OutOfFuel()

    def _maybe_stop(self) -> None:
        if self.stop_on_ub and self.monitor.events:
            raise _StopOnUB()


class _OutOfFuel(Exception):
    pass


class _StopOnUB(Exception):
    pass


def _truncdiv(a: int, b: int) -> int:
    """C's truncation-toward-zero signed division."""
    quotient = abs(a) // abs(b)
    return -quotient if (a < 0) != (b < 0) else quotient


def run_function(function: Function, args: Sequence[int] = (),
                 module: Optional[Module] = None,
                 env: Optional[ExternalEnv] = None,
                 fuel: int = 50_000, stop_on_ub: bool = False) -> ExecResult:
    """One-shot convenience wrapper around :class:`Interpreter`."""
    interpreter = Interpreter(function, module=module, env=env, fuel=fuel,
                              stop_on_ub=stop_on_ub)
    return interpreter.run(args)
