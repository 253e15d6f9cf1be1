"""Seeded generation of MiniC translation units and raw IR functions.

The corpus snippets (:mod:`repro.corpus.snippets`) are hand-written; this
module is the scenario factory that produces programs nobody wrote by hand.
Every generator draws exclusively from one :class:`random.Random` instance,
so a campaign seed determines every program bit for bit — the property the
fuzz benchmarks assert end to end (docs/FUZZ.md).

Scenario classes are keyed to the paper's UB taxonomy (Figure 3): signed
overflow on arithmetic chains, pointer/array indexing with the guards in
varying orders, oversized shifts, struct field access before/after the null
check, division ordering, and loops whose bounds come from macro expansion
(including a variant whose *guard* is macro-expanded and must therefore be
suppressed by the §4.2 compiler-origin filter).  Each scenario emits both
unstable and stable-by-construction variants, so a campaign measures false
positives as well as detection.

Templates carry a ``{S}`` placeholder in every global identifier, exactly
like :class:`~repro.corpus.snippets.Snippet`; the campaign renders them
with a per-program tag so one translation unit can never collide with
another, and the campaign strips the tag again from a minimized case so
that one reproducer stands for every program of its shape.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.core.ubconditions import UBKind
from repro.ir.builder import IRBuilder
from repro.ir.function import Function, Module
from repro.ir.instructions import ICmpPred
from repro.ir.types import FunctionType, IntType
from repro.ir.values import Constant


@dataclass
class GeneratedProgram:
    """One generated translation unit (MiniC source or a raw IR spec)."""

    index: int
    name: str                        # engine unit name, e.g. "fuzz-00017-..."
    scenario: str
    mode: str                        # "minic" | "ir"
    tag: str                         # identifier suffix rendered into names
    expected_unstable: bool
    expected_kinds: Tuple[UBKind, ...] = ()
    source: Optional[str] = None     # rendered MiniC (mode == "minic")
    ir_spec: Optional[Dict[str, object]] = None   # rebuild recipe (mode == "ir")

    @property
    def template(self) -> str:
        """The de-tagged source — the snippet-compatible ``{S}`` form."""
        if self.source is None:
            return ""
        return self.source.replace(self.tag, "{S}")

    def build_module(self) -> Module:
        """(Re)build the IR module of an IR-mode program, fresh each call.

        The checker mutates the module it analyzes (inlining), so every
        consumer — checker, differential runner, reducer — builds its own
        copy from the deterministic spec.
        """
        if self.ir_spec is None:
            raise ValueError(f"{self.name} is not an IR-mode program")
        return build_ir_module(self.ir_spec)


# ---------------------------------------------------------------------------
# MiniC scenario generators
# ---------------------------------------------------------------------------
#
# Each generator returns (template, expected_unstable, expected_kinds).  The
# parameter pools are deliberately small: distinct programs then collapse to
# a manageable number of de-tagged shapes, which is what keeps campaign-wide
# reduction memoisable.

_ADD_CONSTS = (1, 7, 16, 100, 1024)
_ARRAY_SIZES = (8, 16, 32)
_SHIFT_WIDTH = 32
_CAPS = (8, 16, 64)


def _gen_signed_overflow_chain(rng: random.Random) -> Tuple[str, bool, Tuple[UBKind, ...]]:
    length = rng.randint(1, 3)
    consts = [rng.choice(_ADD_CONSTS) for _ in range(length)]
    chain = ["    int t0 = x + %d;" % consts[0]]
    for i, c in enumerate(consts[1:], start=1):
        chain.append("    int t%d = t%d + %d;" % (i, i - 1, c))
    last = "t%d" % (length - 1)
    anchor = "x" if rng.random() < 0.7 else "t0"
    stable = rng.random() < 0.3
    if stable and anchor == "x":
        limit = 2147483647 - sum(consts)
        body = ["    if (x > %d)" % limit,
                "        return -1;",
                "    if (x < 0)",
                "        return -1;"] + chain + [
                "    if (%s < x)" % last,
                "        return -1;",
                "    return %s;" % last]
        expected = False
    else:
        body = chain + [
            "    if (%s < %s)" % (last, anchor),
            "        return -1;",
            "    return %s;" % last]
        # A length-1 chain anchored at t0 degenerates to `t0 < t0`, which
        # folds to false at term construction (no UB assumption needed), so
        # the checker rightly stays silent on it.
        expected = anchor != last
    source = "int fuzz_soc_{S}(int x, int y) {\n" + "\n".join(body) + "\n}\n"
    return source, expected, (UBKind.SIGNED_OVERFLOW,)


def _gen_pointer_guard_order(rng: random.Random) -> Tuple[str, bool, Tuple[UBKind, ...]]:
    stable = rng.random() < 0.3
    if stable:
        source = (
            "int fuzz_ptr_{S}(char *buf, char *end, long n) {\n"
            "    if (n < 0 || n >= end - buf)\n"
            "        return -1;\n"
            "    return 0;\n"
            "}\n")
        return source, False, (UBKind.POINTER_OVERFLOW,)
    wrap = "    if (buf + len < buf)\n        return -1;"
    bound = "    if (buf + len >= end)\n        return -1;"
    guards = [wrap, bound] if rng.random() < 0.5 else [bound, wrap]
    ret = rng.choice(("0", "1"))
    source = ("int fuzz_ptr_{S}(char *buf, char *end, unsigned int len) {\n"
              + "\n".join(guards)
              + "\n    return %s;\n}\n" % ret)
    return source, True, (UBKind.POINTER_OVERFLOW,)


def _gen_array_index_guard(rng: random.Random) -> Tuple[str, bool, Tuple[UBKind, ...]]:
    size = rng.choice(_ARRAY_SIZES)
    store_index = rng.randrange(size)
    store_value = rng.choice(_ADD_CONSTS)
    use = "    int v = tab[i];"
    guard = "    if (i < 0 || i >= %d)\n        return -1;" % size
    guard_first = rng.random() < 0.3
    lines = ["    int tab[%d];" % size,
             "    tab[%d] = %d;" % (store_index, store_value)]
    if guard_first:
        lines += [guard, use]
    else:
        lines += [use, guard]
    lines.append("    return v;")
    source = ("int fuzz_idx_{S}(int i) {\n" + "\n".join(lines) + "\n}\n")
    return source, not guard_first, (UBKind.BUFFER_OVERFLOW,)


def _gen_oversized_shift(rng: random.Random) -> Tuple[str, bool, Tuple[UBKind, ...]]:
    base = rng.choice((1, 3))
    ext4_style = rng.random() < 0.3
    if ext4_style:
        source = (
            "int fuzz_shift_{S}(int bits) {\n"
            "    if (!(%d << bits))\n"
            "        return -22;\n"
            "    return %d << bits;\n"
            "}\n" % (base, base))
        return source, True, (UBKind.OVERSIZED_SHIFT,)
    guard_first = rng.random() < 0.3
    compute = "    unsigned int mask = %du << bits;" % base
    guard = "    if (bits >= %du)\n        return 0u;" % _SHIFT_WIDTH
    body = [guard, compute] if guard_first else [compute, guard]
    body.append("    return mask;")
    source = ("unsigned int fuzz_shift_{S}(unsigned int bits) {\n"
              + "\n".join(body) + "\n}\n")
    return source, not guard_first, (UBKind.OVERSIZED_SHIFT,)


def _gen_struct_field_access(rng: random.Random) -> Tuple[str, bool, Tuple[UBKind, ...]]:
    fields = rng.randint(2, 4)
    target = rng.randrange(fields)
    members = " ".join("int f%d;" % i for i in range(fields))
    guard = rng.choice(("!p", "p == 0"))
    guard_first = rng.random() < 0.3
    deref = "    int v = p->f%d;" % target
    check = "    if (%s)\n        return -1;" % guard
    body = [check, deref] if guard_first else [deref, check]
    source = (
        "struct fuzz_node_{S} { %s };\n"
        "int fuzz_sf_{S}(struct fuzz_node_{S} *p) {\n" % members
        + "\n".join(body)
        + "\n    return v;\n}\n")
    return source, not guard_first, (UBKind.NULL_DEREF,)


def _gen_macro_loop_bounds(rng: random.Random) -> Tuple[str, bool, Tuple[UBKind, ...]]:
    cap = rng.choice(_CAPS)
    variant = rng.random()
    if variant < 0.3:
        # Stable: just the macro-bounded loop, nothing to flag.
        source = (
            "#define FUZZ_CAP_{S} %d\n"
            "int fuzz_loop_{S}(int n) {\n"
            "    int total = 0;\n"
            "    for (int i = 0; i < FUZZ_CAP_{S}; i = i + 1)\n"
            "        total = total + 1;\n"
            "    return total;\n"
            "}\n" % cap)
        return source, False, (UBKind.SIGNED_OVERFLOW,)
    if variant < 0.55:
        # The guard itself is macro-expanded: the idiom is unstable, but
        # every token is compiler-generated, so §4.2 suppresses the report.
        source = (
            "#define FUZZ_GUARD_{S}(v) if ((v) + %d < (v)) return -1;\n"
            "int fuzz_mloop_{S}(int n) {\n"
            "    FUZZ_GUARD_{S}(n)\n"
            "    return n + %d;\n"
            "}\n" % (cap, cap))
        return source, False, (UBKind.SIGNED_OVERFLOW,)
    # Unstable: user-written overflow check against the macro-expanded cap,
    # ahead of the macro-bounded loop that consumes it.
    source = (
        "#define FUZZ_CAP_{S} %d\n"
        "int fuzz_loop_{S}(int n) {\n"
        "    int total = 0;\n"
        "    if (n + FUZZ_CAP_{S} < n)\n"
        "        return -1;\n"
        "    for (int i = 0; i < FUZZ_CAP_{S}; i = i + 1)\n"
        "        total = total + 1;\n"
        "    return total + n;\n"
        "}\n" % cap)
    return source, True, (UBKind.SIGNED_OVERFLOW,)


def _gen_division_order(rng: random.Random) -> Tuple[str, bool, Tuple[UBKind, ...]]:
    op = rng.choice(("/", "%"))
    guard_first = rng.random() < 0.3
    compute = "    int mean = total %s count;" % op
    guard = "    if (count == 0)\n        return 0;"
    body = [guard, compute] if guard_first else [compute, guard]
    source = ("int fuzz_div_{S}(int total, int count) {\n"
              + "\n".join(body)
              + "\n    return mean;\n}\n")
    return source, not guard_first, (UBKind.DIV_BY_ZERO,)


# ---------------------------------------------------------------------------
# IR scenario generators (mode "ir": modules built via ir.builder)
# ---------------------------------------------------------------------------

_IR_WIDTHS = (16, 32, 64)


def _spec_ir_overflow_chain(rng: random.Random) -> Tuple[Dict[str, object], bool,
                                                         Tuple[UBKind, ...]]:
    width = rng.choice(_IR_WIDTHS)
    length = rng.randint(1, 3)
    consts = [rng.choice(_ADD_CONSTS) for _ in range(length)]
    guard_first = rng.random() < 0.3
    spec = {"scenario": "ir_overflow_chain", "width": width,
            "consts": consts, "guard_first": guard_first}
    return spec, not guard_first, (UBKind.SIGNED_OVERFLOW,)


def _spec_ir_oversized_shift(rng: random.Random) -> Tuple[Dict[str, object], bool,
                                                          Tuple[UBKind, ...]]:
    width = rng.choice(_IR_WIDTHS)
    base = rng.choice((1, 3))
    guard_first = rng.random() < 0.3
    spec = {"scenario": "ir_oversized_shift", "width": width,
            "base": base, "guard_first": guard_first}
    return spec, not guard_first, (UBKind.OVERSIZED_SHIFT,)


def build_ir_module(spec: Dict[str, object]) -> Module:
    """Build the IR module described by a generator spec (deterministic)."""
    scenario = spec["scenario"]
    tag = spec.get("tag", "s0")
    if scenario == "ir_overflow_chain":
        return _build_ir_overflow_chain(spec, str(tag))
    if scenario == "ir_oversized_shift":
        return _build_ir_oversized_shift(spec, str(tag))
    raise ValueError(f"unknown IR scenario {scenario!r}")


def _build_ir_overflow_chain(spec: Dict[str, object], tag: str) -> Module:
    width = int(spec["width"])
    consts = list(spec["consts"])                      # type: ignore[arg-type]
    guard_first = bool(spec["guard_first"])
    ity = IntType(width, signed=True)
    name = f"fuzz_ir_soc_{tag}"
    module = Module(name)
    fn = Function(name, FunctionType(ity, (ity,)), ["x"])
    module.add_function(fn)
    b = IRBuilder(fn)
    b.set_location(f"{name}.c", 2)
    x = fn.arguments[0]
    if guard_first:
        # Stable shape: branch on the argument range before any arithmetic.
        limit = (1 << (width - 1)) - 1 - sum(consts)
        over = b.icmp(ICmpPred.SGT, x, Constant(ity, limit & ((1 << width) - 1)))
        bail, cont = b.new_block("bail"), b.new_block("cont")
        b.cond_br(over, bail, cont)
        b.set_block(bail)
        b.ret(Constant(ity, (1 << width) - 1))
        b.set_block(cont)
        value = x
        for c in consts:
            value = b.add(value, Constant(ity, c))
        b.ret(value)
        return module
    value = x
    for c in consts:
        value = b.add(value, Constant(ity, c))
    wrapped = b.icmp(ICmpPred.SLT, value, x)
    bail, cont = b.new_block("bail"), b.new_block("cont")
    b.cond_br(wrapped, bail, cont)
    b.set_block(bail)
    b.ret(Constant(ity, (1 << width) - 1))             # -1 as a bit pattern
    b.set_block(cont)
    b.ret(value)
    return module


def _build_ir_oversized_shift(spec: Dict[str, object], tag: str) -> Module:
    width = int(spec["width"])
    base = int(spec["base"])
    guard_first = bool(spec["guard_first"])
    uty = IntType(width, signed=False)
    name = f"fuzz_ir_shift_{tag}"
    module = Module(name)
    fn = Function(name, FunctionType(uty, (uty,)), ["bits"])
    module.add_function(fn)
    b = IRBuilder(fn)
    b.set_location(f"{name}.c", 2)
    bits = fn.arguments[0]
    if guard_first:
        guard = b.icmp(ICmpPred.UGE, bits, Constant(uty, width))
        oob, ok = b.new_block("oob"), b.new_block("ok")
        b.cond_br(guard, oob, ok)
        b.set_block(oob)
        b.ret(Constant(uty, 0))
        b.set_block(ok)
        b.ret(b.shl(Constant(uty, base), bits))
        return module
    mask = b.shl(Constant(uty, base), bits)
    guard = b.icmp(ICmpPred.UGE, bits, Constant(uty, width))
    oob, ok = b.new_block("oob"), b.new_block("ok")
    b.cond_br(guard, oob, ok)
    b.set_block(oob)
    b.ret(Constant(uty, 0))
    b.set_block(ok)
    b.ret(mask)
    return module


# ---------------------------------------------------------------------------
# The generator
# ---------------------------------------------------------------------------

_MINIC_SCENARIOS: Dict[str, Callable[[random.Random],
                                     Tuple[str, bool, Tuple[UBKind, ...]]]] = {
    "signed_overflow_chain": _gen_signed_overflow_chain,
    "pointer_guard_order": _gen_pointer_guard_order,
    "array_index_guard": _gen_array_index_guard,
    "oversized_shift": _gen_oversized_shift,
    "struct_field_access": _gen_struct_field_access,
    "macro_loop_bounds": _gen_macro_loop_bounds,
    "division_order": _gen_division_order,
}

_IR_SCENARIOS: Dict[str, Callable[[random.Random],
                                  Tuple[Dict[str, object], bool,
                                        Tuple[UBKind, ...]]]] = {
    "ir_overflow_chain": _spec_ir_overflow_chain,
    "ir_oversized_shift": _spec_ir_oversized_shift,
}

#: All scenario class names, MiniC first — the campaign schedules over these.
ALL_SCENARIOS: Tuple[str, ...] = tuple(_MINIC_SCENARIOS) + tuple(_IR_SCENARIOS)


class ProgramGenerator:
    """Draws programs from the scenario classes, one rng for everything."""

    def __init__(self, rng: random.Random,
                 scenarios: Optional[Sequence[str]] = None) -> None:
        self.rng = rng
        self.scenarios: Tuple[str, ...] = tuple(scenarios) if scenarios \
            else ALL_SCENARIOS
        unknown = [s for s in self.scenarios if s not in _MINIC_SCENARIOS
                   and s not in _IR_SCENARIOS]
        if unknown:
            raise ValueError(f"unknown scenarios: {unknown}")

    def generate(self, index: int, scenario: Optional[str] = None) -> GeneratedProgram:
        """Generate program number ``index`` (optionally of a fixed scenario)."""
        if scenario is None:
            scenario = self.rng.choice(self.scenarios)
        tag = f"s{index}"
        name = f"fuzz-{index:05d}-{scenario}"
        if scenario in _MINIC_SCENARIOS:
            template, expected, kinds = _MINIC_SCENARIOS[scenario](self.rng)
            return GeneratedProgram(
                index=index, name=name, scenario=scenario, mode="minic",
                tag=tag, expected_unstable=expected, expected_kinds=kinds,
                source=template.replace("{S}", tag))
        spec, expected, kinds = _IR_SCENARIOS[scenario](self.rng)
        spec["tag"] = tag
        return GeneratedProgram(
            index=index, name=name, scenario=scenario, mode="ir", tag=tag,
            expected_unstable=expected, expected_kinds=kinds, ir_spec=spec)
