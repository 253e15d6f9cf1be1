"""Function inlining with origin tracking.

STACK detects unstable code across function boundaries by letting LLVM inline
callees and then analyzing each (now larger) function in isolation (§4.2).
Instructions copied from a callee are tagged with an INLINE origin so the
report stage can attribute or suppress warnings about them.

The inliner is deliberately simple: it inlines direct calls to functions that
are defined in the same module, are non-recursive, and are within a size
budget.  Return statements become branches to a continuation block with a phi
collecting the return values.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.ir.function import BasicBlock, Function, Module
from repro.ir.instructions import (
    Alloca,
    BinaryOp,
    Branch,
    Call,
    Cast,
    CondBranch,
    GetElementPtr,
    ICmp,
    Instruction,
    Load,
    Phi,
    Return,
    Select,
    Store,
    Unreachable,
)
from repro.ir.source import inline_origin
from repro.ir.values import UndefValue, Value


class InlineBudget:
    """Limits that keep inlining from exploding the IR."""

    def __init__(self, max_callee_instructions: int = 200,
                 max_inline_depth: int = 4) -> None:
        self.max_callee_instructions = max_callee_instructions
        self.max_inline_depth = max_inline_depth


def _clone_instruction(inst: Instruction) -> Instruction:
    """Shallow-clone an instruction, preserving operands (remapped later)."""
    meta = {"location": inst.location, "origin": inst.origin}
    if isinstance(inst, BinaryOp):
        return BinaryOp(inst.kind, inst.lhs, inst.rhs, inst.name, **meta)
    if isinstance(inst, ICmp):
        return ICmp(inst.pred, inst.lhs, inst.rhs, inst.name, **meta)
    if isinstance(inst, Select):
        return Select(inst.condition, inst.on_true, inst.on_false, inst.name, **meta)
    if isinstance(inst, Cast):
        return Cast(inst.kind, inst.value, inst.type, inst.name, **meta)
    if isinstance(inst, Alloca):
        return Alloca(inst.allocated_type, inst.name, **meta)
    if isinstance(inst, Load):
        return Load(inst.pointer, inst.name, **meta)
    if isinstance(inst, Store):
        return Store(inst.value, inst.pointer, **meta)
    if isinstance(inst, GetElementPtr):
        return GetElementPtr(inst.pointer, inst.index, inst.name,
                             element_type=inst.element_type,
                             array_size=inst.array_size, **meta)
    if isinstance(inst, Call):
        return Call(inst.callee, list(inst.args), inst.type, inst.name, **meta)
    if isinstance(inst, Phi):
        phi = Phi(inst.type, inst.name, **meta)
        for value, block in inst.incoming:
            phi.add_incoming(value, block)
        return phi
    if isinstance(inst, Branch):
        return Branch(inst.target, **meta)
    if isinstance(inst, CondBranch):
        return CondBranch(inst.condition, inst.if_true, inst.if_false, **meta)
    if isinstance(inst, Return):
        return Return(inst.value, **meta)
    if isinstance(inst, Unreachable):
        return Unreachable(**meta)
    raise TypeError(f"cannot clone instruction {type(inst).__name__}")


def _function_size(function: Function) -> int:
    return sum(len(block.instructions) for block in function.blocks)


def _is_recursive(function: Function, module: Module,
                  seen: Optional[Set[str]] = None) -> bool:
    seen = set() if seen is None else seen
    if function.name in seen:
        return True
    seen = seen | {function.name}
    for inst in function.instructions():
        if isinstance(inst, Call):
            callee = module.get_function(inst.callee)
            if callee is not None and not callee.is_declaration:
                if callee.name == function.name or _is_recursive(callee, module, seen):
                    return True
    return False


def inline_call(caller: Function, call: Call, callee: Function) -> bool:
    """Inline one call site; returns False if the shape is unsupported."""
    call_block = call.parent
    if call_block is None or not call_block.is_terminated():
        return False
    call_index = call_block.instructions.index(call)

    # Split the call block: everything after the call moves to a new block.
    continuation = caller.add_block(caller.next_name(f"{callee.name}.cont"))
    continuation.instructions = call_block.instructions[call_index + 1:]
    for inst in continuation.instructions:
        inst.parent = continuation
    call_block.instructions = call_block.instructions[:call_index]

    # Successor phis must now refer to the continuation block.
    for successor_block in caller.blocks:
        for phi in successor_block.phis():
            phi.incoming = [
                (value, continuation if pred is call_block else pred)
                for value, pred in phi.incoming
            ]

    # Clone callee blocks.
    value_map: Dict[int, Value] = {}
    block_map: Dict[int, BasicBlock] = {}
    for arg, actual in zip(callee.arguments, call.args):
        value_map[id(arg)] = actual
    for index in range(len(call.args), len(callee.arguments)):
        value_map[id(callee.arguments[index])] = UndefValue(
            callee.arguments[index].type, name="missing_arg")

    for block in callee.blocks:
        clone = caller.add_block(caller.next_name(f"{callee.name}.{block.name}"))
        block_map[id(block)] = clone

    tag = inline_origin(callee.name)
    return_values: List[Value] = []
    return_blocks: List[BasicBlock] = []

    for block in callee.blocks:
        clone = block_map[id(block)]
        for inst in block.instructions:
            copied = _clone_instruction(inst)
            copied.origin = tag if inst.origin.is_user_code() else inst.origin
            if copied.name:
                copied.name = caller.next_name(f"{callee.name}.{copied.name}")
            if isinstance(copied, Return):
                if copied.value is not None:
                    return_values.append(copied.value)
                else:
                    return_values.append(UndefValue(call.type, name="void_ret"))
                return_blocks.append(clone)
                replacement = Branch(continuation, location=copied.location,
                                     origin=copied.origin)
                clone.append(replacement)
            else:
                clone.append(copied)
            value_map[id(inst)] = copied

    # Remap operands and branch targets inside the cloned blocks.
    for block in callee.blocks:
        clone = block_map[id(block)]
        for inst in clone.instructions:
            inst.operands = [value_map.get(id(op), op) for op in inst.operands]
            if isinstance(inst, Branch) and id(inst.target) in block_map:
                inst.target = block_map[id(inst.target)]
            elif isinstance(inst, CondBranch):
                if id(inst.if_true) in block_map:
                    inst.if_true = block_map[id(inst.if_true)]
                if id(inst.if_false) in block_map:
                    inst.if_false = block_map[id(inst.if_false)]
            elif isinstance(inst, Phi):
                inst.incoming = [
                    (value_map.get(id(v), v), block_map.get(id(b), b))
                    for v, b in inst.incoming
                ]

    # Branch from the call block into the cloned entry.
    entry_clone = block_map[id(callee.entry)]
    call_block.append(Branch(entry_clone, location=call.location, origin=tag))

    # Replace the call's value with a phi over the return values.
    replacement_value: Optional[Value] = None
    if not call.type.is_void():
        if len(return_values) == 1:
            replacement_value = value_map.get(id(return_values[0]), return_values[0])
        elif return_values:
            phi = Phi(call.type, caller.next_name(f"{callee.name}.retval"),
                      location=call.location, origin=tag)
            phi.parent = continuation
            for value, block in zip(return_values, return_blocks):
                phi.add_incoming(value_map.get(id(value), value), block)
            continuation.instructions.insert(0, phi)
            replacement_value = phi
        else:
            replacement_value = UndefValue(call.type, name="noreturn")

    if replacement_value is not None:
        for block in caller.blocks:
            for inst in block.instructions:
                inst.replace_operand(call, replacement_value)
    return True


def inline_function_calls(caller: Function, module: Module,
                          budget: Optional[InlineBudget] = None) -> int:
    """Inline eligible call sites in ``caller``; returns the number inlined."""
    budget = budget if budget is not None else InlineBudget()
    inlined = 0
    for _round in range(budget.max_inline_depth):
        call_sites = [
            inst for inst in caller.instructions()
            if isinstance(inst, Call)
        ]
        progress = False
        for call in call_sites:
            callee = module.get_function(call.callee)
            if callee is None or callee.is_declaration or callee is caller:
                continue
            if _function_size(callee) > budget.max_callee_instructions:
                continue
            if _is_recursive(callee, module):
                continue
            if inline_call(caller, call, callee):
                inlined += 1
                progress = True
        if not progress:
            break
    return inlined


def inline_module(module: Module, budget: Optional[InlineBudget] = None) -> int:
    """Inline eligible calls in every defined function of ``module``."""
    total = 0
    for function in module.defined_functions():
        total += inline_function_calls(function, module, budget)
    return total
