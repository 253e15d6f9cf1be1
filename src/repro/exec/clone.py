"""Deep copies of IR functions and modules.

The optimization pipeline (:mod:`repro.compilers.pipeline`) mutates
functions in place, exactly like a real compiler.  Concrete execution needs
both sides of the two-compiler model at once — the function as written and
the function as optimized — so the replay and differential layers clone
first and optimize the clone.  Names, source locations, and origins are
preserved so diagnostics computed against the original still line up with
the clone.
"""

from __future__ import annotations

from typing import Dict, Optional

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
from repro.ir.values import Value


def clone_function(function: Function) -> Function:
    """Return a structurally identical, fully independent copy of ``function``."""
    clone = Function(function.name, function.ftype,
                     [arg.name for arg in function.arguments])
    clone.is_declaration = function.is_declaration
    clone._name_counter = function._name_counter

    value_map: Dict[int, Value] = {}
    for old_arg, new_arg in zip(function.arguments, clone.arguments):
        value_map[id(old_arg)] = new_arg
    block_map: Dict[int, BasicBlock] = {}
    for block in function.blocks:
        new_block = clone.add_block(block.name)
        block_map[id(block)] = new_block
        value_map[id(block)] = new_block

    # First pass: clone every instruction with its original operands; the
    # second pass remaps them, which handles forward references (phis, and
    # uses of values defined in later blocks of the list).
    cloned: Dict[int, Instruction] = {}
    for block in function.blocks:
        new_block = block_map[id(block)]
        for inst in block.instructions:
            copy = _clone_instruction(inst, block_map)
            cloned[id(inst)] = copy
            copy.parent = new_block
            new_block.instructions.append(copy)
    value_map.update(cloned)

    for block in function.blocks:
        for inst in block.instructions:
            copy = cloned[id(inst)]
            copy.operands = [_map(value_map, op) for op in inst.operands]
            if isinstance(inst, Phi):
                copy.incoming = [(_map(value_map, value), block_map[id(pred)])
                                 for value, pred in inst.incoming]
    return clone


def clone_module(module: Module) -> Module:
    """Clone every function of ``module`` into a new module."""
    clone = Module(module.name)
    for function in module:
        clone.add_function(clone_function(function))
    return clone


def _map(value_map: Dict[int, Value], value: Optional[Value]) -> Optional[Value]:
    if value is None:
        return None
    return value_map.get(id(value), value)


def _clone_instruction(inst: Instruction,
                       block_map: Dict[int, BasicBlock]) -> Instruction:
    """Clone one instruction; operands stay un-remapped until the second pass."""
    meta = {"location": inst.location, "origin": inst.origin}
    if isinstance(inst, BinaryOp):
        return BinaryOp(inst.kind, inst.lhs, inst.rhs, inst.name, **meta)
    if isinstance(inst, ICmp):
        return ICmp(inst.pred, inst.lhs, inst.rhs, inst.name, **meta)
    if isinstance(inst, Select):
        return Select(inst.condition, inst.on_true, inst.on_false,
                      inst.name, **meta)
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
        return Call(inst.callee, inst.args, inst.type, inst.name, **meta)
    if isinstance(inst, Phi):
        return Phi(inst.type, inst.name, **meta)
    if isinstance(inst, Branch):
        return Branch(block_map[id(inst.target)], **meta)
    if isinstance(inst, CondBranch):
        return CondBranch(inst.condition, block_map[id(inst.if_true)],
                          block_map[id(inst.if_false)], **meta)
    if isinstance(inst, Return):
        return Return(inst.value, **meta)
    if isinstance(inst, Unreachable):
        return Unreachable(**meta)
    raise TypeError(f"cannot clone {type(inst).__name__}")
