"""Structural verification of IR modules.

The verifier catches malformed IR early (missing terminators, phi nodes whose
incoming blocks are not predecessors, type mismatches, dangling block
references, and SSA dominance violations — a value used in a reachable block
that its definition does not dominate).  The lowering pass and the inliner
both run it in tests, and the checker runs it defensively before analysis.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.ir.cfg import reachable_blocks
from repro.ir.dominators import DominatorTree
from repro.ir.function import BasicBlock, Function, Module
from repro.ir.instructions import (
    Branch,
    CondBranch,
    ICmp,
    Instruction,
    Phi,
    Store,
)


class VerificationError(Exception):
    """Raised when an IR module is structurally invalid."""

    def __init__(self, problems: List[str]) -> None:
        super().__init__("; ".join(problems))
        self.problems = problems


def verify_function(function: Function) -> List[str]:
    """Return a list of problems found in ``function`` (empty = valid)."""
    problems: List[str] = []
    if function.is_declaration:
        return problems
    if not function.blocks:
        return [f"function @{function.name} has no blocks"]

    block_ids = {id(b) for b in function.blocks}

    for block in function.blocks:
        prefix = f"@{function.name}/%{block.name}"
        if not block.is_terminated():
            problems.append(f"{prefix}: block is not terminated")
        terminator_seen = False
        for inst in block.instructions:
            if terminator_seen:
                problems.append(f"{prefix}: instruction after terminator")
                break
            if inst.is_terminator():
                terminator_seen = True
            if inst.parent is not block:
                problems.append(f"{prefix}: instruction parent link is wrong")
            problems.extend(_verify_instruction(function, block, inst, block_ids))

        preds = {id(p) for p in block.predecessors()}
        for phi in block.phis():
            incoming_blocks = {id(b) for _v, b in phi.incoming}
            if incoming_blocks - preds:
                problems.append(
                    f"{prefix}: phi %{phi.name} has incoming edge from a "
                    f"non-predecessor block")
            if preds - incoming_blocks:
                problems.append(
                    f"{prefix}: phi %{phi.name} is missing an incoming value "
                    f"for some predecessor")

    ret_type = function.ftype.return_type
    for ret in function.returns():
        if ret.value is None and not ret_type.is_void():
            problems.append(f"@{function.name}: ret void in a non-void function")
        if ret.value is not None and ret_type.is_void():
            problems.append(f"@{function.name}: ret with a value in a void function")

    problems.extend(_verify_dominance(function))
    return problems


def _verify_dominance(function: Function) -> List[str]:
    """SSA sanity: every use in a reachable block is dominated by its def.

    Within one block the definition must come first; across blocks the
    defining block must dominate the using block.  Phi uses are checked at
    the incoming edge (the definition must dominate the predecessor), which
    is what makes loop-carried values legal.
    """
    problems: List[str] = []
    reachable = reachable_blocks(function)
    dominators = DominatorTree(function)
    position: Dict[int, Tuple[BasicBlock, int]] = {}
    for block in function.blocks:
        for index, inst in enumerate(block.instructions):
            position[id(inst)] = (block, index)

    for block in function.blocks:
        if id(block) not in reachable:
            continue
        prefix = f"@{function.name}/%{block.name}"
        for index, inst in enumerate(block.instructions):
            if isinstance(inst, Phi):
                for value, pred in inst.incoming:
                    if not isinstance(value, Instruction):
                        continue
                    if id(pred) not in reachable:
                        # The edge can never be taken; its value is vacuously
                        # legal (LLVM's verifier skips these too).
                        continue
                    def_block = value.parent
                    if def_block is None or not dominators.dominates(def_block,
                                                                     pred):
                        problems.append(
                            f"{prefix}: phi %{inst.name} incoming value "
                            f"{value.short_name()} does not dominate the "
                            f"edge from %{pred.name}")
                continue
            for operand in inst.operands:
                if not isinstance(operand, Instruction):
                    continue
                where = position.get(id(operand))
                if where is None:
                    problems.append(
                        f"{prefix}: use of {operand.short_name()}, which is "
                        f"not in the function")
                    continue
                def_block, def_index = where
                if def_block is block:
                    if def_index >= index:
                        problems.append(
                            f"{prefix}: {operand.short_name()} used before "
                            f"its definition")
                elif not dominators.dominates(def_block, block):
                    problems.append(
                        f"{prefix}: use of {operand.short_name()} is not "
                        f"dominated by its definition in %{def_block.name}")
    return problems


def _verify_instruction(function: Function, block: BasicBlock,
                        inst: Instruction, block_ids: set) -> List[str]:
    prefix = f"@{function.name}/%{block.name}"
    problems: List[str] = []
    if isinstance(inst, Branch):
        if id(inst.target) not in block_ids:
            problems.append(f"{prefix}: branch to a block outside the function")
    elif isinstance(inst, CondBranch):
        if id(inst.if_true) not in block_ids or id(inst.if_false) not in block_ids:
            problems.append(f"{prefix}: conditional branch target outside the function")
        if inst.condition.type.bit_width != 1:
            problems.append(f"{prefix}: conditional branch on a non-i1 value")
    elif isinstance(inst, ICmp):
        if inst.lhs.type.bit_width != inst.rhs.type.bit_width:
            problems.append(f"{prefix}: icmp operand width mismatch")
    elif isinstance(inst, Store):
        pointee = inst.pointer.type.pointee
        if (pointee.is_integer() and inst.value.type.is_integer()
                and pointee.bit_width != inst.value.type.bit_width):
            problems.append(f"{prefix}: store width mismatch")
    return problems


def verify_module(module: Module, raise_on_error: bool = True) -> List[str]:
    """Verify every function; optionally raise :class:`VerificationError`."""
    problems: List[str] = []
    for function in module:
        problems.extend(verify_function(function))
    if problems and raise_on_error:
        raise VerificationError(problems)
    return problems
