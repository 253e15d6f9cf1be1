"""Promotion of alloca'd scalars to SSA registers (mem2reg).

The lowering pass emits one alloca per local scalar and loads/stores around
every use, like an unoptimized clang build.  The checker, however, needs SSA
data flow: in Figure 2 of the paper the dereference ``tun->sk`` and the later
check ``!tun`` must refer to the *same* value for the UB condition to make
the check unsatisfiable.  This pass performs the classic SSA construction:

1. find promotable allocas (only loaded and stored, never address-taken),
2. place phi nodes at the iterated dominance frontier of the stores,
3. rename along the dominator tree, replacing loads with reaching values.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.ir.dominators import DominatorTree
from repro.ir.function import BasicBlock, Function
from repro.ir.instructions import Alloca, Load, Phi, Store
from repro.ir.values import UndefValue, Value


def compute_dominance_frontiers(
    function: Function, dom: DominatorTree,
) -> Dict[int, List[BasicBlock]]:
    """Cooper's dominance-frontier algorithm keyed by block id."""
    frontiers: Dict[int, List[BasicBlock]] = {id(b): [] for b in function.blocks}
    for block in function.blocks:
        preds = block.predecessors()
        if len(preds) < 2:
            continue
        idom = dom.idom.get(id(block))
        for pred in preds:
            runner: Optional[BasicBlock] = pred
            seen: Set[int] = set()
            while runner is not None and runner is not idom and id(runner) not in seen:
                seen.add(id(runner))
                if block not in frontiers[id(runner)]:
                    frontiers[id(runner)].append(block)
                nxt = dom.idom.get(id(runner))
                if nxt is runner:
                    break
                runner = nxt
    return frontiers


def _promotable_allocas(function: Function) -> List[Alloca]:
    """Allocas used only by loads and stores of their own slot."""
    allocas = [i for i in function.instructions() if isinstance(i, Alloca)]
    promotable: List[Alloca] = []
    for alloca in allocas:
        if not (alloca.allocated_type.is_integer() or alloca.allocated_type.is_pointer()):
            continue
        escaped = False
        for inst in function.instructions():
            if isinstance(inst, Load) and inst.pointer is alloca:
                continue
            if isinstance(inst, Store) and inst.pointer is alloca and inst.value is not alloca:
                continue
            if alloca in inst.operands:
                escaped = True
                break
        if not escaped:
            promotable.append(alloca)
    return promotable


def promote_memory_to_registers(function: Function) -> int:
    """Promote scalar allocas in ``function`` to SSA form.

    Returns the number of allocas promoted.  The function is modified in
    place: promoted allocas and their loads/stores are removed and phi nodes
    are inserted where needed.
    """
    if not function.blocks:
        return 0
    allocas = _promotable_allocas(function)
    if not allocas:
        return 0
    alloca_ids = {id(a): a for a in allocas}

    dom = DominatorTree(function)
    frontiers = compute_dominance_frontiers(function, dom)

    # 1. Phi placement at iterated dominance frontiers of defining blocks.
    phis: Dict[Tuple[int, int], Phi] = {}   # (block id, alloca id) -> phi
    for alloca in allocas:
        def_blocks = [inst.parent for inst in function.instructions()
                      if isinstance(inst, Store) and inst.pointer is alloca]
        worklist = list({id(b): b for b in def_blocks}.values())
        placed: Set[int] = set()
        while worklist:
            block = worklist.pop()
            for frontier_block in frontiers.get(id(block), []):
                if id(frontier_block) in placed:
                    continue
                placed.add(id(frontier_block))
                phi = Phi(alloca.allocated_type,
                          name=function.next_name(f"{alloca.name}.phi"),
                          location=alloca.location)
                phi.parent = frontier_block
                frontier_block.instructions.insert(0, phi)
                phis[(id(frontier_block), id(alloca))] = phi
                worklist.append(frontier_block)

    # 2. Renaming along the dominator tree.
    replacements: Dict[int, Value] = {}      # id(load or phi-alias) -> value
    current: Dict[int, Value] = {}           # alloca id -> reaching value
    to_delete: Set[int] = set()

    def value_of(alloca_id: int, alloca: Alloca) -> Value:
        value = current.get(alloca_id)
        if value is None:
            value = UndefValue(alloca.allocated_type, name=f"{alloca.name}.undef")
            current[alloca_id] = value
        return value

    dom_children: Dict[int, List[BasicBlock]] = {id(b): [] for b in function.blocks}
    for block in function.blocks:
        idom = dom.immediate_dominator(block)
        if idom is not None:
            dom_children[id(idom)].append(block)

    def rename(block: BasicBlock, incoming: Dict[int, Value]) -> None:
        nonlocal current
        saved = dict(incoming)
        current = saved
        for inst in list(block.instructions):
            if isinstance(inst, Phi):
                for (block_id, alloca_id), phi in phis.items():
                    if phi is inst:
                        saved[alloca_id] = phi
                        break
                continue
            if isinstance(inst, Load) and id(inst.pointer) in alloca_ids:
                alloca = alloca_ids[id(inst.pointer)]
                replacements[id(inst)] = value_of(id(alloca), alloca)
                to_delete.add(id(inst))
            elif isinstance(inst, Store) and id(inst.pointer) in alloca_ids:
                saved[id(inst.pointer)] = inst.value
                to_delete.add(id(inst))

        # Fill in phi operands of successors.
        for successor in block.successors():
            for (block_id, alloca_id), phi in phis.items():
                if block_id != id(successor):
                    continue
                alloca = alloca_ids[alloca_id]
                current = saved
                phi.add_incoming(value_of(alloca_id, alloca), block)

        for child in dom_children[id(block)]:
            rename(child, saved)

    rename(function.entry, {})

    # 3. Resolve replacement chains and rewrite every operand.
    def resolve(value: Value) -> Value:
        seen: Set[int] = set()
        while id(value) in replacements and id(value) not in seen:
            seen.add(id(value))
            value = replacements[id(value)]
        return value

    for block in function.blocks:
        for inst in block.instructions:
            inst.operands = [resolve(op) for op in inst.operands]
            if isinstance(inst, Phi):
                inst.incoming = [(resolve(v), b) for v, b in inst.incoming]

    # 4. Delete dead loads, stores, and the allocas themselves.
    for block in function.blocks:
        block.instructions = [
            inst for inst in block.instructions
            if id(inst) not in to_delete and not (
                isinstance(inst, Alloca) and id(inst) in alloca_ids)
        ]
    return len(allocas)
