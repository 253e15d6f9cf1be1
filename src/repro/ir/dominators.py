"""Dominator tree computation (Cooper–Harvey–Kennedy algorithm).

The checker replaces the paper's whole-program well-defined assumption with
the conjunction of UB conditions over an instruction's *dominators* (§4.4),
so an efficient dominator computation is part of the substrate.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.ir.cfg import reverse_postorder
from repro.ir.function import BasicBlock, Function
from repro.ir.instructions import Instruction


class DominatorTree:
    """Immediate dominators and dominance queries for one function."""

    def __init__(self, function: Function) -> None:
        self.function = function
        self.rpo = reverse_postorder(function)
        self._index: Dict[int, int] = {id(b): i for i, b in enumerate(self.rpo)}
        self.idom: Dict[int, Optional[BasicBlock]] = {}
        self._compute()

    # -- construction ------------------------------------------------------

    def _compute(self) -> None:
        if not self.function.blocks:
            return
        entry = self.function.entry
        self.idom = {id(b): None for b in self.rpo}
        self.idom[id(entry)] = entry

        changed = True
        while changed:
            changed = False
            for block in self.rpo:
                if block is entry:
                    continue
                preds = [p for p in block.predecessors()
                         if self.idom.get(id(p)) is not None]
                if not preds:
                    continue
                new_idom = preds[0]
                for pred in preds[1:]:
                    new_idom = self._intersect(pred, new_idom)
                if self.idom[id(block)] is not new_idom:
                    self.idom[id(block)] = new_idom
                    changed = True

    def _intersect(self, a: BasicBlock, b: BasicBlock) -> BasicBlock:
        finger1, finger2 = a, b
        while finger1 is not finger2:
            while self._index[id(finger1)] > self._index[id(finger2)]:
                finger1 = self.idom[id(finger1)]  # type: ignore[assignment]
            while self._index[id(finger2)] > self._index[id(finger1)]:
                finger2 = self.idom[id(finger2)]  # type: ignore[assignment]
        return finger1

    # -- queries ------------------------------------------------------------

    def immediate_dominator(self, block: BasicBlock) -> Optional[BasicBlock]:
        """The immediate dominator, or None for the entry / unreachable blocks."""
        idom = self.idom.get(id(block))
        if idom is block:
            return None
        return idom

    def dominators_of(self, block: BasicBlock) -> List[BasicBlock]:
        """All blocks that dominate ``block``, from entry down to itself."""
        chain: List[BasicBlock] = []
        current: Optional[BasicBlock] = block
        seen: Set[int] = set()
        while current is not None and id(current) not in seen:
            seen.add(id(current))
            chain.append(current)
            nxt = self.idom.get(id(current))
            if nxt is current:
                break
            current = nxt
        return list(reversed(chain))

    def dominates(self, a: BasicBlock, b: BasicBlock) -> bool:
        """True iff block ``a`` dominates block ``b``."""
        current: Optional[BasicBlock] = b
        seen: Set[int] = set()
        while current is not None and id(current) not in seen:
            if current is a:
                return True
            seen.add(id(current))
            nxt = self.idom.get(id(current))
            if nxt is current:
                return a is current
            current = nxt
        return False

    # -- instruction-level dominators ------------------------------------------

    def dominating_instructions(self, inst: Instruction) -> List[Instruction]:
        """Instructions guaranteed to have executed before ``inst``.

        This is dom(e) in the paper: all instructions in strictly dominating
        blocks plus the instructions that precede ``inst`` in its own block.
        """
        block = inst.parent
        if block is None:
            return []
        result: List[Instruction] = []
        for dom_block in self.dominators_of(block):
            if dom_block is block:
                for other in block.instructions:
                    if other is inst:
                        break
                    result.append(other)
            else:
                result.extend(dom_block.instructions)
        return result
