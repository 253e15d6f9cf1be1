"""Control-flow graph utilities: orderings, back edges, reachability."""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.ir.function import BasicBlock, Function


def reverse_postorder(function: Function) -> List[BasicBlock]:
    """Blocks in reverse postorder from the entry block.

    Unreachable blocks are appended at the end in their original order so
    every block receives a position (the checker still annotates them).
    """
    visited: Set[int] = set()
    postorder: List[BasicBlock] = []

    def visit(block: BasicBlock) -> None:
        stack: List[Tuple[BasicBlock, int]] = [(block, 0)]
        visited.add(id(block))
        while stack:
            current, child_index = stack[-1]
            successors = current.successors()
            if child_index < len(successors):
                stack[-1] = (current, child_index + 1)
                successor = successors[child_index]
                if id(successor) not in visited:
                    visited.add(id(successor))
                    stack.append((successor, 0))
            else:
                postorder.append(current)
                stack.pop()

    if function.blocks:
        visit(function.entry)
    order = list(reversed(postorder))
    for block in function.blocks:
        if id(block) not in visited:
            order.append(block)
    return order


def reachable_blocks(function: Function) -> Set[int]:
    """IDs of blocks reachable from the entry."""
    if not function.blocks:
        return set()
    seen: Set[int] = {id(function.entry)}
    worklist = [function.entry]
    while worklist:
        block = worklist.pop()
        for successor in block.successors():
            if id(successor) not in seen:
                seen.add(id(successor))
                worklist.append(successor)
    return seen


def back_edges(function: Function) -> Set[Tuple[int, int]]:
    """Edges (source id, target id) that close a cycle in a DFS from entry.

    The checker removes these edges when computing reachability conditions,
    which is the "approximate reachability" of §4.4: loops contribute their
    first iteration's conditions only.
    """
    result: Set[Tuple[int, int]] = set()
    if not function.blocks:
        return result
    state: Dict[int, int] = {}  # 0 = unvisited, 1 = on stack, 2 = done

    def dfs(block: BasicBlock) -> None:
        stack: List[Tuple[BasicBlock, int]] = [(block, 0)]
        state[id(block)] = 1
        while stack:
            current, child_index = stack[-1]
            successors = current.successors()
            if child_index < len(successors):
                stack[-1] = (current, child_index + 1)
                successor = successors[child_index]
                succ_state = state.get(id(successor), 0)
                if succ_state == 1:
                    result.add((id(current), id(successor)))
                elif succ_state == 0:
                    state[id(successor)] = 1
                    stack.append((successor, 0))
            else:
                state[id(current)] = 2
                stack.pop()

    dfs(function.entry)
    return result


def has_loops(function: Function) -> bool:
    """True if the function's CFG contains a cycle reachable from entry."""
    return bool(back_edges(function))
