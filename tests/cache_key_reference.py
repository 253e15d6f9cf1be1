"""Reference solver-query key for the key-identity tests (test-only).

This is ``_canonical_colors``/``canonical_query_key`` of
``repro.engine.cache`` as they stood before the key was memoized per term
and its refinement hashes moved to built-in ``hash()``, kept verbatim below
the imports.  ``test_cache_key.py`` keys the same goals with both and
requires the production key to split them into exactly the same groups.
Do not optimise it: its value is that it is the plain, obvious walk.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Sequence

from repro.solver.terms import COMMUTATIVE_OPS, Op, Term


def _color(payload: str) -> int:
    """Deterministic 64-bit structural hash (process- and run-independent)."""
    return int.from_bytes(
        hashlib.blake2b(payload.encode("utf-8"), digest_size=8).digest(), "big")


_COLOR_MASK = (1 << 64) - 1


def _canonical_colors(terms: Sequence[Term]):
    """Name-free structural colors for every node of a query's term DAG.

    ``TermManager`` normalizes commutative operands by *creation order*
    (tid), so two structurally identical queries built through different
    construction histories — ``a + b`` in one translation unit, ``b + a`` in
    another — can disagree about operand order.  The colors computed here
    depend only on structure, never on names or tids, and are used solely to
    pick a canonical operand order for commutative nodes:

    * an upward pass hashes each node from its operator, attributes, sort,
      and child colors (commutative children as a sorted multiset), so
      variables collapse to their sort;
    * Weisfeiler-Lehman-style refinement rounds then alternate a downward
      pass — each node absorbs the multiset of contexts it occurs in — with
      a re-hash of the upward colors, which tells apart same-shaped subterms
      (e.g. the ``x`` and ``y`` of ``(x + y) - x``, or the ``sext(x)`` and
      ``sext(y)`` above them) by how the rest of the query uses them.

    Color collisions are harmless for soundness — they only fall back to the
    original operand order, they never change what the serialization says.
    """
    order: List[Term] = []
    seen: set = set()
    for root in terms:
        stack = [(root, False)]
        while stack:
            term, ready = stack.pop()
            if ready:
                order.append(term)
                continue
            if term.tid in seen:
                continue
            seen.add(term.tid)
            stack.append((term, True))
            for arg in term.args:
                stack.append((arg, False))

    def structural(term: Term, colors: Dict[int, int], context: int) -> int:
        sort = term.sort.kind if term.sort.is_bool() else f"bv{term.sort.width}"
        if term.op is Op.VAR:
            payload = f"var::{sort}"
        elif term.op is Op.CONST:
            payload = f"const:{term.attrs[0]}:{sort}"
        else:
            child = [colors[a.tid] for a in term.args]
            if term.op in COMMUTATIVE_OPS:
                child.sort()
            attrs = ",".join(str(a) for a in term.attrs)
            payload = f"{term.op.value}:{attrs}:{sort}:" \
                      + ",".join(str(c) for c in child)
        return _color(f"{payload}@{context}")

    colors: Dict[int, int] = {}
    for term in order:               # children before parents
        colors[term.tid] = structural(term, colors, 0)

    for _ in range(2):               # two refinement rounds suffice in practice
        context: Dict[int, int] = {}
        for index, root in enumerate(terms):
            context[root.tid] = (context.get(root.tid, 0)
                                 + _color(f"root:{index}")) & _COLOR_MASK
        for term in reversed(order):     # parents before children
            mine = _color(f"{colors[term.tid]}@{context.get(term.tid, 0)}")
            for position, arg in enumerate(term.args):
                role = -1 if term.op in COMMUTATIVE_OPS else position
                context[arg.tid] = (context.get(arg.tid, 0)
                                    + _color(f"ctx:{mine}:{role}")) & _COLOR_MASK
        for term in order:               # fold contexts back into the colors
            colors[term.tid] = structural(term, colors,
                                          context.get(term.tid, 0))
    return colors


def canonical_query_key(terms: Sequence[Term]) -> str:
    """Content address of a query: SHA-256 of its canonical serialization.

    The serialization walks the term DAG bottom-up, assigns every distinct
    node a sequential index, alpha-renames variables in first-visit order,
    and lists the operands of commutative operators in a canonical,
    structure-derived order (see :func:`_canonical_colors`).  Two queries
    receive the same key iff their term DAGs are structurally identical up
    to variable naming and commutative operand order — both of which
    preserve semantics, so replaying a verdict across equal keys is sound.
    """
    final = _canonical_colors(terms)

    def canonical_args(term: Term) -> List[Term]:
        if term.op in COMMUTATIVE_OPS and len(term.args) > 1:
            return sorted(term.args, key=lambda a: final[a.tid])
        return list(term.args)

    rename: Dict[str, str] = {}
    memo: Dict[int, str] = {}
    nodes: List[str] = []
    for root in terms:
        stack = [(root, False)]
        while stack:
            term, ready = stack.pop()
            if term.tid in memo:
                continue
            if not ready:
                stack.append((term, True))
                # Reversed push so the canonically-first operand is visited
                # (and therefore alpha-renamed) first.
                for arg in reversed(canonical_args(term)):
                    if arg.tid not in memo:
                        stack.append((arg, False))
                continue
            sort = term.sort.kind if term.sort.is_bool() else f"bv{term.sort.width}"
            if term.op is Op.VAR:
                alias = rename.setdefault(term.attrs[0], f"v{len(rename)}")
                node = f"var:{alias}:{sort}"
            elif term.op is Op.CONST:
                node = f"const:{term.attrs[0]}:{sort}"
            else:
                args = ",".join(memo[a.tid] for a in canonical_args(term))
                attrs = ",".join(str(a) for a in term.attrs)
                node = f"{term.op.value}:{attrs}:{args}"
            memo[term.tid] = f"n{len(nodes)}"
            nodes.append(node)
    roots = ",".join(memo[t.tid] for t in terms)
    blob = ";".join(nodes) + "|" + roots
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
