"""Content-addressed solver-query cache.

The checker asks the solver thousands of structurally identical questions:
the synthetic corpora instantiate the same snippet templates under many
function names, and a warm rerun over an unchanged corpus repeats every
query verbatim.  This module gives those queries a *content address* — a
SHA-256 over the canonical, alpha-renamed serialization of the query's term
DAG — so that a verdict computed once can be replayed for every structurally
identical query, across functions, across work units, and (via the JSONL
persistence layer) across runs.

The design points that matter for soundness and speed:

* **Alpha-renaming.**  Variable names embed the function name
  (``f.arg.len``, ``f.div.3``), so two instances of the same template never
  share names.  The canonical form renames variables to ``v0, v1, ...`` in
  first-visit order, which is deterministic for a fixed term structure.
* **Commutative canonicalization.**  The term manager orders commutative
  operands by creation order, so structurally identical queries built
  through different histories (``a + b`` vs. ``b + a`` in the source) would
  otherwise serialize differently.  The canonical form orders commutative
  operands by a name-free structural color instead, so such queries — and
  the whole-function clusters built on the same idea in
  :mod:`repro.cluster` — share one key.
* **DAG-aware serialization.**  Terms are hash-consed DAGs with heavy
  sharing; the serializer emits each distinct node once and refers to it by
  index, so the canonical form stays linear in DAG size.
* **Memoized, seed-free colours.**  Terms are immutable, so whatever a key
  needs from one term alone — a blake2b colour of its name-free payload,
  its child tids, its serialized prefix and its context-0 colour — is
  computed once per tid into a memo that each query engine keeps for its
  manager.  Only the two Weisfeiler-Lehman rounds depend on the query, and
  they hash tuples of ints with built-in ``hash()``.  On 64-bit CPython
  3.8+ that value does not depend on ``PYTHONHASHSEED`` (only str and bytes
  hashing is salted), so keys agree across processes, workers and reruns.
  Another interpreter, or a 32-bit build, may order some commutative
  operands differently.  So may a cache file written before the colours
  moved to ``hash()``.  Such entries simply miss: the key is the SHA-256
  of the full serialization, so a hit is never wrong.
* **Budget-qualified UNKNOWN.**  SAT and UNSAT verdicts are valid under any
  budget, but a budget exhausted at a small size says nothing about a
  larger one.  Each entry records the propagation budget it was computed
  under, and an ``unknown`` verdict is only replayed when the cached budget
  covers the requested one — so runs and served jobs with different
  ``max_propagations`` can share one cache file, and a larger budget
  re-solves instead of replaying a stale ``unknown``.
  The budget does not depend on the clock, so neither does a replayed
  ``unknown``.  Files written when the budget was a deadline or a conflict
  count hold ``unknown`` entries with no ``max_propagations``; the reader
  skips those and keeps their ``sat`` and ``unsat`` entries.

The cache sits *above* the incremental solving layer: every logical query —
batched into an incremental context or not — is content-addressed over the
full term set it is equivalent to (base + deltas + definitions), looked up
first, and only solved (incrementally) on a miss.  A hit therefore skips
both bit-blasting and CDCL; a miss pays the (assumption-based, mostly
pre-encoded) incremental solve and stores the verdict.  See docs/SOLVER.md
for the layer diagram.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import tempfile
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

from repro.solver.terms import COMMUTATIVE_OPS, Op, Term

#: Cache verdict values (mirrors :class:`repro.solver.solver.CheckResult`).
VERDICT_SAT = "sat"
VERDICT_UNSAT = "unsat"
VERDICT_UNKNOWN = "unknown"

_VERDICTS = (VERDICT_SAT, VERDICT_UNSAT, VERDICT_UNKNOWN)


def _static_record(term: Term, memo: Dict[int, tuple]) -> tuple:
    """``(tid, base, children, commutative, color0, prefix, name)`` of a term.

    What a key needs to know about a term whatever the query: a blake2b
    colour of its name-free payload, its child tids, whether operand order
    is free, its context-0 colour, its serialized text before the operands
    (after the alias, for a variable) and its variable name (else None).
    """
    sort = "bool" if term.sort.is_bool() else f"bv{term.sort.width}"
    name = None
    if term.op is Op.VAR:
        name = term.attrs[0]
        payload, prefix = f"var::{sort}", f":{sort}"
    elif term.op is Op.CONST:
        payload = prefix = f"const:{term.attrs[0]}:{sort}"
    else:
        prefix = f"{term.op.value}:{','.join(str(a) for a in term.attrs)}:"
        payload = prefix + sort
    base = int.from_bytes(hashlib.blake2b(payload.encode("utf-8"),
                                          digest_size=8).digest(), "big")
    children = tuple(arg.tid for arg in term.args)
    commutative = term.op in COMMUTATIVE_OPS and len(children) > 1
    kids = [memo[child][4] for child in children]
    if commutative:
        kids.sort()
    return (term.tid, base, children, commutative, hash((base, 0, *kids)),
            prefix, name)


def _canonical_orders(terms: Sequence[Term], memo: Dict[int, tuple]):
    """Canonical operand order of each commutative node of a query's DAG.

    The manager orders commutative operands by creation order, so ``a + b``
    and ``b + a`` built in different histories would serialize apart.  The
    order used instead sorts operands by a colour that depends on structure
    only.  The upward colour hashes a node's base colour, context and child
    colours (a sorted multiset if commutative); two Weisfeiler-Lehman rounds
    each sum into every node the contexts it occurs in (root positions,
    parent colours and operand roles) and re-hash upward, which tells apart
    same-shaped subterms such as the ``x`` and ``y`` of ``(x + y) - x``.
    Ascending tids are a post-order: operands are created first.  A colour
    collision only keeps the manager's order; it cannot make a key unsound.
    """
    seen: Dict[int, Term] = {}
    stack = list(terms)
    while stack:
        term = stack.pop()
        if term.tid not in seen:
            seen[term.tid] = term
            stack.extend(term.args)
    order = sorted(seen)
    for tid in order:
        if tid not in memo:
            memo[tid] = _static_record(seen[tid], memo)
    records = list(map(memo.__getitem__, order))
    inner = [record for record in records if record[2]]
    if not any(record[3] for record in inner):
        return {}                    # no operand order to choose
    colors = {record[0]: record[4] for record in records}
    get = colors.__getitem__
    leaves = [record[0] for record in records if not record[2]]
    leaf_bases = [record[1] for record in records if not record[2]]
    for _ in range(2):
        context = dict.fromkeys(order, 0)
        for index, root in enumerate(terms):
            context[root.tid] += hash((index,))
        for tid, _, children, commutative, _, _, _ in reversed(inner):
            mine = hash((colors[tid], context[tid]))
            if commutative:
                role = hash((mine, -1))
                for child in children:
                    context[child] += role
            else:
                for position, child in enumerate(children):
                    context[child] += hash((mine, position))
        colors.update(zip(leaves, map(hash, zip(
            leaf_bases, map(context.__getitem__, leaves)))))
        for tid, base, children, commutative, _, _, _ in inner:
            kids = map(get, children)
            colors[tid] = hash((base, context[tid],
                                *(sorted(kids) if commutative else kids)))
    return {tid: sorted(children, key=get)
            for tid, _, children, commutative, _, _, _ in inner if commutative}


def canonical_query_key(terms: Sequence[Term],
                        memo: Optional[Dict[int, tuple]] = None) -> str:
    """Content address of a query: SHA-256 of its canonical serialization.

    The serialization lists every distinct DAG node once, bottom-up, with
    variables alpha-renamed in first-visit order and commutative operands
    in canonical order (:func:`_canonical_orders`).  Equal keys mean equal
    text, i.e. the same query up to naming and operand order, so replaying
    a verdict across them is sound.  ``memo`` holds :func:`_static_record`
    by tid and must only see one manager's terms (a query engine keeps one
    per encoder); ``None`` uses a fresh dict.
    """
    if memo is None:
        memo = {}
    canonical = _canonical_orders(terms, memo)
    rename: Dict[str, str] = {}
    index: Dict[int, str] = {}
    nodes: List[str] = []
    for root in terms:
        stack = [root.tid]
        while stack:
            tid = stack.pop()
            if tid < 0:                  # its operands are all emitted
                tid = ~tid
                nodes.append(memo[tid][5] + ",".join(
                    [index[child] for child in canonical.get(tid) or
                     memo[tid][2]]))
            elif tid in index:
                continue
            else:
                _, _, children, _, _, prefix, name = memo[tid]
                if children:
                    # Reversed push so the canonically-first operand is
                    # visited (and therefore alpha-renamed) first.
                    stack.append(~tid)
                    stack.extend(reversed(canonical.get(tid) or children))
                    continue
                if name is None:
                    nodes.append(prefix)
                else:
                    alias = rename.setdefault(name, f"v{len(rename)}")
                    nodes.append(f"var:{alias}{prefix}")
            index[tid] = f"n{len(nodes) - 1}"
    roots = ",".join(index[t.tid] for t in terms)
    blob = ";".join(nodes) + "|" + roots
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass
class CacheEntry:
    """One cached verdict, qualified by the budget it was computed under."""

    key: str
    verdict: str
    max_propagations: Optional[int] = None
    elapsed: float = 0.0

    def as_dict(self) -> Dict[str, object]:
        return {"key": self.key, "verdict": self.verdict,
                "max_propagations": self.max_propagations,
                "elapsed": round(self.elapsed, 6)}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "CacheEntry":
        return cls(key=str(data["key"]), verdict=str(data["verdict"]),
                   max_propagations=data.get("max_propagations"),
                   elapsed=float(data.get("elapsed", 0.0)))

    def budget_covers(self, max_propagations: Optional[int]) -> bool:
        """True if this entry's budget is at least the requested budget."""
        return self.max_propagations is None or (
            max_propagations is not None
            and self.max_propagations >= max_propagations)

    def supersedes(self, existing: Optional["CacheEntry"]) -> bool:
        """True if this entry should replace ``existing`` for the same key.

        The one merge rule of every write path (:meth:`SolverQueryCache.store`,
        ``absorb`` and ``flush``): a definitive verdict is never downgraded,
        and an ``unknown`` replaces another only under a covering budget.
        """
        if existing is None:
            return True
        if existing.verdict != VERDICT_UNKNOWN:
            return False
        return self.verdict != VERDICT_UNKNOWN or \
            self.budget_covers(existing.max_propagations)


def _read_entries(path: str) -> Iterator[CacheEntry]:
    """The entries of a JSONL cache file, in file order.

    A missing file yields nothing.  Blank lines, torn JSON (a line cut short
    by an interrupted write), records without a ``key`` or a known
    ``verdict``, and ``unknown`` records without a ``max_propagations``
    (written under an older, clock- or conflict-counted budget) are skipped.
    A key may appear more than once; callers keep the last.
    """
    if not os.path.exists(path):
        return
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                data = json.loads(line)
            except json.JSONDecodeError:
                continue
            if not isinstance(data, dict) or "key" not in data \
                    or data.get("verdict") not in _VERDICTS:
                continue
            if data["verdict"] == VERDICT_UNKNOWN \
                    and "max_propagations" not in data:
                continue
            yield CacheEntry.from_dict(data)


@contextlib.contextmanager
def _advisory_lock(path: str):
    """Exclusive advisory file lock guarding cache-file rewrites.

    Serializes flushes from *cooperating* processes — the checking daemon
    and batch CLI runs pointed at one ``cache_path`` — via ``flock`` on a
    sidecar ``<path>.lock`` file.  On platforms without ``fcntl`` the lock
    degrades to a no-op; the atomic temp-file rename in :meth:`flush` still
    guarantees readers never observe a torn file, only that two
    simultaneous writers may each publish a complete (last-wins) file.
    """
    try:
        import fcntl
    except ImportError:                       # non-POSIX: rename-only safety
        yield
        return
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "a+", encoding="utf-8") as handle:
        fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(handle.fileno(), fcntl.LOCK_UN)


class SolverQueryCache:
    """In-process LRU of solver verdicts, persistable to disk as JSONL.

    The cache is shared by every :class:`~repro.core.queries.QueryEngine`
    a checker run creates.  ``flush()`` *merges* entries added since the
    last flush into the JSONL file at ``path`` — under an advisory file
    lock, rewriting via a same-directory temp file and an atomic rename —
    so a long-running daemon and concurrent batch CLI runs can safely
    share one cache file: no interleaved or torn records, no lost entries,
    definitive verdicts never downgraded.  A fresh cache constructed with
    the same ``path`` starts warm.
    """

    def __init__(self, capacity: int = 100_000,
                 path: Optional[str] = None) -> None:
        if capacity <= 0:
            raise ValueError("cache capacity must be positive")
        self.capacity = capacity
        self.path = path
        self.hits = 0
        self.misses = 0
        self._entries: "OrderedDict[str, CacheEntry]" = OrderedDict()
        self._unflushed: List[CacheEntry] = []
        if path is not None:
            self.load(path)

    def __len__(self) -> int:
        return len(self._entries)

    # -- lookup / store -----------------------------------------------------------

    def lookup(self, key: str,
               max_propagations: Optional[int] = None) -> Optional[str]:
        """Return the cached verdict for ``key``, or None on a miss.

        An ``unknown`` verdict only counts as a hit when it was computed
        under a budget at least as large as the requested one.
        """
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        if entry.verdict == VERDICT_UNKNOWN and \
                not entry.budget_covers(max_propagations):
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry.verdict

    def store(self, key: str, verdict: str,
              max_propagations: Optional[int] = None,
              elapsed: float = 0.0) -> None:
        """Record a verdict computed under the given budget."""
        if verdict not in _VERDICTS:
            raise ValueError(f"unknown verdict {verdict!r}")
        entry = CacheEntry(key=key, verdict=verdict,
                           max_propagations=max_propagations, elapsed=elapsed)
        if not entry.supersedes(self._entries.get(key)):
            self._entries.move_to_end(key)
            return
        self._entries[key] = entry
        self._entries.move_to_end(key)
        self._unflushed.append(entry)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    # -- merging across processes ---------------------------------------------------

    def drain_new_entries(self) -> List[Dict[str, object]]:
        """Entries added since the last drain/flush, as JSON-ready dicts.

        Worker processes call this after each work unit so the parent can
        absorb their discoveries into the authoritative cache.
        """
        drained = [entry.as_dict() for entry in self._unflushed]
        self._unflushed = []
        return drained

    def absorb(self, entries: Iterable[Dict[str, object]]) -> int:
        """Merge entries drained from another cache; returns how many were new."""
        added = 0
        for data in entries:
            entry = CacheEntry.from_dict(data)
            if not entry.supersedes(self._entries.get(entry.key)):
                continue
            self._entries[entry.key] = entry
            self._entries.move_to_end(entry.key)
            self._unflushed.append(entry)
            added += 1
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
        return added

    def snapshot(self) -> List[Dict[str, object]]:
        """All current entries as JSON-ready dicts (for seeding workers)."""
        return [entry.as_dict() for entry in self._entries.values()]

    def seed(self, entries: Iterable[Dict[str, object]]) -> None:
        """Load entries without marking them dirty (worker bootstrap)."""
        for data in entries:
            entry = CacheEntry.from_dict(data)
            self._entries[entry.key] = entry
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    # -- disk persistence ------------------------------------------------------------

    def load(self, path: str) -> int:
        """Read a JSONL cache file; silently tolerates a missing file."""
        loaded = 0
        for entry in _read_entries(path):
            self._entries[entry.key] = entry
            if len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
            loaded += 1
        return loaded

    def flush(self, path: Optional[str] = None) -> int:
        """Merge entries added since the last flush into the JSONL file.

        Concurrent-writer safe: the whole read-merge-rewrite runs under an
        exclusive advisory lock (``<path>.lock``), re-reads entries other
        processes published since this cache loaded, merges this cache's
        unflushed entries on top by :meth:`CacheEntry.supersedes`, writes
        the result to a same-directory temp file, and atomically renames it
        into place.  Readers therefore always see a complete file, and
        cooperating writers never lose each other's entries.  Returns how
        many of this cache's entries were merged in.
        """
        target = path if path is not None else self.path
        if target is None or not self._unflushed:
            self._unflushed = []
            return 0
        directory = os.path.dirname(target)
        if directory:
            os.makedirs(directory, exist_ok=True)
        written = 0
        with _advisory_lock(target + ".lock"):
            merged: "OrderedDict[str, CacheEntry]" = OrderedDict()
            for entry in _read_entries(target):
                merged[entry.key] = entry
            for entry in self._unflushed:
                if not entry.supersedes(merged.get(entry.key)):
                    continue
                merged[entry.key] = entry
                written += 1
            fd, temp_path = tempfile.mkstemp(
                prefix=os.path.basename(target) + ".",
                suffix=".tmp", dir=directory or ".")
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    for entry in merged.values():
                        handle.write(json.dumps(entry.as_dict()) + "\n")
                    handle.flush()
                    os.fsync(handle.fileno())
                os.replace(temp_path, target)
            except BaseException:
                with contextlib.suppress(OSError):
                    os.unlink(temp_path)
                raise
        self._unflushed = []
        return written

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
