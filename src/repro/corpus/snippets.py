"""Unstable- and stable-code snippet templates.

Each :class:`Snippet` is a small, self-contained MiniC translation unit whose
function names can be suffixed so that a synthetic code base can contain many
distinct instances of the same pattern.  The unstable templates cover every
undefined-behavior kind STACK implements (Figure 3) and include the paper's
named examples; the stable templates are correct idioms that must *not* be
flagged (used to measure false positives and to pad realistic corpora).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.classify import BugClass
from repro.core.report import Algorithm
from repro.core.ubconditions import UBKind


@dataclass(frozen=True)
class Snippet:
    """One code pattern used to seed synthetic corpora."""

    name: str
    source_template: str
    ub_kinds: Tuple[UBKind, ...] = ()
    bug_class: Optional[BugClass] = None
    algorithms: Tuple[Algorithm, ...] = ()
    system: str = ""
    figure: str = ""
    description: str = ""

    @property
    def is_unstable(self) -> bool:
        return bool(self.ub_kinds)

    def render(self, suffix: str = "") -> str:
        """Instantiate the template with unique function names."""
        tag = suffix if suffix else "0"
        return self.source_template.replace("{S}", tag)


# ---------------------------------------------------------------------------
# Unstable snippets (expected to be reported by the checker)
# ---------------------------------------------------------------------------

SNIPPETS: List[Snippet] = [
    Snippet(
        name="fig1_pointer_overflow_check",
        figure="Figure 1",
        system="Chromium",
        description="buf + len < buf sanity check discarded under no-pointer-overflow",
        ub_kinds=(UBKind.POINTER_OVERFLOW,),
        bug_class=BugClass.URGENT_OPTIMIZATION,
        algorithms=(Algorithm.SIMPLIFY_BOOLEAN, Algorithm.ELIMINATION),
        source_template="""
int write_check_{S}(char *buf, char *buf_end, unsigned int len) {
    if (buf + len >= buf_end)
        return -1;
    if (buf + len < buf)
        return -1;
    return 0;
}
""",
    ),
    Snippet(
        name="fig2_null_check_after_deref",
        figure="Figure 2",
        system="Linux kernel",
        description="CVE-2009-1897: tun->sk dereferenced before the !tun check",
        ub_kinds=(UBKind.NULL_DEREF,),
        bug_class=BugClass.NON_OPTIMIZATION,
        algorithms=(Algorithm.ELIMINATION, Algorithm.SIMPLIFY_BOOLEAN),
        source_template="""
struct sock_{S} { int fd; };
struct tun_struct_{S} { struct sock_{S} *sk; };
int tun_chr_poll_{S}(struct tun_struct_{S} *tun) {
    struct sock_{S} *sk = tun->sk;
    if (!tun)
        return 1;
    return 0;
}
""",
    ),
    Snippet(
        name="fig10_postgres_division_overflow",
        figure="Figure 10",
        system="Postgres",
        description="overflow check placed after the 64-bit signed division",
        ub_kinds=(UBKind.SIGNED_OVERFLOW,),
        bug_class=BugClass.NON_OPTIMIZATION,
        algorithms=(Algorithm.SIMPLIFY_BOOLEAN,),
        source_template="""
int64_t int8div_{S}(int64_t arg1, int64_t arg2) {
    if (arg2 == 0)
        return 0;
    int64_t result = arg1 / arg2;
    if (arg2 == -1 && arg1 < 0 && result <= 0)
        return 0;
    return result;
}
""",
    ),
    Snippet(
        name="fig11_strchr_plus_one_null_check",
        figure="Figure 11",
        system="Linux kernel",
        description="null check applied to strchr() + 1 instead of strchr()",
        ub_kinds=(UBKind.POINTER_OVERFLOW,),
        bug_class=BugClass.NON_OPTIMIZATION,
        algorithms=(Algorithm.SIMPLIFY_BOOLEAN, Algorithm.ELIMINATION),
        source_template="""
int dn_node_address_{S}(char *buf) {
    unsigned long node;
    char *nodep = strchr(buf, '.') + 1;
    if (!nodep)
        return -5;
    node = simple_strtoul(nodep, 0, 10);
    return 0;
}
""",
    ),
    Snippet(
        name="fig12_ffmpeg_amf_bounds_check",
        figure="Figure 12",
        system="FFmpeg+Libav",
        description="data + size < data rewritten into size < 0 by the algebra oracle",
        ub_kinds=(UBKind.POINTER_OVERFLOW,),
        bug_class=BugClass.URGENT_OPTIMIZATION,
        algorithms=(Algorithm.SIMPLIFY_ALGEBRA,),
        source_template="""
int amf_parse_{S}(char *data, char *data_end, int size) {
    if (data + size >= data_end || data + size < data)
        return -1;
    data = data + size;
    return 0;
}
""",
    ),
    Snippet(
        name="fig13_plan9_pdec_negation",
        figure="Figure 13",
        system="plan9port",
        description="-k >= 0 used to filter INT_MIN inside a k < 0 branch",
        ub_kinds=(UBKind.SIGNED_OVERFLOW,),
        bug_class=BugClass.URGENT_OPTIMIZATION,
        algorithms=(Algorithm.SIMPLIFY_BOOLEAN,),
        source_template="""
int pdec_{S}(int k) {
    if (k < 0) {
        if (-k >= 0)
            return 1;
        return 2;
    }
    return 0;
}
""",
    ),
    Snippet(
        name="fig14_postgres_time_bomb",
        figure="Figure 14",
        system="Postgres",
        description="(-arg1 < 0) == (arg1 < 0) used to detect INT64_MIN",
        ub_kinds=(UBKind.SIGNED_OVERFLOW,),
        bug_class=BugClass.TIME_BOMB,
        algorithms=(Algorithm.SIMPLIFY_BOOLEAN, Algorithm.ELIMINATION),
        source_template="""
int check_int64_min_{S}(int64_t arg1) {
    if (arg1 != 0 && ((-arg1 < 0) == (arg1 < 0)))
        return -1;
    return 0;
}
""",
    ),
    Snippet(
        name="fig15_redundant_null_check",
        figure="Figure 15",
        system="Linux kernel",
        description="caller guarantees c != NULL; the flagged check is redundant",
        ub_kinds=(UBKind.NULL_DEREF,),
        bug_class=BugClass.REDUNDANT,
        algorithms=(Algorithm.ELIMINATION, Algorithm.SIMPLIFY_BOOLEAN),
        source_template="""
struct p9_client_{S} { long trans; int status; };
int rdma_close_{S}(struct p9_client_{S} *c) {
    long rdma = c->trans;
    if (c)
        return 1;
    return 0;
}
""",
    ),
    Snippet(
        name="signed_add_sanity_check",
        figure="Figure 4 (col 3)",
        description="x + 100 < x, the gcc bug 30475 debate",
        ub_kinds=(UBKind.SIGNED_OVERFLOW,),
        bug_class=BugClass.URGENT_OPTIMIZATION,
        algorithms=(Algorithm.SIMPLIFY_BOOLEAN, Algorithm.ELIMINATION),
        source_template="""
int alloc_guard_{S}(int len) {
    if (len + 100 < len)
        return -1;
    return len + 100;
}
""",
    ),
    Snippet(
        name="positive_signed_overflow_check",
        figure="Figure 4 (col 4)",
        description="x known positive, then x + 100 < 0 tested",
        ub_kinds=(UBKind.SIGNED_OVERFLOW,),
        bug_class=BugClass.URGENT_OPTIMIZATION,
        algorithms=(Algorithm.SIMPLIFY_BOOLEAN, Algorithm.ELIMINATION),
        source_template="""
int grow_buffer_{S}(int n) {
    if (n <= 0)
        return 0;
    if (n + 100 < 0)
        return -1;
    return n + 100;
}
""",
    ),
    Snippet(
        name="ext4_oversized_shift_check",
        figure="Figure 4 (col 5)",
        system="Linux kernel",
        description="!(1 << x) intended to reject large shift amounts (ext4 patch)",
        ub_kinds=(UBKind.OVERSIZED_SHIFT,),
        bug_class=BugClass.URGENT_OPTIMIZATION,
        algorithms=(Algorithm.SIMPLIFY_BOOLEAN, Algorithm.ELIMINATION),
        source_template="""
int ext4_fill_super_{S}(int groups_per_flex) {
    if (!(1 << groups_per_flex))
        return -22;
    return 1 << groups_per_flex;
}
""",
    ),
    Snippet(
        name="php_abs_overflow_check",
        figure="Figure 4 (col 6)",
        system="PHP",
        description="abs(x) < 0 used to catch INT_MIN in the PHP interpreter",
        ub_kinds=(UBKind.ABS_OVERFLOW,),
        bug_class=BugClass.URGENT_OPTIMIZATION,
        algorithms=(Algorithm.SIMPLIFY_BOOLEAN, Algorithm.ELIMINATION),
        source_template="""
int php_round_{S}(int places) {
    if (abs(places) < 0)
        return -1;
    return abs(places);
}
""",
    ),
    Snippet(
        name="division_by_zero_late_check",
        description="divide first, reject the zero divisor afterwards",
        ub_kinds=(UBKind.DIV_BY_ZERO,),
        bug_class=BugClass.NON_OPTIMIZATION,
        algorithms=(Algorithm.ELIMINATION,),
        source_template="""
int average_{S}(int total, int count) {
    int mean = total / count;
    if (count == 0)
        return 0;
    return mean;
}
""",
    ),
    Snippet(
        name="buffer_index_checked_after_use",
        description="array indexed before the bounds check",
        ub_kinds=(UBKind.BUFFER_OVERFLOW,),
        bug_class=BugClass.TIME_BOMB,
        algorithms=(Algorithm.ELIMINATION,),
        source_template="""
int table_lookup_{S}(int idx) {
    int table[16];
    int value = table[idx];
    if (idx < 0 || idx >= 16)
        return -1;
    return value;
}
""",
    ),
    Snippet(
        name="memcpy_overlap_guard_after_copy",
        description="self-copy (overlap) check placed after the memcpy",
        ub_kinds=(UBKind.MEMCPY_OVERLAP,),
        bug_class=BugClass.TIME_BOMB,
        algorithms=(Algorithm.ELIMINATION,),
        source_template="""
int copy_packet_{S}(char *dst, char *src, unsigned long len) {
    memcpy(dst, src, len);
    if (dst == src && len != 0)
        return -1;
    return 0;
}
""",
    ),
    Snippet(
        name="use_after_free_check",
        description="pointer used after free, then tested",
        ub_kinds=(UBKind.USE_AFTER_FREE,),
        bug_class=BugClass.TIME_BOMB,
        algorithms=(Algorithm.ELIMINATION,),
        source_template="""
int drop_connection_{S}(int *state) {
    free(state);
    int last = *state;
    if (!state)
        return -1;
    return last;
}
""",
    ),
    Snippet(
        name="use_after_realloc_check",
        description="old pointer dereferenced after a successful realloc",
        ub_kinds=(UBKind.USE_AFTER_REALLOC,),
        bug_class=BugClass.TIME_BOMB,
        algorithms=(Algorithm.ELIMINATION,),
        source_template="""
int grow_table_{S}(int *table, unsigned long new_size) {
    int *bigger = realloc(table, new_size);
    if (bigger != 0) {
        int first = *table;
        if (!table)
            return -1;
        return first;
    }
    return 0;
}
""",
    ),
    Snippet(
        name="null_check_after_field_write",
        description="structure field written through the pointer before the null check",
        ub_kinds=(UBKind.NULL_DEREF,),
        bug_class=BugClass.URGENT_OPTIMIZATION,
        algorithms=(Algorithm.ELIMINATION, Algorithm.SIMPLIFY_BOOLEAN),
        source_template="""
struct request_{S} { int flags; int status; };
int submit_request_{S}(struct request_{S} *req) {
    req->status = 0;
    if (req == 0)
        return -12;
    req->flags = 1;
    return 0;
}
""",
    ),
    Snippet(
        name="pointer_offset_wrap_check_unsigned",
        description="start + offset < start with an unsigned offset (Python _sre pattern)",
        system="Python",
        ub_kinds=(UBKind.POINTER_OVERFLOW,),
        bug_class=BugClass.URGENT_OPTIMIZATION,
        algorithms=(Algorithm.SIMPLIFY_BOOLEAN, Algorithm.ELIMINATION),
        source_template="""
int sre_match_{S}(char *ptr, unsigned long offset, char *end) {
    if (ptr + offset < ptr)
        return 0;
    if (ptr + offset > end)
        return 0;
    return 1;
}
""",
    ),
    Snippet(
        name="signed_add_overflow_check_after",
        description="overflow of a positive increment tested after the addition",
        ub_kinds=(UBKind.SIGNED_OVERFLOW,),
        bug_class=BugClass.TIME_BOMB,
        algorithms=(Algorithm.ELIMINATION,),
        source_template="""
int append_record_{S}(int used, int extra) {
    int total = used + extra;
    if (extra > 0 && total < used)
        return -1;
    return total;
}
""",
    ),
    Snippet(
        name="kerberos_length_check",
        system="Kerberos",
        description="length sanity check on a pointer sum (krb5-style buffer parsing)",
        ub_kinds=(UBKind.POINTER_OVERFLOW,),
        bug_class=BugClass.URGENT_OPTIMIZATION,
        algorithms=(Algorithm.SIMPLIFY_BOOLEAN, Algorithm.ELIMINATION),
        source_template="""
int krb5_parse_{S}(char *ptr, unsigned int len, char *limit) {
    if (ptr + len < ptr)
        return -1;
    if (ptr + len > limit)
        return -1;
    return 0;
}
""",
    ),
    Snippet(
        name="shift_by_width_guard_after",
        description="value shifted before the width guard",
        ub_kinds=(UBKind.OVERSIZED_SHIFT,),
        bug_class=BugClass.TIME_BOMB,
        algorithms=(Algorithm.ELIMINATION,),
        source_template="""
unsigned int bitmask_{S}(unsigned int bits) {
    unsigned int mask = 1u << bits;
    if (bits >= 32u)
        return 0u;
    return mask;
}
""",
    ),
]


# ---------------------------------------------------------------------------
# Stable snippets (must NOT be reported)
# ---------------------------------------------------------------------------

STABLE_SNIPPETS: List[Snippet] = [
    Snippet(
        name="stable_division_guard",
        description="divisor tested before the division",
        source_template="""
int safe_div_{S}(int a, int b) {
    if (b == 0)
        return 0;
    return a / b;
}
""",
    ),
    Snippet(
        name="stable_null_guard",
        description="pointer tested before the dereference",
        source_template="""
int deref_{S}(int *p) {
    if (!p)
        return -1;
    return *p;
}
""",
    ),
    Snippet(
        name="stable_bounds_rewrite",
        description="the recommended x >= end - start rewrite from §6.2.2",
        source_template="""
int parse_{S}(char *data, char *data_end, long size) {
    if (size < 0 || size >= data_end - data)
        return -1;
    return 0;
}
""",
    ),
    Snippet(
        name="stable_unsigned_wraparound",
        description="unsigned wraparound is defined behaviour; check is meaningful",
        source_template="""
unsigned int add_sat_{S}(unsigned int x) {
    if (x + 16u < x)
        return 0xffffffffu;
    return x + 16u;
}
""",
    ),
    Snippet(
        name="stable_limit_check_before_add",
        description="overflow avoided by checking against INT_MAX first",
        source_template="""
int bump_{S}(int x) {
    if (x > 2147483547)
        return -1;
    if (x < 0)
        return -1;
    return x + 100;
}
""",
    ),
    Snippet(
        name="stable_shift_guard",
        description="shift amount validated before shifting",
        source_template="""
unsigned int mask_{S}(unsigned int bits) {
    if (bits >= 32u)
        return 0u;
    return 1u << bits;
}
""",
    ),
    Snippet(
        name="stable_loop_sum",
        description="plain loop arithmetic, nothing to report",
        source_template="""
int sum_{S}(int n) {
    int total = 0;
    for (int i = 0; i < n; i = i + 1)
        total = total + 1;
    return total;
}
""",
    ),
    Snippet(
        name="stable_struct_walk",
        description="struct access guarded by a prior null check",
        source_template="""
struct node_{S} { int value; struct node_{S} *next; };
int head_value_{S}(struct node_{S} *head) {
    if (head == 0)
        return -1;
    return head->value;
}
""",
    ),
]


# ---------------------------------------------------------------------------
# Lookup helpers
# ---------------------------------------------------------------------------

_ALL_BY_NAME: Dict[str, Snippet] = {s.name: s for s in SNIPPETS + STABLE_SNIPPETS}


def snippet_by_name(name: str) -> Snippet:
    """Look up any snippet (unstable or stable) by name."""
    if name not in _ALL_BY_NAME:
        raise KeyError(f"unknown snippet {name!r}")
    return _ALL_BY_NAME[name]


def snippets_for_kind(kind: UBKind) -> List[Snippet]:
    """All unstable snippets whose expected UB kinds include ``kind``."""
    return [s for s in SNIPPETS if kind in s.ub_kinds]


def paper_figure_snippets() -> List[Snippet]:
    """The snippets that correspond to numbered figures in the paper."""
    return [s for s in SNIPPETS if s.figure.startswith("Figure 1") or s.figure == "Figure 2"]
