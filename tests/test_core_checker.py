"""End-to-end checker tests on the paper's examples (§2.2, §6.2)."""

import pytest

from repro import check_source
from repro.core.report import Algorithm
from repro.core.ubconditions import UBKind


def kinds_of(report):
    kinds = set()
    for bug in report.bugs:
        kinds.update(bug.ub_kinds)
    return kinds


def algorithms_of(report):
    return {bug.algorithm for bug in report.bugs}


class TestFigure4Checks:
    """The six unstable sanity checks from Figure 4 must all be flagged."""

    def test_pointer_overflow_check(self):
        report = check_source("""
            int f(char *p) {
                if (p + 100 < p) return -1;
                return 0;
            }
        """)
        assert report.bugs
        assert UBKind.POINTER_OVERFLOW in kinds_of(report)

    def test_null_check_after_dereference(self):
        report = check_source("""
            int f(int *p) {
                int x = *p;
                if (!p) return -1;
                return x;
            }
        """)
        assert report.bugs
        assert UBKind.NULL_DEREF in kinds_of(report)

    def test_signed_overflow_check(self):
        report = check_source("""
            int f(int x) {
                if (x + 100 < x) return -1;
                return 0;
            }
        """)
        assert report.bugs
        assert UBKind.SIGNED_OVERFLOW in kinds_of(report)

    def test_positive_signed_overflow_check(self):
        # if (x+ + 100 < 0) with x known positive
        report = check_source("""
            int f(int x) {
                if (x <= 0) return 0;
                if (x + 100 < 0) return -1;
                return 1;
            }
        """)
        assert report.bugs
        assert UBKind.SIGNED_OVERFLOW in kinds_of(report)

    def test_oversized_shift_check(self):
        report = check_source("""
            int f(int x) {
                if (!(1 << x)) return -1;
                return 0;
            }
        """)
        assert report.bugs
        assert UBKind.OVERSIZED_SHIFT in kinds_of(report)

    def test_abs_overflow_check(self):
        report = check_source("""
            int f(int x) {
                if (abs(x) < 0) return -1;
                return 0;
            }
        """)
        assert report.bugs
        assert UBKind.ABS_OVERFLOW in kinds_of(report)


class TestCaseStudies:
    """§6.2 case studies (Figures 1, 2, 10-15)."""

    def test_figure1_buffer_bounds_check(self):
        report = check_source("""
            int check(char *buf, char *buf_end, unsigned int len) {
                if (buf + len >= buf_end) return -1;
                if (buf + len < buf) return -1;
                return 0;
            }
        """)
        assert report.bugs
        assert UBKind.POINTER_OVERFLOW in kinds_of(report)

    def test_figure2_tun_null_check(self):
        report = check_source("""
            struct sock { int fd; };
            struct tun_struct { struct sock *sk; };
            int poll(struct tun_struct *tun) {
                struct sock *sk = tun->sk;
                if (!tun) return 1;
                return 0;
            }
        """)
        assert report.bugs
        assert UBKind.NULL_DEREF in kinds_of(report)
        assert Algorithm.ELIMINATION in algorithms_of(report)

    def test_figure10_postgres_division_overflow_check(self):
        report = check_source("""
            int64_t int8div(int64_t arg1, int64_t arg2) {
                if (arg2 == 0) return 0;
                int64_t result = arg1 / arg2;
                if (arg2 == -1 && arg1 < 0 && result <= 0) return 0;
                return result;
            }
        """)
        assert report.bugs
        assert UBKind.SIGNED_OVERFLOW in kinds_of(report)

    def test_figure11_strchr_plus_one_null_check(self):
        report = check_source("""
            int parse_node(char *buf) {
                unsigned long node;
                char *nodep = strchr(buf, '.') + 1;
                if (!nodep) return -5;
                node = simple_strtoul(nodep, 0, 10);
                return 0;
            }
        """)
        assert report.bugs
        assert UBKind.POINTER_OVERFLOW in kinds_of(report)

    def test_figure12_ffmpeg_bounds_check_simplified_by_algebra(self):
        report = check_source("""
            int parse(char *data, char *data_end, int size) {
                if (data + size >= data_end || data + size < data) return -1;
                data = data + size;
                return 0;
            }
        """)
        assert report.bugs
        assert Algorithm.SIMPLIFY_ALGEBRA in algorithms_of(report)
        assert any("< 0" in bug.replacement for bug in report.bugs)

    def test_figure13_plan9_negation_check(self):
        report = check_source("""
            int pdec(int k) {
                if (k < 0) {
                    if (-k >= 0) return 1;
                    return 2;
                }
                return 0;
            }
        """)
        assert report.bugs
        assert UBKind.SIGNED_OVERFLOW in kinds_of(report)
        assert any(bug.replacement == "true" for bug in report.bugs)

    def test_figure14_postgres_time_bomb(self):
        report = check_source("""
            int check_min(int64_t arg1) {
                if (arg1 != 0 && ((-arg1 < 0) == (arg1 < 0))) return -1;
                return 0;
            }
        """)
        assert report.bugs
        assert UBKind.SIGNED_OVERFLOW in kinds_of(report)

    def test_figure15_redundant_null_check(self):
        # The caller guarantees c is non-null; the code is still flagged
        # (it is unstable), and the classification machinery is what marks it
        # as redundant in the corpus.
        report = check_source("""
            struct p9_client { long trans; int status; };
            int disconnect(struct p9_client *c) {
                long rdma = c->trans;
                if (c) return 1;
                return 0;
            }
        """)
        assert report.bugs
        assert UBKind.NULL_DEREF in kinds_of(report)


class TestStableCode:
    """Well-written checks must NOT be flagged (no false positives)."""

    def test_correct_division_guard(self):
        report = check_source("""
            int f(int x, int y) {
                if (y == 0) return -1;
                return x / y;
            }
        """)
        assert not report.bugs

    def test_correct_overflow_check_before_operation(self):
        report = check_source("""
            int f(int x) {
                if (x > 2147483547) return -1;
                if (x < 0) return -1;
                return x + 100;
            }
        """)
        assert not report.bugs

    def test_null_check_before_dereference(self):
        report = check_source("""
            int f(int *p) {
                if (!p) return -1;
                return *p;
            }
        """)
        assert not report.bugs

    def test_len_checked_against_remaining_space(self):
        # The recommended rewrite from §6.2.2: x >= data_end - data.
        report = check_source("""
            int parse(char *data, char *data_end, long size) {
                if (size < 0 || size >= data_end - data) return -1;
                return 0;
            }
        """)
        assert not report.bugs

    def test_unsigned_wraparound_is_defined(self):
        report = check_source("""
            unsigned int f(unsigned int x) {
                if (x + 100u < x) return 0;
                return x + 100u;
            }
        """)
        # Unsigned wraparound is well defined; the check is meaningful.
        assert not report.bugs

    def test_plain_arithmetic_not_flagged(self):
        report = check_source("""
            int sum3(int a, int b, int c) { return a + b + c; }
        """)
        assert not report.bugs


class TestCheckerConfiguration:
    def test_macro_origin_reports_suppressed_by_default(self):
        source = """
            #define IS_VALID(p) ((p) != 0)
            struct obj { int tag; };
            int f(struct obj *p) {
                int t = p->tag;
                if (!IS_VALID(p)) return -1;
                return t;
            }
        """
        default_report = check_source(source)
        assert not any(b.origin and b.origin.kind.value == "macro"
                       for b in default_report.bugs)
        # The filter fired: the macro-origin finding was dropped, not missed.
        assert default_report.functions[0].suppressed_compiler_origin == 1

    def test_query_statistics_populated(self):
        report = check_source("int f(int x) { if (x + 1 < x) return 1; return 0; }")
        assert report.queries > 0
        assert report.timeouts == 0
        assert report.analysis_time >= 0.0

    def test_report_describe_is_readable(self):
        report = check_source("""
            int f(int *p) { int x = *p; if (!p) return -1; return x; }
        """)
        text = report.describe()
        assert "unstable code" in text
        assert "null pointer dereference" in text

    def test_report_describe_separates_cache_hits(self):
        """A warm cache answers every query: none counts as solved."""
        from repro.corpus.snippets import SNIPPETS
        from repro.engine.cache import SolverQueryCache

        cache = SolverQueryCache()
        source = SNIPPETS[0].render("v")
        cold = check_source(source, cache=cache)
        warm = check_source(source, cache=cache)
        assert warm.queries == cold.queries > 0
        assert warm.solver_queries == 0 and warm.sat_calls == 0
        text = warm.describe()
        assert (f"0 queries solved, {warm.queries} cache hits, 0 timeouts"
                in text)
        assert "solver queries" not in text
        assert (f"{cold.queries} queries solved, 0 cache hits"
                in cold.describe())

    def test_by_algorithm_and_by_kind_breakdowns(self):
        report = check_source("""
            int f(int *p) { int x = *p; if (!p) return -1; return x; }
        """)
        by_algorithm = report.by_algorithm()
        assert sum(by_algorithm.values()) == len(report.bugs)
        by_kind = report.by_ub_kind()
        assert UBKind.NULL_DEREF in by_kind
