"""Interpreter semantics tests."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.errors import MiniCRuntimeError, StepLimitExceeded
from repro.ir.lowering import compile_source
from repro.ir.arith import c_div
from repro.runtime.interpreter import Interpreter, run_source
from tests.conftest import outputs
from tests.runtime.reference import ReferenceInterpreter


def result(expr: str, prelude: str = "") -> int:
    source = f"{prelude}\nint main() {{ return {expr}; }}"
    value, _ = run_source(source)
    return value


def printed(source: str):
    return outputs(source)


class TestArithmetic:
    def test_basics(self):
        assert result("2 + 3 * 4") == 14
        assert result("(2 + 3) * 4") == 20
        assert result("10 - 7") == 3

    def test_division_truncates_toward_zero(self):
        assert result("7 / 2") == 3
        assert result("-7 / 2") == -3
        assert result("7 / -2") == -3
        assert result("-7 / -2") == 3

    def test_remainder_matches_c(self):
        assert result("7 % 3") == 1
        assert result("-7 % 3") == -1
        assert result("7 % -3") == 1
        assert result("-7 % -3") == -1

    def test_division_by_zero_traps(self):
        with pytest.raises(MiniCRuntimeError):
            result("1 / 0")
        with pytest.raises(MiniCRuntimeError):
            result("1 % 0")

    def test_64bit_wraparound(self):
        big = (1 << 62)
        assert result(f"{big} + {big} + {big} + {big}") == 0
        assert result(f"{big} * 4") == 0
        assert result(f"({big} * 2 - 1) + 1") == -(1 << 63)

    def test_literals_beyond_int64_wrap_in_every_operator(self):
        """A literal past int64 stays as written until an operator
        reduces it, as the reference does, for the operators whose
        value cannot leave int64 otherwise, too."""
        big = 1 << 63
        for expr, value in ((f"{big} & -1", -big), (f"{big} | 0", -big),
                            (f"{big} ^ 0", -big), (f"{big} >> 0", -big),
                            (f"~{big}", big - 1), (f"{big} % {big + 5}",
                                                   -big)):
            program = compile_source(f"int main() {{ print({expr}); "
                                     "return 0; }")
            reference = ReferenceInterpreter(program)
            reference.run()
            interp = Interpreter(program)
            interp.run()
            assert interp.output == reference.output == [(value,)], expr

    def test_shifts(self):
        assert result("1 << 10") == 1024
        assert result("-8 >> 1") == -4  # arithmetic shift
        assert result("1 << 64") == 1  # count masked to 0..63

    def test_bitwise(self):
        assert result("12 & 10") == 8
        assert result("12 | 10") == 14
        assert result("12 ^ 10") == 6
        assert result("~0") == -1

    def test_comparisons_produce_01(self):
        assert result("3 < 4") == 1
        assert result("4 <= 3") == 0
        assert result("4 == 4") == 1
        assert result("4 != 4") == 0

    def test_unary(self):
        assert result("-(3)") == -3
        assert result("!5") == 0
        assert result("!0") == 1

    @given(st.integers(-2**40, 2**40), st.integers(-2**20, 2**20))
    def test_c_division_identity(self, a, b):
        if b == 0:
            return
        q = c_div(a, b)
        r = a - q * b
        assert q * b + r == a
        assert abs(r) < abs(b)
        # C99: remainder has the sign of the dividend (or is zero).
        assert r == 0 or (r > 0) == (a > 0)


class TestControlFlow:
    def test_if_else(self):
        assert printed("""
        int main() {
            int x = 5;
            if (x > 3) print(1); else print(2);
            if (x > 9) print(3); else print(4);
            return 0;
        }
        """) == [(1,), (4,)]

    def test_while_and_do_while(self):
        assert printed("""
        int main() {
            int i = 0; int n = 0;
            while (i < 3) { i++; n += 10; }
            do { n++; } while (0);
            print(i, n);
            return 0;
        }
        """) == [(3, 31)]

    def test_do_while_runs_at_least_once(self):
        value, _ = run_source(
            "int main() { int x = 0; do { x = 7; } while (0); return x; }")
        assert value == 7

    def test_for_with_break_continue(self):
        assert printed("""
        int main() {
            int s = 0;
            for (int i = 0; i < 100; i++) {
                if (i % 2 == 0) continue;
                if (i > 8) break;
                s += i;
            }
            print(s);
            return 0;
        }
        """) == [(1 + 3 + 5 + 7,)]

    def test_nested_loop_break_only_inner(self):
        assert printed("""
        int main() {
            int count = 0;
            for (int i = 0; i < 3; i++) {
                for (int j = 0; j < 10; j++) {
                    if (j == 2) break;
                    count++;
                }
            }
            print(count);
            return 0;
        }
        """) == [(6,)]

    def test_short_circuit_skips_side_effects(self):
        assert printed("""
        int calls;
        int bump() { calls++; return 1; }
        int main() {
            int a = 0;
            if (a && bump()) { }
            if (a || bump()) { }
            print(calls);
            return 0;
        }
        """) == [(1,)]

    def test_ternary(self):
        value, _ = run_source(
            "int main() { int a = 5; return a > 3 ? 10 : 20; }")
        assert value == 10

    def test_early_return_in_loop(self):
        value, _ = run_source("""
        int find(int limit) {
            for (int i = 0; i < limit; i++) {
                if (i * i > 50) return i;
            }
            return -1;
        }
        int main() { return find(100); }
        """)
        assert value == 8


class TestFunctionsAndMemory:
    def test_recursion(self):
        value, _ = run_source("""
        int fib(int n) {
            if (n < 2) return n;
            return fib(n - 1) + fib(n - 2);
        }
        int main() { return fib(12); }
        """)
        assert value == 144

    def test_deep_recursion_beyond_python_stack(self):
        value, _ = run_source("""
        int depth(int n) {
            if (n == 0) return 0;
            return 1 + depth(n - 1);
        }
        int main() { return depth(5000) % 256; }
        """)
        assert value == 5000 % 256

    def test_mutual_recursion(self):
        # Signatures are collected before bodies are lowered, so mutual
        # recursion needs no forward declarations.
        value, _ = run_source("""
        int is_even(int n) { if (n == 0) return 1; return is_odd(n - 1); }
        int is_odd(int n) { if (n == 0) return 0; return is_even(n - 1); }
        int main() { return is_even(10) * 10 + is_odd(7); }
        """)
        assert value == 11

    def test_array_passed_by_reference(self):
        assert printed("""
        int buf[5];
        void fill(int a[], int n) {
            for (int i = 0; i < n; i++) a[i] = i * i;
        }
        int sum(int a[], int n) {
            int s = 0;
            for (int i = 0; i < n; i++) s += a[i];
            return s;
        }
        int main() {
            fill(buf, 5);
            print(sum(buf, 5));
            return 0;
        }
        """) == [(0 + 1 + 4 + 9 + 16,)]

    def test_local_array_passed_through_two_levels(self):
        assert printed("""
        void bump(int a[]) { a[2] += 5; }
        void relay(int a[]) { bump(a); }
        int main() {
            int local[4];
            local[2] = 10;
            relay(local);
            print(local[2]);
            return 0;
        }
        """) == [(15,)]

    def test_aliasing_through_params(self):
        # Two parameter names bound to the same array: writes through one
        # are visible through the other (the paper's aliasing concern).
        assert printed("""
        int buf[3];
        int probe(int a[], int b[]) { a[0] = 41; b[0]++; return b[0]; }
        int main() { print(probe(buf, buf)); return 0; }
        """) == [(42,)]

    def test_locals_are_zero_initialized(self):
        value, _ = run_source(
            "int main() { int x; int a[3]; return x + a[0] + a[2]; }")
        assert value == 0

    def test_globals_init_and_persistence(self):
        assert printed("""
        int counter = 100;
        void tick() { counter++; }
        int main() { tick(); tick(); print(counter); return 0; }
        """) == [(102,)]

    def test_out_of_bounds_read_traps(self):
        with pytest.raises(MiniCRuntimeError):
            run_source("int buf[3]; int main() { return buf[3]; }")

    def test_out_of_bounds_negative_traps(self):
        with pytest.raises(MiniCRuntimeError):
            run_source("int buf[3]; int main() { int i = -1; "
                       "return buf[i]; }")

    def test_bounds_checked_through_reference(self):
        with pytest.raises(MiniCRuntimeError):
            run_source("""
            int get(int a[], int i) { return a[i]; }
            int main() { int local[2]; return get(local, 5); }
            """)

    def test_assert_builtin(self):
        run_source("int main() { assert(1 == 1); return 0; }")
        with pytest.raises(MiniCRuntimeError):
            run_source("int main() { assert(0); return 0; }")

    def test_step_limit(self):
        with pytest.raises(StepLimitExceeded):
            run_source("int main() { while (1) { } return 0; }",
                       max_steps=10_000)

    def test_increment_semantics(self):
        assert printed("""
        int main() {
            int i = 5;
            print(i++, i);
            print(++i, i);
            print(i--, --i);
            return 0;
        }
        """) == [(5, 6), (7, 7), (7, 5)]

    def test_postincrement_as_array_index(self):
        # The gzip idiom: outbuf[outcnt++] = value.
        assert printed("""
        int buf[4];
        int n;
        int main() {
            buf[n++] = 10;
            buf[n++] = 20;
            print(n, buf[0], buf[1]);
            return 0;
        }
        """) == [(2, 10, 20)]

    def test_compound_assign_evaluates_index_once(self):
        assert printed("""
        int buf[8];
        int idx;
        int next() { return idx++; }
        int main() {
            buf[next()] += 5;
            print(idx, buf[0]);
            return 0;
        }
        """) == [(1, 5)]


class TestDeterminism:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 50), st.integers(1, 13))
    def test_lcg_checksum_matches_python(self, n, seed):
        source = f"""
        int main() {{
            int state = {seed};
            int acc = 0;
            for (int i = 0; i < {n}; i++) {{
                state = (state * 1103515245 + 12345) % 2147483648;
                acc = (acc + state) % 1000000007;
            }}
            print(acc);
            return 0;
        }}
        """
        state, acc = seed, 0
        for _ in range(n):
            state = (state * 1103515245 + 12345) % 2147483648
            acc = (acc + state) % 1000000007
        assert printed(source) == [(acc,)]


class TestConstantFolding:
    def test_folded_sums_wrap_like_run_time_sums(self):
        """A global initializer folds with the interpreter's 64-bit
        arithmetic: the folded and the computed sum are equal."""
        assert printed("""
        int g = 9223372036854775807 + 1;
        int h = (0 - 7) / 2 + (0 - 7) % 2 + (1 << 65);
        int main() {
            int x = 9223372036854775807;
            x = x + 1;
            int y = 0 - 7;
            print(g == x, g, h == y / 2 + y % 2 + (1 << 65));
            return 0;
        }
        """) == [(1, -(1 << 63), 1)]

    def test_constant_division_by_zero_is_a_compile_error(self):
        from repro.lang.errors import SemanticError
        with pytest.raises(SemanticError, match="division by zero"):
            compile_source("int g = 1 / 0;\nint main() { return g; }")


#: A failing statement after ten loop iterations (so the failing
#: instruction's clock is far from 0), one per runtime error kind.
_LOOP = """
int g[4];
int *p;
int deep(int n) {{ int pad[4000]; pad[0] = n; return deep(n + 1); }}
int at(int a[], int i) {{ return a[i]; }}
int main() {{
    int s = 0;
    int loc[3];
    for (int i = 0; i < 10; i++) {{ s = s + i; }}
    {stmt}
    return s;
}}
"""

ERROR_KINDS = {
    "global index": ("s = g[s];", "index 45 out of bounds for 'g'[4]"),
    "local index": ("loc[s] = 1;", "index 45 out of bounds for 'loc'[3]"),
    "array parameter": ("s = at(g, 4);", "index 4 out of bounds"),
    "division": ("s = s / (s - 45);", "division by zero"),
    "remainder": ("s = s % (s - 45);", "remainder by zero"),
    "assert": ("assert(s == 0);", "assertion failed"),
    "pointer read": ("s = *p;", "invalid pointer read"),
    "pointer write": ("*p = s;", "invalid pointer write"),
    "interior reference": ("p = &g[2]; s = at(p, 100000);",
                           "points outside live memory"),
    "malloc size": ("p = malloc(s - 45);", "malloc size must be positive"),
    "double free": ("p = malloc(2); free(p); free(p);",
                    "not a live heap block"),
    "stack overflow": ("s = deep(s);", "stack overflow"),
}


class TestErrorClock:
    """Every runtime error leaves ``time`` at the failing instruction's
    clock: the reference's, and the clock at which a budget one
    instruction shorter stops at the same pc."""

    @pytest.mark.parametrize("kind", sorted(ERROR_KINDS))
    def test_time_is_the_failing_instructions_clock(self, kind):
        stmt, message = ERROR_KINDS[kind]
        program = compile_source(_LOOP.format(stmt=stmt))
        interp = Interpreter(program)
        with pytest.raises(MiniCRuntimeError,
                           match=re.escape(message)) as failed:
            interp.run()
        assert type(failed.value) is MiniCRuntimeError
        assert interp.time > 10

        reference = ReferenceInterpreter(program)
        with pytest.raises(MiniCRuntimeError) as expected:
            reference.run()
        assert (failed.value.message, failed.value.pc) == \
            (expected.value.message, expected.value.pc)
        assert interp.time == reference.time

        short = Interpreter(program, max_steps=interp.time - 1)
        with pytest.raises(StepLimitExceeded) as stopped:
            short.run()
        assert stopped.value.pc == failed.value.pc
        assert short.time == interp.time
