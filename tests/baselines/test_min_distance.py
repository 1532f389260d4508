"""TEST-style loop-distance baseline tests."""

from repro.baselines import profile_loop_distances
from repro.core.profile_data import DepKind
from repro.ir.lowering import compile_source


class TestDistances:
    def test_adjacent_iteration_dependence(self):
        profile = profile_loop_distances("""
        int a[32];
        int main() {
            a[0] = 1;
            for (int i = 1; i < 20; i++) {
                a[i] = a[i - 1] + 1;
            }
            print(a[19]);
            return 0;
        }
        """)
        (loop,) = [s for s in profile.loops.values() if s.iterations > 2]
        assert loop.overall_min_distance() == 1

    def test_strided_dependence_distance(self):
        profile = profile_loop_distances("""
        int a[64];
        int main() {
            for (int i = 0; i < 4; i++) a[i] = i;
            for (int i = 4; i < 40; i++) {
                a[i] = a[i - 4] + 1;
            }
            print(a[39]);
            return 0;
        }
        """)
        loops = sorted(profile.loops.values(),
                       key=lambda s: s.iterations, reverse=True)
        strided = loops[0]
        # The RAW a[i-4] -> a[i] chain has distance 4 in iterations.
        raw = {k: v for k, v in strided.min_distance.items()
               if k[2] is DepKind.RAW}
        assert 4 in raw.values()

    def test_independent_loop_reports_nothing(self):
        profile = profile_loop_distances("""
        int a[32];
        int main() {
            for (int i = 0; i < 20; i++) {
                a[i] = i * 3;
            }
            print(a[5]);
            return 0;
        }
        """)
        for stats in profile.loops.values():
            raw = {k: v for k, v in stats.min_distance.items()
                   if k[2] is DepKind.RAW
                   and not k[0] == k[1]}  # ignore self edges on counters
            # The only distances may come from the induction variable,
            # which TEST (hardware, register-level) also would not see;
            # the array itself must be clean.
            assert all(v >= 1 for v in raw.values())

    def test_iteration_counts(self):
        profile = profile_loop_distances("""
        int main() {
            int s = 0;
            for (int i = 0; i < 7; i++) s += i;
            print(s);
            return 0;
        }
        """)
        (loop,) = profile.loops.values()
        assert loop.iterations == 7

    def test_separate_activations_do_not_mix(self):
        """Distances never span two activations of the same loop: the
        ``a[i] = i`` write of ``touch(0)`` and the ``x = a[i]`` read of
        ``touch(1)`` are not 'iterations apart', so no key links them."""
        source = """
        int a[8];
        void touch(int round) {
            for (int i = 0; i < 8; i++) {
                if (round == 0) { a[i] = i; }
                else { int x = a[i]; x = x + 1; }
            }
        }
        int main() { touch(0); touch(1); return 0; }
        """
        program = compile_source(source)
        profile = profile_loop_distances(program=program)
        loop = next(s for s in profile.loops.values()
                    if s.iterations == 16)

        def line_of(text):
            return next(n for n, line in enumerate(source.splitlines(), 1)
                        if text in line)

        write_line, read_line = line_of("a[i] = i"), line_of("x = a[i]")
        lines = {program.loc_of(pc)[0] for pc in range(len(program.instrs))}
        assert {write_line, read_line} <= lines
        linked = [(head, tail, kind)
                  for head, tail, kind in loop.min_distance
                  if program.loc_of(head)[0] == write_line
                  and program.loc_of(tail)[0] == read_line]
        assert not linked
        assert all(dist >= 1 for dist in loop.min_distance.values())


class TestGeneralityGap:
    """What the paper gains over TEST: non-loop constructs."""

    def test_procedure_candidates_invisible(self, gzip_like_source):
        profile = profile_loop_distances(gzip_like_source)
        # The TEST-style profile contains only loops; flush_block (the
        # paper's C9 candidate) has no entry at all.
        names = {s.name for s in profile.loops.values()}
        assert all(name.startswith("loop(")
                   or name.startswith("dowhile") for name in names)
        assert not any("flush_block" == n for n in names)
