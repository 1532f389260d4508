"""Register a custom analysis and run it live, from a trace, and
alongside the builtins — all through one Session.

Run with::

    PYTHONPATH=src python examples/custom_analysis.py

This is the worked example from the README's "Architecture &
extending" section: an :class:`~repro.analyses.Analysis` is an
ordinary tracer plus a ``finish`` method, and registering it makes it
available to ``Session.analyze``, ``alchemist analyze/replay``, the
batch driver, and the registry-parametrized parity test — with no
other wiring.
"""

from repro import Session
from repro.analyses import Analysis, AnalysisResult, register

SOURCE = """
int ring[64];
int checksum;

int mix(int v) {
    checksum = (checksum * 31 + v) % 65521;
    return checksum;
}

int main() {
    for (int round = 0; round < 6; round++) {
        for (int i = 0; i < 64; i++) {
            ring[i] = mix(ring[(i + 9) % 64] + round);
        }
    }
    print(checksum);
    return 0;
}
"""


@register
class BranchBias(Analysis):
    """How often does each branch site go to each target?"""

    name = "branch-bias"
    description = "Per-site branch target histogram"

    def __init__(self) -> None:
        self.sites: dict[int, dict[int, int]] = {}

    def on_branch(self, pc: int, target_block: int,
                  timestamp: int) -> None:
        taken = self.sites.setdefault(pc, {})
        taken[target_block] = taken.get(target_block, 0) + 1

    def finish(self, ctx) -> AnalysisResult:
        rows = {}
        for pc in sorted(self.sites):
            line = ctx.program.loc_of(pc)[0]
            for target, count in sorted(self.sites[pc].items()):
                rows[f"line{line}->block{target}"] = count
        text = "\n".join(["Branch bias:"] +
                         [f"  {key}: x{count}"
                          for key, count in rows.items()])
        return AnalysisResult(analysis=self.name, data={"sites": rows},
                              text=text)


def main() -> None:
    with Session() as session:
        # A cold call: ONE run records the program and feeds the custom
        # analysis alongside two builtins.
        report = session.analyze(SOURCE,
                                 ["dep", "locality", "branch-bias"])
        print(report.to_text())
        print()

        # A second question on the same session replays the recorded
        # trace instead of executing again — and the structured output
        # is identical (the registry parity test asserts this for every
        # registered analysis).
        again = session.analyze(SOURCE, ["branch-bias", "counts"])
        assert again.modes["branch-bias"] == "replay"
        assert (again["branch-bias"].to_dict()
                == report["branch-bias"].to_dict())
        print(f"recordings made: {session.stats.records}, "
              f"runs: {session.stats.live_runs}, "
              f"replay passes: {session.stats.replay_passes}")
        print("the replay matches the recording run, bit for bit")


if __name__ == "__main__":
    main()
