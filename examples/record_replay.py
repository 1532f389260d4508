"""Record once, analyze many times.

Run with::

    PYTHONPATH=src python examples/record_replay.py

A live ``Alchemist().profile`` couples the dependence analysis to an
instrumented execution; every further question (locality? hot data?)
would cost another full run. Here the program runs *once* under the
trace recorder, and the resulting file answers all three questions —
with a dependence profile bit-identical to the live one.
"""

import tempfile

from repro import Alchemist, record_source, replay_trace

SOURCE = """
int ring[128];
int checksum;

int mix(int v) {
    checksum = (checksum * 31 + v) % 65521;
    return checksum;
}

int main() {
    for (int round = 0; round < 12; round++) {
        for (int i = 0; i < 128; i++) {
            ring[i] = mix(ring[(i + 17) % 128] + round);
        }
    }
    print(checksum);
    return 0;
}
"""


def main() -> None:
    with tempfile.NamedTemporaryFile(suffix=".trace") as handle:
        recorded = record_source(SOURCE, handle.name)
        print(f"recorded {recorded.events} events "
              f"({recorded.trace_bytes} bytes) in "
              f"{recorded.wall_seconds * 1000:.1f}ms\n")

        outcome = replay_trace(handle.name, ("dep", "locality", "hot"))

    # 1. The replayed dependence profile == a live profile.
    live = Alchemist().profile(SOURCE)
    replayed = outcome.results["dep"]
    live_edges = {pc: sorted((h, t, k.value) for h, t, k in p.edges)
                  for pc, p in live.store.profiles.items()}
    replay_edges = {pc: sorted((h, t, k.value) for h, t, k in p.edges)
                    for pc, p in replayed.store.profiles.items()}
    assert live_edges == replay_edges
    print("replayed dependence profile matches the live run:")
    for view in replayed.top_constructs(3):
        print(f"  {view.name}: Tdur={view.tdur}, inst={view.instances}")

    # 2. Two more analyses for free — no re-execution.
    print()
    print(outcome.reports["locality"].text)
    print()
    for row in outcome.results["hot"][:5]:
        print(f"  hot: {row.name:20s} {row.total} accesses")


if __name__ == "__main__":
    main()
