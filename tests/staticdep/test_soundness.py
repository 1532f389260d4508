"""The soundness oracle: static PROVEN_INDEPENDENT is never contradicted
by the dynamic profile.

For every Table III workload, run the dependence profiler on the full
event stream and classify every observed edge of every executed
construct against the static pass. An observed edge means the two pcs
really did touch the same address inside the construct — so a
``PROVEN_INDEPENDENT`` verdict on it would be a soundness bug in the
points-to model, not an imprecision.

The fusion layer computes the same check (its ``contradictions``
counter), so both the direct classification and the fused payload are
asserted.
"""

import pytest

from repro.api import Session
from repro.staticdep import StaticVerdict, report_for
from repro.workloads import TABLE3_ORDER, get

SCALE = 0.25


@pytest.fixture(scope="module")
def session():
    with Session() as s:
        yield s


@pytest.mark.parametrize("workload", TABLE3_ORDER)
def test_static_never_contradicts_full_profile(session, workload):
    source = get(workload, SCALE).source
    outcome = session.analyze(source, ("dep",), filename=workload)
    result = outcome["dep"]
    report = result.payload
    static = report_for(report.program)

    contradictions = []
    checked = 0
    for view in report.constructs():
        for (head, tail, kind) in view.profile.edges:
            verdict = static.classify_edge(view.pc, head, tail, kind)
            checked += 1
            if verdict is StaticVerdict.PROVEN_INDEPENDENT:
                contradictions.append(
                    (view.name, head, tail, kind.value,
                     view.profile.edges[(head, tail, kind)].var_hint))
    assert not contradictions, (
        f"{workload}: static pass claimed PROVEN_INDEPENDENT on "
        f"{len(contradictions)} observed edge(s): {contradictions[:5]}")
    assert checked > 0, f"{workload}: no edges observed — vacuous oracle"

    # The fusion layer runs the same classification; its payload must
    # agree that a full trace has zero contradictions.
    fusion = result.data["static"]
    assert fusion["contradictions"] == 0
    assert fusion["edges_checked"] >= checked
