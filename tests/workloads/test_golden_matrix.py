"""Golden workload matrix: every bundled workload × every analysis.

Each workload is run once per session: one cold ``Session.analyze``
call records the trace in the same run that feeds all registered
analyses (``tests/telemetry/test_parity.py`` reaches the same goldens
by replaying a recorded trace), and every ``to_dict()`` is compared against a committed golden snapshot under
``tests/golden/``. Any drift — a changed dependence edge, a shifted
min distance, one extra cold miss — fails with a readable unified
diff, so unintended profile changes cannot slip through a refactor.

To bless intentional changes, regenerate the snapshots::

    ALCHEMIST_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest \\
        tests/workloads/test_golden_matrix.py -q

and commit the updated ``tests/golden/*.json`` together with the
change that caused them (the diff in review *is* the profile drift).
"""

import difflib
import json
import os
from pathlib import Path

import pytest

from repro.analyses import analysis_names
from repro.api import Session
from repro.workloads import EXTRA_ORDER, TABLE3_ORDER, get

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "golden"
SCALE = 0.25
ALL_WORKLOADS = list(TABLE3_ORDER) + list(EXTRA_ORDER)
REGEN = bool(os.environ.get("ALCHEMIST_REGEN_GOLDEN"))

#: Diff lines shown before truncation (a full workload diff can be
#: thousands of lines; the head is where the story is).
DIFF_LIMIT = 80


def _golden_path(workload: str) -> Path:
    return GOLDEN_DIR / f"{workload.replace('.', '_')}.json"


@pytest.fixture(scope="session")
def session():
    with Session() as s:
        yield s


def _snapshot(session: Session, workload: str) -> dict:
    names = analysis_names()
    report = session.analyze(get(workload, SCALE).source, names,
                             filename=workload)
    assert session.stats.records <= len(ALL_WORKLOADS), \
        "a workload must be recorded at most once per session"
    assert set(report.modes.values()) == {"live"}
    return {
        "workload": workload,
        "scale": SCALE,
        "analyses": {name: report[name].to_dict() for name in names},
    }


def _render(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("workload", ALL_WORKLOADS)
def test_profile_matches_golden(session, workload):
    payload = _snapshot(session, workload)
    path = _golden_path(workload)
    rendered = _render(payload)
    if REGEN:
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        path.write_text(rendered)
        return
    if not path.exists():
        pytest.fail(
            f"no golden snapshot for {workload!r} at {path}; generate "
            "with ALCHEMIST_REGEN_GOLDEN=1 (see module docstring)")
    expected = path.read_text()
    if rendered == expected:
        return
    diff = list(difflib.unified_diff(
        expected.splitlines(), rendered.splitlines(),
        fromfile=f"golden/{path.name}", tofile="current",
        lineterm=""))
    shown = "\n".join(diff[:DIFF_LIMIT])
    if len(diff) > DIFF_LIMIT:
        shown += f"\n... ({len(diff) - DIFF_LIMIT} more diff lines)"
    pytest.fail(
        f"profile drift on {workload!r} ({len(diff)} diff lines).\n"
        "If intentional, regenerate goldens with "
        "ALCHEMIST_REGEN_GOLDEN=1 and commit the diff.\n" + shown)
