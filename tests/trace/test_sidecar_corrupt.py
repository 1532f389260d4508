"""A damaged ``.ckpt`` sidecar is rebuilt, not trusted.

The sidecar's key (schema, trace size, header digest, sampling) can
still match after its body was damaged. Before a parallel plan uses it,
:func:`repro.trace.shards.load_or_build_checkpoints` checks every value
a segment restores: frame and ``last_popped`` indices against the
header's function table, ``cstack`` pcs against the construct heads and
shadow values against int64. A sidecar that fails is stale, like a torn
one: the trace is scanned again and the sidecar rewritten, so parallel
replay still equals serial replay instead of raising in a worker.
"""

import json

import pytest

from repro.trace.parallel import parallel_replay
from repro.trace.replay import replay_trace
from repro.trace.shards import SIDECAR_SUFFIX, load_or_build_checkpoints
from repro.trace.writer import record_source
from repro.workloads import get


def _frame_999(checkpoint: dict) -> None:
    checkpoint["frames"].append(999)


def _last_popped_999(checkpoint: dict) -> None:
    checkpoint["last_popped"] = [999, 0]


def _cstack_pc(checkpoint: dict) -> None:
    checkpoint["cstack"].append([99999, checkpoint["time"]])


def _shadow_beyond_int64(checkpoint: dict) -> None:
    checkpoint["shadow"].append([1 << 70, 5, 1, []])


CORRUPTIONS = {
    "frame-index": _frame_999,
    "last-popped-index": _last_popped_999,
    "cstack-pc": _cstack_pc,
    "shadow-beyond-int64": _shadow_beyond_int64,
}


@pytest.fixture(scope="module")
def clean(tmp_path_factory):
    """A bzip2 trace, its sidecar as the scan writes it, and each
    analysis set's serial reports."""
    path = str(tmp_path_factory.mktemp("sidecar") / "bzip2.trace")
    workload = get("bzip2", 0.3)
    record_source(workload.source, path, filename=workload.name)
    assert load_or_build_checkpoints(path)
    with open(path + SIDECAR_SUFFIX) as handle:
        sidecar = json.load(handle)
    serial = {names: _reports(replay_trace(path, names.split(",")))
              for names in ("counts", "dep,flat")}
    return path, sidecar, serial


def _reports(outcome) -> dict:
    return {name: report.to_dict()
            for name, report in outcome.reports.items()}


@pytest.mark.parametrize("names", ["counts", "dep,flat"])
@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
def test_corrupt_sidecar_is_rebuilt(clean, corruption, names):
    path, sidecar, serial = clean
    damaged = json.loads(json.dumps(sidecar))
    for checkpoint in damaged["checkpoints"]:
        CORRUPTIONS[corruption](checkpoint)
    with open(path + SIDECAR_SUFFIX, "w") as handle:
        json.dump(damaged, handle)

    outcome = parallel_replay(path, names.split(","), jobs=2)
    assert outcome.mode == "parallel", outcome.fallback_reason
    assert _reports(outcome) == serial[names]
    with open(path + SIDECAR_SUFFIX) as handle:
        assert json.load(handle) == sidecar
