"""A damaged ``.ckpt`` sidecar is rebuilt, not trusted.

The sidecar's key (schema, trace size, header digest) can
still match after its body was damaged. Before a parallel plan uses it,
:func:`repro.trace.shards.load_or_build_checkpoints` checks the digest
of its checkpoints and every value a segment restores: frame and
``last_popped`` indices against the header's function table, ``cstack``
pcs against the construct heads and shadow values against int64. A
sidecar that fails is stale, like a torn one: the trace is scanned
again and the sidecar rewritten, so parallel replay still equals serial
replay instead of raising in a worker — or silently differing, when
the damage stays in range (the digest cases, which keep every value in
range).
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


def _write_time_minus_7(checkpoint: dict) -> None:
    for row in checkpoint["shadow"]:
        if row[1] != -1:
            row[2] -= 7


def _heap_base_999999999(checkpoint: dict) -> None:
    blocks = checkpoint["heap"].get("blocks")
    if blocks:
        blocks[0][0] = 999999999


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


#: Damage that keeps every value in range; only the digest sees it.
IN_RANGE = {
    "write-time-minus-7": (_write_time_minus_7, ("flat", "dep")),
    "heap-base-999999999": (_heap_base_999999999, ("counts",)),
}


@pytest.fixture(scope="module")
def wordcount(tmp_path_factory):
    """A wordcount trace with its sidecar prebuilt at interval 2000, and
    each analysis's serial report."""
    path = str(tmp_path_factory.mktemp("sidecar") / "wordcount.trace")
    workload = get("wordcount", 1.0)
    record_source(workload.source, path, filename=workload.name,
                  checkpoint_interval=2000)
    with open(path + SIDECAR_SUFFIX) as handle:
        sidecar = json.load(handle)
    serial = {name: _reports(replay_trace(path, [name]))
              for name in ("flat", "dep", "counts")}
    return path, sidecar, serial


@pytest.mark.parametrize("corruption, name", [
    (corruption, name) for corruption, (_, names) in sorted(IN_RANGE.items())
    for name in names])
def test_in_range_damage_is_rebuilt(wordcount, corruption, name):
    path, sidecar, serial = wordcount
    damage, _ = IN_RANGE[corruption]
    damaged = json.loads(json.dumps(sidecar))
    for checkpoint in damaged["checkpoints"]:
        damage(checkpoint)
    assert damaged != sidecar
    with open(path + SIDECAR_SUFFIX, "w") as handle:
        json.dump(damaged, handle)

    outcome = parallel_replay(path, [name], jobs=2, interval=2000)
    assert outcome.mode == "parallel", outcome.fallback_reason
    assert _reports(outcome) == serial[name]
    with open(path + SIDECAR_SUFFIX) as handle:
        assert json.load(handle) == sidecar
