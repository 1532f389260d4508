"""Self-test of the benchmark: a tiny-scale pass of every workload.

    python3 -m pytest perfbench -q

Each workload runs untraced and traced at a small scale. The test
checks that every metric BENCHMARK.json names is emitted with its
unit, and that every oracle ran and agreed (``correct`` with no failed
operation). It also checks the seeded inputs and the refusal to run
without the repository's sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import run  # noqa: E402

if run.SRC not in sys.path:
    sys.path.insert(0, run.SRC)

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as _handle:
    BENCH = json.load(_handle)

WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def _last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_pass_emits_every_metric(workload, trace, capsys):
    code = run.main(["--workload", workload, "--seed", "7",
                     "--seconds", "0", "--trace", str(trace),
                     "--scale", "0.05"])
    assert code == 0
    result = _last_json(capsys.readouterr().out)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name


def test_declared_metrics_match_the_code():
    assert [(m["name"], m["unit"]) for m in BENCH["end_to_end"]] \
        == run.END_TO_END
    import ledger

    assert [(m["name"], m["unit"], m["better"])
            for m in BENCH["per_layer"]] == ledger.PER_LAYER
    assert WORKLOADS == list(run.WORKLOAD_NAMES)


def test_default_seed_reproduces_bundled_sources():
    import seeds
    from repro.workloads import registry

    for name in seeds.INITIALISERS:
        bundled = registry.get(name, 1.0).source
        assert seeds.seeded_program(name, 1.0, 0).source == bundled
        assert seeds.seeded_program(name, 1.0, 5).source != bundled
        assert seeds.seeded_program(name, 1.0, 5).source \
            == seeds.seeded_program(name, 1.0, 5).source


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
