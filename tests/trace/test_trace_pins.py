"""Every bundled program's v2 trace, pinned by its sha256.

The record-stream tests compare the interpreter with itself (the
recorders against the record→hook adapter on the same run). These
digests hold the bytes a recording produces independently of how the
interpreter executes: any change to the record stream, its clocks, the
block cut or the encoder shows up here. The workloads are
deterministic generators, recorded at scale 0.1.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.ir.lowering import compile_source
from repro.trace.writer import record_program
from repro.workloads import get, names

SCALE = 0.1

TRACE_SHA256 = {
    "197.parser":
        "c974dfbcdc6c15c6a5590f8425f5c7c80b062d1f7264897bd2b9669e8293dbf3",
    "bzip2":
        "33074fbddb6883124fe7dd1eb40f91944c0d754d6760a874f7bf4a825d4edaca",
    "gzip":
        "682d6daef473c9680f56aafcbc7032dd3fdc3d60f15a7429e30e42ee44847652",
    "130.li":
        "76b46712bef975fa88bbea98a3d98fc468050367654efc79facf7b9546a0969f",
    "ogg":
        "046e902b8e8aa0a84aa9e850a7c0c163003438fe0e046459a731218913a22602",
    "aes":
        "41ae7f7dc4e1044d0f0d5af570616511d66cafb628bc1b7c47d655248d890934",
    "par2":
        "b1f16c4d8d877585c178db221cc8b8b2b196d915980dcb41952e0ef359964984",
    "delaunay":
        "e6e08e929172cf7ebdd96556a2f2c3c0691a043125f2e9c43a04c974e9e2eea8",
    "wordcount":
        "ae14dcdce87c86f238c5f0fd7d8f8ccb2da3b07d5e957b4a7f8ce6b9482eb6c2",
    "lisp-cons":
        "f64241efe7e5d8b1298992274a4fa2ce77c16cbd6511bf4dc54d00ab1e19017e",
}


def test_every_bundled_program_is_pinned():
    assert set(TRACE_SHA256) == set(names(include_extra=True))


@pytest.mark.parametrize("name", names(include_extra=True))
def test_trace_bytes(name, tmp_path):
    workload = get(name, SCALE)
    path = tmp_path / f"{name}.trace"
    record_program(compile_source(workload.source), path,
                   source=workload.source, filename=name)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == TRACE_SHA256[name]
