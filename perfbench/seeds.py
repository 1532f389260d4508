"""Seeded MiniC inputs for the benchmark workloads.

Each bundled program draws its input data from a PRNG (or hash) whose
initialiser is a literal in the generated MiniC text. A workload seed
replaces those literals, so the seed changes the data a program
processes while its shape (loops, array sizes, scale) stays fixed.
Seed 0 reproduces the bundled sources byte for byte; the program under
test only ever sees the generated source text.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.workloads import registry

#: The default seed: sources identical to ``registry.get(name, scale)``.
DEFAULT_SEED = 0

#: Per program, the source statements that initialise its input data,
#: as (template, bundled value). Each statement occurs exactly once.
INITIALISERS = {
    "197.parser": [("int state = seed * 2654435761 % 2147483648 + {};", 17)],
    "bzip2": [("in_state = f * 9973 + {};", 7)],
    "gzip": [("in_state = seed * 77 + {};", 1)],
    "130.li": [("load_state = fileid * 7919 + {};", 13)],
    "ogg": [("* 2654435761 % 2147483648 + {};", 99)],
    "aes": [("in_state = {};", 7)],
    "par2": [("in_state = f * 40503 + {};", 11)],
    "delaunay": [("seed_state = {};", 1234567)],
    "wordcount": [("rng_state = {};", 42),
                  ("int state = doc * 7919 + {};", 13)],
    "lisp-cons": [("load_state = fileid * 7919 + {};", 13)],
}


@dataclass(frozen=True)
class Program:
    """One seeded program: its name, scale, MiniC text and the number
    of output tuples a correct run prints."""

    name: str
    scale: float
    source: str = field(repr=False)
    expected_outputs: int = 1


def seeded_program(name: str, scale: float, seed: int) -> Program:
    """Build ``name`` at ``scale`` with its input initialisers drawn
    from ``seed`` (the bundled values for :data:`DEFAULT_SEED`)."""
    workload = registry.get(name, scale)
    source = workload.source
    rng = random.Random(f"{seed}/{name}")
    for template, bundled in INITIALISERS[name]:
        old = template.format(bundled)
        if source.count(old) != 1:
            raise ValueError(f"{name}: initialiser {old!r} must occur "
                             "exactly once in the bundled source")
        value = bundled if seed == DEFAULT_SEED else rng.randrange(1, 1 << 20)
        source = source.replace(old, template.format(value))
    return Program(name, scale, source, workload.expected_outputs)


def program_set(names: list[str], scale: float, seed: int,
                shuffle: bool = False) -> list[Program]:
    """Seeded programs in the given order, or in a seed-drawn order."""
    names = list(names)
    if shuffle and seed != DEFAULT_SEED:
        random.Random(f"{seed}/order").shuffle(names)
    return [seeded_program(name, scale, seed) for name in names]
