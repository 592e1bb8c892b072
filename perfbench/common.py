"""Shared pieces of the workloads: the operation record and small helpers."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Callable, Optional


@dataclass
class Op:
    """One closed-loop operation: a call (or calls) into the library.

    ``run`` is the timed part and returns a compact output.  ``check`` is the
    oracle, run after the timed phase; it returns None when the output is
    right and a short reason otherwise.  ``exact`` maps the output to the
    exact values (counts, verdicts, exit codes) that enter the determinism
    digest.  ``expect`` names the exception type that is the documented
    outcome of the op, if any.  ``run`` may be called again: a timed run
    replays its ops in passes.
    """

    kind: str
    inputs: Any
    run: Callable[[], Any]
    check: Callable[[Any], Optional[str]]
    exact: Callable[[Any], Any] = lambda out: None
    expect: Optional[str] = None
    compact: Optional[Callable[[Any], Any]] = None


def stable_repr(value) -> str:
    """Text form of nested inputs that is the same in every process."""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, dict):
        return "{" + ",".join(f"{stable_repr(k)}:{stable_repr(v)}" for k, v in sorted(value.items())) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(stable_repr(v) for v in value) + "]"
    if isinstance(value, (set, frozenset)):
        return stable_repr(sorted(value))
    return repr(value)


def weighted_cycle(rng, weights: dict, makers: dict):
    """One cycle of ops: ``weights[kind]`` ops of every kind, shuffled."""
    kinds = [kind for kind, count in weights.items() for _ in range(count)]
    rng.shuffle(kinds)
    return [makers[kind](rng) for kind in kinds]


class Strata:
    """Stratified uniform draws in [0, 1).

    Each key's draws go, in a seeded order, through ``size`` equal slices of
    [0, 1), one draw per slice before any slice gets a second.  With
    ``size`` set to the number of ops of a kind in an op set, the set covers
    the range of each stratified input evenly, so its quantiles do not move
    with which draws a seed happened to make; each single draw is still
    uniform.
    """

    def __init__(self):
        self.orders: dict = {}
        self.counts: dict = {}

    def uniform(self, rng, key, size: int) -> float:
        if key not in self.orders:
            order = list(range(size))
            rng.shuffle(order)
            self.orders[key] = order
        order = self.orders[key]
        n = self.counts.get(key, 0)
        self.counts[key] = n + 1
        return (order[n % len(order)] + rng.random()) / len(order)

    def randrange(self, rng, key, size: int, lo: int, hi: int) -> int:
        """Like ``rng.randrange(lo, hi)``, stratified."""
        return lo + int(self.uniform(rng, key, size) * (hi - lo))

    def choice(self, rng, key, size: int, seq):
        """Like ``rng.choice(seq)``, stratified."""
        return seq[int(self.uniform(rng, key, size) * len(seq))]


class BaseWorkload:
    """Set-up, op cycles, known-defect probes and extra per-layer numbers
    of one workload."""

    name = ""
    # cycles of ops in the op set a timed run replays
    opset_cycles = 1
    # True when the ops run in child processes (peak memory is theirs)
    in_children = False

    def __init__(self, work_dir: str, traced: bool = False):
        self.work_dir = work_dir
        self.traced = traced

    def setup(self, seed: int):
        raise NotImplementedError

    def cycles(self, rng):
        raise NotImplementedError

    def probes(self) -> list:
        """Ops that reproduce documented defects of the program.  They run
        once per timed run, apart from the ops, and are reported without
        counting as attempted or failed ops."""
        return []

    def extra_metrics(self, records) -> dict:
        """Per-layer numbers computed from the op outputs."""
        return {}


def array_digest(values) -> str:
    """sha256 of an integer sequence as little-endian int64."""
    import numpy as np

    return hashlib.sha256(np.ascontiguousarray(values, dtype="<i8").tobytes()).hexdigest()
