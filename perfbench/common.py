"""Pieces shared by the workloads: seeded generators and the task record."""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass, field

import numpy as np


def generator(seed: int, purpose: int, *index: int) -> np.random.Generator:
    """Philox stream keyed like ``thetacf.montecarlo.RngConfig.generator``."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, purpose) + index)))


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True, default=str).encode()).hexdigest()


@dataclass
class Outcome:
    """What one task produced, as the run loop and the metrics see it.

    ``errors`` are calls that raised or children that exited non-zero;
    ``wrong`` are checks that an output failed.  A task is verified only
    when both are empty.  ``fingerprint`` hashes the outputs, so a traced
    and an untraced run of one task can be compared.
    """

    errors: list
    wrong: list
    fingerprint: str
    counts: Counter = field(default_factory=Counter)

    @property
    def ok(self) -> bool:
        return not self.errors and not self.wrong


class TaskRun:
    """Runs the calls of one task through the tracer and collects checks.

    A call that raises is recorded and returns None; later steps that need
    its result are skipped, and the task counts as failed.
    """

    def __init__(self, tr):
        self.tr = tr
        self.errors = []
        self.wrong = []
        self.counts = Counter()
        self._hash = hashlib.sha256()

    def call(self, name, fn, *args, **kwargs):
        try:
            return self.tr.call(name, fn, *args, **kwargs)
        except Exception as exc:  # a raise fails the task, never the benchmark
            self.errors.append(f"{name}: {type(exc).__name__}: {exc}")
            return None

    def check(self, ok, what):
        if not ok:
            self.wrong.append(what)

    def checking(self, what, fn, *args):
        """Run a checker; a checker that crashes on a malformed output fails it."""
        try:
            fn(self, *args)
        except Exception as exc:  # the output did not have the checked shape
            self.wrong.append(f"{what}: checker raised {type(exc).__name__}: {exc}")

    def record(self, *values):
        """Feed outputs into the task's fingerprint."""
        for v in values:
            # repr abbreviates long arrays, so arrays are hashed by content
            self._hash.update(v.tobytes() if isinstance(v, np.ndarray) else repr(v).encode())
            self._hash.update(b"\0")

    def outcome(self) -> Outcome:
        return Outcome(self.errors, self.wrong, self._hash.hexdigest(), self.counts)


def check_constant(run, what, value, ref, tolerance):
    """A constant computed at ``tolerance`` against its oracle.

    The tolerance is absolute, as the package documents it; the second
    term allows only for rounding of a float of this size.
    """
    run.check(abs(value - ref) <= tolerance + 4e-16 * abs(ref), f"{what} = {value!r}, oracle {ref!r}")
