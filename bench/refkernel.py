"""Reference kernel: a fixed unit of work that never touches ncentropy.

The benchmark times one pass of this kernel between batches of
operations.  Dividing an operation's wall time by the run's mean pass
time cancels the host's drift (frequency changes, neighbours on a shared
machine), so a bound on a normalised figure measures the program rather
than the host.  The mix mirrors what the library spends its time on:
small dense Hermitian eigenproblems and interpreter overhead.

Changing anything here changes the scale of every normalised figure;
re-measure ``REFERENCE_PASS_MS`` (see README.md) if you do.
"""

from __future__ import annotations

import time

import numpy as np

# Bound before any tracer wraps ``numpy.linalg.eigvalsh``, so the kernel
# never shows up in the per-layer counts.
_eigvalsh = np.linalg.eigvalsh

# Typical mean pass time, within a run, on the machine the README's
# figures come from (2 vCPU, one BLAS thread); a reference-second is a
# wall second scaled by REFERENCE_PASS_MS / (this run's mean pass time).
REFERENCE_PASS_MS = 3.8


def _matrices() -> list[np.ndarray]:
    """80 fixed 4x4 Hermitian matrices."""
    rng = np.random.default_rng(20090712)
    out = []
    for _ in range(80):
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        out.append((g + g.conj().T) / 2)
    return out


_MATRICES = _matrices()


def _python_work() -> float:
    table: dict[int, float] = {}
    items = []
    for i in range(2500):
        key = (i * 7919) % 211
        table[key] = table.get(key, 0.0) + i * 0.5
        items.append((key, float(i)))
    items.sort(key=lambda kv: (kv[0], -kv[1]))
    return sum(table.values()) + items[0][1]


def reference_pass() -> float:
    """Run one pass and return its wall time in seconds."""
    t0 = time.perf_counter()
    acc = 0.0
    for m in _MATRICES:
        acc += float(_eigvalsh(m)[0])
    acc += _python_work()
    elapsed = time.perf_counter() - t0
    if acc != acc:  # keeps the result live; never true for finite input
        raise ArithmeticError("reference kernel produced NaN")
    return elapsed
