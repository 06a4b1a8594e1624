"""Fixed reference work that measures how fast the host runs right now.

The benchmark shares a few cores of a busy host.  The same single-threaded
work runs up to 1.8x slower from one minute to the next, and the slowdown
shows in process CPU time as much as in wall time, so no clock removes it.
Two references track it, and neither calls matspec, so no change to matspec
moves them:

- ``kernel`` does the kinds of work an in-process op does: Python loops,
  spectral norms, Hermitian eigenvalues and solves of small complex
  matrices, block Toeplitz assembly, a matrix polynomial on a grid;
- ``interpreter_start`` starts a bare Python interpreter, as the process
  ops (``import matspec``, the CLI) do before anything else.

The benchmark runs the matching reference before every timed op and divides
the op's wall time by the host slowness the reference runs around it give.
A change to matspec moves the normalized time exactly as it moves the wall
time on a steady host.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

import numpy as np

# Reference wall times, in seconds, that define slowness 1.0: where a
# reference takes this long, normalized times equal wall times.  They are
# about the references' medians on the two-vCPU host the baselines were
# taken on.
KERNEL_NOMINAL_S = 0.0035
INTERPRETER_NOMINAL_S = 0.06
# An op's slowness is the median of the reference runs up to this many
# places before and after it.
HALF_WINDOW = 2

_rng = np.random.default_rng(20151217)
_MATS = [_rng.normal(size=(k, k)) + 1j * _rng.normal(size=(k, k)) for k in (4, 8, 16, 32)]
_HERM = [m @ m.conj().T + np.eye(len(m)) for m in _MATS]
_BLOCKS = [_rng.normal(size=(4, 4)) + 1j * _rng.normal(size=(4, 4)) for _ in range(9)]
_POLY = _rng.normal(size=(9, 4, 4)) + 1j * _rng.normal(size=(9, 4, 4))
_GRID = np.exp(2j * np.pi * np.arange(2048) / 2048)


def kernel() -> float:
    """One pass of the in-process reference work; returns a checksum so none
    of it can be skipped."""
    acc = 0.0
    for m, h in zip(_MATS, _HERM):
        acc += float(np.linalg.norm(m, 2))
        acc += float(np.linalg.eigvalsh(h)[0])
        acc += float(np.linalg.solve(h, m)[0, 0].real)
    t = np.empty((36, 36), dtype=complex)
    for j in range(9):
        for k in range(9):
            t[4 * j:4 * j + 4, 4 * k:4 * k + 4] = (
                _BLOCKS[j - k] if j >= k else _BLOCKS[k - j].conj().T)
    acc += float(np.linalg.eigvalsh(0.5 * (t + t.conj().T))[-1])
    v = np.zeros((_GRID.size, 4, 4), dtype=complex)
    for c in _POLY:
        v = v * _GRID[:, None, None] + c
    acc += float(np.abs(v).sum())
    s = 0
    for i in range(4000):
        s += i % 7
    return acc + s


def interpreter_start(cwd: str, env: dict):
    """The process reference: a bare interpreter started in ``cwd``."""
    def start():
        subprocess.run([sys.executable, "-c", "pass"], cwd=cwd, env=env,
                       check=True, capture_output=True, timeout=60)
    return start


class Yardstick:
    """Run times of one reference, in the order they were taken."""

    def __init__(self, reference, nominal_s: float):
        self.reference = reference
        self.nominal_s = nominal_s
        self.times: list[float] = []

    def sample(self) -> int:
        """Run the reference once; returns the index of the run."""
        t0 = time.perf_counter()
        self.reference()
        self.times.append(time.perf_counter() - t0)
        return len(self.times) - 1

    def slowness(self, k: int) -> float:
        """Host slowness around reference run ``k``."""
        around = self.times[max(0, k - HALF_WINDOW):k + HALF_WINDOW + 1]
        return statistics.median(around) / self.nominal_s

    def summary(self) -> str:
        slow = np.asarray(self.times) / self.nominal_s
        return (f"median {np.median(slow):.3f}, quartiles {np.quantile(slow, 0.25):.3f}"
                f"..{np.quantile(slow, 0.75):.3f} over {slow.size} reference runs")
