"""The three kinds of benchmark operation and their ground-truth checks.

Each op is timed around the library call only; building its input and
checking its output happen outside the timed region.  The checks use the
closed forms from ``gen.py`` and plain numpy, never the code under test.

An op *fails* when matspec raises an error, when its own verification
fails, or when its result misses the closed form.  Failures are counted and
never abort a run.  A failure with cause ``crash`` also breaks matspec's
contract (an exception that is not a ``MatSpecError``, a CLI exit code other
than 0 and 2, or an unreadable CLI output) and is reported as such.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

# Tolerances of the ground-truth checks.  Weights and extended coefficients
# are compared relative to ||C_0||; atom locations are unimodular, so their
# tolerance is absolute.
EXTEND_RTOL = 1e-8
ATOM_WEIGHT_RTOL = 1e-8
ATOM_POINT_TOL = 1e-8
PSD_RTOL = 1e-9

CLI_TIMEOUT_S = 120.0


@dataclass
class Outcome:
    seconds: float
    cause: str | None = None  # None when the op passed
    detail: str = ""
    atoms_found: int = 0

    @property
    def ok(self) -> bool:
        return self.cause is None

    @property
    def crashed(self) -> bool:
        return self.cause is not None and self.cause.startswith("crash")


def _spec(a) -> float:
    return float(np.linalg.norm(a, 2))


def check_atoms(case, points, weights) -> str | None:
    """Compare found atoms with the generator's, matched by nearest point."""
    want = case.atoms
    if len(points) != len(want):
        return f"{len(points)} atoms found, {len(want)} expected"
    if not want:
        return None
    scale = _spec(sum(w for _, w in want))
    pts = np.asarray(points, dtype=complex)
    used = set()
    worst_p = worst_w = 0.0
    for u, w in want:
        k = int(np.argmin(np.abs(pts - u)))
        if k in used:
            return f"two expected atoms matched the same found atom near {u:.6f}"
        used.add(k)
        worst_p = max(worst_p, abs(pts[k] - u))
        worst_w = max(worst_w, _spec(weights[k] - w))
    if worst_p > ATOM_POINT_TOL or worst_w > ATOM_WEIGHT_RTOL * scale:
        return f"atom error: point {worst_p:.2e}, weight {worst_w / scale:.2e} rel"
    return None


def check_extension(case, prefix_len: int, got: list[np.ndarray]) -> str | None:
    """Closed form where the central extension is exact; otherwise the prefix
    must be untouched and the extended block Toeplitz matrix nonnegative."""
    m = prefix_len - 1
    want = case.coeffs(len(got))
    scale = _spec(want[0])
    for j in range(prefix_len):
        if not np.array_equal(got[j], want[j]):
            return f"stored coefficient {j} changed"
    if case.exact_from is not None and m >= case.exact_from:
        err = max(_spec(g - w) for g, w in zip(got, want))
        if err > EXTEND_RTOL * scale:
            return f"extension error {err / scale:.2e} rel"
        return None
    q = got[0].shape[0]
    size = len(got)
    t = np.empty((size * q, size * q), dtype=complex)
    for j in range(size):
        for k in range(size):
            c = got[j - k] if j >= k else got[k - j].conj().T
            t[j * q:(j + 1) * q, k * q:(k + 1) * q] = c
    low = float(np.linalg.eigvalsh(0.5 * (t + t.conj().T))[0])
    if low < -PSD_RTOL * (1.0 + _spec(t)):
        return f"extension leaves the nonnegative cone ({low:.2e})"
    return None


class Runner:
    """Runs ops against one imported matspec; ``wrap`` surrounds each library
    call (the tracer uses it to open the op's root span)."""

    def __init__(self, matspec, src_dir: str, work_dir: str, env: dict):
        self.ms = matspec
        self.src_dir = src_dir
        self.work_dir = work_dir
        self.env = env

    def _timed(self, call, wrap):
        """(seconds, result, failure) of ``call``, run inside ``wrap`` when
        given; ``failure`` is an Outcome when the call raised."""
        t0 = time.perf_counter()
        try:
            result = wrap(call) if wrap else call()
        except self.ms.MatSpecError as exc:
            dt = time.perf_counter() - t0
            return dt, None, Outcome(dt, f"error:{type(exc).__name__}", str(exc)[:120])
        except Exception as exc:  # a broken contract is reported, not raised
            dt = time.perf_counter() - t0
            return dt, None, Outcome(dt, "crash", f"{type(exc).__name__}: {exc}"[:160])
        return time.perf_counter() - t0, result, None

    def measure(self, case, wrap=None) -> Outcome:
        ms = self.ms
        seq = ms.HermSeq(case.coeffs(case.n + 1))

        def call():
            sm = ms.central_measure(seq)
            return sm, ms.verify_recovery(sm, seq)

        dt, result, failure = self._timed(call, wrap)
        if failure:
            return failure
        sm, report = result
        found = len(sm.atoms)
        if not report.passed:
            return Outcome(dt, "verify", f"max error {report.max_error:.2e}", found)
        bad = check_atoms(case, [a.point for a in sm.atoms],
                          [a.weight for a in sm.atoms])
        if bad:
            return Outcome(dt, "truth", bad, found)
        return Outcome(dt, atoms_found=found)

    def extend(self, case, wrap=None) -> Outcome:
        prefix_len = case.n + 1
        seq = self.ms.HermSeq(case.coeffs(prefix_len))
        dt, ext, failure = self._timed(
            lambda: self.ms.central_extend(seq, 2 * prefix_len), wrap)
        if failure:
            return failure
        bad = check_extension(case, prefix_len, list(ext.coeffs))
        if bad:
            return Outcome(dt, "truth", bad)
        return Outcome(dt)

    def write_input(self, case, tag: str) -> tuple[str, str]:
        ms = self.ms
        seq = ms.HermSeq(case.coeffs(case.n + 1))
        inp = os.path.join(self.work_dir, f"{tag}.in.json")
        out = os.path.join(self.work_dir, f"{tag}.out.json")
        with open(inp, "w", encoding="utf-8") as fh:
            fh.write(ms.dumps(ms.sequence_to_doc(seq, "covariance")))
        if os.path.exists(out):
            os.remove(out)
        return inp, out

    def cli_spectrum(self, case, tag: str) -> Outcome:
        """``python -m matspec.cli spectrum`` in a fresh interpreter; wall
        time from spawn to exit."""
        inp, out = self.write_input(case, tag)
        argv = [sys.executable, "-m", "matspec.cli", "spectrum", inp,
                "--output", out]
        t0 = time.perf_counter()
        proc = subprocess.run(argv, cwd=self.src_dir, env=self.env,
                              capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
        dt = time.perf_counter() - t0
        return self.read_cli_result(case, proc.returncode, proc.stderr, out, dt)

    def cli_inprocess(self, case, tag: str, wrap=None) -> tuple[Outcome, float]:
        """``matspec.cli.main`` called in this process; returns the outcome and
        the wall time of ``main``."""
        inp, out = self.write_input(case, tag)
        argv = ["spectrum", inp, "--output", out]
        dt, code, failure = self._timed(lambda: self.ms.cli.main(argv), wrap)
        if failure:
            return failure, dt
        return self.read_cli_result(case, code, "", out, dt), dt

    def read_cli_result(self, case, code, stderr, out, dt) -> Outcome:
        if code == 2:
            return Outcome(dt, "error:cli-exit-2", (stderr or "").strip()[:120])
        if code != 0:
            return Outcome(dt, "crash", f"exit {code}: {(stderr or '').strip()[:120]}")
        try:
            with open(out, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
            report = doc["report"]
            points = [complex(*a["u"]) for a in doc["atoms"]]
            weights = [_wire_matrix(a["weight"]) for a in doc["atoms"]]
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return Outcome(dt, "crash", f"unreadable output: {exc}"[:160])
        if not report["passed"]:
            return Outcome(dt, "verify", f"max error {report['max_error']:.2e}",
                           len(points))
        bad = check_atoms(case, points, weights)
        if bad:
            return Outcome(dt, "truth", bad, len(points))
        return Outcome(dt, atoms_found=len(points))


def _wire_matrix(rows) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in rows])
