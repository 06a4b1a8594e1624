#!/usr/bin/env python3
"""matspec benchmark: end-to-end timings, or per-layer spans and work counts.

    python3 bench/run.py --workload tpd --seed 1 --seconds 34 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 34 --trace 1

Run from the root of a source checkout; matspec is imported from ``src/``
(it need not be installed).  Each workload is driven by one closed-loop
client: the next op starts when the previous one has returned.  Every op
kind runs on every workload:

- ``measure``: ``central_measure(seq)`` then ``verify_recovery`` at 1e-8;
- ``extend``: ``central_extend`` of the first m+1 coefficients to 2(m+1),
  m in 4..12;
- ``cli_spectrum``: a ``python -m matspec.cli spectrum`` process run from
  ``src/``, timed from spawn to exit.

With ``--trace 0`` the run times a fixed batch of inputs per op kind (100
measure, 100 extend and 20 CLI inputs, plus 7 fresh-interpreter imports for
``setup_s``), repeats the batch while ``--seconds`` lasts, and prints the
end-to-end metrics: per-input medians over repeats of wall times, each
divided by the host slowness a fixed reference measured around it
(``yardstick.py``), so times read as on the nominal host.  With
``--trace 1`` it alternates untraced and traced passes over a smaller batch
and prints per-layer self times, call counts and numpy work counts; the
counts of every traced pass must agree exactly.  ``--workload all`` runs every workload in its own process.

An op fails when matspec raises an error, when verification fails, or when
the result misses the closed form of its input.  Failures are counted
(``failed``, ``fail_ratio``; ``ok_ratio`` carries them into the bounded
metrics) and never abort the run; errors that are not a ``MatSpecError``
are reported separately as broken contracts.  ``correct`` is false when the
measurement itself cannot be trusted: a repeated input gave a different
outcome, or the traced counts did not repeat exactly.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# One BLAS thread, fixed before numpy loads; child processes inherit it.
# Two threads on two shared cores ran slower and far less steadily.
THREAD_VARS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_VARS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

from gen import WORKLOAD_STRATA, Design  # noqa: E402
from ops import Runner  # noqa: E402
from spans import NUMPY_LINALG, Tracer  # noqa: E402
from yardstick import (INTERPRETER_NOMINAL_S, KERNEL_NOMINAL_S, Yardstick,  # noqa: E402
                       interpreter_start, kernel)

WORKLOADS = tuple(WORKLOAD_STRATA)
KINDS = ("measure", "extend", "cli_spectrum")
# Distinct inputs per op kind in one run (p90 needs ten samples above it),
# and fresh-interpreter imports timed for setup_s.  One pass over them takes
# 25-29 s on a two-vCPU host, so it fits a 34 s run with room for a slower
# host.
BATCH_INPUTS = {"measure": 100, "extend": 100, "cli_spectrum": 20}
SETUP_REPEATS = 7
PROCESS_BLOCKS = 4
# Traced batch: ops per stratum per pass, and CLI calls per pass.
TRACE_OPS_PER_STRATUM = 2
TRACE_CLI_OPS = 3
GROWTH_N = (16, 32)

END_TO_END = (
    ("measure_per_s", "1/s"),
    ("measure_ms_p50", "ms"),
    ("measure_ms_p90", "ms"),
    ("extend_ms_p50", "ms"),
    ("extend_ms_p90", "ms"),
    ("cli_spectrum_ms_p50", "ms"),
    ("ok_ratio", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

LAYER_FUNCS = (
    "toeplitz.first_violation", "toeplitz.classify", "toeplitz.ball_params",
    "toeplitz.toeplitz_matrix",
    "central.central_extend",
    "caratheodory.caratheodory_first_failure", "caratheodory.central_quotient",
    "caratheodory.pd_polynomials", "caratheodory.rational_values",
    "matpoly.det_poly", "matpoly.adjugate_poly", "matpoly.matpoly_mul",
    "matpoly.unimodular_roots",
    "measure.central_measure", "measure.compute_atoms",
    "measure.verify_recovery", "measure.density_grid",
    "serialize.loads", "serialize.doc_to_sequence", "serialize.measure_to_doc",
    "serialize.dumps",
    "cli.main",
    "linalg.spec_norm", "linalg.pinv", "linalg.numerical_rank",
)
LAYER_EXTRA = (
    ("caratheodory.rational_values.points", "count"),
    ("matpoly.det_degree", "count"),
    ("measure.density_grid.points", "count"),
    ("measure.atoms_found", "count"),
    ("measure.atoms_expected", "count"),
    ("serialize.dumps.bytes", "bytes"),
    ("cli.process_overhead_ms", "ms"),
)
NUMPY_COUNTED = NUMPY_LINALG + ("roots",)


def per_layer_names() -> list[tuple[str, str]]:
    out = []
    for f in LAYER_FUNCS:
        out += [(f"{f}.calls", "count"), (f"{f}.self_ms", "ms")]
    out += list(LAYER_EXTRA)
    for f in NUMPY_COUNTED:
        out += [(f"linalg.{f}.calls", "count"), (f"linalg.{f}.work", "count")]
    out.append(("linalg.work_growth_n", "log2"))
    out += [("trace.measure_per_s_untraced", "1/s"),
            ("trace.measure_per_s_traced", "1/s"),
            ("trace.overhead_pct", "%")]
    for k in KINDS:
        out += [(f"trace.{k}.covered_pct", "%"), (f"trace.{k}.uncovered_ms", "ms")]
    return out


# -- environment ---------------------------------------------------------

def read_steal() -> tuple[int, int] | None:
    """(steal, total) jiffies of the host CPU line, or None off Linux."""
    try:
        with open("/proc/stat", "r", encoding="ascii") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    if not fields or fields[0] != "cpu" or len(fields) < 9:
        return None
    vals = [int(x) for x in fields[1:]]
    return vals[7], sum(vals[:8])


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without leaving it."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, "r", encoding="ascii") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), "r", encoding="ascii") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return None


def blas_info() -> str:
    try:
        cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{cfg.get('name')} {cfg.get('version')}"
    except (TypeError, KeyError, AttributeError):
        return "unknown"


def metadata(workload: str, seed: int) -> dict:
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "blas_threads": THREAD_VARS["OPENBLAS_NUM_THREADS"],
        "nproc": affinity or os.cpu_count(),
        "commit": git_commit(),
        "platform": platform.platform(),
    }


def inputs_digest(design) -> str:
    """SHA-256 over the coefficients of every untraced batch input, so runs
    can show that a seed reproduces its inputs and another seed does not."""
    h = hashlib.sha256()
    for kind in KINDS:
        for j in range(BATCH_INPUTS[kind]):
            case = design.case(kind, j)
            for c in case.coeffs(case.n + 1):
                h.update(np.ascontiguousarray(c).tobytes())
    return h.hexdigest()


def import_matspec():
    """Import matspec from the checkout's src/, refusing any other copy."""
    if not os.path.isfile(os.path.join(SRC, "matspec", "__init__.py")):
        raise SystemExit(f"error: no matspec package under {SRC}")
    sys.path.insert(0, SRC)
    import matspec
    import matspec.cli  # noqa: F401  (the CLI module is not imported by the package)
    where = os.path.dirname(os.path.abspath(matspec.__file__))
    if where != os.path.join(SRC, "matspec"):
        raise SystemExit(f"error: imported matspec from {where}, not {SRC}")
    return matspec


def time_import(env: dict) -> float:
    """Wall time of ``python -c "import matspec"`` in a fresh interpreter."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import matspec"], cwd=SRC, env=env,
                   check=True, capture_output=True, timeout=120)
    return time.perf_counter() - t0


# -- measurement ---------------------------------------------------------

def pct(values, q: float) -> float:
    """Harrell-Davis estimate of the q-th percentile of ``values`` (seconds),
    in ms: a Beta-weighted mean of all order statistics.  Where the sorted
    times are sparse, as in the tail of a mixed workload, it moves far less
    from run to run than the one or two order statistics np.percentile
    interpolates."""
    x = np.sort(np.asarray(values)) * 1e3
    n = x.size
    a, b = q / 100.0 * (n + 1), (1.0 - q / 100.0) * (n + 1)
    t = np.linspace(0.0, 1.0, 20001)
    with np.errstate(divide="ignore"):
        logpdf = (a - 1.0) * np.log(t) + (b - 1.0) * np.log1p(-t)
    pdf = np.exp(logpdf - logpdf.max())
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]))])
    cdf /= cdf[-1]
    weights = np.diff(np.interp(np.arange(n + 1) / n, t, cdf))
    return float(weights @ x)


class Tally:
    """Outcomes per op kind, with the first few failure messages."""

    def __init__(self):
        self.attempted = Counter()
        self.failed = Counter()
        self.causes = Counter()
        self.crashed = 0
        self.samples: list[str] = []

    def add(self, kind: str, case, outcome):
        self.attempted[kind] += 1
        if outcome.ok:
            return
        self.failed[kind] += 1
        self.causes[f"{kind}:{outcome.cause}"] += 1
        self.crashed += outcome.crashed
        sample = f"{kind} [{case.label}] {outcome.cause}: {outcome.detail}"
        if len(self.samples) < 12 and sample not in self.samples:
            self.samples.append(sample)

    def total(self) -> tuple[int, int]:
        return sum(self.attempted.values()), sum(self.failed.values())

    def report(self, lines: list[str]):
        for kind in KINDS:
            lines.append(f"ops {kind}: attempted {self.attempted[kind]} "
                         f"failed {self.failed[kind]}")
        att, fail = self.total()
        lines.append(f"fail_ratio = {fail / max(att, 1):.4f} ({fail}/{att})")
        for cause, n in sorted(self.causes.items()):
            lines.append(f"failure cause {cause}: {n}")
        for s in self.samples:
            lines.append(f"failure sample {s}")
        if self.crashed:
            lines.append(f"broken contract (error not a MatSpecError, or bad CLI exit): {self.crashed}")


def interleave(sizes: dict) -> list[tuple[str, int]]:
    """All (kind, index) items, each kind spread evenly over the list, so slow
    drifts of machine speed touch those kinds alike."""
    items = [((j + 0.5) / n, k, kind, j)
             for k, (kind, n) in enumerate(sizes.items()) for j in range(n)]
    return [(kind, j) for _, _, kind, j in sorted(items)]


def run_op(kind, runner, case, i):
    if kind == "measure":
        return runner.measure(case)
    if kind == "extend":
        return runner.extend(case)
    return runner.cli_spectrum(case, f"cli{i % 2}")


def run_untraced(args, design, runner, env, lines):
    """One fixed batch per op kind, run once and then repeated from the
    start while ``--seconds`` lasts.  A reference runs before every op (the
    kernel before in-process ops, a bare interpreter start before process
    ops), and each op's wall time is divided by the host slowness the
    reference runs around it give (see ``yardstick.py``).  An input's time
    is the median of its normalized runs, so the input set is the same
    whatever the speed of the code and more time only means less noise."""
    tally = Tally()
    sticks = {"inproc": Yardstick(kernel, KERNEL_NOMINAL_S),
              "process": Yardstick(interpreter_start(SRC, env), INTERPRETER_NOMINAL_S)}
    stick_of = {"measure": "inproc", "extend": "inproc",
                "cli_spectrum": "process", "setup": "process"}
    time_import(env)  # byte-compile once; users do not pay that on every run
    # warm-up: the first ops of a fresh process run up to twice as slow
    for kind in ("measure", "extend"):
        for i in range(design.cycle):
            sticks["inproc"].sample()
            run_op(kind, runner, design.case(kind, i), i)
    sticks["process"].sample()
    for stick in sticks.values():
        stick.times.clear()
    sizes = dict(BATCH_INPUTS, setup=SETUP_REPEATS)
    cases = {kind: [design.case(kind, j) for j in range(sizes[kind])] for kind in KINDS}
    samples = {kind: [[] for _ in range(n)] for kind, n in sizes.items()}
    first = {kind: [None] * sizes[kind] for kind in KINDS}
    # In-process ops run back to back, as in a user's sweep, because a
    # finished child leaves the caches cold and would slow the next short
    # in-process op.  Process ops come in a few blocks spread over the run,
    # because process start-up time drifts with the host's state.
    inproc = interleave({k: sizes[k] for k in ("measure", "extend")})
    procs = interleave({k: sizes[k] for k in ("cli_spectrum", "setup")})
    schedule = []
    for s in range(PROCESS_BLOCKS):
        schedule += inproc[s * len(inproc) // PROCESS_BLOCKS:
                           (s + 1) * len(inproc) // PROCESS_BLOCKS]
        schedule += procs[s * len(procs) // PROCESS_BLOCKS:
                          (s + 1) * len(procs) // PROCESS_BLOCKS]
    unstable = 0
    t0 = time.perf_counter()
    p = 0
    while p < len(schedule) or time.perf_counter() - t0 < args.seconds:
        kind, j = schedule[p % len(schedule)]
        k = sticks[stick_of[kind]].sample()
        if kind == "setup":
            samples[kind][j].append((k, time_import(env)))
        else:
            out = run_op(kind, runner, cases[kind][j], p)
            samples[kind][j].append((k, out.seconds))
            if p < len(schedule):
                tally.add(kind, cases[kind][j], out)
                first[kind][j] = out.cause
            elif out.cause != first[kind][j]:
                unstable += 1
        p += 1
    for stick in sticks.values():
        stick.sample()  # so the last ops have reference runs after them too
    att, fail = tally.total()
    wall = summarize({kind: [statistics.median(s for _, s in v) for v in samples[kind]]
                      for kind in sizes}, att, fail)
    metrics = summarize({kind: [statistics.median(s / sticks[stick_of[kind]].slowness(k)
                                                  for k, s in v)
                                for v in samples[kind]] for kind in sizes}, att, fail)
    runs = {kind: sum(len(v) for v in samples[kind]) for kind in sizes}
    kind_of = {"measure_per_s": "measure", "measure_ms_p50": "measure",
               "measure_ms_p90": "measure", "extend_ms_p50": "extend",
               "extend_ms_p90": "extend", "cli_spectrum_ms_p50": "cli_spectrum",
               "setup_s": "setup"}
    units = dict(END_TO_END)
    for name, _ in END_TO_END:
        kind = kind_of.get(name)
        if kind:
            n = f"n={sizes[kind]} inputs, {runs[kind]} runs; wall {wall[name]:.6g}"
        else:
            n = {"ok_ratio": f"n={att} ops", "peak_rss_mb": "n=1"}[name]
        lines.append(f"metric {name} = {metrics[name]:.6g} {units[name]} ({n})")
    lines.append(f"batch pass {time.perf_counter() - t0:.2f} s for {p} ops "
                 f"({len(schedule)} per pass)")
    for name, stick in sticks.items():
        lines.append(f"host slowness ({name} reference): {stick.summary()}")
    tally.report(lines)
    if unstable:
        lines.append(f"NONDETERMINISTIC outcomes on repeated inputs: {unstable}")
    return tally, metrics, unstable == 0


def summarize(times, att, fail) -> dict:
    """End-to-end metrics from per-input times (seconds) of each kind."""
    m = times["measure"]
    return {
        "measure_per_s": len(m) / sum(m),
        "measure_ms_p50": pct(m, 50),
        "measure_ms_p90": pct(m, 90),
        "extend_ms_p50": pct(times["extend"], 50),
        "extend_ms_p90": pct(times["extend"], 90),
        "cli_spectrum_ms_p50": pct(times["cli_spectrum"], 50),
        "ok_ratio": (att - fail) / att,
        "setup_s": statistics.median(times["setup"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def run_traced(args, design, runner, matspec, lines):
    """Alternate untraced and traced passes over one fixed batch until
    ``--seconds`` is up (at least two traced passes).  Counts come from the
    first traced pass and must repeat exactly in every later one; self times
    are means over the traced passes.  The wrappers are installed only for
    the traced passes, so the untraced ones run the plain code."""
    tracer = Tracer(LAYER_FUNCS)
    tally = Tally()
    nstrata = len(design.strata)
    batch = {"measure": [design.case("measure", i)
                         for i in range(TRACE_OPS_PER_STRATUM * nstrata)],
             "extend": [design.case("extend", i)
                        for i in range(TRACE_OPS_PER_STRATUM * nstrata)],
             "cli_spectrum": [design.case("cli_spectrum", i)
                              for i in range(TRACE_CLI_OPS)]}
    tracer.install(matspec)
    try:
        growth = work_growth(args.seed, runner, tracer)
    finally:
        tracer.uninstall()
    untraced_measure, traced_measure = [], []
    overhead_ms = []
    passes = []
    t0 = time.perf_counter()
    while len(passes) < 2 or time.perf_counter() - t0 < args.seconds:
        for case in batch["measure"]:
            untraced_measure.append(runner.measure(case).seconds)
        for i, case in enumerate(batch["cli_spectrum"]):
            _, main_s = runner.cli_inprocess(case, f"tr{i}")
            proc = runner.cli_spectrum(case, f"tr{i}")
            overhead_ms.append((proc.seconds - main_s) * 1e3)
        tracer.reset()
        tracer.install(matspec)
        expected = found = 0
        try:
            for kind in KINDS:
                for i, case in enumerate(batch[kind]):
                    # full span lists only for the first op of each kind
                    tracer.keep_spans = not passes and i == 0
                    wrap = _op_wrap(tracer, kind, case.label)
                    if kind == "measure":
                        out = runner.measure(case, wrap)
                        traced_measure.append(out.seconds)
                        expected += len(case.atoms)
                        found += out.atoms_found
                    elif kind == "extend":
                        out = runner.extend(case, wrap)
                    else:
                        out, _ = runner.cli_inprocess(case, f"tr{i}", wrap)
                    if not passes:
                        tally.add(kind, case, out)
        finally:
            tracer.uninstall()
        counts = tracer.counts()
        counts["measure.atoms_found"] = found
        counts["measure.atoms_expected"] = expected
        passes.append({"counts": counts,
                       "agg": {k: list(v) for k, v in tracer.agg.items()},
                       "ops": list(tracer.ops),
                       "spans": list(tracer.spans)})

    first = passes[0]["counts"]
    repeatable = all(p["counts"] == first for p in passes[1:])
    metrics = {}
    for f in LAYER_FUNCS:
        metrics[f"{f}.calls"] = first.get(f"{f}.calls", 0)
        metrics[f"{f}.self_ms"] = statistics.fmean(
            p["agg"].get(f, (0, 0, 0))[1] for p in passes) / 1e6
    for name, _ in LAYER_EXTRA:
        if name != "cli.process_overhead_ms":
            metrics[name] = first.get(name, 0)
    metrics["cli.process_overhead_ms"] = statistics.median(overhead_ms)
    for f in NUMPY_COUNTED:
        metrics[f"linalg.{f}.calls"] = first.get(f"linalg.{f}.calls", 0)
        metrics[f"linalg.{f}.work"] = first.get(f"linalg.{f}.work", 0)
    metrics["linalg.work_growth_n"] = growth
    per_s_u = len(untraced_measure) / sum(untraced_measure)
    per_s_t = len(traced_measure) / sum(traced_measure)
    metrics["trace.measure_per_s_untraced"] = per_s_u
    metrics["trace.measure_per_s_traced"] = per_s_t
    metrics["trace.overhead_pct"] = (per_s_u / per_s_t - 1.0) * 100.0
    for kind in KINDS:
        ops = [o for p in passes for o in p["ops"] if o["kind"] == kind]
        wall = sum(o["wall_ns"] for o in ops)
        covered = sum(o["in_layers_ns"] for o in ops)
        metrics[f"trace.{kind}.covered_pct"] = 100.0 * covered / wall
        metrics[f"trace.{kind}.uncovered_ms"] = (wall - covered) / len(ops) / 1e6

    units = dict(per_layer_names())
    for name, unit in per_layer_names():
        lines.append(f"layer {name} = {metrics[name]:.6g} {unit}")
    lines.append(f"traced passes {len(passes)}, batch "
                 + ", ".join(f"{k}={len(v)}" for k, v in batch.items())
                 + f"; counts repeat exactly: {repeatable}")
    tally.report(lines)
    write_trace_file(args, passes, metrics, units)
    return tally, metrics, repeatable


def _op_wrap(tracer, kind, label):
    def wrap(call):
        return tracer.run_op(kind, label, call)
    return wrap


def work_growth(seed, runner, tracer) -> float:
    """log2 of total numpy work of a q=4 measure op at n=32 over n=16, summed
    over the VAR(1) and trigonometric tpd strata."""
    tpd = Design("tpd", seed)
    q4 = [k for k, st in enumerate(tpd.strata) if st.q == 4]
    totals = []
    for n in GROWTH_N:
        tracer.reset()
        for k in q4:
            runner.measure(tpd.case("growth", k, n=n), _op_wrap(tracer, "measure", ""))
        totals.append(tracer.total_work())
    tracer.reset()
    return float(np.log2(totals[1] / totals[0]))


def write_trace_file(args, passes, metrics, units):
    first = passes[0]
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "spans_by_name": {k: {"calls": v[0], "self_ms": v[1] / 1e6, "total_ms": v[2] / 1e6}
                          for k, v in sorted(first["agg"].items())},
        "ops": first["ops"],
        "first_op_spans": [
            {"op": op, "name": name, "parent": parent, "start_ns": s, "end_ns": e}
            for op, name, parent, s, e in first["spans"]
        ],
    }
    path = os.path.join(OUT, f"trace-{args.workload}-{args.seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


# -- entry points --------------------------------------------------------

def run_one(args) -> int:
    matspec = import_matspec()
    env = dict(os.environ)
    os.makedirs(OUT, exist_ok=True)
    work = tempfile.mkdtemp(prefix="work-", dir=OUT)
    lines = []
    steal0 = read_steal()
    t0 = time.perf_counter()
    try:
        design = Design(args.workload, args.seed)
        runner = Runner(matspec, SRC, work, env)
        if args.trace:
            tally, metrics, correct = run_traced(args, design, runner, matspec, lines)
            units = dict(per_layer_names())
        else:
            tally, metrics, correct = run_untraced(args, design, runner, env, lines)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    meta = metadata(args.workload, args.seed)
    meta["inputs_sha256"] = inputs_digest(design)
    meta["wall_s"] = round(time.perf_counter() - t0, 3)
    steal1 = read_steal()
    if steal0 and steal1:
        d_steal, d_total = steal1[0] - steal0[0], steal1[1] - steal0[1]
        meta["host_steal_jiffies"] = d_steal
        meta["host_steal_pct"] = round(100.0 * d_steal / max(d_total, 1), 3)
    for line in lines:
        print(line)
    print("meta " + json.dumps(meta, sort_keys=True))
    att, fail = tally.total()
    print(json.dumps({
        "correct": bool(correct),
        "attempted": att,
        "failed": fail,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    merged = {}
    correct, attempted, failed = True, 0, 0
    for wl in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", wl,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        out = proc.stdout.strip().splitlines()
        print(f"== workload {wl}")
        for line in out[:-1]:
            print(f"  {line}")
        if proc.returncode != 0 or not out:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        res = json.loads(out[-1])
        correct &= res["correct"]
        attempted += res["attempted"]
        failed += res["failed"]
        for k, v in res["metrics"].items():
            merged[f"{wl}.{k}"] = v
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": merged}))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    if args.seconds < 1:
        p.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
