"""Command-line interface.

Subcommands read a sequence document (JSON) from a path or '-' for stdin and
write JSON to --output ('-' for stdout).  Exit codes: 0 success, 2 model
errors (not nonnegative definite, Caratheodory failures, verification
failures), 1 input/output errors.  Set MATSPEC_LOG=debug|info|warning to
adjust log verbosity (any other value reads as warning); no other behavior is
environment-dependent.  `logging` is imported only when MATSPEC_LOG is set:
it costs every process that does not need it.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
import warnings

from .caratheodory import central_quotient, phi_at
from .central import (
    GammaSeq,
    central_extend,
    covariance_from_gamma,
    gamma_from_covariance,
)
from .errors import InvalidInputError, MatSpecError, ModelError
from .measure import ar_spectrum, central_measure, verify_recovery
from .serialize import (
    doc_to_measure,
    doc_to_sequence,
    dumps,
    loads,
    mat_to_wire,
    measure_to_doc,
    sequence_to_doc,
)
from .toeplitz import Classification, _classification, _scan, toeplitz_matrix


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # Python 3.10-3.12 read "--z -0.5,0.3" as two options: their
        # negative-number pattern (-1, -.5, -0.5) has no comma.  No option
        # here starts with a digit, so a minus before a digit is a value, as
        # from Python 3.13 on; subparsers are built with this class too.
        self._negative_number_matcher = re.compile(r"-\.?\d")

    # argparse exits with 2 on usage errors; keep 2 reserved for model errors.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _load_sequence(path: str):
    doc = loads(_read_text(path), where=path)
    return doc_to_sequence(doc)


def _as_covariance(seq):
    if isinstance(seq, GammaSeq):
        return covariance_from_gamma(seq)
    return seq


def _as_gamma(seq):
    if isinstance(seq, GammaSeq):
        return seq
    return gamma_from_covariance(seq)


def _parse_z(text: str) -> complex:
    parts = text.split(",")
    if len(parts) != 2:
        raise InvalidInputError(f"--z expects 're,im', got {text!r}")
    try:
        return complex(float(parts[0]), float(parts[1]))
    except ValueError as exc:
        raise InvalidInputError(f"--z expects 're,im', got {text!r}") from exc


def _write_density_csv(path: str, doc: dict) -> None:
    """The document's density table, one row per sample: the angle, then
    the entries' re and im parts in row-major order, as repr floats.

    The bytes are those of `csv.writer` (excel dialect: CRLF line ends; no
    field needs quoting), written without it: it spends most of its time
    scanning each field for characters to quote."""
    q = doc["q"]
    header = ["angle"] + [f"d{i}{j}_{part}" for i in range(q) for j in range(q)
                          for part in ("re", "im")]
    lines = [",".join(header)]
    for s in doc["density_samples"]:
        fields = [s["angle"]]
        for row in s["matrix"]:
            for pair in row:
                fields += pair
        lines.append(",".join(map(repr, fields)))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("\r\n".join(lines) + "\r\n")


def _cmd_check(args) -> int:
    seq, _ = _load_sequence(args.input)
    cov = _as_covariance(seq)
    scan = _scan(toeplitz_matrix(cov, len(cov) - 1), cov.q, args.psd_tol)
    kind = _classification(scan.bad, scan.margin, args.psd_tol)
    # re S_n of the Gamma sequence is re T_n bit for bit, so the same scan
    # decides it; a non-Hermitian C_0 (Gamma_0) fails both
    out = {
        "classification": kind.value,
        "caratheodory": scan.bad is None,
        "first_failure": scan.bad,
    }
    _write_text(args.output, dumps(out))
    if kind is Classification.NOT_TND:
        print(f"T_{scan.bad} not nonnegative Hermitian", file=sys.stderr)
        return 2
    return 0


def _cmd_extend(args) -> int:
    seq, metadata = _load_sequence(args.input)
    ext = central_extend(seq, args.length, psd_tol=args.psd_tol,
                         rank_rtol=args.rank_rtol)
    kind = "gamma" if isinstance(ext, GammaSeq) else "covariance"
    _write_text(args.output, dumps(sequence_to_doc(ext, kind, metadata)))
    return 0


def _spectrum_common(args, sm, cov) -> int:
    report = verify_recovery(sm, cov, tol=args.verify_tol)
    doc = measure_to_doc(sm, report=report, density_samples=args.density_samples)
    _write_text(args.output, dumps(doc))
    if args.csv:
        _write_density_csv(args.csv, doc)
    return 0


def _cmd_spectrum(args) -> int:
    seq, _ = _load_sequence(args.input)
    cov = _as_covariance(seq)
    sm = central_measure(
        cov,
        psd_tol=args.psd_tol,
        rank_rtol=args.rank_rtol,
        root_tol=args.root_tol,
    )
    return _spectrum_common(args, sm, cov)


def _cmd_ar_spectrum(args) -> int:
    seq, _ = _load_sequence(args.input)
    cov = _as_covariance(seq)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sm = ar_spectrum(cov, args.order, psd_tol=args.psd_tol,
                         rank_rtol=args.rank_rtol)
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    return _spectrum_common(args, sm, cov.prefix(args.order + 1))


def _cmd_verify(args) -> int:
    measure_doc = loads(_read_text(args.measure), where=args.measure)
    sm = doc_to_measure(measure_doc)
    seq, _ = _load_sequence(args.sequence)
    cov = _as_covariance(seq)
    report = verify_recovery(sm, cov, tol=args.tol)
    _write_text(args.output, dumps({"report": report.to_dict()}))
    if not report.passed:
        print(f"verification failed: {report.cause}", file=sys.stderr)
        return 2
    return 0


def _cmd_eval_phi(args) -> int:
    seq, _ = _load_sequence(args.input)
    gamma = _as_gamma(seq)
    cq = central_quotient(gamma, rank_rtol=args.rank_rtol, psd_tol=args.psd_tol)
    values = []
    for ztext in args.z:
        z = _parse_z(ztext)
        phi = phi_at(cq, z)
        values.append({"z": [z.real, z.imag], "phi": mat_to_wire(phi)})
    _write_text(args.output, dumps({"values": values}))
    return 0


def _add_common(p, rank_rtol: bool = True):
    p.add_argument("--psd-tol", type=float, default=1e-9,
                   help="nonnegativity tolerance, relative (default 1e-9)")
    if rank_rtol:
        p.add_argument("--rank-rtol", type=float, default=1e-10,
                       help="relative singular-value cutoff (default 1e-10)")
    p.add_argument("--output", default="-",
                   help="output path, '-' for stdout (default)")


def _add_measure_outputs(p):
    p.add_argument("--density-samples", type=int, default=720,
                   help="density table size (default 720)")
    p.add_argument("--csv", default=None, help="also write the density table as CSV")
    p.add_argument("--verify-tol", type=float, default=1e-8,
                   help="coefficient recovery tolerance (default 1e-8)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="matspec",
        description="Central extensions and spectral measures of matrix "
                    "covariance sequences on the unit circle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="classify a sequence (TPD/TND/NOT_TND)")
    p.add_argument("input", help="sequence document path, '-' for stdin")
    _add_common(p, rank_rtol=False)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("extend", help="central extension to a target length")
    p.add_argument("input", help="sequence document path, '-' for stdin")
    p.add_argument("--length", type=int, required=True,
                   help="number of coefficients in the output")
    _add_common(p)
    p.set_defaults(func=_cmd_extend)

    p = sub.add_parser("spectrum", help="central spectral measure")
    p.add_argument("input", help="sequence document path, '-' for stdin")
    p.add_argument("--root-tol", type=float, default=1e-7,
                   help="unimodular eigenvalue tolerance of the compressed shift, "
                        "in [0, 0.04) (default 1e-7)")
    _add_measure_outputs(p)
    _add_common(p)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("ar-spectrum", help="autoregressive spectral estimate")
    p.add_argument("input", help="sequence document path, '-' for stdin")
    p.add_argument("--order", type=int, required=True,
                   help="autoregressive order (prefix length - 1)")
    _add_measure_outputs(p)
    _add_common(p)
    p.set_defaults(func=_cmd_ar_spectrum)

    p = sub.add_parser("verify", help="recover coefficients from a measure")
    p.add_argument("measure", help="measure document path, '-' for stdin")
    p.add_argument("--sequence", required=True,
                   help="sequence document to compare against")
    p.add_argument("--tol", type=float, default=1e-8,
                   help="max recovery error allowed (default 1e-8)")
    p.add_argument("--output", default="-")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("eval-phi", help="evaluate the Caratheodory function")
    p.add_argument("input", help="sequence document path, '-' for stdin")
    p.add_argument("--z", action="append", required=True,
                   help="evaluation point 're,im' inside the unit disk, such as "
                        "-0.5,0.3; repeatable")
    _add_common(p)
    p.set_defaults(func=_cmd_eval_phi)

    return parser


def main(argv=None) -> int:
    level = os.environ.get("MATSPEC_LOG", "").lower()
    if level:
        import logging

        # the documented levels only: any other value, such as another
        # uppercase name of `logging` (BASIC_FORMAT), reads as warning
        name = level if level in ("debug", "info", "warning") else "warning"
        logging.basicConfig(level=getattr(logging, name.upper()))
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ModelError as exc:
        print(f"matspec: {exc}", file=sys.stderr)
        return 2
    except (MatSpecError, OSError) as exc:
        print(f"matspec: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
