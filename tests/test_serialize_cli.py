import inspect
import itertools
import json
import os
import re
import shlex
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from matspec import (
    GammaSeq,
    HermSeq,
    SpectralMeasure,
    ar_spectrum,
    central_extend,
    central_measure,
    central_quotient,
    classify,
    density_at,
    doc_to_measure,
    doc_to_sequence,
    dumps,
    fourier_coeff,
    gamma_from_covariance,
    loads,
    measure_to_doc,
    phi_at,
    sequence_to_doc,
    verify_recovery,
)
from matspec.caratheodory import CaratheodoryQuotient
from matspec.cli import build_parser, main
from matspec.errors import InvalidInputError, ModelError
from matspec.matpoly import MatPoly
from matspec.measure import Atom
from matspec.serialize import hermitian_from_lower, mat_to_wire

import _oracle
from _gen import atomic_coeffs, trig_coeffs

RNG = np.random.default_rng(61)
# an atom at 1 of weight diag(1, 0) plus the white noise diag(0, 1) / 2pi
DEFLATED = [np.eye(2), np.diag([1.0, 0.0]), np.diag([1.0, 0.0])]


def scalar_seq(*vals):
    return HermSeq([np.array([[v]], dtype=complex) for v in vals])


def seq_doc_text(*vals, kind="covariance"):
    return dumps(sequence_to_doc(scalar_seq(*vals), kind))


def canonical(value):
    """JSON text of ``value``, which tells -0.0 from 0.0 where == does not."""
    return json.dumps(value, sort_keys=True)


def negative_zeros(a):
    """``a`` with every zero imaginary part written as -0.0."""
    out = np.array(a, dtype=complex)
    out.imag[out.imag == 0.0] = -0.0
    return out


# one measure of each provenance, from fixed draws
PROVENANCE_DATA = {
    "atoms-only": lambda rng: atomic_coeffs(rng, 2, 4, 1)[0],
    "central": lambda rng: trig_coeffs(rng, 4, 5, 2),
    "deflated": lambda rng: DEFLATED,
}


def provenance_measure(kind, zeros_negative=False):
    seq = HermSeq(PROVENANCE_DATA[kind](np.random.default_rng(25)))
    sm = central_measure(seq)
    if not zeros_negative:
        return sm, seq
    quotient = sm.quotient
    if quotient is not None:
        quotient = CaratheodoryQuotient(num=MatPoly(negative_zeros(quotient.num.coeffs)),
                                        den=MatPoly(negative_zeros(quotient.den.coeffs)))
    atoms = tuple(Atom(point=a.point, weight=negative_zeros(a.weight)) for a in sm.atoms)
    return SpectralMeasure(q=sm.q, atoms=atoms, quotient=quotient), seq


class TestSequenceDocs:
    def test_round_trip(self):
        seq = HermSeq(
            [np.array([[1.0, 0.2j], [-0.2j, 2.0]]), np.array([[0.1, 0.3], [0.0, 0.2j]])]
        )
        doc = sequence_to_doc(seq, "covariance", {"source": "unit-test"})
        back, metadata = doc_to_sequence(loads(dumps(doc)))
        assert isinstance(back, HermSeq)
        assert metadata == {"source": "unit-test"}
        for j in range(2):
            assert np.allclose(back.coeff(j), seq.coeff(j), atol=0.0)

    def test_byte_identical_redump(self):
        doc = sequence_to_doc(scalar_seq(1.0, 0.5), "covariance")
        text = dumps(doc)
        assert dumps(loads(text)) == text

    def test_gamma_kind(self):
        g = GammaSeq([np.array([[1.0]]), np.array([[0.4j]])])
        back, _ = doc_to_sequence(sequence_to_doc(g, "gamma"))
        assert isinstance(back, GammaSeq)

    def test_bad_kind_rejected(self):
        with pytest.raises(InvalidInputError):
            sequence_to_doc(scalar_seq(1.0), "spectral")

    def test_error_names_offending_entry(self):
        doc = sequence_to_doc(scalar_seq(1.0, 0.5), "covariance")
        doc["coeffs"][1][0][0] = ["not", "numbers"]
        with pytest.raises(InvalidInputError) as exc:
            doc_to_sequence(doc)
        assert "coefficient 1" in str(exc.value)

    def test_malformed_json_rejected(self):
        with pytest.raises(InvalidInputError):
            loads("{not json", where="test.json")

    def test_hermitian_from_lower(self):
        m = np.array([[1.0 + 2j, 9.0], [3.0 - 1j, 4.0 + 5j]])
        h = hermitian_from_lower(m)
        assert np.allclose(h, [[1.0, 3.0 + 1j], [3.0 - 1j, 4.0]])


class TestMeasureDocs:
    def test_round_trip_preserves_evaluations(self):
        seq = scalar_seq(1.0, 0.5)
        sm = central_measure(seq)
        doc = loads(dumps(measure_to_doc(sm, report=verify_recovery(sm, seq))))
        back = doc_to_measure(doc)
        for got, want in ((back.quotient.num, sm.quotient.num),
                          (back.quotient.den, sm.quotient.den)):
            assert np.array_equal(got.coeffs, want.coeffs)
        z = np.exp(0.8j)
        assert np.allclose(density_at(back, z), density_at(sm, z), atol=1e-12)
        assert np.allclose(fourier_coeff(back, 1), seq.coeff(1), atol=1e-9)

    def test_atoms_survive_round_trip(self):
        sm = central_measure(scalar_seq(1.0, 1.0))
        back = doc_to_measure(loads(dumps(measure_to_doc(sm))))
        assert len(back.atoms) == 1
        assert np.isclose(back.atoms[0].point, 1.0, atol=1e-12)
        assert abs(abs(back.atoms[0].point) - 1.0) < 1e-15
        assert np.allclose(back.atoms[0].weight, [[1.0]], atol=1e-12)

    def test_report_embedded(self):
        seq = scalar_seq(1.0, 0.5)
        sm = central_measure(seq)
        doc = measure_to_doc(sm, report=verify_recovery(sm, seq), density_samples=16)
        assert doc["report"]["passed"] is True
        assert len(doc["density_samples"]) == 16

    def test_density_sample_count_must_be_nonnegative(self):
        sm = central_measure(scalar_seq(1.0, 0.5))
        assert measure_to_doc(sm, density_samples=0)["density_samples"] == []
        with pytest.raises(InvalidInputError, match="density_samples"):
            measure_to_doc(sm, density_samples=-3)

    @pytest.mark.parametrize(
        "quotient",
        [
            [1],
            {"a_coeffs": 5, "b_coeffs": [[[[1.0, 0.0]]]]},
            {"a_coeffs": [[[[1.0, 0.0]]]], "b_coeffs": 7},
            {"a_coeffs": [[[[1.0, 0.0]]], [[[1.0, 0.0]]]]},
        ],
        ids=["list", "a_not_list", "b_not_list", "b_missing"],
    )
    def test_malformed_quotient_rejected(self, tmp_path, capsys, quotient):
        doc = {"q": 1, "atoms": [], "quotient": quotient}
        with pytest.raises(InvalidInputError, match="quotient"):
            doc_to_measure(doc)
        mfile = tmp_path / "m.json"
        src = tmp_path / "seq.json"
        mfile.write_text(dumps(doc))
        src.write_text(seq_doc_text(1.0, 0.5))
        assert main(["verify", str(mfile), "--sequence", str(src)]) == 1
        assert capsys.readouterr().err.startswith("matspec: quotient")

    def test_absent_quotient_reads_as_atoms_only(self):
        for quotient in (None, {}, {"a_coeffs": [], "b_coeffs": []}):
            sm = doc_to_measure({"q": 1, "quotient": quotient})
            assert sm.quotient is None
            assert measure_to_doc(sm)["provenance"] == "atoms-only"

    def test_atom_location_must_be_unimodular(self, tmp_path, capsys):
        # locations are kept as written, so one off the circle is refused
        doc = measure_to_doc(central_measure(scalar_seq(1.0, 1.0)), density_samples=0)
        doc["atoms"][0]["u"] = [2.0, 0.0]
        with pytest.raises(InvalidInputError, match="not on the unit circle"):
            doc_to_measure(doc)
        mfile = tmp_path / "m.json"
        src = tmp_path / "seq.json"
        mfile.write_text(dumps(doc))
        src.write_text(seq_doc_text(1.0, 1.0))
        assert main(["verify", str(mfile), "--sequence", str(src)]) == 1
        assert "not on the unit circle" in capsys.readouterr().err

    def test_non_finite_atom_location_exits_1(self, tmp_path, capsys):
        # ||u| - 1| > tol is False for NaN: the atom was kept, and verify
        # ended in a LinAlgError traceback
        doc = measure_to_doc(central_measure(scalar_seq(1.0, 1.0)), density_samples=0)
        doc["atoms"][0]["u"] = [float("nan"), 0.0]
        with pytest.raises(InvalidInputError, match=r"atom 0\.u = .* is not finite"):
            doc_to_measure(doc)
        mfile, src = tmp_path / "m.json", tmp_path / "seq.json"
        mfile.write_text(dumps(doc))
        src.write_text(seq_doc_text(1.0, 1.0))
        assert "NaN" in mfile.read_text()
        assert main(["verify", str(mfile), "--sequence", str(src)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "is not finite" in captured.err

    def test_huge_quotient_writes_a_finite_bound(self, tmp_path, capsys):
        # den = 1 + 1e200 z has its zero at -1e-200, so verify exits 2; the
        # report's density bound, -inf before H was scaled, stays finite and
        # the report is strict JSON
        doc = {"q": 1, "atoms": [], "quotient": {
            "a_coeffs": [[[[1.0, 0.0]]], [[[1.0, 0.0]]]],
            "b_coeffs": [[[[1.0, 0.0]]], [[[1e200, 0.0]]]],
        }}
        mfile, src, out = tmp_path / "m.json", tmp_path / "seq.json", tmp_path / "r.json"
        mfile.write_text(dumps(doc))
        src.write_text(seq_doc_text(1.0, 0.5))
        argv = ["verify", str(mfile), "--sequence", str(src), "--output", str(out)]
        assert main(argv) == 2
        assert "zero of det den" in capsys.readouterr().err
        report = json.loads(out.read_text(), parse_constant=pytest.fail)["report"]
        assert np.isfinite(report["density_psd_bound"])

    @pytest.mark.parametrize(
        "weight, match",
        [([[[-1.0, 0.0]]], "negative eigenvalue"), ([[[1.0, 1.0]]], "not Hermitian")],
    )
    def test_atom_weight_must_be_hermitian_psd(self, tmp_path, capsys, weight, match):
        # the document's weight is checked before its lower triangle is read
        doc = measure_to_doc(central_measure(scalar_seq(1.0, 1.0)), density_samples=0)
        doc["atoms"][0]["weight"] = weight
        with pytest.raises(InvalidInputError, match=f"atom 0: .*{match}"):
            doc_to_measure(doc)
        mfile = tmp_path / "m.json"
        src = tmp_path / "seq.json"
        mfile.write_text(dumps(doc))
        src.write_text(seq_doc_text(1.0, 1.0))
        assert main(["verify", str(mfile), "--sequence", str(src)]) == 1
        assert match in capsys.readouterr().err

    @pytest.mark.parametrize(
        "data, stated",
        [((1.0, 0.5), "atoms-only"), ((1.0, 1.0), "central"), ((1.0, 0.5), "deflated")],
        ids=["atoms-only-with-coefficients", "central-without", "deflated-without-atoms"],
    )
    def test_contradictory_provenance_rejected(self, tmp_path, capsys, data, stated):
        # (1, 0.5) has a density and a quotient; (1, 1) is rank-frozen, one
        # atom and no quotient
        doc = measure_to_doc(central_measure(scalar_seq(*data)), density_samples=0)
        assert doc["provenance"] != stated
        doc["provenance"] = stated
        with pytest.raises(InvalidInputError, match="contradicts"):
            doc_to_measure(doc)
        mfile = tmp_path / "m.json"
        src = tmp_path / "seq.json"
        mfile.write_text(dumps(doc))
        src.write_text(seq_doc_text(*data))
        assert main(["verify", str(mfile), "--sequence", str(src)]) == 1
        assert "contradicts" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "coeffs, prov",
        [
            ([np.eye(2), 0.5 * np.eye(2)], "central"),
            ([np.diag([0.0, 1.0]), np.diag([0.0, 0.5])], "central"),
            ([np.eye(2), np.eye(2)], "atoms-only"),
            (DEFLATED, "deflated"),
        ],
        ids=["central", "atom-free-singular", "atoms-only", "deflated"],
    )
    def test_provenance_names_the_quotient(self, coeffs, prov):
        # no atoms: the central quotient, also of singular data (the README's
        # 0 (+) AR(1)); no quotient: atoms only; both: the quotient of the
        # data less its atoms.  Each document re-serializes to itself and
        # its measure recovers the data
        seq = HermSeq(coeffs)
        doc = measure_to_doc(central_measure(seq), density_samples=8)
        assert doc["provenance"] == prov
        back = doc_to_measure(loads(dumps(doc)))
        assert dumps(measure_to_doc(back, density_samples=8)) == dumps(doc)
        assert verify_recovery(back, seq).passed

    def test_full_central_quotient_with_atoms_refused(self, tmp_path, capsys):
        # a "central" document with atoms holds the full central quotient,
        # whose poles at the atoms would count them a second time
        seq = HermSeq(DEFLATED)
        sm = central_measure(seq)
        full = central_quotient(gamma_from_covariance(seq))
        doc = measure_to_doc(SpectralMeasure(2, sm.atoms, full), density_samples=0)
        doc["provenance"] = "central"
        with pytest.raises(InvalidInputError, match="full central quotient") as exc:
            doc_to_measure(doc)
        assert "matspec spectrum" in str(exc.value)
        mfile = tmp_path / "m.json"
        src = tmp_path / "seq.json"
        mfile.write_text(dumps(doc))
        src.write_text(dumps(sequence_to_doc(seq, "covariance")))
        assert main(["verify", str(mfile), "--sequence", str(src)]) == 1
        assert "regenerate it with `matspec spectrum`" in capsys.readouterr().err

    def test_unknown_provenance_rejected(self):
        # "pd-path" named a second route to the same measure, now removed
        doc = measure_to_doc(central_measure(scalar_seq(1.0)))
        for prov in ("guesswork", "pd-path"):
            doc["provenance"] = prov
            with pytest.raises(InvalidInputError):
                doc_to_measure(doc)


ONE = [[[1.0, 0.0]]]


class TestMalformedDocuments:
    """Each input check of the readers, from the library and through the
    CLI, which exits 1 with the message."""

    @pytest.mark.parametrize(
        "kind, doc, match",
        [
            ("sequence", [], "sequence document must be a JSON object"),
            ("sequence", {"q": 0, "kind": "covariance", "coeffs": [ONE]}, "q must be"),
            ("sequence", {"q": 1, "kind": "spectral", "coeffs": [ONE]}, "kind must be"),
            ("sequence", {"q": 1, "kind": "covariance", "coeffs": []}, "coeffs must be"),
            ("sequence", {"q": 1, "kind": "covariance", "coeffs": [ONE], "metadata": []},
             "metadata must be"),
            ("sequence", {"q": 1, "kind": "covariance", "coeffs": [[]]}, "expected 1 rows"),
            ("sequence", {"q": 1, "kind": "covariance", "coeffs": [[[]]]},
             "row 0 must have 1 entries"),
            ("sequence", {"q": 1, "kind": "covariance", "coeffs": [[[[1.0]]]]},
             r"expected an \[re, im\] pair"),
            ("measure", [], "measure document must be a JSON object"),
            ("measure", {"q": True}, "q must be"),
            ("measure", {"q": 1, "atoms": {}}, "atoms must be a list"),
            ("measure", {"q": 1, "atoms": [1]}, "atom 0: expected an object"),
        ],
        ids=["seq-not-object", "seq-q", "kind", "coeffs-empty", "metadata", "rows",
             "row-length", "pair", "measure-not-object", "measure-q", "atoms-not-list",
             "atom-not-object"],
    )
    def test_refused_with_exit_1(self, tmp_path, capsys, kind, doc, match):
        read = doc_to_sequence if kind == "sequence" else doc_to_measure
        with pytest.raises(InvalidInputError, match=match):
            read(doc)
        bad, src = tmp_path / "bad.json", tmp_path / "seq.json"
        bad.write_text(dumps(doc))
        src.write_text(seq_doc_text(1.0, 0.5))
        if kind == "sequence":
            argv = ["check", str(bad)]
        else:
            argv = ["verify", str(bad), "--sequence", str(src)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.search(match, captured.err)


class TestWireForm:
    """Documents are built by one array conversion per table and written by
    the C encoder; the per-entry conversion of tests/_oracle.py is the
    definition they must reproduce, bit for bit."""

    def test_mat_to_wire_takes_scalars_matrices_and_stacks(self):
        stack = negative_zeros(np.arange(12).reshape(3, 2, 2) * (1.0 - 0.5j))
        stack[0, 0, 1] = complex(-0.0, 2.5)
        assert canonical(mat_to_wire(stack)) == canonical(
            [_oracle.mat_to_wire(m) for m in stack])
        assert canonical(mat_to_wire(stack[1])) == canonical(_oracle.mat_to_wire(stack[1]))
        assert canonical(mat_to_wire(complex(-0.0, 1.5))) == "[-0.0, 1.5]"
        assert mat_to_wire(np.eye(2)) == [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]

    @pytest.mark.parametrize("zeros_negative", [False, True], ids=["plain", "negative-zeros"])
    @pytest.mark.parametrize("kind", sorted(PROVENANCE_DATA))
    def test_measure_doc_matches_the_per_entry_conversion(self, kind, zeros_negative):
        sm, _ = provenance_measure(kind, zeros_negative)
        doc = measure_to_doc(sm, density_samples=24)
        assert doc["provenance"] == kind
        angles = [s["angle"] for s in doc["density_samples"]]
        assert angles == (2.0 * np.pi * (np.arange(24) + 0.5) / 24).tolist()
        assert canonical([s["matrix"] for s in doc["density_samples"]]) == canonical(
            [_oracle.mat_to_wire(d) for d in sm.density_grid(angles)])
        if sm.quotient is None:
            quotient = {"a_coeffs": [], "b_coeffs": []}
        else:
            quotient = {
                "a_coeffs": [_oracle.mat_to_wire(c) for c in sm.quotient.num.coeffs],
                "b_coeffs": [_oracle.mat_to_wire(c) for c in sm.quotient.den.coeffs],
            }
        assert canonical(doc["quotient"]) == canonical(quotient)
        atoms = [
            {
                "angle": float(np.angle(a.point)) % (2.0 * np.pi),
                "u": [float(np.real(a.point)), float(np.imag(a.point))],
                "weight": _oracle.mat_to_wire(a.weight),
            }
            for a in sm.atoms
        ]
        assert canonical(doc["atoms"]) == canonical(atoms)
        if zeros_negative:
            assert "-0.0" in canonical(doc)

    @pytest.mark.parametrize("kind", ["covariance", "gamma"])
    def test_sequence_doc_matches_the_per_entry_conversion(self, kind):
        coeffs = [negative_zeros(c) for c in trig_coeffs(np.random.default_rng(25), 3, 4, 2)]
        seq = HermSeq(coeffs) if kind == "covariance" else GammaSeq(coeffs)
        doc = sequence_to_doc(seq, kind)
        assert canonical(doc["coeffs"]) == canonical([_oracle.mat_to_wire(c) for c in coeffs])
        assert "-0.0" in canonical(doc)

    def full_size_document(self):
        # 720 density samples of a q = 4 measure, with its report
        sm, seq = provenance_measure("central")
        doc = measure_to_doc(sm, report=verify_recovery(sm, seq))
        assert (doc["q"], len(doc["density_samples"])) == (4, 720)
        return doc

    def test_dumps_never_enters_the_python_encoder(self, monkeypatch):
        doc = self.full_size_document()

        def refuse(*args, **kwargs):
            raise AssertionError("dumps took the pure-Python JSON encoder")

        monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
        assert json.loads(dumps(doc)) == doc

    def test_full_size_document_redumps_byte_identically(self):
        text = dumps(self.full_size_document())
        assert dumps(loads(text)) == text
        # one line of JSON, and input in any whitespace reads the same
        assert text.endswith("}\n") and text.count("\n") == 1
        assert dumps(loads(json.dumps(loads(text), indent=2))) == text


SRC = Path(__file__).resolve().parents[1] / "src"


def run_python(*argv, log=None, **kwargs):
    """``python *argv`` in a fresh interpreter that imports matspec from this
    checkout, with MATSPEC_LOG set to ``log`` (unset for None)."""
    env = {k: v for k, v in os.environ.items() if k != "MATSPEC_LOG"}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    if log is not None:
        env["MATSPEC_LOG"] = log
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True,
                          text=True, timeout=120, **kwargs)


class TestCliProcess:
    """What only a fresh interpreter shows: imports, and logging set up from
    MATSPEC_LOG."""

    @pytest.mark.parametrize("log", ["basic_format", "BASIC_FORMAT", "loud"])
    def test_unknown_log_level_reads_as_warning(self, tmp_path, log):
        src = tmp_path / "seq.json"
        src.write_text(seq_doc_text(1.0, 0.5))
        proc = run_python("-m", "matspec.cli", "check", str(src), log=log)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert json.loads(proc.stdout)["classification"] == "TPD"

    def test_debug_log_prints_the_singular_line(self, tmp_path):
        src = tmp_path / "frozen.json"
        src.write_text(seq_doc_text(1.0, -1j, -1.0))
        proc = run_python("-m", "matspec.cli", "spectrum", str(src),
                          "--output", str(tmp_path / "m.json"), log="DEBUG")
        assert proc.returncode == 0, proc.stderr
        # singular T_2 declines the entry's full-rank certificate first
        assert proc.stderr.startswith(
            "DEBUG:matspec:full-rank certificate declined: Cholesky of re T_2 - 3.000e-10 I "
            "failed (size 3)\nDEBUG:matspec:singular T_2: rank 1"
        )
        assert "hermitian route" in proc.stderr

    def test_cli_loads_neither_logging_nor_csv(self, tmp_path):
        # a singular input, whose debug line is one the logger could print,
        # and a positive-definite one written with --csv, without MATSPEC_LOG
        (tmp_path / "frozen.json").write_text(seq_doc_text(1.0, -1j, -1.0))
        (tmp_path / "seq.json").write_text(seq_doc_text(1.0, 0.5))
        script = (
            "import sys\n"
            "import matspec.cli\n"
            "loaded = [sorted({'logging', 'csv'} & set(sys.modules))]\n"
            "for name in ('frozen', 'seq'):\n"
            "    assert matspec.cli.main(['spectrum', name + '.json', '--output',\n"
            "                             name + '-m.json', '--csv', name + '.csv']) == 0\n"
            "    loaded.append(sorted({'logging', 'csv'} & set(sys.modules)))\n"
            "print(loaded)\n"
        )
        proc = run_python("-c", script, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[[], [], []]\n"


class TestCliExitCodes:
    def test_check_tnd(self, tmp_path, capsys):
        f = tmp_path / "seq.json"
        f.write_text(seq_doc_text(1.0, 0.5))
        assert main(["check", str(f)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["classification"] == "TPD"
        assert out["caratheodory"] is True

    def test_check_not_tnd_exits_2(self, tmp_path, capsys):
        f = tmp_path / "seq.json"
        f.write_text(seq_doc_text(1.0, 2.0))
        assert main(["check", str(f)]) == 2
        captured = capsys.readouterr()
        assert "T_1 not nonnegative Hermitian" in captured.err
        assert json.loads(captured.out)["classification"] == "NOT_TND"

    def test_check_gamma_document(self, tmp_path, capsys):
        f = tmp_path / "g.json"
        f.write_text(seq_doc_text(1.0, 1.0, kind="gamma"))
        assert main(["check", str(f)]) == 0
        want = {"caratheodory": True, "classification": "TPD", "first_failure": None}
        assert capsys.readouterr().out == dumps(want)

    def test_check_non_hermitian_head_exits_2(self, tmp_path, capsys):
        # C_0 fails the Hermiticity test, so T_0 is the first failure, and
        # Gamma_0 = C_0 fails the Caratheodory test as eval-phi rejects it
        seq = HermSeq([np.array([[1.0, 0.5], [0.0, 1.0]]), 0.1 * np.eye(2)])
        f = tmp_path / "seq.json"
        f.write_text(dumps(sequence_to_doc(seq, "covariance")))
        assert main(["check", str(f)]) == 2
        captured = capsys.readouterr()
        want = {"caratheodory": False, "classification": "NOT_TND", "first_failure": 0}
        assert captured.out == dumps(want)
        assert captured.err == "T_0 not nonnegative Hermitian\n"
        assert main(["eval-phi", str(f), "--z", "0.5,0.0"]) == 1
        assert "Gamma_0 must be Hermitian" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["spectrum", "ar-spectrum"])
    def test_negative_density_samples_exits_1(self, tmp_path, capsys, command):
        f = tmp_path / "seq.json"
        f.write_text(seq_doc_text(1.0, 0.5))
        order = ["--order", "1"] if command == "ar-spectrum" else []
        argv = [command, str(f), *order, "--density-samples"]
        assert main([*argv, "-3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "density_samples" in captured.err
        assert main([*argv, "0"]) == 0
        assert json.loads(capsys.readouterr().out)["density_samples"] == []

    def test_negative_root_tol_exits_1(self, tmp_path, capsys):
        f = tmp_path / "seq.json"
        f.write_text(seq_doc_text(1.0, 1.0))
        assert main(["spectrum", str(f), "--root-tol=-1e-7"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "root_tol" in captured.err

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1", "2"])
    @pytest.mark.parametrize("command", ["check", "extend"])
    def test_psd_tol_outside_0_1_exits_1(self, tmp_path, capsys, command, tol):
        # C = [1, 2] is not TND: no such psd_tol may extend it to
        # 1, 2, 4, 8 or classify it TND
        f = tmp_path / "seq.json"
        f.write_text(seq_doc_text(1.0, 2.0))
        length = ["--length", "4"] if command == "extend" else []
        assert main([command, str(f), *length, f"--psd-tol={tol}"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "psd_tol" in captured.err

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_recovery_tol_not_finite_nonnegative_exits_1(self, tmp_path, capsys, tol):
        src, measure = tmp_path / "seq.json", tmp_path / "m.json"
        src.write_text(seq_doc_text(1.0, 0.5))
        assert main(["spectrum", str(src), "--output", str(measure)]) == 0
        assert main(["verify", str(measure), "--sequence", str(src), f"--tol={tol}"]) == 1
        assert main(["spectrum", str(src), f"--verify-tol={tol}"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must be finite and nonnegative" in captured.err

    @pytest.mark.parametrize("z", ["1", "a,b"])
    def test_eval_phi_malformed_point_exits_1(self, tmp_path, capsys, z):
        src = tmp_path / "seq.json"
        src.write_text(seq_doc_text(1.0, 0.5))
        assert main(["eval-phi", str(src), f"--z={z}"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--z expects 're,im'" in captured.err

    @pytest.mark.parametrize("tol", ["5", "0", "nan"])
    @pytest.mark.parametrize("command", ["spectrum", "ar-spectrum", "extend", "eval-phi"])
    def test_rank_rtol_outside_0_1_exits_1(self, tmp_path, capsys, command, tol):
        # C = [1, 2] is not TND, and the cutoff is checked before the scan:
        # an input error (exit 1), not the scan's model error (exit 2)
        f = tmp_path / "seq.json"
        f.write_text(seq_doc_text(1.0, 2.0))
        extra = {"ar-spectrum": ["--order", "1"], "extend": ["--length", "4"],
                 "eval-phi": ["--z", "0.5,0.0"]}.get(command, [])
        assert main([command, str(f), *extra, f"--rank-rtol={tol}"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "rel_tol must lie in (0, 1)" in captured.err

    def test_check_takes_no_rank_rtol(self, tmp_path, capsys):
        f = tmp_path / "seq.json"
        f.write_text(seq_doc_text(1.0, 0.5))
        assert main(["check", str(f), "--rank-rtol", "0.5"]) == 1
        assert "unrecognized arguments: --rank-rtol" in capsys.readouterr().err

    def test_missing_file_exits_1(self, tmp_path, capsys):
        assert main(["check", str(tmp_path / "absent.json")]) == 1
        assert capsys.readouterr().err != ""

    def test_usage_error_exits_1(self, capsys):
        assert main(["no-such-command"]) == 1

    def test_malformed_json_exits_1(self, tmp_path, capsys):
        f = tmp_path / "bad.json"
        f.write_text("{oops")
        assert main(["check", str(f)]) == 1

    def test_svd_failure_is_a_model_error(self, tmp_path, capsys, monkeypatch):
        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        # singular T_2 (rank 1): the predictor takes the SVD route, which
        # full-rank data no longer reaches
        monkeypatch.setattr(np.linalg, "svd", no_convergence)
        with pytest.raises(ModelError, match="2x2 matrix"):
            central_extend(scalar_seq(1.0, 1.0, 1.0), 5)
        f = tmp_path / "seq.json"
        f.write_text(seq_doc_text(1.0, 1.0, 1.0))
        assert main(["extend", str(f), "--length", "5"]) == 2
        assert "did not converge" in capsys.readouterr().err

    def test_shift_eigensolver_failure_is_a_model_error(self, tmp_path, capsys, monkeypatch):
        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        # rank-frozen data (one atom at i): the compressed shift's unitary
        # part comes from one eigh of size rank T_1 = 1
        monkeypatch.setattr(np.linalg, "eigh", no_convergence)
        with pytest.raises(ModelError, match="eigh of a 1x1 matrix"):
            central_measure(scalar_seq(1.0, -1j, -1.0))
        f = tmp_path / "frozen.json"
        f.write_text(seq_doc_text(1.0, -1j, -1.0))
        assert main(["spectrum", str(f)]) == 2
        assert "did not converge" in capsys.readouterr().err


class TestCliPipeline:
    def test_extend(self, tmp_path):
        src = tmp_path / "seq.json"
        out = tmp_path / "ext.json"
        src.write_text(seq_doc_text(1.0))
        assert main(["extend", str(src), "--length", "4", "--output", str(out)]) == 0
        seq, _ = doc_to_sequence(loads(out.read_text()))
        assert len(seq) == 4
        assert np.allclose(seq.coeff(3), 0.0, atol=1e-12)

    def test_extend_gamma_round_trip(self, tmp_path):
        src = tmp_path / "g.json"
        out = tmp_path / "ext.json"
        g = GammaSeq([np.array([[1.0]]), np.array([[1.0]])])
        src.write_text(dumps(sequence_to_doc(g, "gamma")))
        assert main(["extend", str(src), "--length", "3", "--output", str(out)]) == 0
        doc = loads(out.read_text())
        assert doc["kind"] == "gamma"
        back, _ = doc_to_sequence(doc)
        assert np.allclose(back.coeff(2), 0.5, atol=1e-10)

    def test_spectrum_then_verify(self, tmp_path, capsys):
        src = tmp_path / "seq.json"
        mfile = tmp_path / "measure.json"
        src.write_text(seq_doc_text(1.0, 0.5))
        assert main(["spectrum", str(src), "--output", str(mfile)]) == 0
        doc = loads(mfile.read_text())
        assert doc["report"]["passed"] is True
        assert (
            main(["verify", str(mfile), "--sequence", str(src), "--tol", "1e-8"]) == 0
        )

    def test_rank_frozen_document_through_every_subcommand(self, tmp_path, capsys):
        # 1, -i, -1 are the coefficients of one atom at i, the README's
        # rank-frozen example: an atoms-only document, and an AR(1)
        # continuation that reproduces C_2
        src = tmp_path / "seq.json"
        mfile = tmp_path / "measure.json"
        src.write_text(seq_doc_text(1.0, -1j, -1.0))
        assert main(["spectrum", str(src), "--output", str(mfile)]) == 0
        doc = loads(mfile.read_text())
        assert doc["provenance"] == "atoms-only"
        assert doc["quotient"] == {"a_coeffs": [], "b_coeffs": []}
        assert [a["u"] for a in doc["atoms"]] == [[0.0, 1.0]]
        assert doc["report"]["passed"] is True
        # ||C_0|| = 1
        assert doc["report"]["relative_error"] == doc["report"]["max_error"] < 1e-15
        assert main(["verify", str(mfile), "--sequence", str(src), "--tol", "1e-8"]) == 0
        capsys.readouterr()
        assert main(["ar-spectrum", str(src), "--order", "1"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert loads(captured.out)["provenance"] == "atoms-only"

    def test_verify_against_wrong_sequence_exits_2(self, tmp_path, capsys):
        src = tmp_path / "seq.json"
        wrong = tmp_path / "wrong.json"
        mfile = tmp_path / "m.json"
        src.write_text(seq_doc_text(1.0, 0.5))
        wrong.write_text(seq_doc_text(1.0, 0.1))
        assert main(["spectrum", str(src), "--output", str(mfile)]) == 0
        capsys.readouterr()
        assert main(["verify", str(mfile), "--sequence", str(wrong)]) == 2
        assert "verification failed: max error" in capsys.readouterr().err

    def test_verify_with_unclaimed_zero_on_the_circle_exits_2(self, tmp_path, capsys):
        # (1 + z)/(1 - z) without its point mass at z = 1: det den vanishes
        # on the circle where the measure has no atom.  Its Taylor series
        # does reproduce C_0 = C_1 = 1; the report fails because the zero is
        # not certified off the closed disk, and the message names it
        one = [[[1.0, 0.0]]]
        doc = {"q": 1, "provenance": "central", "atoms": [],
               "quotient": {"a_coeffs": [one, one], "b_coeffs": [one, [[[-1.0, 0.0]]]]}}
        mfile = tmp_path / "m.json"
        src = tmp_path / "seq.json"
        mfile.write_text(dumps(doc))
        src.write_text(seq_doc_text(1.0, 1.0))
        assert main(["verify", str(mfile), "--sequence", str(src)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("verification failed: zero of det den at 1")
        assert "not certified outside the closed disk" in captured.err
        report = json.loads(captured.out)["report"]
        assert report["passed"] is False and report["cause"] in captured.err

    def test_verify_reports_a_negative_density_and_passes(self, tmp_path, capsys):
        # the hand-built quotient 1 + 2z has density (1 + 2 cos t) / 2pi,
        # negative near t = pi, yet recovers C_0 = 1, C_1 = 1: the report
        # carries the bound and the exit code follows recovery
        one = [[[1.0, 0.0]]]
        doc = {"q": 1, "provenance": "central", "atoms": [],
               "quotient": {"a_coeffs": [one, [[[2.0, 0.0]]]], "b_coeffs": [one]}}
        mfile = tmp_path / "m.json"
        src = tmp_path / "seq.json"
        mfile.write_text(dumps(doc))
        src.write_text(seq_doc_text(1.0, 1.0))
        assert main(["verify", str(mfile), "--sequence", str(src)]) == 0
        report = json.loads(capsys.readouterr().out)["report"]
        assert report["passed"] is True
        assert report["density_psd_bound"] < 0.0
        assert "density_psd_violations" not in report

    def test_verify_with_singular_den_exits_1(self, tmp_path, capsys):
        # den = [[1, 1], [1, 1]] is singular everywhere: no measure document
        # describes a Caratheodory function with it.  The block companion's
        # den_0 is singular, and so is den at the root of unity it is tried at
        one, zero = [1.0, 0.0], [0.0, 0.0]
        doc = {"q": 2, "atoms": [],
               "quotient": {"a_coeffs": [[[one, zero], [zero, one]]],
                            "b_coeffs": [[[one, one], [one, one]]]}}
        mfile = tmp_path / "m.json"
        src = tmp_path / "seq.json"
        mfile.write_text(dumps(doc))
        src.write_text(dumps(sequence_to_doc(HermSeq([np.eye(2)]), "covariance")))
        assert main(["verify", str(mfile), "--sequence", str(src)]) == 1
        assert "det den is the zero polynomial" in capsys.readouterr().err

    def test_verify_with_singular_den0_names_the_zero_at_0(self, tmp_path, capsys):
        # den = diag(z, 1 - z/2): den_0 is singular, so det den = z (1 - z/2)
        # vanishes at the origin.  The companion cannot fold den_0^{-1} in;
        # the report fails and names the zero at 0, with no LinAlgError
        one, zero, half = [1.0, 0.0], [0.0, 0.0], [-0.5, 0.0]
        doc = {"q": 2, "atoms": [],
               "quotient": {"a_coeffs": [[[one, zero], [zero, one]]],
                            "b_coeffs": [[[zero, zero], [zero, one]], [[one, zero], [zero, half]]]}}
        mfile = tmp_path / "m.json"
        src = tmp_path / "seq.json"
        mfile.write_text(dumps(doc))
        src.write_text(dumps(sequence_to_doc(HermSeq([np.eye(2)]), "covariance")))
        assert main(["verify", str(mfile), "--sequence", str(src)]) == 2
        captured = capsys.readouterr()
        want = "verification failed: zero of det den at 0+0j (|z| - 1 = -1.000e+00)"
        assert captured.err.startswith(want)
        assert json.loads(captured.out)["report"]["cause"] in captured.err

    def test_spectrum_csv(self, tmp_path):
        src = tmp_path / "seq.json"
        csv = tmp_path / "density.csv"
        src.write_text(seq_doc_text(2.0))
        main(
            [
                "spectrum", str(src),
                "--output", str(tmp_path / "m.json"),
                "--csv", str(csv),
                "--density-samples", "8",
            ]
        )
        lines = csv.read_text().strip().splitlines()
        assert lines[0] == "angle,d00_re,d00_im"
        assert len(lines) == 9
        first = [float(x) for x in lines[1].split(",")]
        assert np.isclose(first[1], 2.0 / (2.0 * np.pi), atol=1e-12)

    @pytest.mark.parametrize("samples", [0, 720])
    @pytest.mark.parametrize("kind", sorted(PROVENANCE_DATA))
    def test_spectrum_csv_matches_the_per_entry_writer(self, tmp_path, kind, samples):
        _, seq = provenance_measure(kind)
        src, mfile = tmp_path / "seq.json", tmp_path / "m.json"
        src.write_text(dumps(sequence_to_doc(seq, "covariance")))
        assert main(["spectrum", str(src), "--output", str(mfile),
                     "--csv", str(tmp_path / "density.csv"),
                     "--density-samples", str(samples)]) == 0
        _oracle.write_density_csv(tmp_path / "oracle.csv", loads(mfile.read_text()))
        got = (tmp_path / "density.csv").read_bytes()
        assert got == (tmp_path / "oracle.csv").read_bytes()
        assert got.count(b"\n") == samples + 1

    def test_spectrum_determinism(self, tmp_path):
        src = tmp_path / "seq.json"
        src.write_text(seq_doc_text(1.0, 0.4))
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["spectrum", str(src), "--output", str(a)])
        main(["spectrum", str(src), "--output", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_stdin_stdout(self, tmp_path, capsys, monkeypatch):
        import io

        monkeypatch.setattr(
            "sys.stdin", io.StringIO(seq_doc_text(1.0, 0.5))
        )
        assert main(["extend", "-", "--length", "3", "--output", "-"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["coeffs"]) == 3

    def test_ar_spectrum_warning_on_stderr(self, tmp_path, capsys):
        src = tmp_path / "seq.json"
        src.write_text(seq_doc_text(1.0, 1.0, 0.2))
        out = tmp_path / "m.json"
        assert main(["ar-spectrum", str(src), "--order", "1", "--output", str(out)]) == 0
        assert "warning:" in capsys.readouterr().err

    def test_eval_phi(self, tmp_path, capsys):
        src = tmp_path / "seq.json"
        src.write_text(seq_doc_text(1.0, 1.0))
        assert main(["eval-phi", str(src), "--z", "0.5,0.0"]) == 0
        doc = json.loads(capsys.readouterr().out)
        val = doc["values"][0]["phi"]
        assert np.isclose(val[0][0][0], 3.0, atol=1e-10)

    def test_eval_phi_negative_real_part_as_separate_argument(self, tmp_path, capsys):
        # "--z -0.5,0.3": argparse on Python 3.10-3.12 once read the value as
        # an option, since its negative-number pattern has no comma
        src = tmp_path / "seq.json"
        src.write_text(seq_doc_text(1.0, 0.5))
        assert main(["eval-phi", str(src), "--z", "-0.5,0.3", "--z", "-.2,-0.1"]) == 0
        values = json.loads(capsys.readouterr().out)["values"]
        cq = central_quotient(gamma_from_covariance(scalar_seq(1.0, 0.5)))
        for got, z in zip(values, (-0.5 + 0.3j, -0.2 - 0.1j)):
            assert got["z"] == [z.real, z.imag]
            (re_, im_), = got["phi"][0]
            assert np.isclose(complex(re_, im_), phi_at(cq, z)[0, 0], rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("z", ["nan,0", "0,inf", "-inf,0"])
    def test_eval_phi_non_finite_point_exits_1(self, tmp_path, capsys, z):
        # a NaN point once passed the disk test and wrote NaN tokens, which
        # are not JSON
        src = tmp_path / "seq.json"
        src.write_text(seq_doc_text(1.0, 0.5))
        assert main(["eval-phi", str(src), "--z", "0.5,0", f"--z={z}"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "is not finite" in captured.err

    def test_eval_phi_gamma_document(self, tmp_path, capsys):
        src = tmp_path / "g.json"
        src.write_text(seq_doc_text(1.0, 1.0, kind="gamma"))
        assert main(["eval-phi", str(src), "--z", "0.4,0.0"]) == 0
        want = {"values": [{"phi": [[[1.5, 0.0]]], "z": [0.4, 0.0]}]}
        assert capsys.readouterr().out == dumps(want)

    def test_spectrum_not_tnd_exits_2(self, tmp_path, capsys):
        src = tmp_path / "seq.json"
        src.write_text(seq_doc_text(1.0, 2.0))
        assert main(["spectrum", str(src), "--output", str(tmp_path / "m.json")]) == 2
        assert "T_1" in capsys.readouterr().err

    def test_spectrum_with_uncertified_quotient_exits_2(self, tmp_path, capsys):
        # AR(1) with rho = 1 - 1e-9, n = 5: the shift finds the atom at 1 and
        # the deflated quotient has a zero of det den inside the circle, so
        # the measure is refused with the verdict's message, not written
        rho = 1.0 - 1e-9
        src, out = tmp_path / "seq.json", tmp_path / "m.json"
        src.write_text(seq_doc_text(*[rho**j for j in range(6)]))
        assert main(["spectrum", str(src), "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("matspec: zero of det den at")
        assert "not certified outside the closed disk" in err
        assert not out.exists()

    @pytest.mark.parametrize("n", [2, 5])
    def test_spectrum_of_the_triple_ar1_verifies(self, tmp_path, capsys, n):
        # diag of three AR(1) blocks with one coefficient (1 - 1e-5) e^{0.4i}:
        # the triple zero of det den lies 1e-5 outside the circle, and the
        # Stein certificate clears it; spectrum writes the measure, and
        # verify passes
        a = (1.0 - 1e-5) * np.exp(0.4j)
        seq = HermSeq([np.diag([1.0, 2.0, 3.0]) * a**j for j in range(n + 1)])
        src, out = tmp_path / "seq.json", tmp_path / "m.json"
        src.write_text(dumps(sequence_to_doc(seq, "covariance")))
        assert main(["spectrum", str(src), "--output", str(out)]) == 0
        assert main(["verify", str(out), "--sequence", str(src)]) == 0
        capsys.readouterr()


class _ReadRecorder:
    """Parsed arguments that record which options a command reads."""

    def __init__(self, args):
        self._args, self.read = args, set()

    def __getattr__(self, name):
        self.read.add(name)
        return getattr(self._args, name)


def test_every_parsed_option_is_read(tmp_path, capsys):
    # a flag that the parser takes and its command ignores is dead
    src, measure = tmp_path / "seq.json", tmp_path / "m.json"
    src.write_text(seq_doc_text(1.0, 0.5))
    assert main(["spectrum", str(src), "--output", str(measure)]) == 0
    csv = str(tmp_path / "d.csv")
    argv = {
        "check": [str(src)],
        "extend": [str(src), "--length", "3"],
        "spectrum": [str(src), "--csv", csv],
        "ar-spectrum": [str(src), "--order", "1", "--csv", csv],
        "verify": [str(measure), "--sequence", str(src)],
        "eval-phi": [str(src), "--z", "0.5,0.0"],
    }
    parser = build_parser()
    (commands,) = [a.choices for a in parser._actions if a.dest == "command"]
    assert sorted(commands) == sorted(argv)
    unread = {}
    for command, rest in argv.items():
        args = parser.parse_args([command, *rest, "--output", str(tmp_path / "o")])
        recorder = _ReadRecorder(args)
        assert args.func(recorder) == 0
        dests = set(vars(args)) - {"command", "func"}
        unread[command] = sorted(dests - recorder.read)
    assert unread == {command: [] for command in argv}


def test_cli_defaults_are_the_library_defaults():
    # each option's default is that of the library parameter it feeds
    feeds = {
        "check": {"psd_tol": (classify, "tol")},
        "extend": {"psd_tol": (central_extend, "psd_tol"),
                   "rank_rtol": (central_extend, "rank_rtol")},
        "spectrum": {"psd_tol": (central_measure, "psd_tol"),
                     "rank_rtol": (central_measure, "rank_rtol"),
                     "root_tol": (central_measure, "root_tol"),
                     "verify_tol": (verify_recovery, "tol"),
                     "density_samples": (measure_to_doc, "density_samples")},
        "ar-spectrum": {"psd_tol": (ar_spectrum, "psd_tol"),
                        "rank_rtol": (ar_spectrum, "rank_rtol"),
                        "verify_tol": (verify_recovery, "tol"),
                        "density_samples": (measure_to_doc, "density_samples")},
        "verify": {"tol": (verify_recovery, "tol")},
        "eval-phi": {"psd_tol": (central_quotient, "psd_tol"),
                     "rank_rtol": (central_quotient, "rank_rtol")},
    }
    required = {"extend": ["--length", "3"], "ar-spectrum": ["--order", "1"],
                "verify": ["--sequence", "s"], "eval-phi": ["--z", "0,0"]}
    parser = build_parser()
    for command, options in feeds.items():
        args = vars(parser.parse_args([command, "in", *required.get(command, [])]))
        numeric = {k for k, v in args.items() if isinstance(v, (int, float))}
        assert numeric - {"length", "order"} == set(options), command
        for dest, (func, name) in options.items():
            default = inspect.signature(func).parameters[name].default
            assert args[dest] == default and type(args[dest]) is type(default), (command, dest)


WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"
CI_STEP = "README CLI examples through the console script"


def ci_step_script(name):
    """The dedented ``run: |`` block of the workflow step called ``name``,
    read as text: the lines below ``run: |`` indented deeper than it."""
    lines = WORKFLOW.read_text(encoding="utf-8").splitlines()
    start = next(i for i, line in enumerate(lines) if line.strip() == f"- name: {name}")
    run = next(i for i in range(start + 1, len(lines)) if lines[i].strip() == "run: |")
    depth = len(lines[run]) - len(lines[run].lstrip())
    block = []
    for line in lines[run + 1 :]:
        if line.strip() and len(line) - len(line.lstrip()) <= depth:
            break
        block.append(line)
    return textwrap.dedent("\n".join(block)).splitlines()


def test_ci_cli_step_runs_in_process(tmp_path, monkeypatch, capsys):
    # the CI step that runs the README examples through the console script,
    # replayed here: each `cat > NAME <<'EOF'` document is written into a
    # scratch directory and each `matspec ...` line goes through main()
    monkeypatch.chdir(tmp_path)
    script = iter(ci_step_script(CI_STEP))
    commands = 0
    for line in script:
        heredoc = re.fullmatch(r"cat > (\S+) <<'EOF'", line.strip())
        if heredoc:
            body = list(itertools.takewhile(lambda text: text.strip() != "EOF", script))
            (tmp_path / heredoc.group(1)).write_text("\n".join(body) + "\n")
        elif line.startswith("matspec "):
            argv = shlex.split(line)[1:]
            assert main(argv) == 0, (line, capsys.readouterr().err)
            commands += 1
    assert commands > 0, f"the step {CI_STEP!r} runs no matspec command"
