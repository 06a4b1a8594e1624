import json

import numpy as np
import pytest

from matspec import (
    GammaSeq,
    HermSeq,
    Provenance,
    central_extend,
    central_measure,
    density_at,
    doc_to_measure,
    doc_to_sequence,
    dumps,
    fourier_coeff,
    loads,
    measure_to_doc,
    sequence_to_doc,
    verify_recovery,
)
from matspec.cli import main
from matspec.errors import InvalidInputError, ModelError
from matspec.serialize import hermitian_from_lower

RNG = np.random.default_rng(61)


def scalar_seq(*vals):
    return HermSeq([np.array([[v]], dtype=complex) for v in vals])


def seq_doc_text(*vals, kind="covariance"):
    return dumps(sequence_to_doc(scalar_seq(*vals), kind))


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
        assert back.provenance is Provenance.CENTRAL
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

    def test_unknown_provenance_rejected(self):
        doc = measure_to_doc(central_measure(scalar_seq(1.0)))
        doc["provenance"] = "guesswork"
        with pytest.raises(InvalidInputError):
            doc_to_measure(doc)


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

        monkeypatch.setattr(np.linalg, "svd", no_convergence)
        with pytest.raises(ModelError, match="2x2 matrix"):
            central_extend(scalar_seq(1.0, 0.5, 0.25), 5)
        f = tmp_path / "seq.json"
        f.write_text(seq_doc_text(1.0, 0.5, 0.25))
        assert main(["extend", str(f), "--length", "5"]) == 2
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

    def test_verify_against_wrong_sequence_exits_2(self, tmp_path, capsys):
        src = tmp_path / "seq.json"
        wrong = tmp_path / "wrong.json"
        mfile = tmp_path / "m.json"
        src.write_text(seq_doc_text(1.0, 0.5))
        wrong.write_text(seq_doc_text(1.0, 0.1))
        assert main(["spectrum", str(src), "--output", str(mfile)]) == 0
        capsys.readouterr()
        assert main(["verify", str(mfile), "--sequence", str(wrong)]) == 2
        assert "verification failed" in capsys.readouterr().err

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

    def test_spectrum_not_tnd_exits_2(self, tmp_path, capsys):
        src = tmp_path / "seq.json"
        src.write_text(seq_doc_text(1.0, 2.0))
        assert main(["spectrum", str(src), "--output", str(tmp_path / "m.json")]) == 2
        assert "T_1" in capsys.readouterr().err
