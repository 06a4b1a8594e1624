"""JSON wire formats for sequences and measures.

Complex scalars travel as [re, im] pairs and matrices as row lists, so the
documents stay valid JSON.  Serialization is canonical (sorted keys, repr
floats): serialize(parse(serialize(x))) is byte-identical to serialize(x).
"""

from __future__ import annotations

import json

import numpy as np

from .caratheodory import CaratheodoryQuotient
from .central import GammaSeq
from .errors import InvalidInputError
from .matpoly import MatPoly
from .measure import Atom, RecoveryReport, SpectralMeasure
from .toeplitz import HermSeq

TWO_PI = 2.0 * np.pi

SEQUENCE_KINDS = ("covariance", "gamma")
# what a measure of each provenance holds (see `_provenance`)
PROVENANCES = {
    "atoms-only": "no quotient",
    "central": "a quotient and no atoms",
    "deflated": "a quotient and atoms",
}


def _num(x, where: str) -> float:
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise InvalidInputError(f"{where}: expected a number, got {x!r}")
    return float(x)


def _pair_to_complex(obj, where: str) -> complex:
    if not isinstance(obj, list) or len(obj) != 2:
        raise InvalidInputError(f"{where}: expected an [re, im] pair, got {obj!r}")
    return complex(_num(obj[0], where), _num(obj[1], where))


def _complex_to_pair(z: complex) -> list[float]:
    return [float(np.real(z)), float(np.imag(z))]


def mat_to_wire(m) -> list:
    arr = np.asarray(m, dtype=complex)
    return [[_complex_to_pair(arr[i, j]) for j in range(arr.shape[1])]
            for i in range(arr.shape[0])]


def wire_to_mat(obj, q: int, where: str) -> np.ndarray:
    if not isinstance(obj, list) or len(obj) != q:
        raise InvalidInputError(f"{where}: expected {q} rows")
    out = np.empty((q, q), dtype=complex)
    for i, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != q:
            raise InvalidInputError(f"{where}: row {i} must have {q} entries")
        for j, entry in enumerate(row):
            out[i, j] = _pair_to_complex(entry, f"{where}[{i}][{j}]")
    return out


def hermitian_from_lower(m: np.ndarray) -> np.ndarray:
    """Rebuild a Hermitian matrix from its lower triangle and real diagonal."""
    low = np.tril(m, -1)
    return low + low.conj().T + np.diag(np.real(np.diag(m)))


def sequence_to_doc(seq, kind: str, metadata: dict | None = None) -> dict:
    if kind not in SEQUENCE_KINDS:
        raise InvalidInputError(f"kind must be one of {SEQUENCE_KINDS}, got {kind!r}")
    return {
        "q": seq.q,
        "kind": kind,
        "coeffs": [mat_to_wire(c) for c in seq.coeffs],
        "metadata": dict(metadata or {}),
    }


def doc_to_sequence(doc) -> tuple[HermSeq | GammaSeq, dict]:
    """Parse a sequence document; returns (sequence, metadata)."""
    if not isinstance(doc, dict):
        raise InvalidInputError("sequence document must be a JSON object")
    q = doc.get("q")
    if not isinstance(q, int) or isinstance(q, bool) or q < 1:
        raise InvalidInputError(f"q must be a positive integer, got {q!r}")
    kind = doc.get("kind")
    if kind not in SEQUENCE_KINDS:
        raise InvalidInputError(f"kind must be one of {SEQUENCE_KINDS}, got {kind!r}")
    coeffs = doc.get("coeffs")
    if not isinstance(coeffs, list) or not coeffs:
        raise InvalidInputError("coeffs must be a nonempty list of matrices")
    mats = [wire_to_mat(c, q, f"coefficient {j}") for j, c in enumerate(coeffs)]
    metadata = doc.get("metadata", {})
    if not isinstance(metadata, dict):
        raise InvalidInputError("metadata must be an object")
    cls = HermSeq if kind == "covariance" else GammaSeq
    return cls(mats), dict(metadata)


def _atom_to_wire(atom: Atom) -> dict:
    angle = float(np.angle(atom.point)) % TWO_PI
    return {
        "angle": angle,
        "u": _complex_to_pair(atom.point),
        "weight": mat_to_wire(atom.weight),
    }


def _wire_to_atom(obj, q: int, where: str) -> Atom:
    if not isinstance(obj, dict):
        raise InvalidInputError(f"{where}: expected an object")
    u = _pair_to_complex(obj.get("u"), f"{where}.u")
    # kept as written, not renormalized: the document re-serializes to itself
    if abs(abs(u) - 1.0) > 1e-8:
        raise InvalidInputError(f"{where}: atom location |{u}| not on the unit circle")
    w = wire_to_mat(obj.get("weight"), q, f"{where}.weight")
    return Atom(point=u, weight=hermitian_from_lower(w))


def measure_to_doc(
    sm: SpectralMeasure,
    report: RecoveryReport | None = None,
    density_samples: int = 720,
) -> dict:
    """Serialize a measure with a density sample table on an offset grid of
    ``density_samples`` angles (0 gives an empty table)."""
    if density_samples < 0:
        raise InvalidInputError(
            f"density_samples must be nonnegative, got {density_samples}"
        )
    angles = TWO_PI * (np.arange(density_samples) + 0.5) / density_samples
    dens = sm.density_grid(angles)
    if sm.quotient is not None:
        a_coeffs = [mat_to_wire(c) for c in sm.quotient.num.coeffs]
        b_coeffs = [mat_to_wire(c) for c in sm.quotient.den.coeffs]
    else:
        a_coeffs = []
        b_coeffs = []
    return {
        "q": sm.q,
        "provenance": _provenance(sm.quotient is not None, bool(sm.atoms)),
        "atoms": [_atom_to_wire(a) for a in sm.atoms],
        "density_samples": [
            {"angle": float(angles[k]), "matrix": mat_to_wire(dens[k])}
            for k in range(density_samples)
        ],
        "quotient": {"a_coeffs": a_coeffs, "b_coeffs": b_coeffs},
        "report": report.to_dict() if report is not None else None,
    }


def _provenance(has_quotient: bool, has_atoms: bool) -> str:
    """What the quotient of a measure is: none ("atoms-only"), the central
    quotient of atom-free data ("central"), or that of the data less its
    atoms ("deflated")."""
    if not has_quotient:
        return "atoms-only"
    return "deflated" if has_atoms else "central"


def doc_to_measure(doc) -> SpectralMeasure:
    """Rebuild a measure (atoms + quotient) from its document; a
    ``provenance`` other than the one the quotient and atoms imply (see
    `_provenance`) is refused."""
    if not isinstance(doc, dict):
        raise InvalidInputError("measure document must be a JSON object")
    q = doc.get("q")
    if not isinstance(q, int) or isinstance(q, bool) or q < 1:
        raise InvalidInputError(f"q must be a positive integer, got {q!r}")
    atoms_obj = doc.get("atoms", [])
    if not isinstance(atoms_obj, list):
        raise InvalidInputError("atoms must be a list")
    atoms = tuple(
        _wire_to_atom(a, q, f"atom {k}") for k, a in enumerate(atoms_obj)
    )
    quot = doc.get("quotient")
    if quot is None:
        quot = {}
    if not isinstance(quot, dict):
        raise InvalidInputError("quotient must be an object or null")
    a_coeffs = quot.get("a_coeffs", [])
    b_coeffs = quot.get("b_coeffs", [])
    if not isinstance(a_coeffs, list) or not isinstance(b_coeffs, list):
        raise InvalidInputError("quotient a_coeffs and b_coeffs must be lists")
    if bool(a_coeffs) != bool(b_coeffs):
        raise InvalidInputError("quotient needs both a_coeffs and b_coeffs or neither")
    if a_coeffs:
        num = MatPoly(
            [wire_to_mat(c, q, f"a_coeffs[{k}]") for k, c in enumerate(a_coeffs)]
        )
        den = MatPoly(
            [wire_to_mat(c, q, f"b_coeffs[{k}]") for k, c in enumerate(b_coeffs)]
        )
        quotient = CaratheodoryQuotient(num=num, den=den)
    else:
        quotient = None
    # provenance is derived from the quotient and the atoms, so a document
    # that states another one would not re-serialize to itself
    derived = _provenance(quotient is not None, bool(atoms))
    prov = doc.get("provenance", derived)
    if prov not in PROVENANCES:
        raise InvalidInputError(f"unknown provenance {prov!r}")
    if (prov, derived) == ("central", "deflated"):
        raise InvalidInputError(
            "provenance 'central' contradicts a quotient with atoms: the document "
            "holds the full central quotient, whose poles at the atoms would count "
            "them twice; regenerate it with `matspec spectrum`"
        )
    if prov != derived:
        raise InvalidInputError(
            f"provenance {prov!r} contradicts a measure with {PROVENANCES[derived]}"
        )
    return SpectralMeasure(q=q, atoms=atoms, quotient=quotient)


def dumps(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def loads(text: str, where: str = "<input>"):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"{where}: malformed JSON ({exc})") from exc
