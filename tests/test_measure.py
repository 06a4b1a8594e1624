import dataclasses
import json
import warnings

import numpy as np
import pytest

from matspec import (
    ArOrderMismatchWarning,
    Atom,
    CaratheodoryQuotient,
    HermSeq,
    MatPoly,
    SpectralMeasure,
    ar_spectrum,
    atomic_measure,
    central_extend,
    central_measure,
    central_quotient,
    density_at,
    doc_to_measure,
    fourier_coeff,
    gamma_from_covariance,
    herglotz_transform,
    measure_to_doc,
    phi_at,
    rational_values,
    spec_norm,
    taylor_coefficients,
    toeplitz_matrix,
    verify_recovery,
)
from matspec.caratheodory import NEAR_CIRCLE
from matspec.errors import DimensionError, InvalidInputError, ModelError
from matspec.caratheodory import _central_quotient, _disk_cause, _stein_delta
from matspec.linalg import DEFAULT_PSD_TOL, DEFAULT_RANK_RTOL, re_mat
from matspec.measure import (
    ATOM_DROP,
    CIRCLE_TOL,
    CLUSTER_RADIUS,
    DEFAULT_ROOT_TOL,
    DISK_MARGIN,
    _central_measure,
    _clusters,
    _coefficients,
    _deflated_quotient,
    _shift_atoms,
    _unitary_part,
)
from matspec.toeplitz import _continue, _enter, _Entry, _scan

from _gen import (
    atom_free_singular_coeffs,
    atomic_coeffs,
    conjugated,
    direct_sum,
    jittered_atomic_coeffs,
    mixed_coeffs,
    random_tpd_seq,
    random_unitary,
    separated_angles,
    trig_coeffs,
    var1_coeffs,
)
import _oracle
from _oracle import (
    NEAR_CIRCLE_NODE_CAP,
    MultiplicityError,
    adjugate_poly,
    compute_atoms,
    conjugate_by_unitary,
    density_kernel_coeffs,
    det_poly,
    matpoly_mul,
    pd_density,
    pd_density_gap,
    pd_density_last_row,
    pinv,
    pole_limit,
    quadrature_coeffs,
    quadrature_herglotz,
    radial_atom_limit,
    scalar_zeros,
    shift_atoms_by_eig,
)

RNG = np.random.default_rng(53)
TWO_PI = 2.0 * np.pi


def scalar_seq(*vals):
    return HermSeq([np.array([[v]], dtype=complex) for v in vals])


def unrefined_measure(seq, steps=0):
    """Central measure of full-rank ``seq`` with the predictor
    w = T_{n-1}' Y_n from one SVD and ``steps`` refinement steps, where the
    library takes two after an SVD: its Yule-Walker residual is then about
    eps cond(T_{n-1}) ||T_{n-1}|| ||w||."""
    q, n = seq.q, len(seq) - 1
    t = re_mat(toeplitz_matrix(seq, n))
    tn, y = t[:-q, :-q], t[q:, :q]
    tp = pinv(tn)
    w = tp @ y
    for _ in range(steps):
        w = w + tp @ (y - tn @ w)
    cq = _central_quotient(seq.coeff(0), t, w.reshape(n, q, q))
    return SpectralMeasure(q, (), cq)


def seq_error(sm, seq, orders):
    worst = 0.0
    for j in orders:
        err = spec_norm(fourier_coeff(sm, j) - seq.coeff(j))
        worst = max(worst, err)
    return worst


class TestComputeAtoms:
    """The residue oracle `compute_atoms` of tests/_oracle.py on full
    central quotients, and `central_measure` where the two routes meet."""

    def test_mass_at_one(self):
        cq = central_quotient(gamma_from_covariance(scalar_seq(1.0, 1.0)))
        atoms = compute_atoms(cq)
        assert len(atoms) == 1
        assert np.isclose(atoms[0].point, 1.0, atol=1e-10)
        assert np.allclose(atoms[0].weight, [[1.0]], atol=1e-10)

    def test_rotated_mass(self):
        u = np.exp(1.3j)
        seq = scalar_seq(1.0).append(np.array([[1 / u]]))
        atoms = compute_atoms(central_quotient(gamma_from_covariance(seq)))
        assert len(atoms) == 1
        assert np.isclose(atoms[0].point, u, atol=1e-10)
        assert np.allclose(atoms[0].weight, [[1.0]], atol=1e-10)

    def test_tpd_data_has_no_atoms(self):
        cq = central_quotient(gamma_from_covariance(random_tpd_seq(RNG, 2, 2)))
        assert compute_atoms(cq) == ()

    def test_weights_match_radial_limits(self):
        coeffs, _ = atomic_coeffs(RNG, 2, 5, n_atoms=3)
        cq = central_quotient(gamma_from_covariance(HermSeq(coeffs)))
        atoms = compute_atoms(cq)
        assert len(atoms) == 3
        for atom in atoms:
            radial = radial_atom_limit(cq, atom.point)
            assert np.allclose(atom.weight, radial, atol=1e-6 * (1 + spec_norm(radial)))

    def test_count_bounded_by_order_times_q(self):
        coeffs, _ = atomic_coeffs(RNG, 2, 3, n_atoms=2)
        cq = central_quotient(gamma_from_covariance(HermSeq(coeffs)))
        assert len(compute_atoms(cq)) <= cq.order * 2

    def test_full_rank_dirac_triple_root(self):
        # det den acquires a multiplicity-q zero; q = 3 stresses the
        # companion-root clustering hardest
        u = np.exp(0.8j)
        w = np.array(
            [[2.0, 0.5, 0.0], [0.5, 1.0, 0.2j], [0.0, -0.2j, 1.5]], dtype=complex
        )
        seq = HermSeq([u ** (-j) * w for j in range(2)])
        atoms = compute_atoms(central_quotient(gamma_from_covariance(seq)))
        assert len(atoms) == 1
        assert np.isclose(atoms[0].point, u, atol=1e-9)
        assert np.allclose(atoms[0].weight, w, atol=1e-8)

    def test_cluster_wrapping_past_angle_zero(self):
        # the zeros of det den at the rank-2 atom z = 1 fall on both sides
        # of angle 0, so its cluster closes only across the wrap
        u = np.exp(1.3j)
        seq = HermSeq([np.eye(2) + 0.5 * u ** (-j) * np.eye(2) for j in range(3)])
        sm = central_measure(seq)
        assert len(sm.atoms) == 2
        for v, w in ((1.0, 1.0), (u, 0.5)):
            atom = min(sm.atoms, key=lambda a: abs(a.point - v))
            assert abs(atom.point - v) < 1e-8
            assert spec_norm(atom.weight - w * np.eye(2)) < 1e-8
        assert verify_recovery(sm, seq).passed

    def test_root_tol_must_lie_inside_the_analysed_band(self):
        cq = central_quotient(gamma_from_covariance(scalar_seq(1.0, 1.0)))
        with pytest.raises(InvalidInputError, match="root_tol"):
            compute_atoms(cq, root_tol=NEAR_CIRCLE)

    def test_negative_root_tol_rejected(self):
        # no polished point lies within a negative distance of the circle,
        # so every atom would be dropped and recovery would miss by 1.0
        with pytest.raises(InvalidInputError, match="root_tol"):
            central_measure(scalar_seq(1.0, 1.0), root_tol=-1e-7)


def limit_weight(cq, v):
    """The scalar-determinant residue: Hermitian part of
    -1/(2v) lim (z - v) num adj(den) / det den, with the multiplicity of v
    read off the derivatives of det den."""
    val = pole_limit(matpoly_mul(cq.num, adjugate_poly(cq.den)), det_poly(cq.den), v, 1)
    val = (-0.5 / v) * val
    return 0.5 * (val + val.conj().T)


class TestKernelResidues:
    """Atom weights from den's kernel vectors, against the scalar-determinant
    limit formula and against the closed form of the generating atoms."""

    CASES = {
        "atomic": lambda rng: atomic_coeffs(rng, 2, 5, n_atoms=3)[0],
        "direct_sum": lambda rng: direct_sum(
            atomic_coeffs(rng, 1, 6, n_atoms=2)[0], var1_coeffs(rng, 1, 0.6, 6)
        ),
        "pair_1e-2": lambda rng: jittered_atomic_coeffs(rng, 2, 5, 4, 1, 1e-2)[0],
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_limit_formula(self, case):
        seq = HermSeq(self.CASES[case](np.random.default_rng(11)))
        cq = central_quotient(gamma_from_covariance(seq))
        atoms = compute_atoms(cq)
        assert atoms
        tol = 1e-8 * spec_norm(seq.coeff(0))
        for atom in atoms:
            assert spec_norm(atom.weight - limit_weight(cq, atom.point)) < tol

    @pytest.mark.parametrize("seed", range(4))
    def test_q4_pair_1e3_apart(self, seed):
        # two rank-2 atoms 1e-3 radians apart: the limit formula loses the
        # pair to a negative weight eigenvalue
        coeffs, want = jittered_atomic_coeffs(
            np.random.default_rng(seed), 4, 3, 2, 2, 1e-3
        )
        seq = HermSeq(coeffs)
        sm = central_measure(seq)
        assert verify_recovery(sm, seq, tol=1e-8).passed
        assert len(sm.atoms) == 2
        for u, w in want:
            atom = min(sm.atoms, key=lambda a: abs(a.point - u))
            assert abs(atom.point - u) < 1e-8
            assert spec_norm(atom.weight - w) < 1e-8 * spec_norm(seq.coeff(0))

    def test_kernel_smaller_than_cluster(self):
        # det den = (1 - z)^2, but den(1) = [[0, 1], [0, 0]] has a
        # one-dimensional kernel: a second-order pole, not a point mass
        den = MatPoly([np.eye(2), [[-1.0, 1.0], [0.0, -1.0]]])
        cq = CaratheodoryQuotient(MatPoly([np.eye(2)]), den)
        with pytest.raises(MultiplicityError, match="1-dimensional kernel") as info:
            compute_atoms(cq)
        assert abs(info.value.root - 1.0) < 1e-12
        assert info.value.multiplicity == 2

    def test_quotient_derives_order_and_zeros(self):
        # singular data: the Stein certificate cannot decide, and the zeros
        # come from den's block companion, the atoms' double zeros of det den
        # kept together where the scalar route splits them by about sqrt(eps)
        coeffs, atoms = atomic_coeffs(np.random.default_rng(4), 2, 4, n_atoms=3)
        cq = central_quotient(gamma_from_covariance(HermSeq(coeffs)))
        assert [f.name for f in dataclasses.fields(cq)] == ["num", "den"]
        assert cq.order == cq.den.degree == 3
        assert cq._certified == -np.inf
        points = np.repeat([complex(u) for u, _ in atoms], 2)
        assert cq.zeros.size == scalar_zeros(cq.den).size == 6
        assert np.max(np.abs(np.sort_complex(cq.zeros) - np.sort_complex(points))) <= 1e-12
        assert cq.zeros is cq.zeros
        assert all(name not in repr(cq) for name in ("order", "zeros", "_certified"))
        # derived arrays take no part in ==, which would fail on them
        assert cq == CaratheodoryQuotient(cq.num, cq.den)

    def test_overflowing_determinant_fails_where_read(self):
        # det den = (1 + 1e200 z)^2 overflows: building the quotient still
        # succeeds, and the oracle's scalar determinant raises.  The block
        # companion forms no determinant: it finds the double zero at
        # -1e-200, and the verdict names it.  A den_0^{-1} den that
        # overflows raises wherever the zeros are read
        den = MatPoly([np.eye(2), 1e200 * np.eye(2)])
        cq = CaratheodoryQuotient(MatPoly([np.eye(2), np.eye(2)]), den)
        with pytest.raises(InvalidInputError):
            compute_atoms(cq)
        assert np.array_equal(cq.zeros, [-1e-200, -1e-200])
        assert "(|z| - 1 = -1.000e+00)" in _disk_cause(cq, DISK_MARGIN)
        den = MatPoly([1e-300 * np.eye(2), 1e10 * np.eye(2)])
        sm = SpectralMeasure(2, (), CaratheodoryQuotient(MatPoly([np.eye(2)]), den))
        with pytest.raises(InvalidInputError, match="overflows"):
            verify_recovery(sm, HermSeq([np.eye(2)]))

    def test_zero_determinant_still_fails(self):
        cq = CaratheodoryQuotient(MatPoly([np.eye(2)]), MatPoly([np.zeros((2, 2))]))
        with pytest.raises(InvalidInputError, match="zero polynomial"):
            compute_atoms(cq)


class TestCentralMeasure:
    def test_white_noise(self):
        sm = central_measure(scalar_seq(1.0))
        assert [f.name for f in dataclasses.fields(sm)] == ["q", "atoms", "quotient"]
        assert sm.atoms == ()
        for ang in (0.0, 1.0, 3.5):
            assert np.allclose(
                density_at(sm, np.exp(1j * ang)), [[1.0 / TWO_PI]], atol=1e-12
            )

    def test_mass_at_one_density_vanishes(self):
        sm = central_measure(scalar_seq(1.0, 1.0))
        assert len(sm.atoms) == 1
        grid = sm.density_grid(np.linspace(0.3, 6.0, 50))
        assert np.max(np.abs(grid)) < 1e-12

    def test_degenerate_matrix_case(self):
        seq = HermSeq([np.eye(2), np.diag([0.0, 1.0]).astype(complex)])
        sm = central_measure(seq)
        assert len(sm.atoms) == 1
        assert np.isclose(sm.atoms[0].point, 1.0, atol=1e-10)
        assert np.allclose(sm.atoms[0].weight, np.diag([0.0, 1.0]), atol=1e-10)
        d = density_at(sm, np.exp(2.0j))
        assert np.allclose(d, np.diag([1.0 / TWO_PI, 0.0]), atol=1e-10)

    def test_rejects_non_tnd(self):
        with pytest.raises(ModelError) as exc:
            central_measure(scalar_seq(1.0, 2.0))
        assert "T_1" in str(exc.value)

    def test_density_psd_on_grid(self):
        seq = HermSeq(trig_coeffs(RNG, 2, 3, deg=2))
        sm = central_measure(seq)
        grid = sm.density_grid(np.linspace(0.0, TWO_PI, 90, endpoint=False))
        scale = 1.0 + spec_norm(seq.coeff(0))
        for d in grid:
            assert np.linalg.eigvalsh((d + d.conj().T) / 2).min() > -1e-9 * scale

    def test_off_circle_rejected(self):
        sm = central_measure(scalar_seq(1.0))
        with pytest.raises(InvalidInputError):
            density_at(sm, 0.5)

    def test_density_grid_matches_per_atom_terms(self):
        # density_grid reads the deflated quotient; away from the atoms it
        # matches the full central quotient less each atom's kernel
        rng = np.random.default_rng(4)
        atoms, _ = atomic_coeffs(rng, 1, 7, n_atoms=3)
        seq = HermSeq(direct_sum(atoms, var1_coeffs(rng, 1, 0.6, 7)))
        sm = central_measure(seq)
        assert len(sm.atoms) == 3
        ang = np.linspace(0.1, TWO_PI, 64, endpoint=False)
        zs = np.exp(1j * ang)
        assert np.min(np.abs(zs[:, None] - sm.atom_points())) > 1e-2
        phi = rational_values(central_quotient(gamma_from_covariance(seq)), zs)
        for atom in sm.atoms:
            phi = phi - ((atom.point + zs) / (atom.point - zs))[:, None, None] * atom.weight
        want = 0.5 * (phi + np.conj(np.swapaxes(phi, -1, -2))) / TWO_PI
        tol = 1e-13 * (1.0 + spec_norm(seq.coeff(0)))
        assert np.max(np.abs(sm.density_grid(ang) - want)) <= tol

    @pytest.mark.parametrize("n", [2, 5])
    def test_triple_zero_near_the_circle_is_certified(self, n):
        # diag of three AR(1) blocks sharing the coefficient rho e^{0.4i},
        # rho = 1 - 1e-5, with C_0 = diag(1, 2, 3): the triple zero of det den
        # 1e-5 outside the circle, which np.roots scattered inside
        # (|z| - 1 = -8.7e-5 at n = 2, -1.2e-6 at n = 5).  The Stein
        # certificate holds, so central_measure and ar_spectrum return the
        # measure, and it recovers the data
        a = (1.0 - 1e-5) * np.exp(0.4j)
        seq = HermSeq([np.diag([1.0, 2.0, 3.0]) * a**j for j in range(n + 1)])
        for call in (central_measure, lambda s: ar_spectrum(s, n)):
            sm = call(seq)
            assert sm.atoms == () and sm.quotient._certified == DISK_MARGIN
            report = verify_recovery(sm, seq)
            assert report.passed and report.relative_error <= 1e-12

    def test_rotated_near_boundary_var1_replay_unrefined_predictor(self):
        # a predictor solved only to eps cond(T_{n-1}), rebuilt here, moved
        # the density of this input by 1.2e-8 (1 + ||C_0||) at 16 points and
        # its recovery error to 7.1e-8 (||C_0|| = 2.9e3): the recovery
        # rejects it.  The library's refined predictor passes both
        coeffs = var1_coeffs(np.random.default_rng(1), 2, 1.0 - 1e-3, 8)
        rot = HermSeq([np.exp(-0.7j * j) * c for j, c in enumerate(coeffs)])
        sm = central_measure(rot)
        assert verify_recovery(sm, rot).passed
        assert pd_density_gap(rot, sm.quotient) <= 1e-10
        report = verify_recovery(unrefined_measure(rot), rot)
        assert not report.passed and report.cause.startswith("max error")

    def test_recovery_rejects_what_the_density_oracle_rejects(self):
        # near-boundary VAR(1) draws of the benchmark's design (q = 1..3,
        # rho = 1 - 1e-2 .. 1 - 1e-5, n = 4..12) with scan margin above
        # 1e-6, each with an SVD predictor refined 0 or 1 times: wherever the
        # 16-point inverse-Toeplitz oracle rejects the quotient, at
        # 1e-8 (1 + ||C_0||), the recovery rejects it too.  The library's
        # own measure passes the oracle within 1e-10 on every draw.  This is
        # not a theorem: a predictor error can move the density of an
        # ill-conditioned input past 1e-8 (1 + ||C_0||) while the quotient,
        # whose kernel H stays constant, recovers the data within tolerance
        # (a rotated scalar VAR(1) at rho = 1 - 1e-3 does; README, Limitations)
        rejected = 0
        for seed in range(40):
            for q in (1, 2, 3):
                for eps in (1e-2, 1e-3, 1e-4, 1e-5):
                    rng = np.random.default_rng([seed, q])
                    seq = HermSeq(var1_coeffs(rng, q, 1.0 - eps, 5 + seed % 9))
                    t = toeplitz_matrix(seq, len(seq) - 1)
                    if not _scan(t, q, DEFAULT_PSD_TOL).margin > 1e-6:
                        continue
                    assert pd_density_gap(seq, central_measure(seq).quotient) <= 1e-10
                    for steps in (0, 1):
                        sm = unrefined_measure(seq, steps)
                        if pd_density_gap(seq, sm.quotient) > 1e-8:
                            rejected += 1
                            assert not verify_recovery(sm, seq).passed, (seed, q, eps, steps)
        assert rejected >= 5


class TestPdPath:
    def test_scalar_half_density_value(self):
        # by hand: A(z) = (4/3)(1 - z/2) gives density 3/(2 pi) at angle 0
        val = pd_density(scalar_seq(1.0, 0.5), 1.0)
        assert np.allclose(val, [[3.0 / TWO_PI]], atol=1e-12)

    def test_pd_density_matches_quotient_density(self):
        seq = random_tpd_seq(RNG, 3, 2)
        sm = central_measure(seq)
        for ang in (0.4, 2.0, 5.1):
            z = np.exp(1j * ang)
            assert np.allclose(
                pd_density(seq, z), density_at(sm, z),
                atol=1e-8 * (1 + spec_norm(seq.coeff(0))),
            )

    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_pd_density_matches_last_row_form(self, q):
        rng = np.random.default_rng(100 + q)
        for n in (1, 2, 4):
            seq = random_tpd_seq(rng, q, n)
            tol = 1e-8 * (1 + spec_norm(seq.coeff(0)))
            for ang in (0.3, 1.9, 4.4):
                z = np.exp(1j * ang)
                gap = spec_norm(pd_density(seq, z) - pd_density_last_row(seq, z))
                assert gap <= tol

    def test_density_is_scale_covariant(self):
        # scaling the data by 1e8 scales the density by 1e8
        seq = random_tpd_seq(np.random.default_rng(11), 2, 4)
        big = HermSeq([1e8 * c for c in seq.coeffs])
        z = np.exp(0.9j)
        want = 1e8 * density_at(central_measure(seq), z)
        assert np.allclose(density_at(central_measure(big), z), want, rtol=1e-8)


class TestAtomicMeasure:
    def test_fourier_of_single_atom(self):
        w = np.array([[2.0, 1j], [-1j, 1.0]])
        u = np.exp(0.9j)
        sm = atomic_measure([(u, w)])
        for j in (-2, -1, 0, 1, 3):
            assert np.allclose(fourier_coeff(sm, j), u ** (-j) * w, atol=1e-12)

    def test_herglotz_of_single_atom(self):
        w = np.array([[1.0]])
        u = np.exp(2.0j)
        sm = atomic_measure([(u, w)])
        z = 0.4 - 0.2j
        expect = (u + z) / (u - z) * w
        assert np.allclose(herglotz_transform(sm, z), expect, atol=1e-12)

    def test_empty_needs_q(self):
        with pytest.raises(InvalidInputError):
            atomic_measure([])
        sm = atomic_measure([], q=2)
        assert np.allclose(fourier_coeff(sm, 0), np.zeros((2, 2)))

    def test_off_circle_rejected(self):
        with pytest.raises(InvalidInputError):
            atomic_measure([(0.5, np.eye(1))])

    @pytest.mark.parametrize("u", [np.nan, complex(np.nan, 0.0), complex(1.0, np.nan), np.inf])
    def test_non_finite_location_rejected(self, u):
        # ||u| - 1| > tol is False for a NaN location, which went on to a
        # raw LinAlgError in verify_recovery
        with pytest.raises(InvalidInputError, match="atom 0 location = .* is not finite"):
            atomic_measure([(u, [[1.0]])])

    @pytest.mark.parametrize("gap, ok", [(0.5, True), (2.0, False)])
    def test_one_circle_tolerance(self, gap, ok):
        # atomic_measure, density_at and a measure document's atom read the
        # circle with the one CIRCLE_TOL
        u = 1.0 + gap * CIRCLE_TOL
        doc = measure_to_doc(atomic_measure([(1.0, [[1.0]])]), density_samples=0)
        doc["atoms"][0]["u"] = [u, 0.0]
        for read in (
            lambda: atomic_measure([(u, [[1.0]])]),
            lambda: density_at(central_measure(scalar_seq(1.0, 0.5)), u),
            lambda: doc_to_measure(doc),
        ):
            if ok:
                read()
            else:
                with pytest.raises(InvalidInputError, match="not on the unit circle"):
                    read()

    @pytest.mark.parametrize(
        "atoms, q",
        [
            ([(1.0, np.eye(2)), (-1.0, np.eye(3))], None),
            ([(1.0, np.eye(2))], 3),
            ([(1.0, np.ones((2, 3)))], None),
        ],
        ids=["mixed_sizes", "q_mismatch", "non_square"],
    )
    def test_malformed_weight_rejected(self, atoms, q):
        with pytest.raises(DimensionError):
            atomic_measure(atoms, q=q)

    @pytest.mark.parametrize(
        "weight, match",
        [
            ([[-1.0]], "negative eigenvalue"),
            ([[1.0, 2.0], [0.0, 1.0]], "not Hermitian"),
            ([[1.0, 2.0], [2.0, 1.0]], "negative eigenvalue"),
        ],
        ids=["negative", "not_hermitian", "indefinite"],
    )
    def test_weight_must_be_hermitian_psd(self, weight, match):
        # the error names the atom; a negative mass, or a non-Hermitian
        # weight replaced by its Hermitian part, used to pass silently
        q = len(weight)
        atoms = [(1.0, np.eye(q)), (1j, weight)]
        with pytest.raises(InvalidInputError, match=rf"atom 1 at 1j: .*{match}"):
            atomic_measure(atoms)

    def test_weight_within_the_psd_tolerance_passes(self):
        # DEFAULT_PSD_TOL * ||W|| = 2e-9 here: roundoff of either kind is kept
        w = np.array([[2.0, 1e-10], [0.0, -1e-10]])
        (atom,) = atomic_measure([(1.0, w)]).atoms
        assert np.array_equal(atom.weight, atom.weight.conj().T)

    @pytest.mark.parametrize("z", [np.nan, complex(0.0, np.nan), np.inf, complex(np.inf, 0.0)])
    def test_non_finite_point_rejected(self, z):
        # a NaN compares False with every bound, so |z| < 1 let it through
        seq = scalar_seq(1.0, 0.5)
        sm = central_measure(seq)
        for evaluate in (
            lambda: herglotz_transform(sm, z),
            lambda: herglotz_transform(atomic_measure([(1.0, [[1.0]])]), z),
            lambda: phi_at(central_quotient(gamma_from_covariance(seq)), z),
            lambda: density_at(sm, z),
            lambda: pd_density(seq, z),
        ):
            with pytest.raises(InvalidInputError):
                evaluate()

    @pytest.mark.parametrize("angles", [[np.nan], [0.0, np.inf], [-np.inf, 1.0]])
    def test_non_finite_angle_rejected(self, angles):
        # e^{i nan} is NaN: density_grid returned it where density_at refuses
        for sm in (central_measure(scalar_seq(1.0, 0.5)), atomic_measure([(1.0, [[1.0]])])):
            with pytest.raises(InvalidInputError, match="angles must be finite"):
                sm.density_grid(angles)

    @pytest.mark.parametrize("shape", [(), (3,), (1, 2), (2, 3), (2, 1, 2)])
    def test_any_real_angle_array_reads_flat(self, shape):
        # N angles of any shape give N values, in the order of a flat read
        ang = np.linspace(0.1, 6.0, max(1, int(np.prod(shape)))).reshape(shape)
        for sm in (central_measure(scalar_seq(1.0, 0.5)), atomic_measure([(1.0, [[1.0]])])):
            grid = sm.density_grid(ang)
            assert grid.shape == (ang.size, 1, 1)
            assert np.array_equal(grid, sm.density_grid(ang.ravel().tolist()))
        two = central_measure(HermSeq([np.eye(2), 0.5 * np.eye(2)]))
        assert two.density_grid([[0.1, 0.2]]).shape == (2, 2, 2)

    @pytest.mark.parametrize(
        "angles", [[1j], np.array([0.5 + 0.0j]), ["x"], [0.1, "x"], [None], [[0.1], [0.2, 0.3]]]
    )
    def test_non_real_angle_rejected(self, angles):
        # a complex angle or a non-number is an InvalidInputError, not
        # numpy's TypeError, ValueError or ComplexWarning
        sm = central_measure(scalar_seq(1.0, 0.5))
        with pytest.raises(InvalidInputError, match="angles must be real numbers"):
            sm.density_grid(angles)


class TestFourierRecovery:
    def test_atomic_sequence(self):
        coeffs, _ = atomic_coeffs(RNG, 2, 4, n_atoms=2)
        seq = HermSeq(coeffs)
        sm = central_measure(seq)
        assert seq_error(sm, seq, range(4)) < 1e-8 * (1 + spec_norm(seq.coeff(0)))

    def test_trig_density_sequence(self):
        seq = HermSeq(trig_coeffs(RNG, 2, 4, deg=3))
        sm = central_measure(seq)
        assert seq_error(sm, seq, range(4)) < 1e-8 * (1 + spec_norm(seq.coeff(0)))

    def test_mixed_sequence(self):
        coeffs, _ = mixed_coeffs(RNG, 2, 4, n_atoms=1, deg=2)
        seq = HermSeq(coeffs)
        sm = central_measure(seq)
        assert seq_error(sm, seq, range(4)) < 1e-7 * (1 + spec_norm(seq.coeff(0)))

    def test_negative_orders_are_adjoints(self):
        coeffs, _ = atomic_coeffs(RNG, 2, 3, n_atoms=2)
        sm = central_measure(HermSeq(coeffs))
        for j in (1, 2):
            assert np.allclose(
                fourier_coeff(sm, -j), fourier_coeff(sm, j).conj().T, atol=1e-9
            )

    @pytest.mark.parametrize("kind", ["tpd", "near-boundary", "deflated"])
    def test_taylor_tail_recovery(self, kind):
        # past the data, the central measure's orders are the central
        # extension's coefficients: fourier_coeff(central_measure(s), j)
        # equals central_extend(s, 2n + 2).coeff(j) for n < j <= 2n + 1
        rng = np.random.default_rng(4)
        if kind == "tpd":
            seq = random_tpd_seq(rng, 2, 4)
        elif kind == "near-boundary":
            seq = HermSeq(var1_coeffs(rng, 2, 1.0 - 1e-4, 5))
        else:
            atoms, _ = atomic_coeffs(rng, 1, 6, n_atoms=2)
            seq = HermSeq(direct_sum(atoms, var1_coeffs(rng, 1, 0.8, 6)))
        n = len(seq) - 1
        sm = central_measure(seq)
        assert bool(sm.atoms) == (kind == "deflated")
        ext = central_extend(seq, 2 * n + 2)
        for j in range(n + 1, 2 * n + 2):
            err = spec_norm(fourier_coeff(sm, j) - ext.coeff(j))
            assert err < 1e-8 * (1 + spec_norm(ext.coeff(0)))


class TestVerifyRecovery:
    def test_passing_report(self):
        seq = random_tpd_seq(RNG, 2, 2)
        sm = central_measure(seq)
        report = verify_recovery(sm, seq, tol=1e-8)
        assert report.passed
        assert report.max_error < 1e-8
        assert report.density_psd_bound > 0.0
        assert len(report.errors_by_order) == 3
        assert np.allclose(report.atom_mass, np.zeros((2, 2)), atol=1e-12)

    @pytest.mark.parametrize(
        "other_q, tol, match",
        [
            (True, 1e-8, "block sizes differ"),
            (False, np.nan, "finite and nonnegative"),
            (False, np.inf, "finite and nonnegative"),
            (False, -1.0, "finite and nonnegative"),
        ],
        ids=["q-mismatch", "tol-nan", "tol-inf", "tol-negative"],
    )
    def test_input_checks(self, other_q, tol, match):
        # a NaN, infinite or negative tol is an input error, not a report
        seq = random_tpd_seq(np.random.default_rng(0), 2, 1)
        data = scalar_seq(1.0, 0.5) if other_q else seq
        with pytest.raises(InvalidInputError, match=match):
            verify_recovery(central_measure(seq), data, tol)

    @pytest.mark.parametrize("case", ["tpd", "atomic_plus_var1"])
    def test_orders_from_one_fft_match_per_order_sums(self, case, monkeypatch):
        # the quadrature oracle: every order from one FFT of the smooth
        # density against a trapezoid sum per order, also beyond +-N, where
        # the FFT index wraps as j mod N; the sums run over the angles the
        # FFT's grid used
        grids = []
        orig = _oracle._quadrature_angles

        def recorded(nodes, poles=()):
            grids.append(orig(nodes, poles))
            return grids[-1]

        monkeypatch.setattr(_oracle, "_quadrature_angles", recorded)

        rng = np.random.default_rng(12)
        if case == "tpd":
            coeffs = list(random_tpd_seq(rng, 2, 6).coeffs)
        else:
            atoms, _ = atomic_coeffs(rng, 1, 7, n_atoms=2)
            coeffs = direct_sum(atoms, var1_coeffs(rng, 1, 1.0 - 1e-3, 7))
        seq = HermSeq(coeffs)
        sm = central_measure(seq)
        sing = _oracle._singular_part(sm)
        nodes = _oracle._default_nodes(sm, sing, len(seq) - 1)
        js = list(range(-2, len(seq))) + [nodes + 1, -nodes - 1]
        got = _oracle._fourier_many(sm, sing, js, nodes)
        (ang,) = grids
        dens = sing.smooth_density(sm, ang)
        tol = 1e-14 * (1.0 + spec_norm(seq.coeff(0)))
        k = np.arange(nodes)
        for j, g in zip(js, got):
            # theta_k = theta_0 + 2 pi k / N with j k reduced mod N in
            # integers: a float j * ang[k] rounds the phase by about j eps
            phase = np.exp(-1j * j * ang[0]) * np.exp(-1j * (TWO_PI / nodes) * (j * k % nodes))
            want = (TWO_PI / nodes) * np.tensordot(phase, dens, axes=(0, 0))
            assert spec_norm(g.reshape(seq.q, seq.q) - want) <= tol

    def test_coefficients_add_atoms_and_poles_in_closed_form(self):
        # the quadrature oracle: the smooth part's orders plus, per order,
        # the atoms' moments and the pole parts' -1/2 sum R p^(-j-1) (j > 0),
        # its Hermitian part doubled (j = 0) and the adjoint of order -j
        # (j < 0)
        rng = np.random.default_rng(12)
        atoms, _ = atomic_coeffs(rng, 1, 7, n_atoms=2)
        seq = HermSeq(direct_sum(atoms, var1_coeffs(rng, 1, 1.0 - 1e-3, 7)))
        sm = central_measure(seq)
        sing = _oracle._singular_part(sm)
        assert sing.poles.size == 1 and len(sm.atoms) == 2
        js = np.arange(-3, len(seq) + 2)
        nodes = _oracle._default_nodes(sm, sing, int(np.max(np.abs(js))))
        smooth = _oracle._fourier_many(sm, sing, js, nodes).reshape(-1, seq.q, seq.q)
        got = quadrature_coeffs(sm, js)
        tol = 1e-14 * spec_norm(seq.coeff(0))
        for j, s, g in zip(js, smooth, got):
            half = -0.5 * sum(p ** (-abs(j) - 1.0) * r for p, r in zip(sing.poles, sing.residues))
            pole = half + half.conj().T if j == 0 else (half if j > 0 else half.conj().T)
            want = s + pole + sum(a.point ** (-j) * a.weight for a in sm.atoms)
            assert spec_norm(g - want) <= tol

    def test_atom_mass_accounting(self):
        seq = scalar_seq(1.0, 1.0)
        report = verify_recovery(central_measure(seq), seq)
        assert np.isclose(report.atom_mass_trace, 1.0, atol=1e-10)

    def test_failing_report_against_wrong_sequence(self):
        seq = scalar_seq(1.0, 0.5)
        other = scalar_seq(1.0, 0.3)
        report = verify_recovery(central_measure(seq), other, tol=1e-8)
        assert not report.passed
        assert report.max_error > 0.1

    def test_to_dict_round_trippable(self):
        import json

        seq = scalar_seq(1.0, 0.5)
        report = verify_recovery(central_measure(seq), seq)
        blob = json.dumps(report.to_dict())
        assert json.loads(blob)["passed"] is True


    @pytest.mark.parametrize("kind", ["tpd", "frozen"])
    def test_relative_error_is_scale_free(self, kind):
        rng = np.random.default_rng(21)
        if kind == "tpd":
            coeffs = list(random_tpd_seq(rng, 2, 4).coeffs)
        else:
            coeffs = atomic_coeffs(rng, 2, 5, n_atoms=3)[0]
        small, big = (
            verify_recovery(central_measure(s), s)
            for s in (HermSeq(coeffs), HermSeq([1e5 * c for c in coeffs]))
        )
        assert small.relative_error == small.max_error / spec_norm(coeffs[0])
        assert "relative_error" in small.to_dict()
        # both at roundoff; max_error itself grows about 1e5-fold
        assert abs(big.relative_error - small.relative_error) <= 1e-14

    def test_relative_error_without_scale_is_the_absolute_error(self):
        zero = scalar_seq(0.0, 0.0)
        assert verify_recovery(central_measure(zero), zero).relative_error == 0.0
        report = verify_recovery(atomic_measure([(1.0, [[0.5]])]), zero)
        assert report.relative_error == report.max_error == 0.5


def hand_built(num, den, atoms=()):
    """Scalar measure with the quotient num den^{-1}, coefficients lowest
    degree first."""
    cq = CaratheodoryQuotient(
        MatPoly(np.asarray(num, dtype=complex)[:, None, None]),
        MatPoly(np.asarray(den, dtype=complex)[:, None, None]),
    )
    return SpectralMeasure(1, tuple(atoms), cq)


class TestClosedForm:
    """The Schwarz formula's closed form: the density's orders off Phi's
    Taylor coefficients, certified by the zeros of det den."""

    def test_coefficients_are_the_schwarz_orders(self):
        # order j is Phi_j / 2 (j > 0), re Phi_0 (j = 0) and (Phi_{-j} / 2)*
        # (j < 0), plus the atoms' moments
        rng = np.random.default_rng(12)
        atoms, _ = atomic_coeffs(rng, 1, 7, n_atoms=2)
        seq = HermSeq(direct_sum(atoms, var1_coeffs(rng, 1, 1.0 - 1e-3, 7)))
        sm = central_measure(seq)
        assert len(sm.atoms) == 2
        js = np.arange(-3, len(seq) + 2)
        phi = taylor_coefficients(sm.quotient, len(seq) + 2)
        got = _coefficients(sm, js)
        tol = 1e-14 * spec_norm(seq.coeff(0))
        for j, g in zip(js, got):
            half = 0.5 * phi[abs(j)]
            dens = half + half.conj().T if j == 0 else (half if j > 0 else half.conj().T)
            want = dens + sum(a.point ** (-j) * a.weight for a in sm.atoms)
            assert spec_norm(g - want) <= tol

    @pytest.mark.parametrize("kind", ["tpd", "near-boundary", "deflated", "pair", "jordan"])
    def test_matches_the_quadrature_oracle(self, kind):
        # orders -2..n+2 and the Herglotz transform against the trapezoid
        # quadrature of tests/_oracle.py, whose own error next to the
        # unsubtracted "pair" and "jordan" clusters is the larger
        rng = np.random.default_rng(4)
        if kind == "tpd":
            seq = random_tpd_seq(rng, 2, 4)
        elif kind == "near-boundary":
            seq = HermSeq(var1_coeffs(rng, 2, 1.0 - 1e-4, 5))
        elif kind == "deflated":
            atoms, _ = atomic_coeffs(rng, 1, 6, n_atoms=2)
            seq = HermSeq(direct_sum(atoms, var1_coeffs(rng, 1, 1.0 - 1e-3, 6)))
        else:
            seq = cluster_var1(kind)
        sm = central_measure(seq)
        js = np.arange(-2, len(seq) + 2)
        tol = 1e-12 * spec_norm(seq.coeff(0))
        for got, want in zip(_coefficients(sm, js), quadrature_coeffs(sm, js)):
            assert spec_norm(got - want) <= tol
        for z in (0.0, 0.5j, 0.9 * np.exp(0.3j), 0.999 * np.exp(2.0j)):
            assert spec_norm(herglotz_transform(sm, z) - quadrature_herglotz(sm, z)) <= tol

    def test_zero_inside_the_disk_never_verifies(self):
        # num = 1, den = 1 - z / p with |p| = 1/2: the data its Taylor series
        # gives verifies nothing, and the orders and transform refuse
        p = 0.5 * np.exp(0.3j)
        sm = hand_built([1.0], [1.0, -1.0 / p])
        seq = scalar_seq(1.0, *[0.5 * p ** -j for j in range(1, 4)])
        report = verify_recovery(sm, seq)
        assert not report.passed
        # the uncertified density recovers nothing
        assert np.allclose(report.errors_by_order, [abs(c[0, 0]) for c in seq.coeffs])
        assert report.cause.startswith("zero of det den at 0.477668+0.14776j (|z| - 1 = -5.000e-01)")
        with pytest.raises(ModelError, match="not certified"):
            fourier_coeff(sm, 2)
        with pytest.raises(ModelError, match="not certified"):
            herglotz_transform(sm, 0.1)

    def test_ones_quotient_without_its_atom_never_verifies(self):
        # (1 + z)/(1 - z) is the Caratheodory function of a unit mass at 1;
        # without the atom its Taylor series still reads C_0 = C_1 = 1, and
        # only the certificate keeps the report failing
        ones = hand_built([1.0, 1.0], [1.0, -1.0])
        seq = scalar_seq(1.0, 1.0)
        assert np.allclose(0.5 * taylor_coefficients(ones.quotient, 2)[:, 0, 0], [0.5, 1.0])
        report = verify_recovery(ones, seq)
        assert not report.passed and "not certified" in report.cause
        # the point mass alone recovers the data
        assert verify_recovery(atomic_measure([(1.0, [[1.0]])]), seq).passed

    @pytest.mark.parametrize("m", [2, 3, 4])
    @pytest.mark.parametrize("angle", [0.0, 0.3, 2.0])
    def test_multiple_zero_on_the_circle_never_verifies(self, m, angle):
        # a hand-built quotient carries no Stein certificate, so the verdict
        # reads the companion's zeros.  A scalar den's companion splits an
        # m-fold zero on the circle into zeros spread around it by about
        # eps^(1/m); some computed zero lies at modulus at most 1 + DISK_MARGIN
        u = np.exp(-1j * angle)
        sm = hand_built([1.0], np.polynomial.polynomial.polypow([1.0, -u], m))
        assert sm.quotient._certified == -np.inf
        assert np.min(np.abs(sm.quotient.zeros)) <= 1.0 + DISK_MARGIN
        report = verify_recovery(sm, scalar_seq(1.0, 0.5 * u, 0.5 * u**2))
        assert not report.passed and "not certified" in report.cause

    def test_jordan_zero_on_the_circle_never_verifies(self):
        # den = I - z J, J a 2 x 2 Jordan block at 1: a second-order pole
        den = MatPoly([np.eye(2), -np.array([[1.0, 1.0], [0.0, 1.0]])])
        sm = SpectralMeasure(2, (), CaratheodoryQuotient(MatPoly([np.eye(2)]), den))
        report = verify_recovery(sm, HermSeq([np.eye(2)]))
        assert not report.passed and "not certified" in report.cause

    @pytest.mark.parametrize("gap, certified", [(2e-10, True), (5e-11, False)])
    def test_margin_edge(self, gap, certified):
        # num = 1, den = 1 - z / p: Phi_j = p^-j, C_0 = 1 and C_j = p^-j / 2
        p = 1.0 + gap
        sm = hand_built([1.0], [1.0, -1.0 / p])
        seq = scalar_seq(1.0, *[0.5 * p ** -j for j in range(1, 4)])
        report = verify_recovery(sm, seq)
        assert report.passed is certified
        assert (report.cause is None) is certified
        if certified:
            assert report.max_error <= 1e-15

    def test_deep_zeros_and_singular_den0_fail_with_finite_errors(self):
        # den = 1 - 100 z: the Taylor series grows like 100^k and would
        # overflow by order 154; den = z has none.  Neither is evaluated:
        # both reports fail on the certificate with the atoms' errors, and
        # write valid JSON
        import json

        seq = HermSeq([np.eye(1)] * 200)
        for den, gap in (([1.0, -100.0], "-9.900e-01"), ([0.0, 1.0], "-1.000e+00")):
            report = verify_recovery(hand_built([1.0], den), seq)
            assert not report.passed and report.max_error == 1.0
            assert f"(|z| - 1 = {gap}) is not certified" in report.cause
            json.dumps(report.to_dict(), allow_nan=False)


def _companion_draws():
    """Seeded (label, data) draws whose quotients the disk certificate
    judges: tpd (random walks inside the balls and trigonometric densities
    up to q = 4, n = 24), near-boundary VAR(1) with rho = 1 - 1e-2 ..
    1 - 1e-5, and direct sums of two scalar atoms and a VAR(1), whose
    quotient is the deflated one."""
    rng = np.random.default_rng(30)
    for q in (1, 2, 3):
        for n in (2, 4, 6):
            yield f"tpd q={q} n={n}", random_tpd_seq(rng, q, n)
    for q in (1, 2, 4):
        for n in (8, 16, 24):
            yield f"trig q={q} n={n}", HermSeq(trig_coeffs(rng, q, n + 1, n))
    for k in (2, 3, 4, 5):
        for q in (1, 2, 3):
            yield f"var1 q={q} rho=1-1e-{k}", HermSeq(var1_coeffs(rng, q, 1.0 - 10.0**-k, 6))
    for q in (1, 2):
        for n in (5, 8):
            atoms = atomic_coeffs(rng, 1, n + 1, 2)[0]
            yield f"dsum q={q + 1} n={n}", HermSeq(direct_sum(atoms, var1_coeffs(rng, q, 0.6, n + 1)))


def _backward_error(den: MatPoly, z: complex) -> float:
    """sigma_min(den(z)) / sum_k ||den_k|| |z|^k: how far den must move for
    z to be an exact zero of det den."""
    size = sum(spec_norm(c) * abs(z) ** k for k, c in enumerate(den.coeffs))
    return float(np.linalg.svd(den(z), compute_uv=False)[-1] / size)


class TestCompanionOracle:
    """The verdict of `_disk_cause`, from the Stein certificate where it
    holds, against the zeros of den's block companion
    (`CaratheodoryQuotient.zeros`)."""

    @pytest.mark.parametrize(
        "label, data", [pytest.param(label, data, id=label) for label, data in _companion_draws()]
    )
    def test_certificate_agrees_with_the_companion(self, label, data):
        # the full-rank draws are certified, the deflated ones not; at both
        # margins the verdict is the companion's, and the companion's
        # innermost zero is a zero of den to roundoff
        sm = central_measure(data)
        assert bool(sm.atoms) == label.startswith("dsum")
        cq = sm.quotient
        assert cq._certified == (-np.inf if sm.atoms else DISK_MARGIN)
        comp = cq.zeros
        for margin in (DISK_MARGIN, -NEAR_CIRCLE):
            assert (_disk_cause(cq, margin) is None) == bool(np.all(np.abs(comp) - 1.0 > margin))
        assert _backward_error(cq.den, comp[np.argmin(np.abs(comp))]) <= 1e-11

    @pytest.mark.parametrize("n", [2, 5])
    def test_triple_zero_stays_outside_in_the_companion(self, n):
        # the README triple AR(1): diag(1, 2, 3) a^j, a = (1 - 1e-5) e^{0.4i}.
        # The companion puts every zero of det den 1.000e-5 or more outside
        # the circle, and the Stein certificate clears the quotient first
        a = (1.0 - 1e-5) * np.exp(0.4j)
        seq = HermSeq([np.diag([1.0, 2.0, 3.0]) * a**j for j in range(n + 1)])
        cq = central_quotient(gamma_from_covariance(seq))
        assert f"{np.min(np.abs(cq.zeros)) - 1.0:.3e}" == "1.000e-05"
        assert cq._certified == DISK_MARGIN and _disk_cause(cq, DISK_MARGIN) is None


class TestDensityCertificate:
    @staticmethod
    def hand_built(*num):
        # scalar quotient num(z) / 1 with den = 1
        num = MatPoly(np.reshape(num, (-1, 1, 1)))
        return SpectralMeasure(1, (), CaratheodoryQuotient(num, MatPoly(np.ones((1, 1, 1)))))

    @pytest.mark.parametrize("c", [1.0, 1j])
    def test_negative_density_gives_a_negative_bound(self, c):
        # re(1 + 2c e^{it}) dips to -1; recovery of C_0 = 1, C_1 = c still
        # passes, and passed follows recovery alone.  For c = i the orders
        # +-1 of H cancel if they alias onto one node
        sm = self.hand_built(1.0, 2.0 * c)
        report = verify_recovery(sm, scalar_seq(1.0, c))
        assert abs(report.density_psd_bound + 1.0 / TWO_PI) <= 1e-15
        assert report.density_psd_bound < -DEFAULT_PSD_TOL
        assert report.passed

    def test_bound_does_not_overflow(self):
        # num = 1 + z, den = 1 + 1e200 z: H has orders of 1e200, whose
        # squares in a Frobenius norm overflowed to a bound of -inf that the
        # report wrote as -Infinity, not JSON.  H scaled by a power of two
        # gives its true value, 0 to roundoff
        num = MatPoly(np.ones((2, 1, 1)))
        den = MatPoly(np.array([[[1.0]], [[1e200]]]))
        sm = SpectralMeasure(1, (), CaratheodoryQuotient(num, den))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            report = verify_recovery(sm, scalar_seq(1.0, 0.5))
        assert not report.passed and "zero of det den" in report.cause
        assert abs(report.density_psd_bound) <= 1e-15 * 1e200
        json.dumps(report.to_dict(), allow_nan=False)

    def test_bound_is_the_minimum_of_a_varying_density(self):
        # re(1 + e^{it} / 2) has minimum 1/2 at t = pi, a node of the grid
        sm = self.hand_built(1.0, 0.5)
        report = verify_recovery(sm, scalar_seq(1.0, 0.25))
        grid = sm.density_grid(np.linspace(0.0, TWO_PI, 4096, endpoint=False))
        assert abs(report.density_psd_bound - 0.5 / TWO_PI) <= 1e-15
        assert abs(report.density_psd_bound - np.min(grid.real)) <= 1e-15

    @pytest.mark.parametrize("case", ["tpd", "near-boundary", "deflated"])
    def test_central_and_deflated_kernels_are_constant(self, case):
        # H = (den* num + num* den) / 2 is constant for a central quotient and
        # for a deflated one, so the bound is lambda_min(H) / 2pi
        rng = np.random.default_rng(19)
        if case == "tpd":
            seq = random_tpd_seq(rng, 2, 5)
        elif case == "near-boundary":
            seq = HermSeq(var1_coeffs(rng, 2, 1.0 - 1e-4, 4))
        else:
            atoms = atomic_coeffs(rng, 1, 6, n_atoms=2)[0]
            seq = HermSeq(direct_sum(atoms, var1_coeffs(rng, 1, 0.6, 6)))
        sm = central_measure(seq)
        assert sm.quotient is not None and bool(sm.atoms) == (case == "deflated")
        c0 = spec_norm(seq.coeff(0))
        h = density_kernel_coeffs(sm.quotient)
        off = sum(np.linalg.norm(hm) for m, hm in h.items() if m != 0)
        assert off <= 1e-13 * c0
        bound = verify_recovery(sm, seq).density_psd_bound
        assert bound >= -DEFAULT_PSD_TOL * (1.0 + c0)
        low = np.linalg.eigvalsh(h[0])[0] / TWO_PI
        assert abs(bound - low) <= 1e-13 * c0


class TestRankFrozen:
    """rank T_n = rank T_{n-1}: atoms from the compressed shift, no quotient,
    zero density and recovery in closed form."""

    def test_close_pair_recovers(self):
        # q = 1, three atoms, two 1e-3 apart: with the zeros of det den from
        # np.roots these coefficients came back only to 1.8e-6
        coeffs, want = jittered_atomic_coeffs(np.random.default_rng(1), 1, 9, 3, 1, 1e-3)
        seq = HermSeq(coeffs)
        sm = central_measure(seq)
        assert sm.quotient is None and len(sm.atoms) == 3
        points = sm.atom_points()
        for u, w in want:
            k = int(np.argmin(np.abs(points - u)))
            assert abs(points[k] - u) <= 1e-8
            assert spec_norm(sm.atoms[k].weight - w) <= 1e-8
        assert verify_recovery(sm, seq, tol=1e-8).passed

    def test_measure_without_quotient_evaluates_nothing(self, monkeypatch):
        import matspec.measure as measure

        seq = HermSeq(atomic_coeffs(np.random.default_rng(2), 2, 4, n_atoms=2)[0])
        sm = central_measure(seq)
        cq = central_quotient(gamma_from_covariance(seq))

        def refuse(*args):
            raise AssertionError("a measure without quotient evaluated its quotient")

        monkeypatch.setattr(measure, "rational_values", refuse)
        monkeypatch.setattr(measure, "taylor_coefficients", refuse)
        assert np.array_equal(sm.density_grid(np.linspace(0.0, 6.0, 7)), np.zeros((7, 2, 2)))
        assert np.array_equal(density_at(sm, 1j), np.zeros((2, 2)))
        report = verify_recovery(sm, seq)
        assert report.passed and report.density_psd_bound == 0.0
        assert spec_norm(fourier_coeff(sm, 5) - sum(
            a.point ** -5 * a.weight for a in sm.atoms)) <= 1e-14
        tol = 1e-8 * (1.0 + spec_norm(seq.coeff(0)))
        for z in (0.0, 0.3 - 0.4j):
            assert spec_norm(herglotz_transform(sm, z) - phi_at(cq, z)) <= tol

    def test_zero_data_is_the_zero_measure(self):
        seq = HermSeq([np.zeros((2, 2))] * 3)
        sm = central_measure(seq)
        assert sm.quotient is None and sm.atoms == ()
        assert verify_recovery(sm, seq).max_error == 0.0


def shared_atom_sum(seed):
    """Two q = 2 atomic blocks sharing 1-3 atoms, (+) a VAR(1) with
    rho = 0.5, conjugated by a random unitary; returns (sequence, number of
    distinct atoms)."""
    rng = np.random.default_rng(seed)
    shared = 1 + seed % 3
    points = np.exp(1j * separated_angles(rng, shared + 2))
    a, _ = atomic_coeffs(rng, 2, 8, shared + 1, points=points[: shared + 1])
    b, _ = atomic_coeffs(rng, 2, 8, shared + 1, points=np.r_[points[:shared], points[-1:]])
    coeffs = direct_sum(direct_sum(a, b), var1_coeffs(rng, 1, 0.5, 8))
    return HermSeq(conjugated(coeffs, random_unitary(rng, 5))), shared + 2


class TestOneAtomRoute:
    """Every atom from the compressed shift, every density from the
    deflated data."""

    @pytest.mark.parametrize("seed", range(12))
    def test_shared_atoms_next_to_a_density(self, seed):
        # a shared atom of full-rank weights is a 4-fold zero of det den,
        # which np.roots scatters past the cluster radius: the zeros' route
        # lost such atoms or raised on them
        seq, distinct = shared_atom_sum(seed)
        sm = central_measure(seq)
        assert len(sm.atoms) == distinct and sm.quotient is not None
        assert verify_recovery(sm, seq, tol=1e-8).passed

    @pytest.mark.parametrize("seed", range(20))
    def test_density_next_to_an_atom(self, seed):
        # the atomic block's density is exactly zero; the full quotient less
        # the atoms' kernels cancelled two large terms next to each atom
        rng = np.random.default_rng(seed)
        seq = HermSeq(direct_sum(atomic_coeffs(rng, 1, 8, 3)[0], var1_coeffs(rng, 1, 0.6, 8)))
        sm = central_measure(seq)
        assert len(sm.atoms) == 3
        d = 10.0 ** -np.arange(2, 7)
        ang = (np.angle(sm.atom_points())[:, None] + np.concatenate([-d, d])).ravel()
        row = sm.density_grid(ang)[:, 0, :]
        assert np.max(np.abs(row)) <= 1e-12 * spec_norm(seq.coeffs[0])

    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_full_rank_data_has_no_atom(self, n):
        # AR(1) a distance 1e-8 from a unit root: T_n has full rank, and the
        # zero of det den within root_tol of the circle once became an atom
        rho = 1.0 - 1e-8
        seq = HermSeq([np.array([[rho**j / (1.0 - rho**2)]]) for j in range(n + 1)])
        sm = central_measure(seq)
        assert sm.atoms == ()
        assert verify_recovery(sm, seq).relative_error <= 1e-12

    def test_deflated_data_has_no_atom_left(self):
        # the quotient is that of the absolutely continuous part: den has no
        # zero on the circle, and its constant term is C_0 less the atoms
        seq = HermSeq([np.eye(2), np.diag([1.0, 0.0]), np.diag([1.0, 0.0])])
        sm = central_measure(seq)
        (atom,) = sm.atoms
        assert abs(atom.point - 1.0) < 1e-14
        assert spec_norm(atom.weight - np.diag([1.0, 0.0])) < 1e-14
        assert np.all(np.abs(np.abs(sm.quotient.zeros) - 1.0) > NEAR_CIRCLE)
        assert spec_norm(sm.quotient.num.coeffs[0] - np.diag([0.0, 1.0])) < 1e-14
        want = np.diag([0.0, 1.0]) / TWO_PI
        assert np.allclose(sm.density_grid(np.linspace(0.0, 6.0, 7)), want, atol=1e-14)
        # atoms plus the deflated density give back the full Caratheodory
        # function of the data
        cq = central_quotient(gamma_from_covariance(seq))
        for z in (0.0, 0.3 - 0.4j, 0.9j):
            assert spec_norm(herglotz_transform(sm, z) - phi_at(cq, z)) <= 1e-13

    @pytest.mark.parametrize("data", ["zero+ar1", "ma-rank1"])
    def test_atom_free_singular_data_keeps_its_own_quotient(self, data):
        # singular data whose shift has no unimodular eigenvalue: 0 (+) AR(1)
        # and an MA(1) density of rank 1.  Deflating no atom leaves the data,
        # and the entry's T_n and predictor give its quotient bit for bit
        seq = HermSeq(atom_free_singular_coeffs(data))
        sm = central_measure(seq)
        assert sm.atoms == () and sm.quotient is not None
        entry = _enter(toeplitz_matrix(seq, len(seq) - 1), seq.q, DEFAULT_PSD_TOL, DEFAULT_RANK_RTOL)
        deflated = _deflated_quotient(seq, (), entry, DEFAULT_RANK_RTOL)
        assert np.array_equal(sm.quotient.num.coeffs, deflated.num.coeffs)
        assert np.array_equal(sm.quotient.den.coeffs, deflated.den.coeffs)
        assert verify_recovery(sm, seq).relative_error <= 1e-14

    # the deflated inputs of test_density_next_to_an_atom and
    # test_shared_atoms_next_to_a_density
    DEFLATED = ([direct_sum(atomic_coeffs(rng, 1, 8, 3)[0], var1_coeffs(rng, 1, 0.6, 8))
                 for rng in map(np.random.default_rng, range(20))]
                + [list(shared_atom_sum(seed)[0].coeffs) for seed in range(12)])

    def test_deflated_range_from_an_eigh_inside_u_r(self):
        # range T'_{n-1} lies in range T_{n-1}, so the deflated predictor
        # takes it from an r x r eigh of U_r* T'_{n-1} U_r.  Its w' matches
        # the pseudoinverse of T'_{n-1} from a second SVD (_oracle.pinv) to
        # 1e-12, and recovery stays within ten times the 1.43e-13 ||C_0||
        # that route's measures reached on these 32 inputs
        for coeffs in self.DEFLATED:
            seq = HermSeq(coeffs)
            q, n = seq.q, len(seq) - 1
            sm = central_measure(seq)
            assert sm.atoms and sm.quotient is not None
            assert verify_recovery(sm, seq).relative_error <= 10.0 * 1.43e-13
            deflated = seq._stack - _coefficients(dataclasses.replace(sm, quotient=None), range(n + 1))
            td = re_mat(toeplitz_matrix(HermSeq(deflated), n))
            want = pinv(td[:-q, :-q]) @ td[q:, :q]
            got = -sm.quotient.den.coeffs[1:].reshape(n * q, q)
            assert spec_norm(got - want) <= 1e-12 * (1.0 + spec_norm(want))

    @pytest.mark.parametrize(
        "kind, logged",
        [("tpd", None), ("frozen", (4, 4, 4)), ("deflated", (5, 4, 2))],
    )
    def test_debug_line_per_singular_input(self, caplog, kind, logged):
        import logging

        rng = np.random.default_rng(2)
        coeffs = {
            "tpd": lambda: list(random_tpd_seq(rng, 2, 2).coeffs),
            "frozen": lambda: atomic_coeffs(rng, 2, 3, n_atoms=2)[0],
            "deflated": lambda: direct_sum(
                atomic_coeffs(rng, 1, 3, n_atoms=2)[0], var1_coeffs(rng, 1, 0.5, 3)
            ),
        }[kind]()
        with caplog.at_level(logging.DEBUG, logger="matspec"):
            central_measure(HermSeq(coeffs))
        lines = [r.getMessage() for r in caplog.records if r.name == "matspec"]
        if logged is None:
            assert lines == []
            return
        # singular T_2 first declines the entry's full-rank certificate
        declined, line = lines
        assert declined.startswith("full-rank certificate declined: Cholesky of re T_2 - ")
        # rank T_2, rank T_1 and the dimension of the shift's unitary part
        rank, rank_prev, unitary = logged
        assert line.startswith(
            f"singular T_2: rank {rank}, rank T_1 {rank_prev}, "
            f"unitary part of the shift {unitary}, "
        )
        ratio = float(line.rsplit("= ", 1)[1])
        assert (ratio < 1e-12) if kind == "frozen" else (0.1 < ratio < 1.0)


def shift_draw(kind, q, seed, deflated):
    """Seeded atomic data with three atoms, q = 1..4, alone (rank-frozen) or
    (+) a scalar VAR(1) with rho = 0.5 (deflated).  ``kind``: a conjugate
    pair v, v-bar; atoms at 1 and -1; two blocks sharing one of their two
    atoms (summed for q = 1); a pair 1e-2 or 1e-3 apart."""
    rng = np.random.default_rng(seed)
    if kind == "conjugate":
        theta = rng.uniform(0.3, 2.8)
        points = np.exp(1j * np.array([theta, -theta, np.pi + rng.uniform(-0.2, 0.2)]))
        coeffs = atomic_coeffs(rng, q, 8, 3, points=points)[0]
    elif kind == "real":
        points = np.exp(1j * np.array([0.0, np.pi, rng.uniform(0.5, 2.5)]))
        coeffs = atomic_coeffs(rng, q, 8, 3, points=points)[0]
    elif kind == "shared":
        points = np.exp(1j * separated_angles(rng, 3))
        qa = max(1, q // 2)
        a = atomic_coeffs(rng, qa, 8, 2, points=points[:2])[0]
        b = atomic_coeffs(rng, max(1, q - qa), 8, 2, points=points[1:])[0]
        coeffs = direct_sum(a, b) if q > 1 else [x + y for x, y in zip(a, b)]
    else:
        gap = {"pair-1e-2": 1e-2, "pair-1e-3": 1e-3}[kind]
        coeffs = jittered_atomic_coeffs(rng, q, 10, 3, 1, gap)[0]
    if deflated:
        coeffs = direct_sum(coeffs, var1_coeffs(rng, 1, 0.5, len(coeffs)))
    return HermSeq(coeffs)


def shift_routes(seq):
    """`_shift_atoms` and the one-eig oracle on the same predictor SVD."""
    q, n = seq.q, len(seq) - 1
    entry = _enter(toeplitz_matrix(seq, n), q, DEFAULT_PSD_TOL, DEFAULT_RANK_RTOL)
    frozen = entry.rank == entry.s_r.size
    got = _shift_atoms(entry, q, DEFAULT_ROOT_TOL)
    oracle = shift_atoms_by_eig(entry.t, q, entry.u_r, entry.s_r, DEFAULT_ROOT_TOL)
    return got, oracle, frozen


class TestHermitianShiftRoute:
    """The unitary part of the compressed shift from Hermitian eigensolvers
    gives the atoms of one general eig of the whole shift."""

    @pytest.mark.parametrize("deflated", [False, True], ids=["frozen", "deflated"])
    @pytest.mark.parametrize(
        "kind", ["conjugate", "real", "shared", "pair-1e-2", "pair-1e-3"]
    )
    def test_matches_one_eig(self, kind, deflated):
        # The routes share the predictor's SVD and differ in roundoff only.
        # A close pair amplifies it in the weights: over seeds 0..24 and
        # q = 1..4 the weight gaps of 1e-2 pairs reach 2.6e-11 ||C_0|| (each
        # route is as far from the true weights) and those of 1e-3 pairs
        # 6.8e-13 ||C_0||, against 1.2e-14 for well-separated atoms.
        weight_tol = 1e-10 if kind.startswith("pair") else 1e-12
        for q in (1, 2, 3, 4):
            for seed in range(5):
                seq = shift_draw(kind, q, seed, deflated)
                (atoms, unitary, route, widest), (want, want_unitary), frozen = shift_routes(seq)
                assert frozen != deflated
                assert route == "hermitian" and widest <= unitary
                assert (len(atoms), unitary) == (len(want), want_unitary)
                c0 = spec_norm(seq.coeff(0))
                points = np.array([a.point for a in want])
                for atom in atoms:
                    k = int(np.argmin(np.abs(points - atom.point)))
                    assert abs(points[k] - atom.point) <= 1e-12
                    assert spec_norm(atom.weight - want[k].weight) <= weight_tol * c0

    @pytest.mark.parametrize("deflated", [False, True], ids=["frozen", "deflated"])
    def test_weights_are_hermitian_gram_matrices(self, deflated):
        # each weight is the Hermitian part of (G Q)(G Q)*, so no eigenvalue
        # needs clipping: over these 100 draws the lowest is -1.7e-16 ||C_0||,
        # inside -1e-13 ||C_0|| and far inside the oracle's 1e-9 clip
        for kind in ("conjugate", "real", "shared", "pair-1e-2", "pair-1e-3"):
            for q in (1, 2, 3, 4):
                for seed in range(5):
                    seq = shift_draw(kind, q, seed, deflated)
                    c0 = spec_norm(seq.coeff(0))
                    for atom in central_measure(seq).atoms:
                        assert np.array_equal(atom.weight, atom.weight.conj().T)
                        assert np.linalg.eigvalsh(atom.weight)[0] >= -1e-13 * c0

    @pytest.mark.parametrize("ratio", [0.5, 2.0])
    def test_atoms_at_most_atom_drop_are_dropped(self, ratio):
        # a unitary shift diag(e^{0.5i}, e^{1.5i}) in the basis U = [[c, s],
        # [-s, c]], s_r = (1, 1) and ||C_0|| = 1: G = (c, s), so the atom at
        # e^{-1.5i} weighs s^2 = ratio ATOM_DROP, dropped up to ATOM_DROP
        mass = ratio * ATOM_DROP
        u = np.array([[np.sqrt(1.0 - mass), np.sqrt(mass)], [-np.sqrt(mass), np.sqrt(1.0 - mass)]])
        t = np.zeros((3, 3), dtype=complex)
        t[1:, :-1] = u @ np.diag(np.exp([0.5j, 1.5j])) @ u.T
        entry = _Entry(t, 1.0, 2, False, np.zeros((2, 1, 1)), u, np.ones(2))
        atoms, unitary, _, _ = _shift_atoms(entry, 1, DEFAULT_ROOT_TOL)
        assert unitary == 2
        want = ([(1.5, mass)] if ratio > 1.0 else []) + [(0.5, 1.0 - mass)]
        assert len(atoms) == len(want)
        for atom, (angle, weight) in zip(atoms, want):
            assert abs(atom.point - np.exp(-1j * angle)) <= 1e-12
            assert atom.weight[0, 0].real == pytest.approx(weight, rel=1e-6)

    @pytest.mark.parametrize("deflated", [False, True], ids=["frozen", "deflated"])
    def test_atom_at_one_comes_first(self, deflated):
        # atoms at 1, -1 and a third angle: roundoff puts the angle of the
        # atom at 1 on either side of 0, and it sorts first in every draw,
        # for the library and the one-eig oracle, also after conjugation by
        # a unitary
        for q in (1, 2, 3, 4):
            for seed in range(25):
                seq = shift_draw("real", q, seed, deflated)
                u = random_unitary(np.random.default_rng(100 + seed), seq.q)
                for data in (seq, conjugate_by_unitary(seq, u)):
                    points = central_measure(data).atom_points()
                    assert len(points) == 3 and abs(points[0] - 1.0) <= 1e-8
                    (atoms, *_), (want, _), _ = shift_routes(data)
                    assert abs(atoms[0].point - 1.0) <= 1e-8
                    assert abs(want[0].point - 1.0) <= 1e-8

    def test_cluster_chained_across_the_wrap_comes_first(self):
        # atoms at angles -1.5e-4 and -0.6e-4, 0.9e-4 apart, chain into one
        # cluster across 2pi - CLUSTER_RADIUS; its mean, at -1.05e-4 within
        # the close pair's roundoff, comes before the atom at angle 2, as the
        # cluster leads its wrap
        points = np.exp(1j * np.array([-1.5e-4, -0.6e-4, 2.0]))
        weights = np.array([1.0, 2.0, 0.5])
        seq = HermSeq([np.array([[weights @ points**-j]]) for j in range(4)])
        atoms = central_measure(seq).atoms
        assert [a.weight[0, 0].real for a in atoms] == pytest.approx([3.0, 0.5], abs=1e-9)
        assert np.angle(atoms[0].point) == pytest.approx(-1.05e-4, abs=1e-7)

    @pytest.mark.parametrize(
        "angles, want",
        [
            ([], []),
            ([2.0, 2.0, 1.0], [[2], [0, 1]]),
            ([3.0, -0.6e-4, 1.0, -1.5e-4, 0.3e-4], [[3, 1, 4], [2], [0]]),
            ([-0.6e-4, -1.5e-4], [[0, 1]]),
            ([-0.6e-4, 2.0, -1.5e-4], [[2, 0], [1]]),
        ],
        ids=["empty", "ties-keep-order", "wrap-leads", "one-cluster", "wrap-pair"],
    )
    def test_clusters_chain_in_atom_order(self, angles, want):
        clusters = _clusters(np.exp(1j * np.array(angles)))
        assert [c.tolist() for c in clusters] == want

    @pytest.mark.parametrize("start", ["0.7", "-half", "0"])
    @pytest.mark.parametrize("chord, want", [(0.999, [[0, 1]]), (1.001, [[0], [1]])],
                             ids=["merge", "split"])
    def test_cluster_radius_edge(self, start, chord, want):
        # two unit points a chord of 0.999 CLUSTER_RADIUS apart merge and
        # 1.001 CLUSTER_RADIUS apart split: from angle 0.7, from half the gap
        # below angle 0 (straddling it) and from angle 0
        gap = 2.0 * np.arcsin(0.5 * chord * CLUSTER_RADIUS)
        first = {"0.7": 0.7, "-half": -0.5 * gap, "0": 0.0}[start]
        points = np.exp(1j * np.array([first, first + gap]))
        assert abs(points[1] - points[0]) == pytest.approx(chord * CLUSTER_RADIUS, rel=1e-9)
        assert [c.tolist() for c in _clusters(points)] == want

    def test_clusters_match_the_chain_one_point_at_a_time(self):
        # clumps of 1..3 points 0.3e-4..1.5e-4 apart, some across angle 0
        # and 2pi - CLUSTER_RADIUS, with ties, against the per-point loop
        rng = np.random.default_rng(17)
        for _ in range(200):
            centres = rng.choice([0.0, -1e-4, 1e-4, 1.0, np.pi, 4.0], rng.integers(1, 5))
            angles = np.concatenate([
                c + np.cumsum(rng.choice([0.0, 0.3e-4, 0.9e-4, 1.5e-4], rng.integers(1, 4)))
                for c in centres
            ])
            points = np.exp(1j * rng.permutation(angles))
            got = [c.tolist() for c in _clusters(points)]
            assert got == _oracle.chain_clusters(points)

    @pytest.mark.parametrize("frozen", [True, False], ids=["frozen", "deflated"])
    def test_non_invariant_blocks_fall_back_to_eig(self, frozen):
        # unimodular eigenvalues whose eigenvectors do not reduce W, as a
        # shift left slightly non-contractive by roundoff could have: the
        # blocks' eigenvalues lie on the circle, but a coupling of 1e-5 keeps
        # the blocks (frozen) or K (deflated) from being invariant, so one
        # eig of W answers
        w = np.diag(np.exp(1j * np.array([0.4, 2.0, -2.1])))
        if not frozen:
            w[2, 2] = 0.5
        w[0, 1 if frozen else 2] = 1e-5
        lam, vec, route, widest = _unitary_part(w, DEFAULT_ROOT_TOL, frozen)
        assert (route, widest) == ("eig fallback", 3)
        want, want_vec = np.linalg.eig(w)
        keep = np.abs(np.abs(want) - 1.0) <= DEFAULT_ROOT_TOL
        assert np.array_equal(lam, want[keep]) and np.array_equal(vec, want_vec[:, keep])

    def test_zero_root_tol_takes_one_eig(self):
        w = np.diag(np.exp(1j * np.array([0.4, 2.0])))
        assert _unitary_part(w, 0.0, True)[2:] == ("eig fallback", 2)

    @pytest.mark.parametrize(
        "kind, logged",
        [("frozen", "hermitian route, widest block 2"),
         ("deflated", "hermitian route, widest block 2"),
         ("fallback", "eig fallback route, widest block 5")],
    )
    def test_debug_line_names_the_route(self, caplog, kind, logged):
        import logging

        if kind == "fallback":
            # AR(1) at rho = 1 - 1e-9, n = 5: rank-frozen, but only one of the
            # shift's five eigenvalues is unimodular
            seq = scalar_seq(*[(1.0 - 1e-9) ** j for j in range(6)])
        else:
            seq = shift_draw("conjugate", 1, 0, kind == "deflated")
        with caplog.at_level(logging.DEBUG, logger="matspec"):
            try:
                central_measure(seq)
            except ModelError:
                assert kind == "fallback"
        declined, line = [r.getMessage() for r in caplog.records if r.name == "matspec"]
        assert declined.startswith("full-rank certificate declined: ")
        assert f", {logged}, " in line


# AR(1) with C_0 = 1 near the unit root: rho -> (outcome, atoms) for each n.
# 1 - 1e-8 has a density and no atom; at 1 - 1e-9 and n >= 5, T_n is
# singular but only one of the shift's eigenvalues is unimodular, and the
# deflated data fails the disk certificate; from 1 - 1e-10 the root is an
# atom.
UNIT_ROOT_ENVELOPE = {
    1.0 - 1e-8: {n: ("passes", 0) for n in (1, 3, 5, 8, 10)},
    1.0 - 1e-9: {1: ("passes", 0), 3: ("passes", 0), 5: ("raises", None),
                 8: ("raises", None), 10: ("raises", None)},
    1.0 - 1e-10: {n: ("passes", 1) for n in (1, 3, 5, 8, 10)},
    1.0 - 1e-11: {n: ("passes", 1) for n in (1, 3, 5, 8, 10)},
    1.0 - 1e-12: {n: ("passes", 1) for n in (1, 3, 5, 8, 10)},
}


@pytest.mark.parametrize("rho", sorted(UNIT_ROOT_ENVELOPE))
def test_near_unit_root_envelope(rho):
    # every case verifies or raises a typed error, never a silent failure
    outcomes = {}
    for n in UNIT_ROOT_ENVELOPE[rho]:
        seq = scalar_seq(*[rho**j for j in range(n + 1)])
        try:
            sm = central_measure(seq)
        except ModelError:
            outcomes[n] = ("raises", None)
            continue
        assert verify_recovery(sm, seq).passed
        outcomes[n] = ("passes", len(sm.atoms))
    assert outcomes == UNIT_ROOT_ENVELOPE[rho]


class TestNearEdgeQuadrature:
    """Data close to the extension-ball boundary concentrates the density.

    A denominator zero at distance d outside the circle makes a spike of
    width about d.  The closed form reads the density's orders off the
    Taylor coefficients of num den^{-1}, so no spike is resolved however
    small d is.  A measure that does not reproduce the sequence must still
    fail loudly.  The quadrature oracle of tests/_oracle.py puts a
    subtracted pole halfway between two nodes, where the alias of the
    roundoff left in its residue stays at most half that roundoff.
    """

    NEAR_EDGE = 0.25 + 0.75 * (1.0 - 1e-4)

    def test_moderate_edge_distance_recovers(self):
        seq = scalar_seq(1.0, 0.5, 0.25 + 0.75 * (1.0 - 1e-2))
        sm = central_measure(seq)
        assert sm.atoms == ()
        report = verify_recovery(sm, seq, tol=1e-10)
        assert report.passed
        assert report.max_error < 1e-12

    def test_past_old_cap_recovers(self):
        seq = scalar_seq(1.0, 0.5, self.NEAR_EDGE)
        sm = central_measure(seq)
        assert sm.atoms == ()
        report = verify_recovery(sm, seq, tol=1e-10)
        assert report.passed

    def test_perturbed_sequence_fails_loudly(self):
        sm = central_measure(scalar_seq(1.0, 0.5, self.NEAR_EDGE))
        other = scalar_seq(1.0, 0.5, self.NEAR_EDGE + 1e-6)
        report = verify_recovery(sm, other, tol=1e-8)
        assert not report.passed
        assert 0.5e-6 <= report.max_error <= 2e-6

    @pytest.mark.parametrize("eps", [1e-4, 1e-5, 1e-6])
    def test_ar1_unit_root_distance(self, eps):
        rho = 1.0 - eps
        seq = scalar_seq(*[rho**j for j in range(4)])
        sm = central_measure(seq)
        assert sm.atoms == ()
        report = verify_recovery(sm, seq, tol=1e-8)
        assert report.passed
        assert report.relative_error <= 1e-13

    @pytest.mark.parametrize("n", [3, 6])
    @pytest.mark.parametrize("eps", [1e-3, 1e-5])
    def test_rotated_unit_root(self, eps, n):
        # AR(1) with its pole eps outside the circle at 24 angles theta
        rho = 1.0 - eps
        c0 = 1.0 / (1.0 - rho**2)
        for theta in TWO_PI * np.arange(24) / 24 + 0.1:
            seq = scalar_seq(*[c0 * (rho * np.exp(1j * theta)) ** j for j in range(n + 1)])
            report = verify_recovery(central_measure(seq), seq, tol=1e-8)
            assert report.passed
            assert report.relative_error <= 1e-13

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_grid_keeps_poles_off_the_nodes(self, k):
        # the quadrature oracle: one pole lands halfway between two nodes,
        # k poles at least 1/(2k) of a step from the nearest node; no pole
        # keeps the half-step grid
        nodes = 64
        step = TWO_PI / nodes
        half = _oracle._quadrature_angles(nodes)
        assert np.array_equal(half, step * (np.arange(nodes) + 0.5))
        rng = np.random.default_rng(k)
        for _ in range(50):
            poles = (1.0 + 1e-4) * np.exp(1j * rng.uniform(-np.pi, np.pi, k))
            ang = _oracle._quadrature_angles(nodes, poles)
            assert np.allclose(ang - half, ang[0] - half[0], rtol=0.0, atol=1e-13)
            # each pole's argument against the nodes, in steps
            off = (np.angle(poles)[:, None] - ang[None, :]) / step
            dist = np.min(np.abs(off - np.round(off)), axis=1)
            assert np.min(dist) >= 0.5 / k - 1e-9
            if k == 1:
                assert abs(dist[0] - 0.5) <= 1e-9


class TestGridSizing:
    """The quadrature oracle's grid follows the zeros of det den, with or
    without atoms: the alias of order j - N falls like e^{-(N - |j|) d}, d
    the smallest |log|z|| over the zeros outside the NEAR_CIRCLE band, so
    N - |j| = 40/d nodes reach roundoff, far fewer than 1024 for zeros far
    from the circle.  The closed form matches the same dense rule."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("kind", ["tpd", "var1", "deflated"])
    def test_small_grid_matches_a_dense_one(self, kind, seed, grid_sizes):
        rng = np.random.default_rng(seed)
        if kind == "tpd":
            seq = random_tpd_seq(rng, 2, 2)
        elif kind == "var1":
            seq = HermSeq(var1_coeffs(rng, 2, 0.8, 9))
        else:
            atoms, _ = atomic_coeffs(rng, 1, 9, n_atoms=3)
            seq = HermSeq(direct_sum(atoms, var1_coeffs(rng, 1, 0.8, 9)))
        sm = central_measure(seq)
        assert bool(sm.atoms) == (kind == "deflated")
        orders = range(len(seq))
        dense = brute_force_coeffs(sm, orders, 4096)
        grid_sizes.clear()
        quadrature = quadrature_coeffs(sm, orders)
        assert max(grid_sizes) < 1024
        closed = [fourier_coeff(sm, j) for j in orders]
        for g, c, w in zip(quadrature, closed, dense):
            assert spec_norm(g - w) <= 1e-14 * spec_norm(seq.coeff(0))
            assert spec_norm(c - w) <= 1e-14 * spec_norm(seq.coeff(0))

    @pytest.mark.parametrize("n", [64, 100])
    def test_white_noise_of_high_order(self, n):
        # no zero of det den: Phi = C_0, and every order past 0 is zero
        seq = HermSeq([np.eye(2, dtype=complex)] + [np.zeros((2, 2))] * n)
        report = verify_recovery(central_measure(seq), seq, tol=1e-13)
        assert report.passed

    def test_polynomial_part_is_not_aliased(self):
        # den = 1: re num on the circle, 1 + 0.4 cos t + 0.2 cos 2t +
        # 0.1 cos 3t, is a trigonometric polynomial of degree 3, whose
        # orders past 3 are zero
        cq = CaratheodoryQuotient(
            MatPoly(np.array([1.0, 0.4, 0.2, 0.1])[:, None, None]), MatPoly([[[1.0]]])
        )
        seq = scalar_seq(1.0, 0.2, 0.1, 0.05, *[0.0] * 67)
        report = verify_recovery(SpectralMeasure(1, (), cq), seq, tol=1e-13)
        assert report.passed


def brute_force_coeffs(sm, orders, nodes):
    """Plain trapezoid rule on the density with the atoms added exactly.

    No pole is subtracted, so ``nodes`` must resolve the narrowest density
    spike on its own (about 40 / d nodes for a pole at distance d).
    """
    ang = TWO_PI * (np.arange(nodes) + 0.5) / nodes
    dens = sm.density_grid(ang)
    out = []
    for j in orders:
        c = (TWO_PI / nodes) * np.tensordot(np.exp(-1j * j * ang), dens, axes=(0, 0))
        for atom in sm.atoms:
            c = c + atom.point ** (-j) * atom.weight
        out.append(c)
    return out


CLUSTERS = {
    "double": [[1.0, 0.0], [0.0, 1.0]],
    "pair": [[1.0, 0.0], [0.0, np.exp(5e-5j)]],
    "jordan": [[1.0, 1e-3], [0.0, 1.0]],
}


def cluster_var1(shape):
    """C_0..C_3 of the q = 2 VAR(1) with A = (1 - 1e-3) e^{0.3i} times a
    CLUSTERS shape: a double pole where den has a 2-dimensional kernel
    ("double"), two poles 5e-5 apart ("pair"), or a second-order pole
    ("jordan"), all about 1e-3 outside the circle."""
    a = (1.0 - 1e-3) * np.exp(0.3j) * np.array(CLUSTERS[shape])
    noise = np.array([[1.0, 0.3], [0.3, 1.0]], dtype=complex)
    # Lyapunov equation Sigma = A Sigma A* + noise, vectorised
    sigma = np.linalg.solve(np.eye(4) - np.kron(a, a.conj()), noise.ravel())
    coeffs = [sigma.reshape(2, 2)]
    for _ in range(3):
        coeffs.append(a @ coeffs[-1])
    return HermSeq(coeffs)


def brute_force_nodes(rho):
    # the pole of a VAR(1) with spectral radius rho sits at 1/rho
    return 1 << int(np.ceil(np.log2(80.0 / (1.0 / rho - 1.0))))


class TestSubtractedPoles:
    """Near-circle poles: the closed form against the brute-force rule, and
    the quadrature oracle with closed-form pole parts."""

    ORDERS = range(-2, 8)

    def check(self, coeffs, rho):
        seq = HermSeq(coeffs)
        sm = central_measure(seq)
        want = brute_force_coeffs(sm, self.ORDERS, brute_force_nodes(rho))
        tol = 1e-10 * (1.0 + spec_norm(seq.coeff(0)))
        for j, w in zip(self.ORDERS, want):
            assert spec_norm(fourier_coeff(sm, j) - w) < tol

    @pytest.mark.parametrize("q", [1, 2])
    @pytest.mark.parametrize("eps", [1e-2, 1e-3])
    def test_var1(self, q, eps):
        rho = 1.0 - eps
        self.check(var1_coeffs(np.random.default_rng(7), q, rho, 6), rho)

    def test_atomic_plus_var1(self):
        rho = 1.0 - 1e-3
        rng = np.random.default_rng(8)
        atoms, _ = atomic_coeffs(rng, 1, 6, n_atoms=2)
        coeffs = direct_sum(atoms, var1_coeffs(rng, 1, rho, 6))
        self.check(coeffs, rho)

    @pytest.mark.parametrize("shape", sorted(CLUSTERS))
    def test_pole_cluster_keeps_brute_force_grid(self, shape, grid_sizes):
        # the quadrature oracle: two poles closer than the cluster radius,
        # or a second-order pole, are not subtracted, and the grid resolves
        # them with about 40 / d nodes.  A double pole split by roundoff,
        # where den has a 2-dimensional kernel, is one simple pole with a
        # rank-2 residue: it is subtracted and the grid stays small.  The
        # closed form recovers all three to roundoff
        seq = cluster_var1(shape)
        sm = central_measure(seq)
        report = verify_recovery(sm, seq, tol=1e-8)
        assert report.passed and report.relative_error <= 1e-13
        got = quadrature_coeffs(sm, range(len(seq)))
        err = max(spec_norm(g - c) for g, c in zip(got, seq.coeffs))
        assert err <= 1e-8
        (nodes,) = grid_sizes
        if shape == "double":
            assert nodes <= 128
            assert err <= 1e-13 * spec_norm(seq.coeff(0))
        else:
            assert nodes > 4096

    EXACT_POLE = 1.0 + 2.0**-20

    def test_pole_where_den_is_exactly_singular(self):
        # Phi = 1/(p - z) has re Phi > 0 on the circle, and den(p) = 0
        # exactly at the machine number p
        p = self.EXACT_POLE
        cq = CaratheodoryQuotient(MatPoly([[[1.0]]]), MatPoly([[[p]], [[-1.0]]]))
        sm = SpectralMeasure(1, (), cq)
        seq = scalar_seq(1.0 / p, *[0.5 / p ** (j + 1) for j in range(1, 4)])
        report = verify_recovery(sm, seq, tol=1e-10)
        assert report.passed

    def test_polish_stops_at_singular_den(self):
        den = MatPoly([[[self.EXACT_POLE]], [[-1.0]]])
        polished = _oracle._polish(den, _oracle.derivative(den), self.EXACT_POLE, 1)
        assert polished == self.EXACT_POLE

    def test_removable_singularity_on_the_circle(self, grid_sizes):
        # num = den = 1 - z: det den vanishes at z = 1, the residue there is
        # zero and no atom claims the zero.  A zero on the circle is not
        # certified, so the report fails and names it, and the density
        # recovers nothing.  The quadrature oracle counts a zero at distance 0 from
        # the circle as 40 / NEAR_CIRCLE_NODE_CAP away, so orders up to n = 2
        # take n + NEAR_CIRCLE_NODE_CAP nodes
        p = MatPoly([[[1.0]], [[-1.0]]])
        cq = CaratheodoryQuotient(p, p)
        assert compute_atoms(cq) == ()
        sm = SpectralMeasure(1, (), cq)
        seq = scalar_seq(1.0, 0.0, 0.0)
        report = verify_recovery(sm, seq)
        assert not report.passed and report.errors_by_order == (1.0, 0.0, 0.0)
        assert report.cause.startswith("zero of det den at 1+0j")
        assert "not certified outside the closed disk" in report.cause
        with pytest.raises(ModelError, match="not certified"):
            fourier_coeff(sm, 1)
        with pytest.raises(ModelError, match="not certified"):
            herglotz_transform(sm, 0.5)
        got = quadrature_coeffs(sm, range(len(seq)))
        assert max(spec_norm(g - c) for g, c in zip(got, seq.coeffs)) <= 1e-8
        assert max(grid_sizes) == 2 + NEAR_CIRCLE_NODE_CAP

    @pytest.mark.parametrize("shape", ["pair", "jordan"])
    def test_high_orders_of_unsubtracted_poles(self, shape):
        # the Taylor recurrence runs to order j, and its roundoff stays at
        # roundoff level at any order; the reference is the plain trapezoid
        # rule on 2^19 nodes, every order from one FFT
        seq = cluster_var1(shape)
        sm = central_measure(seq)
        nodes = 1 << 19
        ang = TWO_PI * (np.arange(nodes) + 0.5) / nodes
        spec = np.fft.fft(sm.density_grid(ang).reshape(nodes, -1), axis=0)
        for j in (20000, 30000, 38000):
            want = (TWO_PI / nodes) * np.exp(-1j * j * ang[0]) * spec[j].reshape(2, 2)
            assert spec_norm(fourier_coeff(sm, j) - want) <= 1e-13 * spec_norm(seq.coeff(0))

    def test_herglotz_near_pole(self):
        seq = HermSeq(var1_coeffs(np.random.default_rng(7), 2, 1.0 - 1e-3, 6))
        sm = central_measure(seq)
        tol = 1e-10 * (1.0 + spec_norm(seq.coeff(0)))
        for z in (0.0, 0.5j, 0.99, -0.9 + 0.1j):
            assert spec_norm(herglotz_transform(sm, z) - phi_at(sm.quotient, z)) < tol


def transformed(sm, num_scale, phases):
    """The measure of sm with its quotient coefficients k multiplied by
    phases[k], and num also by num_scale."""
    cq = sm.quotient
    ph = phases[: cq.order + 1, None, None]
    cq = CaratheodoryQuotient(
        MatPoly(num_scale * ph * cq.num.coeffs), MatPoly(ph * cq.den.coeffs)
    )
    return SpectralMeasure(sm.q, sm.atoms, cq)


class TestNearEdgeMetamorphic:
    """Rotating and scaling a near-boundary q=2 VAR(1) leaves the quadrature
    oracle's grid alone and moves the recovery error exactly as it moves the
    data.

    The grid is checked from the transformed data.  The error is checked on
    the transformed measure, so the recovery alone is compared and not the
    roundoff of recomputing the quotient from rotated or scaled data.
    """

    COUNT = 8

    @pytest.fixture
    def coeffs(self):
        return var1_coeffs(np.random.default_rng(0), 2, 1.0 - 1e-3, self.COUNT)

    def recover(self, sm, coeffs, grid_sizes):
        # the oracle's grid for the orders of the data, and the error of the
        # closed-form recovery
        grid_sizes.clear()
        quadrature_coeffs(sm, range(len(coeffs)))
        report = verify_recovery(sm, HermSeq(coeffs))
        return grid_sizes[0], report.max_error

    def test_rotation(self, coeffs, grid_sizes):
        phases = np.exp(-0.7j * np.arange(self.COUNT))
        rot = [p * c for p, c in zip(phases, coeffs)]
        sm = central_measure(HermSeq(coeffs))
        nodes, err = self.recover(sm, coeffs, grid_sizes)
        assert self.recover(central_measure(HermSeq(rot)), rot, grid_sizes)[0] == nodes
        nodes_rot, err_rot = self.recover(transformed(sm, 1.0, phases), rot, grid_sizes)
        assert nodes_rot == nodes
        assert abs(err_rot - err) <= 1e-12 * spec_norm(coeffs[0])

    @pytest.mark.parametrize("s", [1e-6, 1e6])
    def test_scaling(self, s, coeffs, grid_sizes):
        scaled = [s * c for c in coeffs]
        sm = central_measure(HermSeq(coeffs))
        nodes, err = self.recover(sm, coeffs, grid_sizes)
        assert self.recover(central_measure(HermSeq(scaled)), scaled, grid_sizes)[0] == nodes
        ones = np.ones(self.COUNT)
        nodes_s, err_s = self.recover(transformed(sm, s, ones), scaled, grid_sizes)
        assert nodes_s == nodes
        assert abs(err_s - s * err) <= 1e-12 * s * spec_norm(coeffs[0])


class TestStructuralInvariances:
    def test_unitary_equivariance_of_density(self):
        seq = random_tpd_seq(RNG, 2, 2)
        u = random_unitary(RNG, 2)
        rot = conjugate_by_unitary(seq, u)
        sm, sm_rot = central_measure(seq), central_measure(rot)
        for ang in (0.7, 3.0):
            z = np.exp(1j * ang)
            lhs = u.conj().T @ density_at(sm, z) @ u
            assert np.allclose(lhs, density_at(sm_rot, z), atol=1e-9)

    def test_direct_sum_density_is_block_diagonal(self):
        a, _ = atomic_coeffs(RNG, 1, 3, n_atoms=1)
        b = trig_coeffs(RNG, 1, 3, deg=2)
        seq = HermSeq(direct_sum(a, b))
        sm = central_measure(seq)
        sm_b = central_measure(HermSeq(b))
        z = np.exp(1.9j)
        d = density_at(sm, z)
        assert abs(d[0, 1]) < 1e-9
        assert np.isclose(d[1, 1], density_at(sm_b, z)[0, 0], atol=1e-8)

    def test_rank_drop_mass_sums_to_head(self):
        # fully degenerate data: all mass sits in the atoms
        coeffs, atoms = atomic_coeffs(RNG, 1, 4, n_atoms=3)
        seq = HermSeq(coeffs)
        sm = central_measure(seq)
        assert len(sm.atoms) == 3
        total = sum(a.weight for a in sm.atoms)
        assert np.allclose(total, seq.coeff(0), atol=1e-7 * (1 + spec_norm(seq.coeff(0))))
        angles = np.linspace(0.0, TWO_PI, 240, endpoint=False) + 0.013
        dens = sm.density_grid(angles)
        trace_integral = np.trace(dens, axis1=1, axis2=2).real.mean() * TWO_PI
        assert abs(trace_integral) < 1e-6

    @pytest.mark.parametrize("rho", [0.5, 1.0 - 1e-12])
    def test_route_certificate_and_atoms_are_scale_covariant(self, rho):
        # AR(1) C_j = 2^k rho^j, n = 3, at scales where ||re T_n||_F and
        # the Stein certificate's norms would underflow (k = -1000, -560)
        # or overflow (400, 530) if read off the data: both read a copy
        # scaled by a power of two, so every scale takes the route of unit
        # scale, with its Stein delta bit for bit and its atoms times 2^k.
        # rho = 0.5 is full rank, central and certified; 1 - 1e-12 is
        # singular at the cutoff, one atom at 1 and no quotient
        def run(k):
            seq = scalar_seq(*[np.ldexp(rho**j, k) for j in range(4)])
            entry = _enter(toeplitz_matrix(seq, 3), 1, DEFAULT_PSD_TOL, DEFAULT_RANK_RTOL)
            delta = _stein_delta(entry.t[:-1, :-1], entry.w, entry.cleared) if entry.full_rank else None
            return (entry.cleared, entry.full_rank, entry.rank, delta), central_measure(seq)

        route, unit = run(0)
        assert route[:2] == (rho == 0.5,) * 2 and len(unit.atoms) == (rho != 0.5)
        assert (unit.quotient is None) == (rho != 0.5)
        for k in (-1000, -560, 400, 530):
            got, sm = run(k)
            assert got == route, k
            assert (sm.quotient is None) == (unit.quotient is None), k
            if sm.quotient is not None:
                assert sm.quotient._certified == unit.quotient._certified == DISK_MARGIN, k
            assert len(sm.atoms) == len(unit.atoms), k
            for a, b in zip(sm.atoms, unit.atoms):
                assert abs(a.point - b.point) <= 1e-12, k
                assert spec_norm(a.weight / 2.0**k - b.weight) <= 1e-12 * spec_norm(b.weight), k

    @pytest.mark.parametrize("rho", [0.5, 1.0 - 1e-12])
    def test_subnormal_data_takes_the_unit_scale_route(self, rho):
        # AR(1) C_j = 2^-1060 rho^j, n = 3: subnormal, with 14 bits left, so
        # (1 - 1e-12)^j rounds to 1.  The predictor reads T_{n-1} and Y_n
        # scaled by a power of two, where no pivot or singular value is
        # subnormal: rho = 0.5 takes the LU route to a central quotient,
        # with no "non-finite coefficients" error, and 1 - 1e-12 the SVD
        # route to one atom, with no overflow warning (an error in this
        # suite); both as at unit scale, and both verify
        def run(k):
            seq = scalar_seq(*[np.ldexp(rho**j, k) for j in range(4)])
            entry = _enter(toeplitz_matrix(seq, 3), 1, DEFAULT_PSD_TOL, DEFAULT_RANK_RTOL)
            sm = central_measure(seq)
            assert verify_recovery(sm, seq).passed, k
            return entry.cleared, entry.full_rank, entry.rank, len(sm.atoms), sm.quotient is None

        assert run(-1060) == run(0) == ((True, True, 4, 0, False) if rho == 0.5 else (False, False, 1, 1, True))

    def test_shorter_prefix_same_measure(self):
        # (1, 1, 1) is the central continuation of (1, 1): same measure
        sm_long = central_measure(scalar_seq(1.0, 1.0, 1.0))
        sm_short = central_measure(scalar_seq(1.0, 1.0))
        assert len(sm_long.atoms) == len(sm_short.atoms) == 1
        assert np.isclose(sm_long.atoms[0].point, sm_short.atoms[0].point, atol=1e-10)
        assert np.allclose(sm_long.atoms[0].weight, sm_short.atoms[0].weight, atol=1e-9)


class TestHerglotz:
    def test_matches_quotient_inside_disk(self):
        seq = random_tpd_seq(RNG, 2, 2)
        sm = central_measure(seq)
        for z in (0.0, 0.3 + 0.4j, -0.6j):
            assert np.allclose(
                herglotz_transform(sm, z), phi_at(sm.quotient, z),
                atol=1e-8 * (1 + spec_norm(seq.coeff(0))),
            )

    def test_mixed_measure(self):
        coeffs, _ = mixed_coeffs(RNG, 1, 3, n_atoms=1, deg=1)
        seq = HermSeq(coeffs)
        sm = central_measure(seq)
        z = 0.25 - 0.35j
        assert np.allclose(
            herglotz_transform(sm, z), phi_at(sm.quotient, z),
            atol=1e-7 * (1 + spec_norm(seq.coeff(0))),
        )

    def test_outside_disk_rejected(self):
        sm = central_measure(scalar_seq(1.0))
        with pytest.raises(InvalidInputError):
            herglotz_transform(sm, 1.2)

    @pytest.mark.parametrize("r", [0.99, 0.999, 0.9995, 0.9999, 1.0 - 1e-6])
    @pytest.mark.parametrize(
        "kind", ["tpd", "var1", "var1-rho-1e-3", "var1-rho-1e-5", "pair", "jordan"]
    )
    def test_near_the_circle(self, kind, r):
        # the smooth density's orders, summed as c_0 + 2 sum c_j z^j, need no
        # kernel grid, so nothing depends on |z|: a Poisson-kernel quadrature
        # would need about 40 / log(1/|z|) nodes, 4e7 at r = 1 - 1e-6.  The
        # VAR(1) poles 1e-3 and 1e-5 outside the circle are subtracted; the
        # "pair" and "jordan" clusters are not
        rho = {"var1": 0.5, "var1-rho-1e-3": 1.0 - 1e-3, "var1-rho-1e-5": 1.0 - 1e-5}
        if kind == "tpd":
            seq = random_tpd_seq(np.random.default_rng(0), 2, 6)
        elif kind in rho:
            seq = HermSeq(var1_coeffs(np.random.default_rng(1), 2, rho[kind], 6))
        else:
            seq = cluster_var1(kind)
        sm = central_measure(seq)
        z = r * np.exp(0.7j)
        err = spec_norm(herglotz_transform(sm, z) - phi_at(sm.quotient, z))
        assert err <= 1e-13 * spec_norm(seq.coeff(0))


class TestArSpectrum:
    def test_consistent_tail_no_warning(self):
        import warnings

        seq = scalar_seq(1.0, 0.5)
        ext = central_extend(seq, 4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sm = ar_spectrum(ext, order=1)
        assert sm.quotient.order == 1

    def test_mismatched_tail_warns(self):
        seq = scalar_seq(1.0, 1.0, 0.2)
        with pytest.warns(ArOrderMismatchWarning, match=r"\[2\]"):
            sm = ar_spectrum(seq, order=1)
        assert len(sm.atoms) == 1

    def test_order_zero(self):
        with pytest.warns(ArOrderMismatchWarning):
            sm = ar_spectrum(scalar_seq(2.0, 0.3), order=0)
        assert np.allclose(density_at(sm, 1.0), [[2.0 / TWO_PI]], atol=1e-10)

    def test_bad_order_rejected(self):
        with pytest.raises(InvalidInputError):
            ar_spectrum(scalar_seq(1.0), order=1)

    def test_frozen_prefix_continues_with_its_predictor(self):
        import warnings

        # two atoms of rank 2 are frozen from order 2 on: the continuation
        # of the order-3 prefix is the stored tail
        coeffs, _ = atomic_coeffs(np.random.default_rng(5), 2, 8, n_atoms=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sm = ar_spectrum(HermSeq(coeffs), order=3)
        assert sm.quotient is None and len(sm.atoms) == 2
        with pytest.warns(ArOrderMismatchWarning, match=r"\[5\]"):
            ar_spectrum(HermSeq(coeffs[:5] + [0.5 * coeffs[5]]), order=3)

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("kind", ["tpd", "atomic"])
    def test_extension_and_measure_share_one_predictor(self, kind, seed):
        # C_0 off Hermitian by 1e-12, within psd_tol: central_extend and the
        # continuation ar_spectrum compares against both solve from re T_n,
        # so they agree bit for bit on the LU and the SVD route
        rng = np.random.default_rng(seed)
        if kind == "tpd":
            coeffs = list(random_tpd_seq(rng, 2, 4).coeffs)
        else:
            coeffs = atomic_coeffs(rng, 2, 5, 2)[0]
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        coeffs[0] = coeffs[0] + 1e-12 * (g - g.conj().T)
        seq = HermSeq(coeffs)
        _, entry = _central_measure(seq, DEFAULT_PSD_TOL, DEFAULT_RANK_RTOL, DEFAULT_ROOT_TOL)
        assert entry.full_rank == (kind == "tpd")
        want = _continue(seq, entry.w, 3 * len(seq), DEFAULT_PSD_TOL, entry.c0_norm)
        got = central_extend(seq, 3 * len(seq))
        assert np.array_equal(np.array(got.coeffs), np.array(want.coeffs))
