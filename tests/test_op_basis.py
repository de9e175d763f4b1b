import ast
import itertools
import pathlib

import numpy as np
import pytest

import proctomo
from proctomo.choi_link import choi_of_unitary
from proctomo.errors import EmptyFamily, IndexOutOfRange
from proctomo.op_basis import (
    Normalization,
    PAULI_I,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    choi_weyl_coefficient,
    clifford_design_qubit,
    design_twirl2,
    haar_twirl2,
    haar_unitary,
    kpq_operator,
    measure_prepare_chois,
    moment_matrix,
    span_bound_reports,
    span_dimension,
    swap_operator,
    weyl_basis,
    weyl_product_index,
)
from proctomo.tensor_core import LabeledOperator, permute_systems

PAULIS = (PAULI_I, PAULI_X, PAULI_Y, PAULI_Z)


def test_weyl_d2_elements():
    basis = weyl_basis(2, Normalization.WEYL_UNITARY)
    assert np.allclose(basis[0], PAULI_I)
    assert np.allclose(basis[1], PAULI_Z)
    assert np.allclose(basis[2], PAULI_X)
    # XZ = -iY
    assert np.allclose(basis[3], -1j * PAULI_Y)


def test_weyl_basis_is_one_cached_read_only_array():
    basis = weyl_basis(3)
    assert basis.shape == (9, 3, 3)
    assert weyl_basis(3) is basis
    with pytest.raises(ValueError):
        basis[1, 0, 0] = 0.0
    with pytest.raises(ValueError):
        basis[4] *= 2


def test_weyl_orthogonality_d3():
    basis = weyl_basis(3, Normalization.WEYL_UNITARY)
    for mu in range(9):
        for nu in range(9):
            ip = np.trace(basis[mu].conj().T @ basis[nu])
            assert abs(ip - (3.0 if mu == nu else 0.0)) < 1e-12


def test_weyl_hs_normalization():
    basis = weyl_basis(2, Normalization.HS_ORTHONORMAL)
    for mu in range(4):
        for nu in range(4):
            ip = np.trace(basis[mu].conj().T @ basis[nu])
            assert abs(ip - (1.0 if mu == nu else 0.0)) < 1e-12
    assert np.allclose(basis[0], PAULI_I / np.sqrt(2))


def test_weyl_products_close_up_to_phase():
    basis = weyl_basis(2, Normalization.WEYL_UNITARY)
    for mu in range(4):
        for nu in range(4):
            lam, phase = weyl_product_index(2, mu, nu)
            prod = basis[mu] @ basis[nu].conj().T
            assert abs(abs(phase) - 1.0) < 1e-12
            assert np.max(np.abs(prod - phase * basis[lam])) < 1e-12


def test_weyl_unitarity():
    for d in (2, 3):
        basis = weyl_basis(d, Normalization.WEYL_UNITARY)
        for mu in range(d * d):
            m = basis[mu]
            assert np.max(np.abs(m.conj().T @ m - np.eye(d))) < 1e-12


def test_clifford_cardinality():
    assert len(clifford_design_qubit()) == 24


def test_package_has_no_assert_statements():
    """Checks must raise named errors: asserts vanish under python -O."""
    src = pathlib.Path(proctomo.__file__).parent
    found = [f"{path.name}:{node.lineno}" for path in sorted(src.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_clifford_permutes_paulis():
    design = clifford_design_qubit()
    paulis = [PAULI_X, PAULI_Y, PAULI_Z]
    for u in design:
        for p in paulis:
            conj = u @ p @ u.conj().T
            hits = [np.max(np.abs(conj - s * q)) < 1e-9
                    for q in paulis for s in (1, -1)]
            assert any(hits)


def test_clifford_is_2design():
    design = clifford_design_qubit()
    zz = np.kron(PAULI_Z, PAULI_Z)
    assert np.max(np.abs(design_twirl2(zz, design) - haar_twirl2(zz))) < 1e-12


def test_haar_twirl_identity():
    assert np.allclose(haar_twirl2(np.eye(4)), np.eye(4))


def test_haar_twirl_traceless_pairs():
    # twirl of sigma_q (x) sigma_j is Tr[F s_q (x) s_j] (dF - I) / (d(d^2-1))
    for d in (2, 3):
        basis = weyl_basis(d, Normalization.HS_ORTHONORMAL)
        f = swap_operator(d)
        for q in range(1, d * d):
            for j in range(1, d * d):
                x = np.kron(basis[q], basis[j])
                expected = (np.trace(f @ x) / (d * (d * d - 1))) * (d * f - np.eye(d * d))
                assert np.max(np.abs(haar_twirl2(x) - expected)) < 1e-12


def test_haar_twirl_matches_design_average(rng):
    design = clifford_design_qubit()
    for _ in range(20):
        x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert np.max(np.abs(haar_twirl2(x) - design_twirl2(x, design))) < 1e-10


def test_kpq_d2_diagonal():
    basis = weyl_basis(2, Normalization.HS_ORTHONORMAL)
    k11 = kpq_operator(1, 1, design=clifford_design_qubit(), basis=basis)
    target = np.kron(basis[1].T, basis[1])
    assert np.max(np.abs(k11.mat - target)) < 1e-10


def test_kpq_design_and_analytic_agree():
    basis = weyl_basis(2, Normalization.HS_ORTHONORMAL)
    design = clifford_design_qubit()
    for p in range(1, 4):
        for q in range(1, 4):
            kd = kpq_operator(p, q, design=design, basis=basis)
            ka = kpq_operator(p, q, basis=basis)
            target = np.kron(basis[p].T, basis[q])
            assert np.max(np.abs(kd.mat - target)) < 1e-10
            assert np.max(np.abs(ka.mat - kd.mat)) < 1e-10


def test_kpq_rejects_identity_sector():
    with pytest.raises(IndexOutOfRange):
        kpq_operator(0, 1, basis=weyl_basis(2, Normalization.HS_ORTHONORMAL))


def test_moment_matrix_delta():
    basis = weyl_basis(2, Normalization.HS_ORTHONORMAL)
    m = moment_matrix(clifford_design_qubit(), basis)
    for p, q, i, j in itertools.product(range(3), repeat=4):
        expected = 1.0 if (p == i and q == j) else 0.0
        assert abs(m[p, q, i, j] - expected) < 1e-10


def test_coefficient_one_design_average_vanishes():
    basis = weyl_basis(2, Normalization.HS_ORTHONORMAL)
    design = clifford_design_qubit()
    for p in range(1, 4):
        for q in range(1, 4):
            avg = np.mean([choi_weyl_coefficient(choi_of_unitary(u), p, q, basis)
                           for u in design])
            assert abs(avg) < 1e-12


def test_unitary_choi_has_no_boundary_components(rng):
    basis = weyl_basis(2, Normalization.HS_ORTHONORMAL)
    for _ in range(100):
        ch = choi_of_unitary(haar_unitary(2, rng))
        for i in range(1, 4):
            c0i = choi_weyl_coefficient(ch, 0, i, basis)
            ci0 = choi_weyl_coefficient(ch, i, 0, basis)
            assert abs(c0i) < 1e-12
            assert abs(ci0) < 1e-12


def test_span_dimension_clifford_chois():
    fam = [choi_of_unitary(u) for u in clifford_design_qubit()]
    assert span_dimension(fam) == 10


def test_span_dimension_rescale_and_permute_invariant(rng):
    fam = measure_prepare_chois(2)
    scaled = [LabeledOperator(f.labels, 3.7 * f.mat) for f in fam]
    assert span_dimension(fam) == span_dimension(scaled) == 16
    flipped = [permute_systems(f, (f.labels[1], f.labels[0])) for f in fam]
    assert span_dimension(flipped) == 16


def test_span_dimension_hermitian_real_complex_agree(rng):
    fam = measure_prepare_chois(2)
    rows = np.stack([f.mat.reshape(-1) for f in fam])
    real_embed = np.hstack([rows.real, rows.imag])
    s = np.linalg.svd(real_embed, compute_uv=False)
    real_rank = int(np.count_nonzero(s > 1e-8 * s[0]))
    assert real_rank == span_dimension(fam)


def test_span_dimension_empty():
    with pytest.raises(EmptyFamily):
        span_dimension([])


def test_random_cptp_span(rng):
    from proctomo.op_basis import random_cptp_choi
    fam = [random_cptp_choi(2, rng) for _ in range(200)]
    assert span_dimension(fam) == 13


@pytest.mark.parametrize("d,expected", [(2, (10, 13, 16)), (3, (65, 73, 81))])
def test_span_bound_reports(d, expected):
    report = span_bound_reports(d)
    assert tuple(r.measured for r in report.rows) == expected
    assert tuple(r.formula for r in report.rows) == expected
    assert report.all_match
