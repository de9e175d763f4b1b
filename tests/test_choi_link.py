import numpy as np
import pytest

from proctomo.choi_link import (
    CombDirection,
    bell_matrix,
    choi_of_kraus,
    choi_of_unitary,
    link_product,
    unvec_matrix,
    validate_comb,
    vec_matrix,
)
from proctomo.errors import (
    DimMismatchOnSharedLabel,
    NotUnitary,
    ShapeMismatch,
    TraceExceedsOne,
)
from proctomo.op_basis import PAULI_X, PAULI_Z, haar_state, haar_unitary
from proctomo.tensor_core import (
    LabeledOperator,
    Role,
    SpaceLabel,
    permute_systems,
    tensor,
)

from conftest import random_density

LI = SpaceLabel(1, Role.INPUT, 2)
LO = SpaceLabel(1, Role.OUTPUT, 2)
L2I = SpaceLabel(2, Role.INPUT, 2)
L2O = SpaceLabel(2, Role.OUTPUT, 2)


def test_vec_identity():
    assert np.allclose(vec_matrix(np.eye(2)), [1, 0, 0, 1])


def test_vec_x():
    assert np.allclose(vec_matrix(PAULI_X), [0, 1, 1, 0])


def test_vec_inner_product_is_hs(rng):
    for _ in range(5):
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        lhs = np.vdot(vec_matrix(a), vec_matrix(b))
        assert abs(lhs - np.trace(a.conj().T @ b)) < 1e-12


def test_vec_unvec_roundtrip(rng):
    m = rng.standard_normal((2, 3))
    assert np.array_equal(unvec_matrix(vec_matrix(m), (2, 3)), m)


def test_choi_of_identity_is_bell():
    ch = choi_of_unitary(np.eye(2))
    assert np.allclose(ch.mat, bell_matrix(2))


def test_choi_of_x_projector():
    ch = choi_of_unitary(PAULI_X)
    v = np.array([0, 1, 1, 0], dtype=complex)
    assert np.allclose(ch.mat, np.outer(v, v))


def test_choi_partial_traces_identity(rng):
    from proctomo.tensor_core import partial_trace
    for _ in range(10):
        u = haar_unitary(3, rng)
        ch = choi_of_unitary(u, [SpaceLabel(1, Role.INPUT, 3)], [SpaceLabel(1, Role.OUTPUT, 3)])
        assert np.max(np.abs(partial_trace(ch, [(1, Role.OUTPUT)]).mat - np.eye(3))) < 1e-10
        assert np.max(np.abs(partial_trace(ch, [(1, Role.INPUT)]).mat - np.eye(3))) < 1e-10


def test_choi_of_unitary_rejects_nonunitary():
    with pytest.raises(NotUnitary):
        choi_of_unitary(np.diag([1.0, 0.5]))


def test_choi_of_kraus_measure_prepare(rng):
    a = haar_state(2, rng)
    psi = haar_state(2, rng)
    ch = choi_of_kraus([np.outer(psi, a.conj())])
    target = np.kron(np.outer(a, a.conj()).T, np.outer(psi, psi.conj()))
    assert np.max(np.abs(ch.mat - target)) < 1e-12


def test_choi_of_kraus_mixed_pauli():
    ch = choi_of_kraus([np.eye(2) / np.sqrt(2), PAULI_X / np.sqrt(2)])
    vx = np.array([0, 1, 1, 0], dtype=complex)
    target = (bell_matrix(2) + np.outer(vx, vx)) / 2
    assert np.allclose(ch.mat, target)


def test_choi_of_kraus_single_identity():
    ch = choi_of_kraus([np.eye(2)])
    assert np.allclose(ch.mat, bell_matrix(2))


def test_choi_of_kraus_errors():
    with pytest.raises(ShapeMismatch):
        choi_of_kraus([np.eye(2), np.eye(3)])
    with pytest.raises(TraceExceedsOne):
        choi_of_kraus([np.eye(2), np.eye(2)])


def test_apply_channel_identity(rng):
    rho = LabeledOperator((LI,), random_density(rng, 2))
    out = link_product(rho, choi_of_unitary(np.eye(2)))
    assert np.allclose(out.mat, rho.mat)


def test_apply_channel_x():
    rho = LabeledOperator((LI,), np.diag([1.0, 0.0]))
    out = link_product(rho, choi_of_unitary(PAULI_X))
    assert np.allclose(out.mat, np.diag([0.0, 1.0]))


def test_apply_channel_matches_kraus(rng):
    for _ in range(50):
        z = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        q, _ = np.linalg.qr(z)
        kraus = [q[:2, :], q[2:, :]]
        ch = choi_of_kraus(kraus)
        rho_m = random_density(rng, 2)
        out = link_product(LabeledOperator((LI,), rho_m), ch)
        direct = sum(k @ rho_m @ k.conj().T for k in kraus)
        assert np.max(np.abs(out.mat - direct)) < 1e-12


def test_link_disjoint_is_tensor(rng):
    a = LabeledOperator((LI,), rng.standard_normal((2, 2)))
    b = LabeledOperator((L2I,), rng.standard_normal((2, 2)))
    assert np.allclose(link_product(a, b).mat, tensor(a, b).mat)


def test_link_composes_unitaries(rng):
    for _ in range(10):
        u, v = haar_unitary(2, rng), haar_unitary(2, rng)
        cu = choi_of_unitary(u, [LI], [LO])
        cv = choi_of_unitary(v, [LO], [L2I])
        composed = link_product(cu, cv)
        direct = choi_of_unitary(v @ u, [LI], [L2I])
        assert np.max(np.abs(composed.mat - direct.mat)) < 1e-12


def test_link_state_evolution(rng):
    for _ in range(10):
        u = haar_unitary(2, rng)
        rho_m = random_density(rng, 2)
        out = link_product(LabeledOperator((LI,), rho_m), choi_of_unitary(u, [LI], [LO]))
        assert np.max(np.abs(out.mat - u @ rho_m @ u.conj().T)) < 1e-12


def test_link_dim_mismatch():
    a = LabeledOperator((LI,), np.eye(2))
    b = LabeledOperator((SpaceLabel(1, Role.INPUT, 3),), np.eye(3))
    with pytest.raises(DimMismatchOnSharedLabel):
        link_product(a, b)


def test_link_preserves_hermiticity_and_positivity(rng):
    worst = 0.0
    for _ in range(100):
        ma = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        mb = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        a = LabeledOperator((LI, LO), ma @ ma.conj().T)
        b = LabeledOperator((LO, L2I), mb @ mb.conj().T)
        out = link_product(a, b)
        assert np.max(np.abs(out.mat - out.mat.conj().T)) < 1e-10
        worst = min(worst, float(np.linalg.eigvalsh(out.mat)[0]))
    assert worst >= -1e-10


def test_link_associative(rng):
    for _ in range(10):
        a = LabeledOperator((LI, LO), rng.standard_normal((4, 4)))
        b = LabeledOperator((LO, L2I), rng.standard_normal((4, 4)))
        c = LabeledOperator((L2I, L2O), rng.standard_normal((4, 4)))
        left = link_product(link_product(a, b), c)
        right = link_product(a, link_product(b, c))
        assert np.max(np.abs(left.mat - right.mat)) < 1e-10


def test_link_commutes_up_to_permutation(rng):
    a = LabeledOperator((LI, LO), rng.standard_normal((4, 4)))
    b = LabeledOperator((LO, L2I), rng.standard_normal((4, 4)))
    ab = link_product(a, b)
    ba = permute_systems(link_product(b, a), ab.labels)
    assert np.max(np.abs(ab.mat - ba.mat)) < 1e-12


def test_validate_comb_cptp_tester(rng):
    z = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    q, _ = np.linalg.qr(z)
    ch = choi_of_kraus([q[:2, :], q[2:, :]])
    report = validate_comb(ch, direction=CombDirection.TESTER)
    assert report.passed


def test_validate_comb_detects_perturbation():
    w = tensor(LabeledOperator((SpaceLabel(0, Role.OUTPUT, 2), SpaceLabel(1, Role.INPUT, 2)),
                               bell_matrix(2)),
               LabeledOperator((SpaceLabel(1, Role.OUTPUT, 2), SpaceLabel(2, Role.INPUT, 2)),
                               bell_matrix(2)))
    eps = 1e-3
    sz_pert = np.kron(PAULI_Z, np.eye(8)) * eps
    w_bad = LabeledOperator(w.labels, w.mat + sz_pert)
    report = validate_comb(w_bad, direction=CombDirection.PROCESS)
    assert not report.passed
    # the sigma_z direction survives every trace level, scaled by traced dims
    assert 0.5 * eps <= report.max_violation <= 10 * eps


def test_validate_comb_report_shape():
    w = tensor(LabeledOperator((SpaceLabel(0, Role.OUTPUT, 2), SpaceLabel(1, Role.INPUT, 2)),
                               bell_matrix(2)),
               LabeledOperator((SpaceLabel(1, Role.OUTPUT, 2), SpaceLabel(2, Role.INPUT, 2)),
                               bell_matrix(2)))
    report = validate_comb(w, direction=CombDirection.PROCESS)
    assert report.passed
    assert len(report.levels) == 2
    summary = report.summary()
    assert summary["passed"] and len(summary["levels"]) == 2
