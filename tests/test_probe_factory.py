import itertools

import numpy as np
import pytest

from proctomo import probe_factory
from proctomo.choi_link import (
    CombDirection,
    choi_of_kraus,
    choi_of_unitary,
    link_product,
    validate_comb,
    vec_matrix,
)
from proctomo.errors import (
    BadCut,
    InvalidSetting,
    MissingSample,
    NotNormalized,
    OutOfBudget,
    SingularValueExceedsOne,
)
from proctomo.op_basis import (
    Normalization,
    PAULI_X,
    haar_state,
    haar_unitary,
    span_dimension,
    tomography_state_vectors,
    weyl_basis,
    weyl_product_index,
)
from proctomo.probe_factory import (
    KET0,
    QUBIT16_UNITARIES,
    THETA_GRID,
    AncillaProbeSetting,
    ProbeFamily,
    ancilla_block,
    ancilla_superinstrument,
    block_unitary,
    measure_prepare_joint_unitary,
    lab_labels,
    operator_schmidt_rank,
    phase_filter,
    phase_gate,
    measure_prepare_instrument,
    weyl_block_spec,
    weyl_ancilla_family,
    weyl_isolated_term,
    weyl_lab_unitaries,
    qubit16_family,
    unitary_only_family,
)
from proctomo.tensor_core import LabeledOperator, Role, SpaceLabel, canonicalize, tensor

from conftest import random_hermitian


def random_block_spec(rng, d=2):
    k00 = rng.uniform(0, 1) * haar_unitary(d, rng)
    return k00, haar_unitary(d, rng), haar_unitary(d, rng)


# ---------------------------------------------------------------------------
# Block unitaries
# ---------------------------------------------------------------------------

def test_block_unitary_zero_block_is_ancilla_flip():
    u = block_unitary(np.zeros((2, 2)), np.eye(2), np.eye(2))
    assert np.allclose(u, np.kron(np.eye(2), PAULI_X))


def test_block_unitary_weyl_choice_first_lab():
    basis = weyl_basis(2, Normalization.WEYL_UNITARY)
    for mu in range(4):
        for nu in range(4):
            u = block_unitary(*weyl_block_spec(2, "first", mu, nu))
            assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-10
            assert np.allclose(ancilla_block(u, 0, 0), basis[nu] / np.sqrt(2))
            assert np.allclose(ancilla_block(u, 1, 0), basis[mu] / np.sqrt(2))


def test_block_unitary_k11_identity(rng):
    for _ in range(20):
        k00, v, w = random_block_spec(rng)
        u = block_unitary(k00, v, w)
        assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-10
        expected = -w @ k00.conj().T @ v
        assert np.max(np.abs(ancilla_block(u, 1, 1) - expected)) < 1e-10


def test_block_unitary_rejects_large_singular_value():
    with pytest.raises(SingularValueExceedsOne):
        block_unitary(1.5 * np.eye(2), np.eye(2), np.eye(2))


def test_extract_blocks_identity():
    assert np.allclose(ancilla_block(np.eye(4), 0, 0), np.eye(2))
    assert np.allclose(ancilla_block(np.eye(4), 1, 1), np.eye(2))
    assert np.allclose(ancilla_block(np.eye(4), 0, 1), 0)
    assert np.allclose(ancilla_block(np.eye(4), 1, 0), 0)


def test_blocks_column_isometry(rng):
    for _ in range(10):
        u = haar_unitary(4, rng)
        b00, b10 = ancilla_block(u, 0, 0), ancilla_block(u, 1, 0)
        gram = b00.conj().T @ b00 + b10.conj().T @ b10
        assert np.max(np.abs(gram - np.eye(2))) < 1e-12


def test_block_roundtrip(rng):
    for _ in range(50):
        k00, v, w = random_block_spec(rng)
        u = block_unitary(k00, v, w)
        assert np.max(np.abs(ancilla_block(u, 0, 0) - k00)) < 1e-12


# ---------------------------------------------------------------------------
# Theorem-1 single-lab circuits and fixed qubit families
# ---------------------------------------------------------------------------

def test_measure_prepare_zero_states():
    e0, _ = measure_prepare_instrument(np.array([1, 0]), np.array([1, 0]))
    expected = np.zeros((4, 4))
    expected[0, 0] = 1.0
    assert np.allclose(e0.choi.mat, expected)


def test_measure_prepare_real_effect():
    plus = np.array([1, 1]) / np.sqrt(2)
    e0, _ = measure_prepare_instrument(plus, np.array([1, 0]))
    target = np.kron(np.outer(plus, plus), np.diag([1.0, 0.0]))
    assert np.allclose(e0.choi.mat, target)


def test_measure_prepare_choi_form(rng):
    for _ in range(20):
        a, psi = haar_state(2, rng), haar_state(2, rng)
        e0, e1 = measure_prepare_instrument(a, psi)
        target = np.kron(np.outer(a, a.conj()).T, np.outer(psi, psi.conj()))
        assert np.max(np.abs(e0.choi.mat - target)) < 1e-10
        total = LabeledOperator(e0.choi.labels, e0.choi.mat + e1.choi.mat)
        assert validate_comb(total, direction=CombDirection.TESTER).passed


def test_measure_prepare_rejects_unnormalized():
    with pytest.raises(NotNormalized):
        measure_prepare_instrument(np.array([1, 1]), np.array([1, 0]))


def test_measure_prepare_matches_ancilla_superinstrument(rng):
    from proctomo.probe_factory import measure_prepare_joint_unitary
    a, psi = haar_state(2, rng), haar_state(2, rng)
    u = measure_prepare_joint_unitary(a, psi)
    chois = ancilla_superinstrument(AncillaProbeSetting(KET0, (u,), ()))
    for choi, e in zip(chois, measure_prepare_instrument(a, psi), strict=True):
        assert np.max(np.abs(choi.mat - e.choi.mat)) < 1e-12


def test_qubit16_counts_and_span(qubit16):
    assert len(qubit16) == 16
    assert span_dimension(qubit16.chois()) == 16
    assert len(qubit16.settings()) == 13


def test_unitary_only_span():
    fam = unitary_only_family()
    assert len(fam) == 10
    assert span_dimension(fam.chois()) == 10


def test_settings_are_runs_of_consecutive_elements(qubit16):
    elems = qubit16.elements
    assert list(qubit16.settings()) == list(dict.fromkeys(e.setting_id for e in elems))
    split = ProbeFamily((elems[10], elems[12], elems[11]), qubit16.provenance)  # X, Y, X
    with pytest.raises(InvalidSetting, match="'MP:X'"):
        split.settings()


def test_qubit16_settings_are_testers(qubit16):
    for sid, elems in qubit16.settings().items():
        total = LabeledOperator(elems[0].choi.labels, sum(e.choi.mat for e in elems))
        assert validate_comb(total, direction=CombDirection.TESTER).passed


def test_measure_prepare_pauli_grid_spans_everything():
    from proctomo.op_basis import PAULI_Y, PAULI_Z
    eigvecs = []
    for p in (PAULI_X, PAULI_Y, PAULI_Z):
        w, v = np.linalg.eigh(p)
        eigvecs.extend([v[:, 0], v[:, 1]])
    chois = []
    for a in eigvecs:
        for psi in eigvecs:
            e0, _ = measure_prepare_instrument(a, psi)
            chois.append(e0.choi)
    assert span_dimension(chois) == 16


def test_measure_prepare_family_span():
    fam = weyl_ancilla_family(1, 2)  # the measure-and-prepare circuits of the tomography grid
    assert span_dimension(fam.chois()) == 16
    for sid, elems in fam.settings().items():
        total = LabeledOperator(elems[0].choi.labels, sum(e.choi.mat for e in elems))
        assert validate_comb(total, direction=CombDirection.TESTER).passed


# ---------------------------------------------------------------------------
# Superinstruments and phase filters
# ---------------------------------------------------------------------------

def doublesum_oracle(u1, u2, theta, m):
    d = u1.shape[0] // 2
    acc = np.zeros((d ** 4, d ** 4), dtype=complex)
    for alpha in (0, 1):
        for beta in (0, 1):
            k1a = ancilla_block(u1, alpha, 0) * np.exp(1j * theta * alpha)
            k1b = ancilla_block(u1, beta, 0) * np.exp(1j * theta * beta)
            k2a = ancilla_block(u2, m, alpha)
            k2b = ancilla_block(u2, m, beta)
            f1 = np.outer(vec_matrix(k1a), vec_matrix(k1b).conj())
            f2 = np.outer(vec_matrix(k2a), vec_matrix(k2b).conj())
            acc += np.kron(f1, f2)
    return acc


def test_superinstrument_matches_double_sum(rng):
    for _ in range(10):
        u1 = block_unitary(*random_block_spec(rng))
        u2 = block_unitary(*random_block_spec(rng))
        theta = float(rng.uniform(-np.pi, np.pi))
        chois = ancilla_superinstrument(AncillaProbeSetting(KET0, (u1, u2), (theta,)))
        for m, choi in enumerate(chois):
            assert np.max(np.abs(choi.mat - doublesum_oracle(u1, u2, theta, m))) < 1e-10


def link_chain_oracle(setting, m):
    """The outcome-m probe as N + 2 link products over labelled ancilla wires."""
    n, d = setting.n_labs, setting.d_sys
    anc = [SpaceLabel(t, Role.ANCILLA, 2) for t in range(n + 1)]
    acc = LabeledOperator((anc[0],), np.outer(setting.psi, setting.psi.conj()))
    for t, u in enumerate(setting.lab_unitaries, start=1):
        if t < n:
            u = np.kron(np.eye(d), phase_gate(setting.thetas[t - 1])) @ u
        li, lo = lab_labels(t, d)
        acc = link_product(acc, choi_of_unitary(u, [li, anc[t - 1]], [lo, anc[t]]))
    proj = np.zeros((2, 2), dtype=np.complex128)
    proj[m, m] = 1.0
    return canonicalize(link_product(acc, LabeledOperator((anc[n],), proj)))


@pytest.mark.parametrize("n_labs", [1, 2, 3])
def test_superinstrument_matches_link_chain(rng, n_labs):
    for d in (2, 3):
        for _ in range(3):
            psi = haar_state(2, rng)
            us = tuple(haar_unitary(2 * d, rng) for _ in range(n_labs))
            thetas = tuple(rng.uniform(-np.pi, np.pi, n_labs - 1))
            st = AncillaProbeSetting(psi, us, thetas)
            for m, probe in enumerate(ancilla_superinstrument(st)):
                oracle = link_chain_oracle(st, m)
                assert probe.labels == oracle.labels
                assert np.max(np.abs(probe.mat - oracle.mat)) <= 1e-12


def test_superinstrument_psd_and_tester(rng):
    us = tuple(block_unitary(*random_block_spec(rng)) for _ in range(2))
    chois = ancilla_superinstrument(AncillaProbeSetting(KET0, us, (0.3,)))
    for choi in chois:
        assert np.linalg.eigvalsh((choi.mat + choi.mat.conj().T) / 2)[0] >= -1e-10
    total = LabeledOperator(chois[0].labels, sum(choi.mat for choi in chois))
    assert validate_comb(total, direction=CombDirection.TESTER).passed


def test_setting_validation():
    u = block_unitary(np.zeros((2, 2)), np.eye(2), np.eye(2))
    with pytest.raises(InvalidSetting):
        AncillaProbeSetting(np.array([1, 1]), (u,), ())
    with pytest.raises(InvalidSetting):
        AncillaProbeSetting(KET0, (u,), (0.1,))


def theta_grid(us):
    """Outcome-0 Chois of one setting over the theta grid of every link,
    shaped (4,) * links + (side, side)."""
    chois = np.stack([ancilla_superinstrument(AncillaProbeSetting(KET0, tuple(us), t))[0].mat
                      for t in itertools.product(THETA_GRID, repeat=len(us) - 1)])
    return chois.reshape((4,) * (len(us) - 1) + chois.shape[1:])


def test_phase_filter_scalar_fourier(rng):
    comps = [rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)) for _ in range(3)]
    samples = np.stack([comps[0] * np.exp(-1j * theta) + comps[1] + comps[2] * np.exp(1j * theta)
                        for theta in THETA_GRID])
    assert np.max(np.abs(phase_filter(samples) - comps[2])) < 1e-12
    probabilities = 0.5 + 0.2 * np.cos(np.array(THETA_GRID) - 0.3)
    assert abs(phase_filter(probabilities) - 0.1 * np.exp(-0.3j)) < 1e-15


def test_phase_filter_missing_sample(rng):
    with pytest.raises(MissingSample):
        phase_filter(np.eye(2)[None])
    with pytest.raises(MissingSample):
        phase_filter(np.zeros((4, 3, 2, 2)), links=2)


def test_phase_filter_two_lab_weyl_blocks(rng):
    for mu, nu, mup, nup in [(1, 2, 3, 0), (0, 0, 1, 1), (2, 3, 2, 1)]:
        pairs = [(mu, nu), (mup, nup)]
        filt = phase_filter(theta_grid(weyl_lab_unitaries(2, pairs)))
        oracle = weyl_isolated_term(2, pairs)
        assert np.max(np.abs(filt - oracle.mat)) < 1e-10
        # and against the rank-one Weyl form directly
        basis = weyl_basis(2, Normalization.WEYL_UNITARY)
        v1, w1, v2, w2 = (vec_matrix(basis[k]) / np.sqrt(2) for k in (mu, nu, mup, nup))
        direct = np.kron(np.outer(v1, w1.conj()), np.outer(v2, w2.conj()))
        assert np.max(np.abs(filt - direct)) < 1e-10


def test_phase_filter_output_in_sample_span(rng):
    samples = theta_grid(weyl_lab_unitaries(2, [(1, 1), (2, 0)]))
    filt = phase_filter(samples)
    stack = samples.reshape(4, -1)
    coeff, residual, *_ = np.linalg.lstsq(stack.T, filt.reshape(-1), rcond=None)
    recon = stack.T @ coeff
    assert np.linalg.norm(recon - filt.reshape(-1)) < 1e-12


def test_middle_lab_block_is_weyl_product(rng):
    basis = weyl_basis(2, Normalization.WEYL_UNITARY)
    for mu in range(4):
        for nu in range(4):
            u = block_unitary(*weyl_block_spec(2, "middle", mu, nu))
            k11 = ancilla_block(u, 1, 1)
            lam, phase = weyl_product_index(2, mu, nu)
            assert np.max(np.abs(k11 + phase * basis[lam] / np.sqrt(2))) < 1e-12


def test_nested_filters_three_labs(rng):
    for _ in range(5):
        pairs = [tuple(int(x) for x in rng.integers(0, 4, 2)) for _ in range(3)]
        iso = phase_filter(theta_grid(weyl_lab_unitaries(2, pairs)), links=2)
        oracle = weyl_isolated_term(2, pairs)
        assert np.max(np.abs(iso - oracle.mat)) < 1e-9


# ---------------------------------------------------------------------------
# Family enumeration
# ---------------------------------------------------------------------------

def test_weyl_ancilla_family_single_lab():
    fam = weyl_ancilla_family(1, 2)
    assert len(fam) == 32
    assert span_dimension(fam.chois()) == 16


def test_weyl_ancilla_family_two_labs(weyl_n2):
    assert len(weyl_n2) == 2048
    assert len(weyl_n2.settings()) == 1024  # 256 index tuples x 4 phases


def test_weyl_ancilla_family_budget_and_subsample():
    with pytest.raises(OutOfBudget):
        weyl_ancilla_family(3, 2)
    fam_a = weyl_ancilla_family(3, 2, subsample_settings=4, seed=5)
    fam_b = weyl_ancilla_family(3, 2, subsample_settings=4, seed=5)
    assert len(fam_a) == 4 * 16 * 2
    assert all(np.array_equal(x.choi.mat, y.choi.mat) for x, y in zip(fam_a, fam_b))
    fam_c = weyl_ancilla_family(3, 2, subsample_settings=4, seed=6)
    ids_a = sorted({e.setting_id for e in fam_a})
    ids_c = sorted({e.setting_id for e in fam_c})
    assert ids_a != ids_c


def test_single_lab_budget_checked_before_building():
    with pytest.raises(OutOfBudget):
        weyl_ancilla_family(1, 5, element_cap=10)
    with pytest.raises(OutOfBudget):
        weyl_ancilla_family(1, 2, element_cap=31)
    assert len(weyl_ancilla_family(1, 2, element_cap=32)) == 32


def test_probe_side_checked_before_building(monkeypatch):
    monkeypatch.setattr(probe_factory, "ancilla_taus", lambda *args: pytest.fail("taus built"))
    with pytest.raises(OutOfBudget, match=r"d\^\(2N\) = 6765201 exceeds 4096"):
        weyl_ancilla_family(2, 51, subsample_settings=3, element_cap=24)
    with pytest.raises(OutOfBudget, match=r"d\^\(2N\) = 16384 exceeds 4096"):
        weyl_ancilla_family(7, 2, subsample_settings=1)


def test_subsample_budget_checked_before_building(monkeypatch):
    assert len(weyl_ancilla_family(3, 2, subsample_settings=1, element_cap=32)) == 32
    monkeypatch.setattr(probe_factory, "block_unitary", lambda *args: pytest.fail("unitary built"))
    with pytest.raises(OutOfBudget):
        weyl_ancilla_family(3, 2, subsample_settings=1, element_cap=31)


def test_weyl_family_builds_one_circuit_per_setting(monkeypatch):
    built = []
    monkeypatch.setattr(probe_factory, "AncillaProbeSetting",
                        lambda *args: built.append(AncillaProbeSetting(*args)) or built[-1])
    fam = weyl_ancilla_family(2, 2)
    assert not built and len(fam) == 2048  # circuits are built on first read
    for e in fam:
        e.circuit
    assert len(built) == len(fam.settings()) == 1024
    for e0, e1 in fam.settings().values():
        assert e0.circuit is e1.circuit


def test_weyl_family_builds_only_the_lab_unitaries_it_uses(monkeypatch):
    calls = []
    monkeypatch.setattr(probe_factory, "block_unitary",
                        lambda *blocks: calls.append(blocks) or block_unitary(*blocks))
    fam = weyl_ancilla_family(2, 3, subsample_settings=1)
    assert len(fam) == 8 and len(calls) <= 2


def test_generated_element_repr_and_eq_build_nothing(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("a per-element circuit or Choi was built")

    fam = weyl_ancilla_family(2, 2)
    monkeypatch.setattr(probe_factory, "ancilla_superinstrument", fail)
    monkeypatch.setattr(probe_factory, "AncillaProbeSetting", fail)
    text = repr(fam.settings())
    assert "setting_id='wa:s0:th0', outcome='0'" in text and "choi" not in text
    e0, e1 = fam.elements[:2]
    assert e0 == e0 and e0 != e1 and len({e0, e1}) == 2


@pytest.mark.parametrize("d", [2, 3])
def test_single_lab_circuits_equal_the_single_circuit_builder(d):
    states = tomography_state_vectors(d)
    settings = list(weyl_ancilla_family(1, d).settings().values())
    assert len(settings) == d ** 4
    for s, elems in enumerate(settings):
        effect, prep = divmod(s, d * d)
        u = measure_prepare_joint_unitary(states[effect], states[prep])
        assert all(np.array_equal(e.circuit.lab_unitaries[0], u) for e in elems)


def test_single_lab_subsample_is_honoured():
    full = {e.record_key: e for e in weyl_ancilla_family(1, 2)}
    fam = weyl_ancilla_family(1, 2, subsample_settings=3, seed=4)
    assert len(fam) == 3 * 2 and len(fam.settings()) == 3
    for e in fam:
        ref = full[e.record_key]
        assert np.array_equal(e.choi.mat, ref.choi.mat)
        assert len(e.circuit.lab_unitaries) == len(ref.circuit.lab_unitaries) == 1
        assert np.array_equal(e.circuit.lab_unitaries[0], ref.circuit.lab_unitaries[0])


def _pauli_projector(basis, sign):
    plus, minus = {"X": ([1, 1], [1, -1]), "Y": ([1, 1j], [1, -1j]), "Z": ([1, 0], [0, 1])}[basis]
    v = np.array(plus if sign == "+" else minus, dtype=complex)
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


def test_circuit_chois_match_independent_references():
    """Each generator's Chois, built from circuits, against references that
    use no ancilla contraction."""
    labels = lab_labels(1, 2)
    u_by_name = dict(QUBIT16_UNITARIES)
    for fam in (unitary_only_family(), qubit16_family()):
        for e in fam:
            kind, name = e.setting_id.split(":")  # U:<unitary> or MP:<Pauli basis>
            if kind == "U":
                ref = choi_of_unitary(u_by_name[name], labels[:1], labels[1:]).mat
            else:
                ref = np.kron(_pauli_projector(name, e.outcome).T, _pauli_projector(name, "+"))
            assert e.choi.labels == labels
            assert np.max(np.abs(e.choi.mat - ref)) <= 1e-12
    for d in (2, 3):
        states = tomography_state_vectors(d)
        labels = lab_labels(1, d)
        for s, elems in enumerate(weyl_ancilla_family(1, d).settings().values()):
            effect, prep = divmod(s, d * d)
            u = measure_prepare_joint_unitary(states[effect], states[prep])
            for e in elems:
                kraus = ancilla_block(u, int(e.outcome), 0)
                ref = choi_of_kraus([kraus], labels[:1], labels[1:]).mat
                assert np.max(np.abs(e.choi.mat - ref)) <= 1e-12


@pytest.mark.parametrize("family", [
    unitary_only_family, qubit16_family, lambda: qubit16_family(lab=2),
    lambda: weyl_ancilla_family(1, 3), lambda: weyl_ancilla_family(2, 2, subsample_settings=5),
])
def test_generated_elements_keep_their_circuit(family):
    fam = family()
    for e in fam:
        m = int(e.outcome in ("1", "-"))
        rebuilt = ancilla_superinstrument(e.circuit, e.choi.labels[0].lab)[m]
        assert rebuilt.labels == e.choi.labels
        assert np.array_equal(rebuilt.mat, e.choi.mat)
    for elems in fam.settings().values():
        assert all(e.circuit is elems[0].circuit for e in elems)


# ---------------------------------------------------------------------------
# Operator Schmidt rank
# ---------------------------------------------------------------------------

def test_schmidt_rank_product_probe(rng, qubit16):
    e1 = qubit16.elements[0].choi
    e2 = qubit16.elements[12].choi
    relabeled = LabeledOperator(
        (SpaceLabel(2, Role.INPUT, 2), SpaceLabel(2, Role.OUTPUT, 2)), e2.mat)
    product = tensor(e1, relabeled)
    assert operator_schmidt_rank(product, {1}) == 1
    assert operator_schmidt_rank(product, {2}) == 1


def test_schmidt_rank_ancilla_probe_bounded(rng):
    for _ in range(5):
        us = tuple(block_unitary(*random_block_spec(rng)) for _ in range(3))
        st = AncillaProbeSetting(KET0, us, tuple(rng.uniform(-np.pi, np.pi, 2)))
        e = ancilla_superinstrument(st)[0]
        assert operator_schmidt_rank(e, {1}) <= 4
        assert operator_schmidt_rank(e, {1, 2}) <= 4


def test_schmidt_rank_generic_hermitian(rng):
    labels = (SpaceLabel(1, Role.INPUT, 2), SpaceLabel(1, Role.OUTPUT, 2),
              SpaceLabel(2, Role.INPUT, 2), SpaceLabel(2, Role.OUTPUT, 2))
    h = LabeledOperator(labels, random_hermitian(rng, 16))
    assert operator_schmidt_rank(h, {1}) == 16


def test_schmidt_rank_bad_cut(rng, qubit16):
    e = qubit16.elements[0]
    with pytest.raises(BadCut):
        operator_schmidt_rank(e, set())
    with pytest.raises(BadCut):
        operator_schmidt_rank(e, {1})  # only one lab present
