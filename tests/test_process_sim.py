import numpy as np
import pytest

from proctomo import choi_link, cli, probe_factory, process_sim
from proctomo.choi_link import bell_matrix, choi_of_unitary, link_product, validate_comb
from proctomo.errors import (
    DimMismatch,
    InvalidSpec,
    NegativeProbability,
    NotNormalizedSetting,
    UnknownPreset,
)
from proctomo.op_basis import haar_state, haar_unitary
from proctomo.probe_factory import (
    KET0,
    AncillaProbeSetting,
    ProbeFamily,
    ancilla_superinstrument,
    qubit16_family,
    measure_prepare_instrument,
    weyl_ancilla_family,
    weyl_lab_unitaries,
)
from proctomo.process_sim import (
    PRESET_NAMES,
    ProcessSpec,
    born_probability,
    born_probabilities,
    build_process,
    derive_rng,
    interior_only,
    preset_process,
    sample_shots,
)
from proctomo.tensor_core import (
    LabeledOperator,
    Role,
    SpaceLabel,
    canonicalize,
    partial_trace,
    tensor,
)

from conftest import random_density


def test_identity_wire_is_bell_chain():
    w = build_process(preset_process("IdentityWire", 1, 2))
    assert np.max(np.abs(w.mat - np.kron(bell_matrix(2), bell_matrix(2)))) < 1e-12
    assert [l.key for l in w.op.labels] == [
        (0, Role.OUTPUT), (1, Role.INPUT), (1, Role.OUTPUT), (2, Role.INPUT)]
    assert validate_comb(w.op).passed


def test_depolarizing_zero_matches_identity_wire():
    w_id = build_process(preset_process("IdentityWire", 2, 2))
    w_dep = build_process(preset_process("MarkovDepolarizing", 2, 2, p=0.0))
    assert np.max(np.abs(w_id.mat - w_dep.mat)) < 1e-12


def test_haar_env_seeded_determinism():
    w1 = build_process(preset_process("HaarEnv", 2, 2, seed=7))
    w2 = build_process(preset_process("HaarEnv", 2, 2, seed=7))
    assert np.array_equal(w1.mat, w2.mat)
    w3 = build_process(preset_process("HaarEnv", 2, 2, seed=8))
    assert not np.allclose(w1.mat, w3.mat)


def test_haar_env_psd_comb_trace():
    w = build_process(preset_process("HaarEnv", 2, 2, seed=3))
    assert np.linalg.eigvalsh((w.mat + w.mat.conj().T) / 2)[0] >= -1e-10
    assert validate_comb(w.op).passed
    assert abs(np.trace(w.mat) - 2 ** 3) < 1e-9  # d_sys^(#outputs), N+1 outputs


def test_classical_memory_comb():
    w = build_process(preset_process("ClassicalMemory", 2, 2))
    assert validate_comb(w.op).passed


def test_unknown_preset():
    with pytest.raises(UnknownPreset):
        preset_process("Bogus", 1, 2)


def test_spec_validation():
    with pytest.raises(InvalidSpec):
        ProcessSpec(1, 2, d_env=1, unitaries=(np.eye(2),))  # wrong count
    with pytest.raises(InvalidSpec):
        ProcessSpec(1, 2, d_env=1, unitaries=(np.diag([1.0, 2.0]),) * 2)


def _channel_spec(bad_step):
    return ProcessSpec(1, 2, channels=(bell_matrix(2), bad_step))


@pytest.mark.parametrize("make, message", [
    # the transpose map: trace preserving, but its Choi is the swap, eigenvalue -1
    (lambda rng: _channel_spec(np.eye(4)[[0, 2, 1, 3]]), "step channel 1 is not Hermitian PSD"),
    (lambda rng: _channel_spec(bell_matrix(2) - 0.3 * np.eye(4)), "step channel 1 is not Hermitian PSD"),
    (lambda rng: _channel_spec(2 * bell_matrix(2)), "step channel 1 is not trace preserving"),
    (lambda rng: ProcessSpec(1, 2, d_env=2, env_state=[[0.5, 0.1], [-0.1, 0.5]],
                             unitaries=(haar_unitary(4, rng), haar_unitary(4, rng))),
     "env_state must be a unit-trace Hermitian PSD"),
], ids=["transpose_channel", "non_psd_channel", "non_tp_channel", "non_hermitian_env"])
def test_spec_rejects_invalid_steps(rng, make, message):
    with pytest.raises(InvalidSpec, match=message):
        make(rng)


@pytest.mark.parametrize("prep", [np.diag([1.5, -0.5]), np.array([[0.5, 0.2], [-0.2, 0.5]])],
                         ids=["negative", "non_hermitian"])
def test_interior_rejects_invalid_prep(prep):
    w = build_process(preset_process("IdentityWire", 1, 2))
    with pytest.raises(InvalidSpec, match="prep must be"):
        interior_only(w, prep)


PRESET_GRID = [(name, n, d, p) for n, d in [(1, 2), (2, 2), (3, 2), (1, 3), (2, 3)]
               for name in PRESET_NAMES
               for p in ((0.0, 0.5, 1.0) if name == "MarkovDepolarizing" else (0.5,))]


@pytest.mark.parametrize("name, n_labs, d, p", PRESET_GRID)
def test_preset_full_w_is_comb(name, n_labs, d, p):
    # the link product of CPTP steps is a comb, so build_process need not check it
    report = validate_comb(build_process(preset_process(name, n_labs, d, seed=11, p=p)).op)
    assert report.passed, report.summary()


@pytest.fixture
def comb_checks(monkeypatch):
    """Operators passed to validate_comb from any module of the package."""
    seen = []

    def spy(w, *args, **kwargs):
        seen.append(w)
        return validate_comb(w, *args, **kwargs)
    for module in (choi_link, process_sim):
        monkeypatch.setattr(module, "validate_comb", spy, raising=False)
    return seen


def test_build_process_does_not_validate(comb_checks):
    interior_only(build_process(preset_process("HaarEnv", 2, 2, seed=3)))
    assert comb_checks == []


def test_simulate_validates_only_the_interior_w(tmp_path, comb_checks):
    assert cli.main(["simulate", "--labs", "2", "--subsample", "3",
                     "--out", str(tmp_path / "run")]) == 0
    assert [w.keys for w in comb_checks] == [
        ((1, Role.INPUT), (1, Role.OUTPUT), (2, Role.INPUT), (2, Role.OUTPUT))]


def test_env_identity_splice_invariance(rng):
    # inserting an identity channel on an interior environment wire is a no-op
    spec = preset_process("HaarEnv", 1, 2, seed=5)
    w = build_process(spec)
    d, de = spec.d_sys, spec.d_env
    env = [SpaceLabel(t, Role.ENV, de) for t in range(3)]
    extra = SpaceLabel(9, Role.ENV, de)
    acc = LabeledOperator((env[0],), spec.env_state)
    step0 = choi_of_unitary(spec.unitaries[0],
                            [SpaceLabel(0, Role.OUTPUT, d), env[0]],
                            [SpaceLabel(1, Role.INPUT, d), env[1]])
    env_id = choi_of_unitary(np.eye(de), [env[1]], [extra])
    step1 = choi_of_unitary(spec.unitaries[1],
                            [SpaceLabel(1, Role.OUTPUT, d), extra],
                            [SpaceLabel(2, Role.INPUT, d), SpaceLabel(10, Role.ENV, de)])
    acc = link_product(link_product(link_product(acc, step0), env_id), step1)
    acc = partial_trace(acc, [(10, Role.ENV)])
    from proctomo.tensor_core import canonicalize
    assert np.max(np.abs(canonicalize(acc).mat - w.mat)) < 1e-10


@pytest.mark.parametrize("n_labs, d", [(1, 6), (2, 2), (3, 2)])
def test_build_process_matches_link_then_trace(n_labs, d):
    # reference: link every step, then trace the final environment wire
    spec = preset_process("HaarEnv", n_labs, d, seed=3)
    env = [SpaceLabel(t, Role.ENV, spec.d_env) for t in range(n_labs + 2)]
    acc = LabeledOperator((env[0],), spec.env_state)
    for t, u in enumerate(spec.unitaries):
        acc = link_product(acc, choi_of_unitary(
            u, [SpaceLabel(t, Role.OUTPUT, d), env[t]],
            [SpaceLabel(t + 1, Role.INPUT, d), env[t + 1]]))
    ref = canonicalize(partial_trace(acc, [env[-1]]))
    w = build_process(spec)
    assert w.op.labels == ref.labels
    assert np.max(np.abs(w.mat - ref.mat)) <= 1e-12


def test_interior_identity_wire_gives_prep_state(rng):
    rho = random_density(rng, 2)
    w = build_process(preset_process("IdentityWire", 1, 2))
    wi = interior_only(w, rho)
    assert wi.interior
    assert np.max(np.abs(wi.mat - np.kron(rho, np.eye(2)))) < 1e-12
    assert validate_comb(wi.op).passed
    with pytest.raises(InvalidSpec):
        interior_only(wi)


def test_born_measure_prepare_reads_prep(rng):
    rho = random_density(rng, 2)
    wi = interior_only(build_process(preset_process("IdentityWire", 1, 2)), rho)
    a, psi = haar_state(2, rng), haar_state(2, rng)
    e0, _ = measure_prepare_instrument(a, psi)
    p = born_probability(wi, e0)
    assert abs(p - (a.conj() @ rho @ a).real) < 1e-12


def test_born_deterministic_probe_is_one(rng):
    wi = interior_only(build_process(preset_process("HaarEnv", 1, 2, seed=9)))
    for e in qubit16_family().elements[:10]:
        assert abs(born_probability(wi, e) - 1.0) < 1e-10


def test_born_outcome_sum_is_one(rng):
    wi = interior_only(build_process(preset_process("HaarEnv", 2, 2, seed=4)))
    us = weyl_lab_unitaries(2, [(1, 2), (3, 0)])
    chois = ancilla_superinstrument(AncillaProbeSetting(KET0, tuple(us), (0.7,)))
    total = sum(born_probability(wi, choi) for choi in chois)
    assert abs(total - 1.0) < 1e-10


def test_born_label_mismatch(rng):
    w = build_process(preset_process("IdentityWire", 1, 2))
    e0, _ = measure_prepare_instrument(np.array([1, 0]), np.array([1, 0]))
    with pytest.raises(DimMismatch):
        born_probability(w, e0)  # full W against interior probe


def test_born_negative_probability_guard():
    wi = interior_only(build_process(preset_process("IdentityWire", 1, 2)))
    labels = wi.op.labels
    with pytest.raises(NegativeProbability):
        born_probability(wi, LabeledOperator(labels, -np.eye(4)))


def test_markov_probabilities_factorize(rng):
    # product probes on a product-channel process: joint probability equals
    # the product of the per-lab single-channel probabilities
    p_dep = 0.3
    w = build_process(preset_process("MarkovDepolarizing", 2, 2, p=p_dep))
    rho = random_density(rng, 2)
    wi = interior_only(w, rho)

    def dep(r):
        return (1 - p_dep) * r + p_dep * np.trace(r) * np.eye(2) / 2

    a1, psi1 = haar_state(2, rng), haar_state(2, rng)
    a2, psi2 = haar_state(2, rng), haar_state(2, rng)
    e1, _ = measure_prepare_instrument(a1, psi1, lab=1)
    e2, _ = measure_prepare_instrument(a2, psi2, lab=2)
    p_joint = born_probability(wi, tensor(e1.choi, e2.choi))
    rho1 = dep(rho)
    p1 = (a1.conj() @ rho1 @ a1).real
    rho2 = dep(np.outer(psi1, psi1.conj()))
    p2 = (a2.conj() @ rho2 @ a2).real
    assert abs(p_joint - p1 * p2) < 1e-10


def test_sample_shots_exact_mode(rng, qubit16):
    wi = interior_only(build_process(preset_process("HaarEnv", 1, 2, seed=2)))
    records = sample_shots(wi, qubit16, 0)
    probs = born_probabilities(wi, qubit16)
    assert len(records) == 16
    for r, p in zip(records, probs):
        assert r.shots_total == 0 and abs(r.probability - p) < 1e-12


def test_sample_shots_binomial_statistics(qubit16):
    wi = interior_only(build_process(preset_process("HaarEnv", 1, 2, seed=2)))
    shots = 100000
    records = sample_shots(wi, qubit16, shots, seed=17)
    probs = dict(zip([e.record_key for e in qubit16], born_probabilities(wi, qubit16)))
    for r in records:
        p = probs[(r.setting_id, r.outcome)]
        sigma = np.sqrt(max(p * (1 - p), 1e-12) / shots)
        assert abs(r.count / shots - p) < 5 * sigma + 1e-9


def test_sample_shots_seeded_determinism(qubit16):
    wi = interior_only(build_process(preset_process("HaarEnv", 1, 2, seed=2)))
    r1 = sample_shots(wi, qubit16, 1000, seed=5)
    r2 = sample_shots(wi, qubit16, 1000, seed=5)
    assert [r.count for r in r1] == [r.count for r in r2]
    r3 = sample_shots(wi, qubit16, 1000, seed=6)
    assert [r.count for r in r1] != [r.count for r in r3]


def test_sample_shots_draws_settings_in_family_order_from_one_stream(qubit16):
    wi = interior_only(build_process(preset_process("HaarEnv", 1, 2, seed=2)))
    p = np.array(born_probabilities(wi, qubit16))
    rng = derive_rng(5, "shots")
    runs = [(k, k + 1) for k in range(10)] + [(10, 12), (12, 14), (14, 16)]
    expected = [c for a, b in runs for c in rng.multinomial(1000, p[a:b] / p[a:b].sum())]
    assert [r.count for r in sample_shots(wi, qubit16, 1000, seed=5)] == expected


def test_process_side_checked_before_building():
    with pytest.raises(InvalidSpec, match=r"d_sys\^\(2N\+2\) = 16384 exceeds 4096"):
        preset_process("IdentityWire", 6, 2)
    assert preset_process("IdentityWire", 5, 2).n_labs == 5  # side 4096 is allowed


def test_preset_sizes_checked_before_drawing(monkeypatch):
    monkeypatch.setattr(process_sim, "haar_unitary", lambda *args: pytest.fail("unitary drawn"))
    for n_labs, shown in ((200000, r">= 2\^63"), (6, "= 16384")):
        with pytest.raises(InvalidSpec, match=rf"d_sys\^\(2N\+2\) {shown} exceeds 4096"):
            preset_process("HaarEnv", n_labs, 2)


def test_sample_shots_rejects_incomplete_setting(rng, qubit16):
    wi = interior_only(build_process(preset_process("HaarEnv", 1, 2, seed=2)))
    half = ProbeFamily(tuple(e for e in qubit16 if not (e.setting_id, e.outcome) == ("MP:X", "-")),
                       qubit16.provenance)
    with pytest.raises(NotNormalizedSetting):
        sample_shots(wi, half, 100, seed=0)


def test_derive_rng_purpose_separation():
    a = derive_rng(3, "shots", "s1").integers(0, 1 << 30)
    b = derive_rng(3, "shots", "s2").integers(0, 1 << 30)
    c = derive_rng(3, "shots", "s1").integers(0, 1 << 30)
    assert a == c and a != b


def test_batched_born_matches_per_element(qubit16, weyl_n2):
    for n_labs, family in ((1, qubit16), (2, weyl_n2)):
        wi = interior_only(build_process(preset_process("HaarEnv", n_labs, 2, seed=2)))
        batched = born_probabilities(wi, family)
        single = [born_probability(wi, e) for e in family]
        assert len(batched) == len(family)
        assert np.max(np.abs(np.array(batched) - single)) <= 1e-12


# ---------------------------------------------------------------------------
# Chunked Choi stacks from batched taus against the per-element path
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n_labs, d, subsample", [
    (1, 2, None), (1, 3, None), (1, 6, None), (2, 2, None), (2, 3, 12), (3, 2, 12),
])
def test_batched_chois_and_born_match_per_element(n_labs, d, subsample):
    fam = weyl_ancilla_family(n_labs, d, subsample_settings=subsample, seed=5)
    stacked = np.concatenate(list(fam.choi_chunks()))
    per_element = np.stack([ancilla_superinstrument(e.circuit)[int(e.outcome)].mat for e in fam])
    assert stacked.shape == per_element.shape
    assert np.max(np.abs(stacked - per_element)) <= 1e-12
    w = interior_only(build_process(preset_process("HaarEnv", n_labs, d, seed=5)))
    born = np.array(born_probabilities(w, fam))
    assert np.max(np.abs(born - [born_probability(w, e) for e in fam])) <= 1e-12


@pytest.mark.parametrize("chunk", [37, 5000])
def test_born_values_do_not_depend_on_the_chunk_size(monkeypatch, weyl_n2, chunk):
    w = interior_only(build_process(preset_process("HaarEnv", 2, 2, seed=2)))
    reference = born_probabilities(w, weyl_n2)
    monkeypatch.setattr(probe_factory, "CHUNK", chunk)
    assert len(weyl_n2) % chunk != 0
    assert born_probabilities(w, weyl_n2) == reference
