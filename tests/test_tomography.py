import numpy as np
import pytest

from proctomo import probe_factory
from proctomo.choi_link import vec_matrix
from proctomo.errors import (
    DimMismatch,
    EmptyFamily,
    MissingData,
    NotIC,
    OutsideSpan,
    UnexpectedRecord,
)
from proctomo.probe_factory import (
    ProbeFamily,
    qubit16_family,
    unitary_only_family,
    weyl_ancilla_family,
)
from proctomo.process_sim import (
    ExperimentRecord,
    build_process,
    interior_only,
    preset_process,
    sample_shots,
)
from proctomo.tensor_core import LabeledOperator, SpaceLabel, canonicalize, rank_and_pinv
from proctomo.tomography import (
    build_frame,
    dual_identity_check,
    estimate_functional,
    hermitian_coords,
    hermitian_from_coords,
    linear_inversion,
    reconstruction_metrics,
)

from conftest import random_density, random_hermitian


def exact_records(preset, n_labs, family, seed=11, prep=None):
    w = interior_only(build_process(preset_process(preset, n_labs, 2, seed=seed)), prep)
    return w, sample_shots(w, family, 0)


def test_frame_qubit16(qubit16_bundle):
    assert qubit16_bundle.rank == 16
    assert qubit16_bundle.is_complete
    assert dual_identity_check(qubit16_bundle) < 1e-8


def test_frame_unitary_only_not_ic():
    bundle = build_frame(unitary_only_family())
    assert bundle.rank == 10
    with pytest.raises(NotIC):
        dual_identity_check(bundle)


def test_frame_weyl_ancilla_two_labs(weyl_n2):
    bundle = build_frame(weyl_n2)
    assert bundle.rank == 256
    assert dual_identity_check(bundle) < 1e-8


def test_frame_matches_svd_pseudoinverse(qubit16, weyl_n2):
    for n_labs, d, family in ((1, 2, qubit16), (1, 3, weyl_ancilla_family(1, 3)),
                              (2, 2, weyl_n2)):
        bundle = build_frame(family)
        frame = bundle.tvecs.T @ bundle.tvecs.conj()
        rank, fpinv = rank_and_pinv(frame)
        assert bundle.rank == rank
        duals = (fpinv @ bundle.tvecs.T).T
        assert np.max(np.abs(bundle.duals - duals)) <= 1e-12
        w = interior_only(build_process(preset_process("HaarEnv", n_labs, d, seed=4)))
        records = sample_shots(w, family, 0)
        est = linear_inversion(bundle, records).w_est.mat
        f = np.array([r.probability for r in records])
        for dual_rows in (duals, bundle.duals):
            w_ref = (f @ dual_rows).reshape(w.mat.shape, order="F").T
            w_ref = (w_ref + w_ref.conj().T) / 2
            assert np.max(np.abs(est - w_ref)) <= 1e-12


@pytest.mark.parametrize("side", [4, 36])
def test_hermitian_coords_are_an_isometry(rng, side):
    a, b = random_hermitian(rng, side), random_hermitian(rng, side)
    ra, rb = hermitian_coords(a), hermitian_coords(b)
    assert ra.shape == (side * side,) and ra.dtype == np.float64
    assert np.max(np.abs(hermitian_from_coords(ra, side) - a)) <= 1e-14 * np.max(np.abs(a))
    assert abs(ra @ rb - np.trace(a @ b).real) <= 1e-12 * np.linalg.norm(a) * np.linalg.norm(b)
    batch = hermitian_coords(np.stack([a, b]))
    assert np.array_equal(batch, np.stack([ra, rb]))
    assert np.array_equal(hermitian_from_coords(batch, side)[1], hermitian_from_coords(rb, side))


def test_frame_matches_complex_svd_at_high_condition_number(qubit16):
    """The real frame against the complex frame F = sum |T_a><T_a|, inverted by
    SVD, up to N=1 d=4 where the condition number is about 5e3."""
    for d, family in ((2, qubit16), (3, weyl_ancilla_family(1, 3)), (4, weyl_ancilla_family(1, 4))):
        bundle = build_frame(family)
        frame = bundle.tvecs.T @ bundle.tvecs.conj()
        rank, fpinv = rank_and_pinv(frame)
        s = np.linalg.svd(frame, compute_uv=False)
        assert bundle.rank == rank == d ** 4
        assert abs(bundle.condition_number / (s[0] / s[rank - 1]) - 1) <= 1e-9
        w = interior_only(build_process(preset_process("HaarEnv", 1, d, seed=4)))
        for shots in (0, 1000):
            records = sample_shots(w, family, shots, seed=2)
            est = linear_inversion(bundle, records).w_est.mat
            f = np.array([r.frequency() for r in records])
            w_ref = (fpinv @ (bundle.tvecs.T @ f)).reshape(w.mat.shape, order="F").T
            assert np.max(np.abs(est - w_ref)) <= 1e-12
        assert np.array_equal(est, est.conj().T)


def test_frame_empty():
    with pytest.raises(EmptyFamily):
        build_frame(ProbeFamily((), provenance=qubit16_family().provenance))


def test_exact_inversion_identity_wire(rng, qubit16, qubit16_bundle):
    rho = random_density(rng, 2)
    w, records = exact_records("IdentityWire", 1, qubit16, prep=rho)
    report = linear_inversion(qubit16_bundle, records)
    assert np.max(np.abs(report.w_est.mat - np.kron(rho, np.eye(2)))) < 1e-10
    assert report.max_data_residual < 1e-10
    assert report.comb_violation < 1e-9


def test_exact_inversion_presets(qubit16, qubit16_bundle):
    for preset in ("HaarEnv", "ClassicalMemory"):
        w, records = exact_records(preset, 1, qubit16)
        report = linear_inversion(qubit16_bundle, records)
        metrics = reconstruction_metrics(w, report.w_est)
        assert metrics["frobenius_error"] < 1e-8
        assert metrics["fidelity"] > 1 - 1e-10


def test_inversion_is_linear(qubit16, qubit16_bundle):
    w1, rec1 = exact_records("HaarEnv", 1, qubit16, seed=1)
    w2, rec2 = exact_records("HaarEnv", 1, qubit16, seed=2)
    alpha = 0.3
    mixed = [ExperimentRecord(a.setting_id, a.outcome,
                              probability=alpha * a.probability + (1 - alpha) * b.probability)
             for a, b in zip(rec1, rec2)]
    est1 = linear_inversion(qubit16_bundle, rec1).w_est.mat
    est2 = linear_inversion(qubit16_bundle, rec2).w_est.mat
    est_mix = linear_inversion(qubit16_bundle, mixed).w_est.mat
    assert np.max(np.abs(est_mix - (alpha * est1 + (1 - alpha) * est2))) < 1e-10


def test_inversion_missing_data(qubit16, qubit16_bundle):
    _, records = exact_records("HaarEnv", 1, qubit16)
    with pytest.raises(MissingData):
        linear_inversion(qubit16_bundle, records[:-1])


def test_repeated_record_is_rejected(rng, qubit16, qubit16_bundle):
    _, records = exact_records("HaarEnv", 1, qubit16)
    records = records + [ExperimentRecord("U:I", "0", probability=0.0)]
    with pytest.raises(UnexpectedRecord, match="U:I"):
        linear_inversion(qubit16_bundle, records)
    o = LabeledOperator(qubit16_bundle.labels, random_hermitian(rng, 4))
    with pytest.raises(UnexpectedRecord, match="repeated"):
        estimate_functional(o, qubit16_bundle, records)


def test_shot_scaling_median_error(qubit16, qubit16_bundle):
    w = interior_only(build_process(preset_process("HaarEnv", 1, 2, seed=11)))
    medians = []
    for shots in (10 ** 3, 10 ** 4, 10 ** 5):
        errors = []
        for seed in range(10):
            records = sample_shots(w, qubit16, shots, seed=seed)
            report = linear_inversion(qubit16_bundle, records)
            errors.append(reconstruction_metrics(w, report.w_est)["frobenius_error"])
        medians.append(float(np.median(errors)))
    assert medians[0] > medians[1] > medians[2]


def test_psd_projection_flag(qubit16, qubit16_bundle):
    w = interior_only(build_process(preset_process("HaarEnv", 1, 2, seed=11)))
    records = sample_shots(w, qubit16, 200, seed=3)
    raw = linear_inversion(qubit16_bundle, records)
    projected = linear_inversion(qubit16_bundle, records, project_psd=True)
    assert projected.projected
    vals = np.linalg.eigvalsh((projected.w_est.mat + projected.w_est.mat.conj().T) / 2)
    assert vals[0] >= -1e-10
    assert abs(np.trace(projected.w_est.mat).real - np.trace(raw.w_est.mat).real) < 1e-9


def test_estimate_functional_indicator(qubit16, qubit16_bundle):
    w, records = exact_records("HaarEnv", 1, qubit16)
    target = qubit16.elements[12]
    value, coeffs, residual = estimate_functional(target.choi, qubit16_bundle, records)
    p_direct = [r.probability for r in records
                if (r.setting_id, r.outcome) == target.record_key][0]
    assert abs(value - p_direct) < 1e-10
    assert residual < 1e-10


def test_estimate_functional_random_hermitian(rng, qubit16, qubit16_bundle):
    w, records = exact_records("HaarEnv", 1, qubit16)
    for _ in range(20):
        o = LabeledOperator(qubit16_bundle.labels, random_hermitian(rng, 4))
        value, _, residual = estimate_functional(o, qubit16_bundle, records)
        direct = float(np.trace(w.mat.T @ o.mat).real)
        assert abs(value - direct) < 1e-8
        assert residual < 1e-10


def test_estimate_functional_non_hermitian(rng, qubit16, qubit16_bundle):
    w, records = exact_records("HaarEnv", 1, qubit16)
    o = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    value, coeffs, residual = estimate_functional(LabeledOperator(qubit16_bundle.labels, o),
                                                  qubit16_bundle, records)
    assert abs(value - np.trace(w.mat.T @ o).real) < 1e-10
    assert residual < 1e-10
    recon = sum(coeffs[e.record_key] * e.choi.mat for e in qubit16)
    assert np.max(np.abs(recon - o)) < 1e-10


def test_estimate_functional_consistent_with_inversion(qubit16, qubit16_bundle, rng):
    w = interior_only(build_process(preset_process("HaarEnv", 1, 2, seed=11)))
    records = sample_shots(w, qubit16, 500, seed=9)
    report = linear_inversion(qubit16_bundle, records)
    o = LabeledOperator(qubit16_bundle.labels, random_hermitian(rng, 4))
    value, _, _ = estimate_functional(o, qubit16_bundle, records)
    assert abs(value - np.trace(report.w_est.mat.T @ o.mat).real) < 1e-8


def test_estimate_functional_outside_span(qubit16):
    bundle = build_frame(unitary_only_family())
    w = interior_only(build_process(preset_process("HaarEnv", 1, 2, seed=11)))
    records = sample_shots(w, unitary_only_family(), 0)
    mp = weyl_ancilla_family(1, 2).elements[0].choi
    with pytest.raises(OutsideSpan):
        estimate_functional(LabeledOperator(bundle.labels, mp.mat), bundle, records)


def test_metrics_zero_case(qubit16_bundle):
    w = interior_only(build_process(preset_process("HaarEnv", 1, 2, seed=11)))
    m = reconstruction_metrics(w, w)
    assert m["frobenius_error"] == 0.0
    assert m["trace_distance"] < 1e-12
    assert abs(m["fidelity"] - 1.0) < 1e-10


def test_metrics_identity_shift():
    w = interior_only(build_process(preset_process("HaarEnv", 1, 2, seed=11)))
    eps = 1e-3
    shifted = LabeledOperator(w.op.labels, w.mat + eps * np.eye(4))
    m = reconstruction_metrics(w, shifted)
    assert abs(m["frobenius_error"] - eps * 2.0) < 1e-12  # eps * sqrt(dim)


def test_metrics_trace_distance_symmetric(rng):
    w = interior_only(build_process(preset_process("HaarEnv", 1, 2, seed=11)))
    other = LabeledOperator(w.op.labels, w.mat + 0.01 * random_hermitian(rng, 4))
    m1 = reconstruction_metrics(w.op, other)
    m2 = reconstruction_metrics(other, w.op)
    assert abs(m1["trace_distance"] - m2["trace_distance"]) < 1e-12


def test_metrics_label_mismatch(rng, qubit16):
    a = qubit16.elements[0].choi
    from proctomo.tensor_core import Role, SpaceLabel
    b = LabeledOperator((SpaceLabel(2, Role.INPUT, 2), SpaceLabel(2, Role.OUTPUT, 2)), a.mat)
    with pytest.raises(DimMismatch):
        reconstruction_metrics(a, b)


def test_estimate_functional_rejects_observable_of_other_dims(qubit16_bundle):
    # the frame's keys with qudit factors: no permutation can make the labels match
    labels = tuple(SpaceLabel(l.lab, l.role, 3) for l in qubit16_bundle.labels)
    with pytest.raises(DimMismatch):
        estimate_functional(LabeledOperator(labels, np.eye(9)), qubit16_bundle, [])


@pytest.mark.parametrize("chunk", [37, 5000])
def test_frame_does_not_depend_on_the_chunk_size(monkeypatch, weyl_n2, chunk):
    reference = build_frame(weyl_n2)
    monkeypatch.setattr(probe_factory, "CHUNK", chunk)
    assert len(weyl_n2) % chunk != 0
    bundle = build_frame(weyl_n2)
    assert np.array_equal(bundle.coords, reference.coords)
    assert np.array_equal(bundle.tvecs, reference.tvecs)


def test_tvecs_are_the_vec_of_every_element_choi(qubit16, weyl_n2):
    for family in (qubit16, weyl_n2):
        vecs = np.stack([vec_matrix(canonicalize(e.choi).mat) for e in family])
        assert np.max(np.abs(build_frame(family).tvecs - vecs)) <= 1e-12
