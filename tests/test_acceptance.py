"""Acceptance suite: one test per release criterion; each prints one
pass/fail line with the measured values on the real terminal."""

import filecmp
import time

import numpy as np
import pytest

from proctomo import cli, tomography
from proctomo.choi_link import CombDirection, validate_comb
from proctomo.errors import OutsideSpan
from proctomo.op_basis import (
    Normalization,
    clifford_design_qubit,
    kpq_operator,
    moment_matrix,
    weyl_basis,
)
from proctomo.probe_factory import (
    THETA_GRID,
    measure_prepare_family,
    operator_schmidt_rank,
    phase_filter,
    qubit16_family,
    weyl_isolated_term,
    unitary_only_family,
)
from proctomo.process_sim import (
    build_process,
    interior_only,
    preset_process,
    sample_shots,
)
from proctomo.tensor_core import LabeledOperator, tensor

from conftest import random_hermitian


def verify_check(name, **overrides):
    """One check of the `proctomo verify` registry, as the CLI runs it."""
    passed, detail = cli.run_check(name, cli.load_config(None, overrides))
    assert passed, f"{name}: {detail}"
    return detail


def test_c01_span_dimensions(announce):
    t0 = time.monotonic()
    results = {}
    for d, expected in ((2, (10, 13, 16)), (3, (65, 73, 81))):
        detail = verify_check("span_formulas", dim=d)
        results[d] = (detail["unitary"], detail["cptp"], detail["measure_prepare"])
        assert results[d] == expected, f"d={d}: measured {results[d]}, expected {expected}"
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    announce(f"ACCEPTANCE 1 PASS: spans d=2 {results[2]}, d=3 {results[3]} "
             f"({elapsed:.1f} s)")


def test_c02_qubit16_counts(qubit16, announce):
    bundle = tomography.build_frame(qubit16)
    rank10 = tomography.build_frame(unitary_only_family()).rank
    assert len(qubit16) == 16
    assert bundle.rank == 16
    assert rank10 == 10
    announce(f"ACCEPTANCE 2 PASS: 16 elements, frame rank {bundle.rank}, "
             f"unitary sub-family rank {rank10}")


def test_c03_measure_prepare_choi(announce):
    detail = verify_check("measure_prepare_choi")
    assert detail["circuits"] >= 20 and detail["max_frobenius"] <= 1e-10
    announce(f"ACCEPTANCE 3 PASS: {detail['circuits']} random measure-prepare circuits, "
             f"max Frobenius deviation {detail['max_frobenius']:.2e}")


def test_c04_weyl_family_two_labs(weyl_n2, announce):
    t0 = time.monotonic()
    fam = weyl_n2
    assert len(fam) == 2048
    bundle = tomography.build_frame(fam)
    assert bundle.rank == 256

    # PSD for every element, tester combs per setting
    worst_eig = 0.0
    for e in fam:
        h = (e.choi.mat + e.choi.mat.conj().T) / 2
        worst_eig = min(worst_eig, float(np.linalg.eigvalsh(h)[0]))
    assert worst_eig >= -1e-10
    worst_comb = 0.0
    for sid, elems in fam.settings().items():
        total = LabeledOperator(elems[0].choi.labels, sum(e.choi.mat for e in elems))
        rep = validate_comb(total, direction=CombDirection.TESTER, tol=1e-10)
        worst_comb = max(worst_comb, rep.max_violation)
        assert rep.passed, f"setting {sid} violates tester comb by {rep.max_violation:.2e}"

    # phase filter vs tensor oracle on every Weyl index block: the outcome-0
    # elements run over 256 index tuples, then over the theta grid
    zeros = [e for e in fam if e.outcome == "0"]
    pairs = [e.meta["pairs"] for e in zeros[::4]]
    assert len({str(p) for p in pairs}) == 256
    assert [e.meta["pairs"] for e in zeros] == [p for p in pairs for _ in THETA_GRID]
    assert [e.meta["thetas"] for e in zeros] == [[t] for t in THETA_GRID] * 256
    chois = np.stack([e.choi.mat for e in zeros]).reshape(256, 4, 16, 16)
    filtered = phase_filter(chois.transpose(1, 0, 2, 3))
    worst_filter = max(float(np.max(np.abs(block - weyl_isolated_term(2, p).mat)))
                       for block, p in zip(filtered, pairs))
    assert worst_filter <= 1e-10
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    announce(f"ACCEPTANCE 4 PASS: 2048 elements, rank 256, min eig {worst_eig:.1e}, "
             f"tester comb {worst_comb:.1e}, filter dev {worst_filter:.1e} ({elapsed:.0f} s)")


def test_c05_three_lab_isolation(announce):
    t0 = time.monotonic()
    detail = verify_check("phase_filter_isolation", labs=3)
    assert detail["settings"] >= 256 and detail["max_delta"] <= 1e-9
    elapsed = time.monotonic() - t0
    assert elapsed < 600.0
    announce(f"ACCEPTANCE 5 PASS: {detail['settings']} three-lab settings, nested-filter "
             f"deviation {detail['max_delta']:.2e} ({elapsed:.0f} s)")


def test_c06_two_design_identities(announce):
    basis = weyl_basis(2, Normalization.HS_ORTHONORMAL)
    design = clifford_design_qubit()
    m = moment_matrix(design, basis)
    worst_m = 0.0
    for p in range(3):
        for q in range(3):
            for i in range(3):
                for j in range(3):
                    expected = 1.0 if (p == i and q == j) else 0.0
                    worst_m = max(worst_m, abs(m[p, q, i, j] - expected))
    assert worst_m <= 1e-10
    worst_k = 0.0
    for p in range(1, 4):
        for q in range(1, 4):
            k = kpq_operator(p, q, design=design, basis=basis)
            target = np.kron(basis.matrix(p).T, basis.matrix(q))
            worst_k = max(worst_k, float(np.max(np.abs(k.mat - target))))
    assert worst_k <= 1e-10
    twirl = verify_check("clifford_twirl")
    worst_t = twirl["max_delta"]
    assert twirl["samples"] >= 20 and worst_t <= 1e-10
    announce(f"ACCEPTANCE 6 PASS: moment matrix dev {worst_m:.1e}, "
             f"K_pq dev {worst_k:.1e}, twirl dev {worst_t:.1e}")


def test_c07_end_to_end_tomography(qubit16, qubit16_bundle, weyl_n2, announce):
    bundle2 = tomography.build_frame(weyl_n2)
    exact = {}
    for preset in ("HaarEnv", "ClassicalMemory"):
        w1 = interior_only(build_process(preset_process(preset, 1, 2, seed=71)))
        rep1 = tomography.linear_inversion(qubit16_bundle, sample_shots(w1, qubit16, 0))
        err1 = tomography.reconstruction_metrics(w1, rep1.w_est)["frobenius_error"]
        assert err1 <= 1e-8, f"{preset} N=1 error {err1:.2e}"
        w2 = interior_only(build_process(preset_process(preset, 2, 2, seed=72)))
        rep2 = tomography.linear_inversion(bundle2, sample_shots(w2, weyl_n2, 0))
        err2 = tomography.reconstruction_metrics(w2, rep2.w_est)["frobenius_error"]
        assert err2 <= 1e-7, f"{preset} N=2 error {err2:.2e}"
        exact[preset] = (err1, err2)

    w = interior_only(build_process(preset_process("HaarEnv", 1, 2, seed=73)))
    medians = []
    for shots in (10 ** 3, 10 ** 4, 10 ** 5):
        errs = []
        for seed in range(10):
            rep = tomography.linear_inversion(
                qubit16_bundle, sample_shots(w, qubit16, shots, seed=seed))
            errs.append(tomography.reconstruction_metrics(w, rep.w_est)["frobenius_error"])
        medians.append(float(np.median(errs)))
    assert medians[0] > medians[1] > medians[2]
    announce("ACCEPTANCE 7 PASS: exact errors "
             + ", ".join(f"{k} {v[0]:.1e}/{v[1]:.1e}" for k, v in exact.items())
             + f"; shot medians {medians[0]:.3f} > {medians[1]:.3f} > {medians[2]:.3f}")


def test_c08_schmidt_rank_bounds(announce):
    details = [verify_check("schmidt_bound", labs=n_labs) for n_labs in (2, 3)]
    assert all(d["probes"] >= 10 for d in details)
    worst = max(d["max_rank"] for d in details)
    assert worst <= 4
    # product probes have rank exactly 1 across every cut
    q16 = qubit16_family()
    base = q16.elements[5].choi
    shifted = LabeledOperator(
        tuple(type(l)(l.lab + 1, l.role, l.dim) for l in base.labels), base.mat)
    product = tensor(base, shifted)
    ranks = {operator_schmidt_rank(product, {1}), operator_schmidt_rank(product, {2})}
    assert ranks == {1}
    announce(f"ACCEPTANCE 8 PASS: ancilla probes max bond {worst} <= 4 across "
             f"contiguous cuts (N<=3), product probes rank 1")


def test_c09_functional_estimation(qubit16, qubit16_bundle, announce):
    rng = np.random.default_rng(909)
    w = interior_only(build_process(preset_process("HaarEnv", 1, 2, seed=90)))
    records = sample_shots(w, qubit16, 0)
    worst = 0.0
    for _ in range(20):
        o = LabeledOperator(qubit16_bundle.labels, random_hermitian(rng, 4))
        value, _, _ = tomography.estimate_functional(o, qubit16_bundle, records)
        direct = float(np.trace(w.mat.T @ o.mat).real)
        worst = max(worst, abs(value - direct))
    assert worst <= 1e-8

    unitary_bundle = tomography.build_frame(unitary_only_family())
    unitary_records = sample_shots(w, unitary_only_family(), 0)
    mp_choi = measure_prepare_family(2).elements[0].choi
    with pytest.raises(OutsideSpan):
        tomography.estimate_functional(
            LabeledOperator(unitary_bundle.labels, mp_choi.mat),
            unitary_bundle, unitary_records)
    announce(f"ACCEPTANCE 9 PASS: functional deviation {worst:.2e}; "
             f"measure-prepare observable rejected by unitary-only bundle")


def test_c10_pipeline_determinism(tmp_path, announce):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert cli.main(["simulate", "--preset", "HaarEnv", "--labs", "1",
                         "--shots", "2000", "--seed", "42", "--out", str(out)]) == 0
        assert cli.main(["reconstruct", "--out", str(out)]) == 0
    names = ("meta.json", "w_true.json", "family.jsonl", "records.json",
             "records.csv", "report.json")
    for name in names:
        assert filecmp.cmp(out_a / name, out_b / name, shallow=False), name
    announce("ACCEPTANCE 10 PASS: simulate+reconstruct rerun is bit-identical "
             f"across {len(names)} artifacts")
