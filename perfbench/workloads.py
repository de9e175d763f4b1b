"""The benchmark's workloads. Each drives proctomo's public API in-process;
the pipeline set-up and the checks' reference values run in child processes.

A workload has
- `setup(rep)`: what must exist before the first op; the runner calls it
  several times. It returns figures, among them its own time `setup_s`;
- `prepare_checks()`: untimed reference values for the checks, computed by
  `references` in a child process;
- `op(i)`: one unit of closed-loop work, timed by the runner;
- `check(i)`: untimed checks of op i's outputs. It returns the problems
  found and figures for the report.

`setup` and `op` return figures too: phase times in seconds, artifact sizes
in bytes and reconstruction errors. Why each workload exists is in README.md.
"""

import contextlib
import io
import json
import os
import pickle
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from proctomo import cli, probe_factory, process_sim, serialize, tomography
from proctomo.tensor_core import LabeledOperator, canonicalize

EXACT_TOL = 1e-12
# Shot-data reconstruction error may reach this multiple of the predicted
# root-mean-square error of the dual-frame estimator.
RECON_ERROR_FACTOR = 2.0
# A functional estimate may sit this many standard deviations from the truth.
FUNCTIONAL_SIGMAS = 6.0
# Relative tolerance on identities that hold exactly for the expansion
# coefficients of an observable.
EXPANSION_TOL = 1e-9
OBSERVABLE_POOL = 64
# (labs, dim, shots) of each workload
SIZES = {"pair_exact": (2, 2, 0), "qudit_shots": (1, 6, 1000), "pair_functionals": (2, 2, 1000)}
CHILD = Path(__file__).resolve().parent / "child.py"
CHILD_TIMEOUT_S = 120


class SetupFailure(RuntimeError):
    """Set-up produced wrong outputs; the run cannot measure anything."""


def run_child(*args) -> str:
    """Standard output of child.py run with `args` in a fresh interpreter."""
    done = subprocess.run([sys.executable, str(CHILD), *args], capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise SetupFailure(f"child.py {args[0]} exited {done.returncode}: "
                           f"{done.stderr[-2000:]}")
    return done.stdout


def load_references(name, seed, workdir) -> dict:
    """`references(name, seed)`, computed in a child process."""
    path = os.path.join(workdir, "references.pickle")
    run_child("references", name, str(seed), path)
    with open(path, "rb") as fh:
        return pickle.load(fh)


def _run_cli(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _artifact_bytes(out) -> dict:
    return {name: os.path.getsize(os.path.join(out, name)) for name in sorted(os.listdir(out))}


def _read_bytes(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _read_operator(path) -> LabeledOperator:
    with open(path) as fh:
        return serialize.operator_from_json(json.load(fh))


def _setting_index(family):
    """Index of each element's setting, in family order, and the setting count."""
    _, idx = np.unique([e.setting_id for e in family], return_inverse=True)
    return idx, int(idx.max()) + 1


def _interior_reference(labs, dim, seed):
    """The interior process matrix `proctomo simulate` builds for this config."""
    spec = process_sim.preset_process("HaarEnv", labs, dim, seed=seed)
    w_full = process_sim.build_process(spec)
    prep = np.zeros((dim, dim), dtype=np.complex128)
    prep[0, 0] = 1.0
    return process_sim.interior_only(w_full, prep).op


def observable_pool(seed, side) -> list:
    """The random Hermitian observables of `pair_functionals`."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xF0]))
    pool = []
    for _ in range(OBSERVABLE_POOL):
        a = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
        pool.append((a + a.conj().T) / 2)
    return pool


def references(name, seed) -> dict:
    """Reference values for the checks of workload `name`: the interior
    process matrix `proctomo simulate` should write, and what the workload's
    checks derive from it."""
    labs, dim, shots = SIZES[name]
    w_ref = _interior_reference(labs, dim, seed)
    refs = {"w_ref": w_ref}
    if shots == 0:
        return refs
    family = probe_factory.weyl_ancilla_family(labs, dim)
    p = np.array(process_sim.born_probabilities(w_ref, family))
    idx, n_settings = _setting_index(family)
    if name == "qudit_shots":
        # Root-mean-square error of x = sum_a f_a D_a under multinomial
        # sampling: per setting, (sum_k p_k |D_k|^2 - |sum_k p_k D_k|^2) / shots.
        duals = tomography.build_frame(family).duals
        mean = np.zeros((n_settings, duals.shape[1]), dtype=np.complex128)
        np.add.at(mean, idx, p[:, None] * duals)
        second = float(np.sum(p * np.sum(np.abs(duals) ** 2, axis=1)))
        refs["predicted_error"] = float(np.sqrt((second - float(np.sum(np.abs(mean) ** 2)))
                                                / shots))
        return refs
    w = canonicalize(w_ref)
    # Tr[W^T O] = sum_ij W_ij O_ij
    refs.update(keys=[e.record_key for e in family], p=p, setting_idx=idx,
                truths=[float(np.sum(w.mat * o).real)
                        for o in observable_pool(seed, w.mat.shape[0])])
    return refs


class Pipeline:
    """One op is `proctomo simulate` then `proctomo reconstruct` on a fresh
    out dir. Set-up is the package's import, timed in a fresh interpreter:
    the ops run in this process, where the package is imported once, while a
    command-line user pays the import on every command."""

    def __init__(self, name, seed, workdir):
        self.name, self.seed, self.workdir = name, seed, workdir
        labs, dim, self.shots = SIZES[name]
        self.args = ["--preset", "HaarEnv", "--family", "weyl_ancilla",
                     "--labs", str(labs), "--dim", str(dim), "--shots", str(self.shots),
                     "--seed", str(seed)]
        self.frame_dim = dim ** (4 * labs)
        self.w_ref = None
        self.first_outputs = None
        self.predicted_error = None
        self.exit_codes = None

    def setup(self, rep) -> dict:
        return {"setup_s": float(run_child("import"))}

    def prepare_checks(self):
        refs = load_references(self.name, self.seed, self.workdir)
        self.w_ref, self.predicted_error = refs["w_ref"], refs.get("predicted_error")

    def _out(self, i):
        return os.path.join(self.workdir, f"op{i}")

    def op(self, i) -> dict:
        out = self._out(i)
        t0 = time.perf_counter()
        rc_sim = _run_cli(["simulate", "--out", out] + self.args)
        t1 = time.perf_counter()
        rc_rec = _run_cli(["reconstruct", "--out", out] + self.args)
        t2 = time.perf_counter()
        self.exit_codes = (rc_sim, rc_rec)
        return {"simulate_s": t1 - t0, "reconstruct_s": t2 - t1}

    def check(self, i):
        out = self._out(i)
        try:
            return self._check(out)
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def _check(self, out):
        if self.exit_codes != (0, 0):
            return [f"exit codes {self.exit_codes}"], {}
        problems = []
        outputs = tuple(_read_bytes(os.path.join(out, n)) for n in ("meta.json", "report.json"))
        if self.first_outputs is None:
            self.first_outputs = outputs
        elif outputs != self.first_outputs:
            problems.append("meta.json or report.json differs from the run's first op")
        report = json.loads(outputs[1])
        if report["frame_rank"] != self.frame_dim:
            problems.append(f"frame rank {report['frame_rank']} != {self.frame_dim}")
        w_true = _read_operator(os.path.join(out, "w_true.json"))
        if (w_true.labels != self.w_ref.labels
                or np.max(np.abs(w_true.mat - self.w_ref.mat)) > EXACT_TOL):
            problems.append("w_true.json differs from the reference process matrix")
        err = report["metrics"]["frobenius_error"]
        if self.shots == 0:
            if not err <= EXACT_TOL:
                problems.append(f"exact-data error {err:.3e} > {EXACT_TOL}")
        else:
            w_est = serialize.operator_from_json(report["w_est"])
            recomputed = float(np.linalg.norm(w_est.mat - self.w_ref.mat))
            if abs(recomputed - err) > 1e-9 * max(1.0, err):
                problems.append(f"reported error {err} != recomputed {recomputed}")
            if not err <= RECON_ERROR_FACTOR * self.predicted_error:
                problems.append(f"shot-data error {err:.3e} > {RECON_ERROR_FACTOR} x "
                                f"predicted {self.predicted_error:.3e}")
        return problems, {"recon_error": err, "artifact_bytes": _artifact_bytes(out)}


class PairFunctionals:
    """Set-up runs `proctomo simulate` (N=2, d=2, 1000 shots), loads the
    artifacts, builds the frame and reconstructs. One op is one
    `tomography.estimate_functional` call on a random Hermitian observable."""

    labs, dim, shots = SIZES["pair_functionals"]

    def __init__(self, seed, workdir):
        self.seed, self.workdir = seed, workdir
        self.args = ["--preset", "HaarEnv", "--family", "weyl_ancilla",
                     "--labs", str(self.labs), "--dim", str(self.dim),
                     "--shots", str(self.shots), "--seed", str(seed)]
        self.first_meta = None
        self.first = {}  # observable index -> _check_expansion result
        self.last = None

    def setup(self, rep) -> dict:
        out = os.path.join(self.workdir, f"setup{rep}")
        try:
            t0 = time.perf_counter()
            rc = _run_cli(["simulate", "--out", out] + self.args)
            t1 = time.perf_counter()
            if rc != 0:
                raise SetupFailure(f"simulate exited {rc}")
            family = serialize.load_family(os.path.join(out, "family.jsonl"))
            with open(os.path.join(out, "records.json")) as fh:
                records = serialize.records_from_json(fh.read())
            w_true = _read_operator(os.path.join(out, "w_true.json"))
            bundle = tomography.build_frame(family)
            report = tomography.linear_inversion(bundle, records)
            metrics = tomography.reconstruction_metrics(w_true, report.w_est)
            t2 = time.perf_counter()
            meta = _read_bytes(os.path.join(out, "meta.json"))
            artifacts = _artifact_bytes(out)
        finally:
            shutil.rmtree(out, ignore_errors=True)
        if self.first_meta is None:
            self.first_meta = meta
        elif meta != self.first_meta:
            raise SetupFailure("meta.json differs between set-up repetitions")
        if bundle.rank != bundle.dim:
            raise SetupFailure(f"frame rank {bundle.rank} != {bundle.dim}")
        self.bundle, self.records, self.w_true = bundle, records, w_true
        return {"setup_s": t2 - t0, "simulate_s": t1 - t0, "reconstruct_s": t2 - t1,
                "recon_error": metrics["frobenius_error"], "artifact_bytes": artifacts}

    def prepare_checks(self):
        refs = load_references("pair_functionals", self.seed, self.workdir)
        ref = refs["w_ref"]
        if (ref.labels != self.w_true.labels
                or np.max(np.abs(ref.mat - self.w_true.mat)) > EXACT_TOL):
            raise SetupFailure("w_true.json differs from the reference process matrix")
        self.keys, self.p, self.setting_idx = refs["keys"], refs["p"], refs["setting_idx"]
        freq = {(r.setting_id, r.outcome): r.frequency() for r in self.records}
        self.f = np.array([freq[k] for k in self.keys])
        w = canonicalize(self.w_true)
        if w.labels != self.bundle.labels:
            raise SetupFailure("w_true labels differ from the frame's")
        self.pool = [(LabeledOperator(w.labels, o), truth) for o, truth in
                     zip(observable_pool(self.seed, w.mat.shape[0]), refs["truths"])]

    def op(self, i) -> dict:
        self.last = tomography.estimate_functional(self.pool[i % OBSERVABLE_POOL][0],
                                                   self.bundle, self.records)
        return {}

    def check(self, i):
        value, coeff_map, _ = self.last
        j = i % OBSERVABLE_POOL
        truth = self.pool[j][1]
        if j not in self.first:
            self.first[j] = self._check_expansion(value, coeff_map, truth)
        first_value, sigma, problems = self.first[j]
        problems = list(problems)
        err = abs(value - truth)
        if not err <= FUNCTIONAL_SIGMAS * sigma + EXACT_TOL:
            problems.append(f"functional error {err:.3e} > {FUNCTIONAL_SIGMAS} sigma "
                            f"({sigma:.3e})")
        if value != first_value:
            problems.append(f"observable {j} gave {value!r}, earlier {first_value!r}")
        return problems, {"functional_error": err, "functional_z": err / sigma}

    def _check_expansion(self, value, coeff_map, truth):
        """(value, standard deviation, problems) of an observable's first call.
        Later calls on it must return the same value, so the coefficients are
        checked once per observable."""
        c = np.array([coeff_map[k] for k in self.keys]).real
        scale = max(1.0, abs(truth))
        problems = []
        # The expansion reproduces O, so on exact probabilities it gives
        # Tr[W^T O]; on the recorded frequencies it gives the estimate.
        on_exact, on_counts = float(np.dot(c, self.p)), float(np.dot(c, self.f))
        if abs(on_exact - truth) > EXPANSION_TOL * scale:
            problems.append(f"coefficients give {on_exact!r} on exact probabilities, "
                            f"not Tr[W^T O] = {truth!r}")
        if abs(on_counts - value) > EXPANSION_TOL * scale:
            problems.append(f"estimate {value!r} is not sum_a c_a f_a = {on_counts!r}")
        # Standard deviation of sum_a c_a f_a, f multinomial per setting.
        first = np.bincount(self.setting_idx, weights=c * self.p)
        second = np.bincount(self.setting_idx, weights=c * c * self.p)
        sigma = float(np.sqrt(np.sum(second - first ** 2) / self.shots))
        return value, sigma, problems


def make(name, seed, workdir):
    if name == "pair_functionals":
        return PairFunctionals(seed, workdir)
    return Pipeline(name, seed, workdir)
