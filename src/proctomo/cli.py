"""Command-line pipeline: span reports, synthetic experiments, reconstruction,
the invariant verification suite, and circuit-manifest export.

Configuration comes from an optional JSON file plus flag overrides; flags win.
All randomness derives from one root seed through labeled purpose strings, so
identical config and seed reproduce bit-identical artifacts.
"""

import argparse
import dataclasses
import itertools
import json
import os
import sys
import typing
from dataclasses import dataclass

import numpy as np

from . import choi_link, op_basis, probe_factory, process_sim, serialize, tomography
from .errors import ConfigError, MissingData, ParseError, ProctomoError, UnexpectedRecord
from .tensor_core import INT64_MAX


@dataclass
class RunConfig:
    dim: int = 2
    labs: int = 1
    preset: str = "HaarEnv"
    p: float = 0.5
    d_env: int = 2
    seed: int = 0
    shots: int = 0
    family: str = "auto"
    subsample: int | None = None
    prep: str = "zero"
    project_psd: bool = False
    out: str = "out"

    def validate(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if not _has_type(value, f.type):
                kind = getattr(f.type, "__name__", str(f.type))
                raise ConfigError(f"{f.name} must be {kind} (got {value!r})")
        if self.dim < 2:
            raise ConfigError(f"dim must be >= 2 (got {self.dim})")
        if self.labs < 1:
            raise ConfigError(f"labs must be >= 1 (got {self.labs})")
        if not 0 <= self.shots <= INT64_MAX:
            raise ConfigError(f"shots must lie in 0..2^63 - 1 (got {self.shots})")
        if self.preset not in process_sim.PRESET_NAMES:
            raise ConfigError(f"preset must be one of {process_sim.PRESET_NAMES} "
                              f"(got {self.preset!r})")
        if self.family not in ("auto", "qubit16", "weyl_ancilla", "unitary_only"):
            raise ConfigError(f"family {self.family!r} is not recognised")
        if self.prep not in ("zero", "maximally_mixed"):
            raise ConfigError(f"prep must be zero or maximally_mixed (got {self.prep!r})")
        if not 0.0 <= self.p <= 1.0:
            raise ConfigError(f"p must lie in [0, 1] (got {self.p})")
        return self


def _has_type(value, kind) -> bool:
    """isinstance against a field annotation; a bool is no int, an int is a float."""
    allowed = typing.get_args(kind) or (kind,)
    if isinstance(value, bool):
        return bool in allowed
    return isinstance(value, allowed) or (float in allowed and isinstance(value, int))


def load_config(path: str | None, overrides: dict) -> RunConfig:
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    data = {}
    if path:
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, ValueError) as exc:  # ValueError: also an int beyond 4300 digits
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"config {path} must hold a JSON object")
        unknown = set(data) - fields
        if unknown:
            raise ConfigError(f"unknown config field {sorted(unknown)[0]!r}")
    data.update({k: v for k, v in overrides.items() if v is not None})
    cfg = RunConfig(**{k: v for k, v in data.items() if k in fields})
    return cfg.validate()


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _build_family(cfg: RunConfig) -> probe_factory.ProbeFamily:
    choice = cfg.family
    if choice == "auto":
        choice = "qubit16" if (cfg.labs == 1 and cfg.dim == 2) else "weyl_ancilla"
    if choice == "qubit16":
        if cfg.dim != 2 or cfg.labs != 1:
            raise ConfigError("family qubit16 requires dim=2 and labs=1")
        return probe_factory.qubit16_family()
    if choice == "unitary_only":
        if cfg.dim != 2 or cfg.labs != 1:
            raise ConfigError("family unitary_only requires dim=2 and labs=1")
        return probe_factory.unitary_only_family()
    return probe_factory.weyl_ancilla_family(cfg.labs, cfg.dim, subsample_settings=cfg.subsample,
                                             seed=cfg.seed)


def cmd_span(cfg: RunConfig) -> int:
    report = op_basis.span_bound_reports(cfg.dim, seed=cfg.seed)
    os.makedirs(cfg.out, exist_ok=True)
    _write_json(os.path.join(cfg.out, "span.json"), report.as_dict())
    for row in report.rows:
        status = "ok" if row.match else "MISMATCH"
        print(f"span {row.family}: measured {row.measured}, formula {row.formula} [{status}]")
    return 0 if report.all_match else 1


def cmd_simulate(cfg: RunConfig) -> int:
    spec = process_sim.preset_process(cfg.preset, cfg.labs, cfg.dim,
                                      seed=cfg.seed, p=cfg.p, d_env=cfg.d_env)
    family = _build_family(cfg)  # its frame guard runs before W is built
    w_full = process_sim.build_process(spec)
    prep = np.eye(cfg.dim, dtype=np.complex128) / cfg.dim if cfg.prep == "maximally_mixed" else None
    w_int = process_sim.interior_only(w_full, prep)  # None prepares |0><0|
    records = process_sim.sample_shots(w_int, family, cfg.shots, seed=cfg.seed)
    os.makedirs(cfg.out, exist_ok=True)
    serialize.save_family(family, os.path.join(cfg.out, "family.jsonl"))
    with open(os.path.join(cfg.out, "records.json"), "w") as fh:
        fh.write(serialize.records_to_json(records))
    with open(os.path.join(cfg.out, "records.csv"), "w") as fh:
        fh.write(serialize.records_to_csv(records))
    w_payload = serialize.operator_to_json(w_int.op)
    w_payload["meta"] = {"interior": True, "preset": spec.name, "n_labs": cfg.labs,
                         "d_sys": cfg.dim, "seed": cfg.seed, "prep": cfg.prep}
    _write_json(os.path.join(cfg.out, "w_true.json"), w_payload)
    cfg_echo = dataclasses.asdict(cfg)
    cfg_echo.pop("out")  # location of the artifacts, not part of the run identity
    _write_json(os.path.join(cfg.out, "meta.json"),
                {"config": cfg_echo, "family_size": len(family),
                 "comb_max_violation": choi_link.validate_comb(w_int.op).max_violation})
    print(f"simulate: {len(family)} probe elements, shots={cfg.shots}, out={cfg.out}")
    return 0


def cmd_reconstruct(cfg: RunConfig) -> int:
    fam_path = os.path.join(cfg.out, "family.jsonl")
    rec_path = os.path.join(cfg.out, "records.json")
    if not (os.path.exists(fam_path) and os.path.exists(rec_path)):
        raise ConfigError(f"out dir {cfg.out!r} lacks simulate artifacts")
    try:
        family = serialize.load_family(fam_path)
    except ParseError as exc:
        raise ParseError(f"{fam_path}: {exc}") from exc
    with open(rec_path) as fh:
        try:
            records = serialize.records_from_json(fh.read())
        except ParseError as exc:
            raise ParseError(f"{rec_path}: {exc}") from exc
    bundle = tomography.build_frame(family)
    try:
        report = tomography.linear_inversion(bundle, records, project_psd=cfg.project_psd)
    except (MissingData, UnexpectedRecord) as exc:
        raise type(exc)(f"{rec_path} does not fit {fam_path}: {exc}") from exc
    truth_path = os.path.join(cfg.out, "w_true.json")
    if os.path.exists(truth_path):
        with open(truth_path) as fh:
            try:  # a truth whose labels are not the frame's does not fit this run either
                w_true = serialize.operator_from_json(json.load(fh))
                report.metrics = tomography.reconstruction_metrics(w_true, report.w_est)
            except (ValueError, ProctomoError) as exc:
                raise ParseError(f"bad {truth_path}: {exc}") from exc
    payload = report.as_dict()
    payload["w_est"] = serialize.operator_to_json(report.w_est)
    _write_json(os.path.join(cfg.out, "report.json"), payload)
    line = (f"reconstruct: rank {report.frame_rank} / {bundle.dim}, "
            f"psd_violation {report.psd_violation:.3e}, "
            f"comb_violation {report.comb_violation:.3e}")
    if report.metrics:
        line += f", frobenius_error {report.metrics['frobenius_error']:.3e}"
    print(line if report.complete else f"{line}; the frame is not informationally complete")
    return 0 if report.complete else 1


def cmd_export_circuits(cfg: RunConfig) -> int:
    family = _build_family(cfg)
    manifests = serialize.family_manifests(family)
    os.makedirs(cfg.out, exist_ok=True)
    _write_json(os.path.join(cfg.out, "circuits.json"), manifests)
    print(f"export-circuits: {len(manifests)} settings -> {cfg.out}/circuits.json")
    return 0


def _span_formulas(cfg: RunConfig, rng):
    report = op_basis.span_bound_reports(cfg.dim, seed=cfg.seed)
    return report.all_match, {r.family: r.measured for r in report.rows}


def _clifford_twirl(cfg: RunConfig, rng):
    samples = 20
    design = op_basis.clifford_design_qubit()
    xs = [rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)) for _ in range(samples)]
    worst = max(float(np.max(np.abs(op_basis.haar_twirl2(x) - op_basis.design_twirl2(x, design))))
                for x in xs)
    return worst <= 1e-10, {"samples": samples, "max_delta": worst}


def _measure_prepare_choi(cfg: RunConfig, rng):
    circuits, worst = 20, 0.0
    for _ in range(circuits):
        a, psi = op_basis.haar_state(2, rng), op_basis.haar_state(2, rng)
        e0, _ = probe_factory.measure_prepare_instrument(a, psi)
        target = np.kron(np.outer(a, a.conj()).T, np.outer(psi, psi.conj()))
        worst = max(worst, float(np.linalg.norm(e0.choi.mat - target)))
    return worst <= 1e-10, {"circuits": circuits, "max_frobenius": worst}


def _phase_filter_isolation(cfg: RunConfig, rng):
    """Distinct qubit Weyl settings at N = clamp(labs, 2, 3), each filtered over
    its outcome-0 theta grid, against the isolated tensor term."""
    n, settings = max(2, min(cfg.labs, 3)), 256
    grid = list(itertools.product(probe_factory.THETA_GRID, repeat=n - 1))
    worst = 0.0
    for index in rng.choice(16 ** n, size=settings, replace=False):
        pairs = probe_factory._decode_setting(int(index), n, 2)
        us = tuple(probe_factory.weyl_lab_unitaries(2, pairs))
        chois = np.stack([probe_factory.ancilla_superinstrument(probe_factory.AncillaProbeSetting(
            probe_factory.KET0, us, thetas))[0].mat for thetas in grid])
        iso = probe_factory.phase_filter(chois.reshape((4,) * (n - 1) + chois.shape[1:]), n - 1)
        iso -= probe_factory.weyl_isolated_term(2, pairs).mat
        worst = max(worst, float(np.max(np.abs(iso))))
    return worst <= 1e-9, {"settings": settings, "max_delta": worst}


def _preset_comb(cfg: RunConfig, rng):
    """Full boundary-wire W of three presets, which nothing validates while building."""
    reports = [choi_link.validate_comb(process_sim.build_process(process_sim.preset_process(
        preset, cfg.labs, 2, seed=cfg.seed)).op)
        for preset in ("IdentityWire", "HaarEnv", "ClassicalMemory")]
    return all(r.passed for r in reports), {"max_violation": max(r.max_violation for r in reports)}


def _schmidt_bound(cfg: RunConfig, rng):
    """Bond of random block-unitary ancilla probes at every cut of max(2, labs) labs."""
    n, probes, worst = max(2, cfg.labs), 10, 0
    for _ in range(probes):
        us = tuple(probe_factory.block_unitary(
            rng.uniform(0, 1) * op_basis.haar_unitary(2, rng), op_basis.haar_unitary(2, rng),
            op_basis.haar_unitary(2, rng)) for _ in range(n))
        e = probe_factory.ancilla_superinstrument(probe_factory.AncillaProbeSetting(
            probe_factory.KET0, us,
            tuple(rng.uniform(-np.pi, np.pi, n - 1))))[int(rng.integers(0, 2))]  # random outcome
        worst = max([worst] + [probe_factory.operator_schmidt_rank(e, set(range(1, k + 1)))
                               for k in range(1, n)])
    return worst <= 4, {"probes": probes, "max_rank": worst}


def _qubit16_frame(cfg: RunConfig, rng):
    bundle = tomography.build_frame(probe_factory.qubit16_family())
    resid = tomography.dual_identity_check(bundle) if bundle.is_complete else float("inf")
    return bundle.rank == 16 and resid <= 1e-8, {"rank": bundle.rank, "dual_residual": resid}


# name -> check(cfg, rng) -> (passed, detail), in verify.json order; the
# acceptance tests run these checks too
CHECKS = {"span_formulas": _span_formulas, "clifford_twirl": _clifford_twirl,
          "measure_prepare_choi": _measure_prepare_choi,
          "phase_filter_isolation": _phase_filter_isolation, "preset_comb": _preset_comb,
          "schmidt_bound": _schmidt_bound, "qubit16_frame": _qubit16_frame}


def run_check(name: str, cfg: RunConfig) -> tuple[bool, dict]:
    """One registered check with its own random stream, so its result does not
    depend on which checks ran before it."""
    passed, detail = CHECKS[name](cfg, process_sim.derive_rng(cfg.seed, "verify", name))
    return bool(passed), detail


def cmd_verify(cfg: RunConfig) -> int:
    os.makedirs(cfg.out, exist_ok=True)
    payload = []
    for name in CHECKS:
        ok, detail = run_check(name, cfg)
        payload.append({"check": name, "passed": ok, "detail": detail})
        print(f"[{'PASS' if ok else 'FAIL'}] {name} {detail}")
    all_ok = all(c["passed"] for c in payload)
    _write_json(os.path.join(cfg.out, "verify.json"), {"passed": all_ok, "checks": payload})
    return 0 if all_ok else 1


COMMANDS = {
    "span": cmd_span,
    "simulate": cmd_simulate,
    "reconstruct": cmd_reconstruct,
    "verify": cmd_verify,
    "export-circuits": cmd_export_circuits,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="proctomo",
        description="Multi-time process simulation and tomography pipeline")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", default=None, help="JSON config file")
    parser.add_argument("--dim", type=int, default=None)
    parser.add_argument("--labs", type=int, default=None)
    parser.add_argument("--shots", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", default=None)
    parser.add_argument("--preset", default=None)
    parser.add_argument("--p", type=float, default=None, dest="p")
    parser.add_argument("--d-env", type=int, default=None, dest="d_env")
    parser.add_argument("--family", default=None)
    parser.add_argument("--subsample", type=int, default=None)
    parser.add_argument("--prep", default=None)
    parser.add_argument("--project-psd", action="store_const", const=True,
                        default=None, dest="project_psd")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {k: v for k, v in vars(args).items() if k not in ("command", "config")}
    try:
        cfg = load_config(args.config, overrides)
        return COMMANDS[args.command](cfg)
    except ProctomoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
