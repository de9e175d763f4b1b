"""Ground-truth process matrices from system-environment dilations, the
generalized Born rule, and exact or finite-shot synthetic data.

A full process matrix for N labs lives on the wires
(0,O), (1,I), (1,O), ..., (N,O), (N+1,I): lab 0's output models the
preparation wire and lab N+1's input the final measurement wire. Contracting
those two boundary wires with a fixed preparation and a trace yields the
interior-only matrix on the per-lab (I, O) factors that the probe families
address.
"""

import functools
import zlib
from dataclasses import dataclass

import numpy as np

from . import choi_link
from .choi_link import choi_of_unitary, link_product
from .errors import (
    DimMismatch,
    InvalidSpec,
    NegativeProbability,
    NotNormalizedSetting,
    UnknownPreset,
)
from .op_basis import haar_unitary
from .probe_factory import ProbeElement, ProbeFamily
from .tensor_core import (
    MAX_SIDE,
    LabeledOperator,
    Role,
    SpaceLabel,
    canonicalize,
    checked_power,
    partial_trace,
)

NEGATIVITY_TOL = 1e-8
SPEC_TOL = 1e-9  # unitarity, positivity, trace and Hermiticity of the spec's inputs

PRESET_NAMES = ("IdentityWire", "MarkovDepolarizing", "ClassicalMemory", "HaarEnv")


def derive_rng(seed: int, *purpose) -> np.random.Generator:
    """Generator derived from a root seed and a tuple of purpose tokens.

    String tokens are hashed; the derivation is stable across runs and
    independent of evaluation order.
    """
    words = [int(seed) & 0xFFFFFFFF]
    for p in purpose:
        words.append(zlib.crc32(str(p).encode()) & 0xFFFFFFFF)
    return np.random.default_rng(np.random.SeedSequence(words))


# ---------------------------------------------------------------------------
# Specifications and presets
# ---------------------------------------------------------------------------

def _is_psd(m: np.ndarray) -> bool:
    """Hermitian with no eigenvalue below -SPEC_TOL."""
    return (np.max(np.abs(m - m.conj().T)) <= SPEC_TOL
            and np.linalg.eigvalsh(m)[0] >= -SPEC_TOL)


def _is_state(m: np.ndarray, d: int) -> bool:
    return m.shape == (d, d) and abs(np.trace(m) - 1.0) <= SPEC_TOL and _is_psd(m)


def _check_side(n_labs: int, d_sys: int) -> None:
    """InvalidSpec unless n_labs >= 1, d_sys >= 2 and the full W, boundary wires included,
    has side d_sys^(2N+2) <= MAX_SIDE."""
    if n_labs < 1 or d_sys < 2:
        raise InvalidSpec("need n_labs >= 1 and d_sys >= 2")
    side = checked_power(d_sys, 2 * n_labs + 2)
    if side is None or side > MAX_SIDE:
        shown = ">= 2^63" if side is None else f"= {side}"
        raise InvalidSpec(f"process side d_sys^(2N+2) {shown} exceeds {MAX_SIDE}")


@dataclass(frozen=True)
class ProcessSpec:
    n_labs: int
    d_sys: int
    d_env: int = 1
    env_state: np.ndarray | None = None
    unitaries: tuple[np.ndarray, ...] | None = None
    channels: tuple[np.ndarray, ...] | None = None
    name: str = "custom"
    seed: int | None = None

    def __post_init__(self):
        _check_side(self.n_labs, self.d_sys)
        if self.d_env < 1:
            raise InvalidSpec("need d_env >= 1")
        if (self.unitaries is None) == (self.channels is None):
            raise InvalidSpec("exactly one of unitaries/channels must be given")
        n_steps = self.n_labs + 1
        if self.channels is not None:
            chans = tuple(np.asarray(c, dtype=np.complex128) for c in self.channels)
            if len(chans) != n_steps:
                raise InvalidSpec(f"need {n_steps} step channels, got {len(chans)}")
            d = self.d_sys
            for t, c in enumerate(chans):
                if c.shape != (d * d, d * d):
                    raise InvalidSpec("step channels must be d_sys^2-dimensional Chois")
                if not _is_psd(c):
                    raise InvalidSpec(f"step channel {t} is not Hermitian PSD")
                out_traced = np.einsum("ikjk->ij", c.reshape(d, d, d, d))  # over (t + 1, I)
                if np.max(np.abs(out_traced - np.eye(d))) > SPEC_TOL:
                    raise InvalidSpec(f"step channel {t} is not trace preserving")
            object.__setattr__(self, "channels", chans)
            return
        us = tuple(np.asarray(u, dtype=np.complex128) for u in self.unitaries)
        if len(us) != n_steps:
            raise InvalidSpec(f"need {n_steps} joint unitaries, got {len(us)}")
        dj = self.d_sys * self.d_env
        for u in us:
            if u.shape != (dj, dj):
                raise InvalidSpec(f"joint unitaries must be {dj}x{dj}")
            if np.max(np.abs(u.conj().T @ u - np.eye(dj))) > SPEC_TOL:
                raise InvalidSpec("joint unitaries must be unitary within tolerance")
        if self.d_env > 1 and self.env_state is None:
            raise InvalidSpec("env_state required when d_env > 1")
        env = np.asarray([[1.0]] if self.d_env == 1 else self.env_state, dtype=np.complex128)
        if not _is_state(env, self.d_env):
            raise InvalidSpec("env_state must be a unit-trace Hermitian PSD d_env state")
        object.__setattr__(self, "env_state", env)
        object.__setattr__(self, "unitaries", us)


def _depolarizing_choi(d: int, p: float) -> np.ndarray:
    return (1 - p) * choi_link.bell_matrix(d) + p * np.eye(d * d, dtype=np.complex128) / d


def preset_process(name: str, n_labs: int, d_sys: int, seed: int = 0,
                   p: float = 0.5, d_env: int = 2) -> ProcessSpec:
    """Deterministic fixture specs; identical (name, args, seed) give an
    identical spec. The sizes are checked before anything is drawn."""
    _check_side(n_labs, d_sys)
    steps = n_labs + 1
    if name == "IdentityWire":
        return ProcessSpec(n_labs, d_sys, d_env=1,
                           unitaries=tuple([np.eye(d_sys)] * steps),
                           name=name, seed=seed)
    if name == "MarkovDepolarizing":
        if not 0.0 <= p <= 1.0:
            raise InvalidSpec(f"depolarizing weight must be in [0, 1], got {p}")
        return ProcessSpec(n_labs, d_sys, d_env=1,
                           channels=tuple([_depolarizing_choi(d_sys, p)] * steps),
                           name=f"{name}(p={p})", seed=seed)
    if name == "ClassicalMemory":
        omega = np.exp(2j * np.pi / d_sys)
        fourier = np.array([[omega ** (j * k) for k in range(d_sys)]
                            for j in range(d_sys)]) / np.sqrt(d_sys)
        branch = {0: np.eye(d_sys, dtype=np.complex128), 1: fourier}
        u = np.zeros((2 * d_sys, 2 * d_sys), dtype=np.complex128)
        for e in (0, 1):
            ee = np.zeros((2, 2))
            ee[e, e] = 1.0
            u += np.kron(branch[e], ee)
        env = np.diag([0.5, 0.5]).astype(np.complex128)
        return ProcessSpec(n_labs, d_sys, d_env=2, env_state=env,
                           unitaries=tuple([u] * steps), name=name, seed=seed)
    if name == "HaarEnv":
        if not 1 <= d_env <= 4:
            raise InvalidSpec("HaarEnv supports d_env in 1..4")
        rng = derive_rng(seed, "preset", "HaarEnv", n_labs, d_sys, d_env)
        dj = d_sys * d_env
        env = np.zeros((d_env, d_env), dtype=np.complex128)
        env[0, 0] = 1.0
        return ProcessSpec(n_labs, d_sys, d_env=d_env,
                           env_state=env if d_env > 1 else None,
                           unitaries=tuple(haar_unitary(dj, rng) for _ in range(steps)),
                           name=f"{name}(d_env={d_env})", seed=seed)
    raise UnknownPreset(f"unknown preset {name!r}; choose from {PRESET_NAMES}")


# ---------------------------------------------------------------------------
# Building and contracting process matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProcessMatrix:
    op: LabeledOperator
    n_labs: int
    d_sys: int
    interior: bool = False

    @property
    def mat(self) -> np.ndarray:
        return self.op.mat


def _sys_out(t: int, d: int) -> SpaceLabel:
    return SpaceLabel(t, Role.OUTPUT, d)


def _sys_in(t: int, d: int) -> SpaceLabel:
    return SpaceLabel(t, Role.INPUT, d)


def build_process(spec: ProcessSpec) -> ProcessMatrix:
    """Link the environment state through the joint unitaries and trace the
    final environment; returns the full process matrix with boundary wires.
    Nothing is validated: linking the spec's checked CPTP steps gives a comb."""
    d = spec.d_sys
    n = spec.n_labs
    if spec.channels is not None:
        steps = [LabeledOperator((_sys_out(t, d), _sys_in(t + 1, d)), c)
                 for t, c in enumerate(spec.channels)]
    elif spec.d_env == 1:
        steps = [choi_of_unitary(u, [_sys_out(t, d)], [_sys_in(t + 1, d)])
                 for t, u in enumerate(spec.unitaries)]
    else:
        env = [SpaceLabel(t, Role.ENV, spec.d_env) for t in range(n + 2)]
        steps = [LabeledOperator((env[0],), spec.env_state)]
        steps += [choi_of_unitary(u, [_sys_out(t, d), env[t]], [_sys_in(t + 1, d), env[t + 1]])
                  for t, u in enumerate(spec.unitaries)]
        # No later step shares the last environment wire: trace it before linking.
        steps[-1] = partial_trace(steps[-1], [env[n + 1]])
    w = canonicalize(functools.reduce(link_product, steps))
    return ProcessMatrix(w, n_labs=n, d_sys=d, interior=False)


def interior_only(w: ProcessMatrix, prep: np.ndarray | None = None) -> ProcessMatrix:
    """Contract the preparation wire with a fixed state and trace the final
    measurement wire, leaving the matrix on the interior (I, O) factors.
    Only prep is checked: a comb contracted with a state stays a comb."""
    if w.interior:
        raise InvalidSpec("process matrix is already interior-only")
    d = w.d_sys
    prep = np.asarray(np.diag(np.eye(d)[0]) if prep is None else prep,  # |0><0| by default
                      dtype=np.complex128)
    if not _is_state(prep, d):
        raise InvalidSpec("prep must be a unit-trace Hermitian PSD d_sys state")
    prep_op = LabeledOperator((_sys_out(0, d),), prep)
    contracted = link_product(prep_op, w.op)
    contracted = partial_trace(contracted, [_sys_in(w.n_labs + 1, d)])
    return ProcessMatrix(canonicalize(contracted), n_labs=w.n_labs, d_sys=d, interior=True)


# ---------------------------------------------------------------------------
# Born rule and sampling
# ---------------------------------------------------------------------------

def _checked_probabilities(vals) -> np.ndarray:
    """max(real, 0) of Born values; NegativeProbability beyond NEGATIVITY_TOL."""
    vals = np.asarray(vals)
    if np.any(np.abs(vals.imag) > NEGATIVITY_TOL):
        raise NegativeProbability(f"Born value has imaginary part {np.max(np.abs(vals.imag)):.3e}")
    if np.any(vals.real < -NEGATIVITY_TOL):
        raise NegativeProbability(
            f"Born probability {np.min(vals.real):.3e} below -{NEGATIVITY_TOL}")
    return np.where(vals.real < 0, 0.0, vals.real)  # keeps the sign of a zero, as max(real, 0.0)


def born_probability(w: ProcessMatrix | LabeledOperator, probe) -> float:
    """p = Tr[W^T T] after permuting both operands to canonical label order."""
    wop = w.op if isinstance(w, ProcessMatrix) else w
    top = probe.choi if isinstance(probe, ProbeElement) else probe
    wop, top = canonicalize(wop), canonicalize(top)
    if wop.keys != top.keys:
        raise DimMismatch(f"process labels {wop.keys} do not match probe labels {top.keys}")
    return float(_checked_probabilities(np.sum(wop.mat * top.mat)))


def born_probabilities(w, family: ProbeFamily) -> list[float]:
    """Every element's Born value: canonical Chois stacked chunk by chunk
    (ProbeFamily.choi_chunks) times vec(W); born_probability's checks and clamp."""
    if len(family) == 0:
        return []
    wop = canonicalize(w.op if isinstance(w, ProcessMatrix) else w)
    keys = tuple(l.key for l in family.labels)
    if wop.keys != keys:
        raise DimMismatch(f"process labels {wop.keys} do not match probe labels {keys}")
    wvec = wop.mat.reshape(-1)
    vals = np.concatenate([c.reshape(len(c), -1) @ wvec for c in family.choi_chunks()])
    return _checked_probabilities(vals).tolist()


@dataclass(frozen=True)
class ExperimentRecord:
    setting_id: str
    outcome: str
    probability: float | None = None
    count: int | None = None
    shots_total: int = 0

    def frequency(self) -> float:
        if self.shots_total == 0:
            return float(self.probability)
        return self.count / self.shots_total


def sample_shots(w, family: ProbeFamily, shots: int,
                 seed: int = 0) -> list[ExperimentRecord]:
    """One multinomial draw per setting (a run of ProbeFamily.settings) in family order,
    all from derive_rng(seed, "shots"); shots = 0 emits the exact probabilities instead.
    Records follow the family order; identical (family, shots, seed) give identical records."""
    probs = born_probabilities(w, family)
    rng = derive_rng(seed, "shots")
    records, start = [], 0
    for sid, elems in family.settings().items():
        pvec, start = probs[start:start + len(elems)], start + len(elems)
        total = sum(pvec)
        if abs(total - 1.0) > NEGATIVITY_TOL:
            raise NotNormalizedSetting(f"setting {sid!r} outcome probabilities sum to {total:.10f}")
        if shots == 0:
            records += [ExperimentRecord(sid, e.outcome, probability=p)
                        for e, p in zip(elems, pvec)]
        else:
            counts = rng.multinomial(shots, np.divide(pvec, total)).tolist()
            records += [ExperimentRecord(sid, e.outcome, count=c, shots_total=shots)
                        for e, c in zip(elems, counts)]
    return records
