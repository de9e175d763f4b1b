"""Construction of probe families: single-lab measure-and-prepare circuits,
the 16-element qubit set, block unitaries, qubit-ancilla superinstruments for
N labs, phase filters, and operator Schmidt ranks.

All probes are Choi operators on the per-lab (Input, Output) factors in
canonical order (I1, O1, I2, O2, ...). The ancilla is a single qubit prepared
in |0>, threaded through every lab, and measured in the computational basis at
the end; phase gates on the ancilla sit between consecutive labs. A probe
element is one ancilla outcome of one circuit of a batch, and its Choi is built
from that circuit's tau in the batch when read.
"""

import enum
import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import choi_link, op_basis
from .errors import (
    BadCut,
    DimMismatch,
    InvalidSetting,
    MissingSample,
    NotNormalized,
    OutOfBudget,
    SingularValueExceedsOne,
)
from .op_basis import (
    Normalization,
    PAULI_I,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    HADAMARD,
    weyl_basis,
)
from .tensor_core import (
    DEFAULT_TOL,
    MAX_FRAME_BYTES,
    LabeledOperator,
    Role,
    SpaceLabel,
    checked_power,
    permute_systems,
    sqrt_psd,
)

THETA_GRID = (0.0, np.pi, np.pi / 2, -np.pi / 2)
CHUNK = 256  # Choi matrices that ProbeFamily.choi_chunks stacks at a time


class Provenance(enum.Enum):
    QUBIT16 = "Qubit16"
    WEYL_ANCILLA = "WeylAncilla"
    UNITARY_ONLY = "UnitaryOnly"
    CUSTOM = "Custom"


@dataclass(frozen=True, slots=True)
class ProbeElement:
    """One probe: ancilla outcome m of circuit `row` of its circuit batch. Its labels,
    circuit (built on first read, shared by the circuit's outcomes) and Choi are read from
    there; repr, == and hash read only the id and outcome, so they build nothing."""
    setting_id: str
    outcome: str
    batch: "_CircuitBatch" = field(repr=False, compare=False)
    row: int = field(repr=False, compare=False)
    m: int = field(repr=False, compare=False)

    @property
    def labels(self) -> tuple[SpaceLabel, ...]:
        return self.batch.labels

    @property
    def circuit(self) -> "AncillaProbeSetting":
        return self.batch.circuit(self.row)

    @property
    def choi(self) -> LabeledOperator:
        tau = self.batch.taus[self.row, :, self.m]
        return LabeledOperator(self.labels, np.outer(tau, tau.conj()))

    @property
    def record_key(self) -> tuple[str, str]:
        return (self.setting_id, self.outcome)


@dataclass(frozen=True)
class ProbeFamily:
    elements: tuple[ProbeElement, ...]
    provenance: Provenance = Provenance.CUSTOM
    recipe: dict | None = None  # keyword arguments of GENERATORS[provenance]

    def __post_init__(self):
        elems = tuple(self.elements)
        for e in elems[1:]:
            if e.labels != elems[0].labels:
                raise InvalidSetting(
                    f"inconsistent label signature: {e.labels} vs {elems[0].labels}")
        object.__setattr__(self, "elements", elems)

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    @property
    def labels(self) -> tuple[SpaceLabel, ...]:  # canonical order, as in choi_chunks
        return self.elements[0].labels

    def chois(self) -> list[LabeledOperator]:
        return [e.choi for e in self.elements]

    def choi_chunks(self):
        """The canonical Chois tau tau^dag, CHUNK at a time."""
        for i in range(0, len(self.elements), CHUNK):
            taus = np.stack([e.batch.taus[e.row, :, e.m] for e in self.elements[i:i + CHUNK]])
            yield taus[:, :, None] * taus.conj()[:, None, :]

    def settings(self) -> dict[str, list[ProbeElement]]:
        """Runs of consecutive elements that share a setting id, in family order;
        an id in two runs raises InvalidSetting."""
        grouped: dict[str, list[ProbeElement]] = {}
        for sid, run in itertools.groupby(self.elements, key=lambda e: e.setting_id):
            if sid in grouped:
                raise InvalidSetting(f"setting {sid!r} is not one run of consecutive elements")
            grouped[sid] = list(run)
        return grouped


def lab_labels(lab: int, d: int) -> tuple[SpaceLabel, SpaceLabel]:
    return (SpaceLabel(lab, Role.INPUT, d), SpaceLabel(lab, Role.OUTPUT, d))


# ---------------------------------------------------------------------------
# Block unitaries with a qubit ancilla
# ---------------------------------------------------------------------------

def block_unitary(k00, v, w) -> np.ndarray:
    """Joint system-ancilla unitary with prescribed K00 block.

    Off-diagonal blocks are K01 = sqrt(I - K00 K00^dag) V and
    K10 = W sqrt(I - K00^dag K00); the remaining block is forced to
    K11 = -W K00^dag V. System is the first tensor factor, ancilla the second.
    """
    k00 = np.asarray(k00, dtype=np.complex128)
    v = np.asarray(v, dtype=np.complex128)
    w = np.asarray(w, dtype=np.complex128)
    d = k00.shape[0]
    smax = float(np.linalg.norm(k00, 2))
    if smax > 1.0 + DEFAULT_TOL:
        raise SingularValueExceedsOne(f"largest singular value {smax:.6f} exceeds one")
    eye = np.eye(d, dtype=np.complex128)
    d_left = sqrt_psd(eye - k00 @ k00.conj().T)
    d_right = sqrt_psd(eye - k00.conj().T @ k00)
    u = np.zeros((d, 2, d, 2), dtype=np.complex128)  # K_mn = u[:, m, :, n]
    u[:, 0, :, 0] = k00
    u[:, 0, :, 1] = d_left @ v
    u[:, 1, :, 0] = w @ d_right
    u[:, 1, :, 1] = -w @ k00.conj().T @ v
    return u.reshape(2 * d, 2 * d)


def ancilla_block(u: np.ndarray, m: int, n: int) -> np.ndarray:
    """Block K_mn = (I (x) <m|) U (I (x) |n>) of a system-ancilla unitary."""
    u = np.asarray(u, dtype=np.complex128)
    if u.ndim != 2 or u.shape[0] != u.shape[1] or u.shape[0] % 2:
        raise DimMismatch(f"expected a square system (x) qubit matrix, got {u.shape}")
    d = u.shape[0] // 2
    return u.reshape(d, 2, d, 2)[:, m, :, n]


# ---------------------------------------------------------------------------
# Single-lab measure-and-prepare circuits and fixed qubit families
# ---------------------------------------------------------------------------

def unitary_with_first_column(v: np.ndarray) -> np.ndarray:
    """Deterministic unitary whose first column is the given unit vector."""
    v = np.asarray(v, dtype=np.complex128)
    d = v.size
    cols = [v]
    for j in range(d):
        e = np.zeros(d, dtype=np.complex128)
        e[j] = 1.0
        for c in cols:
            e = e - c * np.vdot(c, e)
        nrm = np.linalg.norm(e)
        if nrm > 1e-8:
            cols.append(e / nrm)
        if len(cols) == d:
            break
    return np.stack(cols, axis=1)


def controlled_flip(d: int) -> np.ndarray:
    """C_X on system (x) ancilla: flips the ancilla unless the system is |0>."""
    p0 = np.zeros((d, d), dtype=np.complex128)
    p0[0, 0] = 1.0
    return np.kron(p0, PAULI_I) + np.kron(np.eye(d) - p0, PAULI_X)


def measure_prepare_joint_unitary(a_effect: np.ndarray, psi_prep: np.ndarray) -> np.ndarray:
    """Joint unitary (V (x) I) C_X (U (x) I) whose outcome-0 Kraus is
    |psi><a|, i.e. the measure-and-prepare branch for effect a and state psi."""
    a = np.asarray(a_effect, dtype=np.complex128)
    psi = np.asarray(psi_prep, dtype=np.complex128)
    d = a.size
    u = unitary_with_first_column(a).conj().T   # <0| U = <a|
    v = unitary_with_first_column(psi)          # V |0> = |psi>
    return np.kron(v, PAULI_I) @ controlled_flip(d) @ np.kron(u, PAULI_I)


def measure_prepare_instrument(a_effect, psi_prep, lab: int = 1,
                               setting_id: str | None = None) -> tuple[ProbeElement, ProbeElement]:
    """Both outcomes of the single-lab qubit-ancilla circuit.

    Outcome 0 has Choi |a><a|^T (x) |psi><psi|; outcome 1 completes the
    instrument to a CPTP pair.
    """
    a = np.asarray(a_effect, dtype=np.complex128)
    psi = np.asarray(psi_prep, dtype=np.complex128)
    for name, s in (("a_effect", a), ("psi_prep", psi)):
        if abs(np.linalg.norm(s) - 1.0) > 1e-10:
            raise NotNormalized(f"{name} has norm {np.linalg.norm(s):.6f}")
    if setting_id is None:
        setting_id = f"mp(a={np.round(a, 6)},psi={np.round(psi, 6)})"
    return tuple(_CircuitBatch((measure_prepare_joint_unitary(a, psi)[None],), (), lab).elements(
        [setting_id], [("0", "1")]))


def _rotation(axis: np.ndarray, theta: float) -> np.ndarray:
    return np.cos(theta / 2) * PAULI_I - 1j * np.sin(theta / 2) * axis


QUBIT16_UNITARIES: tuple[tuple[str, np.ndarray], ...] = (
    ("I", PAULI_I),
    ("X", PAULI_X),
    ("Y", PAULI_Y),
    ("Z", PAULI_Z),
    ("RX90", _rotation(PAULI_X, np.pi / 2)),
    ("RY90", _rotation(PAULI_Y, np.pi / 2)),
    ("RZ90", _rotation(PAULI_Z, np.pi / 2)),
    ("H", HADAMARD),
    ("RZ90.X", _rotation(PAULI_Z, np.pi / 2) @ PAULI_X),
    ("RX90.Y", _rotation(PAULI_X, np.pi / 2) @ PAULI_Y),
)

_PAULI_EIGENVECTORS = {
    "X": (np.array([1, 1], dtype=np.complex128) / np.sqrt(2),
          np.array([1, -1], dtype=np.complex128) / np.sqrt(2)),
    "Y": (np.array([1, 1j], dtype=np.complex128) / np.sqrt(2),
          np.array([1, -1j], dtype=np.complex128) / np.sqrt(2)),
    "Z": (np.array([1, 0], dtype=np.complex128),
          np.array([0, 1], dtype=np.complex128)),
}


def unitary_only_family(lab: int = 1) -> ProbeFamily:
    """The ten deterministic single-qubit probes as one-outcome settings: the
    circuit applies U to the system and leaves the ancilla in |0>."""
    us = np.stack([np.kron(u, PAULI_I) for _, u in QUBIT16_UNITARIES])
    elems = _CircuitBatch((us,), (), lab).elements(
        [f"U:{name}" for name, _ in QUBIT16_UNITARIES], [("0",)] * 10)
    return ProbeFamily(tuple(elems), Provenance.UNITARY_ONLY, {"lab": lab})


def qubit16_family(lab: int = 1) -> ProbeFamily:
    """Ten unitary probes plus the six Pauli measure-and-prepare probes.

    A measure-and-prepare setting for Pauli p with eigenbasis W_p = [|p+>, |p->]
    runs (I (x) W_p^dag) SWAP (I (x) W_p) on system (x) ancilla: the ancilla
    leaves |0> as |p+>, is swapped with the system, and its Z readout measures
    the system in the p basis. Outcomes "+" and "-" are ancilla outcomes 0 and
    1, with effects |p+-><p+-|^T and prepared state |p+>.
    """
    swap = np.eye(4, dtype=np.complex128)[[0, 2, 1, 3]]
    ws = [np.stack(pair, axis=1) for pair in _PAULI_EIGENVECTORS.values()]
    us = np.stack([np.kron(PAULI_I, w.conj().T) @ swap @ np.kron(PAULI_I, w) for w in ws])
    elems = _CircuitBatch((us,), (), lab).elements(
        [f"MP:{name}" for name in _PAULI_EIGENVECTORS], [("+", "-")] * 3)
    return ProbeFamily(unitary_only_family(lab).elements + tuple(elems), Provenance.QUBIT16,
                       {"lab": lab})


# ---------------------------------------------------------------------------
# Qubit-ancilla superinstruments for N labs
# ---------------------------------------------------------------------------

KET0 = np.array([1, 0], dtype=np.complex128)


@dataclass(frozen=True)
class AncillaProbeSetting:
    """One qubit-ancilla circuit: ancilla state psi, a joint system (x) ancilla
    unitary per lab and the phases between labs; its Z readout gives outcomes 0, 1."""
    psi: np.ndarray
    lab_unitaries: tuple[np.ndarray, ...]
    thetas: tuple[float, ...]

    def __post_init__(self):
        psi = np.asarray(self.psi, dtype=np.complex128)
        us = tuple(np.asarray(u, dtype=np.complex128) for u in self.lab_unitaries)
        if psi.shape != (2,) or abs(np.linalg.norm(psi) - 1.0) > 1e-10:
            raise InvalidSetting("ancilla state must be a normalised qubit vector")
        if not us:
            raise InvalidSetting("at least one lab unitary required")
        _check_lab_unitaries(tuple(u[None] for u in us))
        if len(self.thetas) != len(us) - 1:
            raise InvalidSetting(f"need {len(us) - 1} phases, got {len(self.thetas)}")
        object.__setattr__(self, "psi", psi)
        object.__setattr__(self, "lab_unitaries", us)
        object.__setattr__(self, "thetas", tuple(float(t) for t in self.thetas))

    @property
    def n_labs(self) -> int:
        return len(self.lab_unitaries)

    @property
    def d_sys(self) -> int:
        return self.lab_unitaries[0].shape[0] // 2


def _check_lab_unitaries(stacks) -> None:
    """InvalidSetting unless the per-lab stacks (B, 2d, 2d) share one shape and are unitary."""
    shape = stacks[0].shape
    if len(shape) != 3 or shape[1] != shape[2] or shape[1] % 2 or any(
            s.shape != shape for s in stacks) or max(np.max(np.abs(
                s.conj().transpose(0, 2, 1) @ s - np.eye(shape[1]))) for s in stacks) > 1e-9:
        raise InvalidSetting("lab unitaries must be unitary on one system (x) qubit space")


def phase_gate(theta: float) -> np.ndarray:
    return np.diag([1.0, np.exp(1j * theta)]).astype(np.complex128)


def ancilla_taus(psi: np.ndarray, lab_unitaries, thetas: np.ndarray) -> np.ndarray:
    """Taus (B, side, 2) of B circuits (ancilla states psi (B, 2), lab unitaries (B, 2d, 2d)
    per lab, phases thetas (B, N-1)), contracted at once over the ancilla wires. All pieces are
    pure, so circuit b's outcome-m Choi is |tau_m><tau_m|, tau_m = <m|vec(U_N)..vec(P U_1)|psi>."""
    n, b, d = len(lab_unitaries), len(psi), lab_unitaries[0].shape[-1] // 2
    angles, which = np.unique(thetas, return_inverse=True)  # one phase gate per angle
    gates = np.array([phase_gate(a).diagonal() for a in angles]).reshape(-1, 2)[
        which.reshape(thetas.shape)]  # (B, N-1, 2)
    tau = psi.reshape(b, 1, 2)  # axes: batch, (I1, O1, ..., It, Ot), ancilla
    for t, u in enumerate(lab_unitaries, start=1):
        v = u.transpose(0, 2, 1).reshape(b, d, 2, d, 2)  # vec(U): It, ancilla in, Ot, ancilla out
        if t < n:
            v = v * gates[:, t - 1, None, None, None, :]  # vec((I (x) P) U)
        tau = np.einsum("...xa,...iaob->...xiob", tau, v).reshape(b, -1, 2)
    return tau


def _circuit_labels(first_lab: int, n: int, d: int) -> tuple[SpaceLabel, ...]:
    return tuple(l for t in range(first_lab, first_lab + n) for l in lab_labels(t, d))


def ancilla_superinstrument(setting: AncillaProbeSetting,
                            first_lab: int = 1) -> tuple[LabeledOperator, LabeledOperator]:
    """Probe Chois |tau_m><tau_m| of the ancilla outcomes m = 0, 1 on (I1, O1,
    ..., IN, ON), labs numbered from first_lab: ancilla_taus of a batch of one."""
    tau = ancilla_taus(setting.psi[None], tuple(u[None] for u in setting.lab_unitaries),
                       np.array([setting.thetas]))[0]
    labels = _circuit_labels(first_lab, setting.n_labs, setting.d_sys)
    return tuple(LabeledOperator(labels, np.outer(tau[:, m], tau[:, m].conj())) for m in (0, 1))


class _CircuitBatch:
    """Circuits |0> -> lab unitaries -> Z readout: lab_unitaries[t] (B, 2d, 2d) and
    thetas (B, N-1) are checked and contracted to taus (B, side, 2) at once."""

    def __init__(self, lab_unitaries, thetas=(), first_lab: int = 1):
        _check_lab_unitaries(lab_unitaries)
        b, side, _ = lab_unitaries[0].shape
        self.lab_unitaries, self._circuits = lab_unitaries, {}
        self.thetas = np.asarray(thetas, dtype=float).reshape(b, len(lab_unitaries) - 1)
        self.labels = _circuit_labels(first_lab, len(lab_unitaries), side // 2)
        self.taus = ancilla_taus(np.tile(KET0, (b, 1)), lab_unitaries, self.thetas)

    def circuit(self, b: int) -> AncillaProbeSetting:  # built on first read, then reused
        if b not in self._circuits:
            us = tuple(u[b] for u in self.lab_unitaries)
            self._circuits[b] = AncillaProbeSetting(KET0, us, tuple(self.thetas[b]))
        return self._circuits[b]

    def elements(self, setting_ids, outcomes) -> list[ProbeElement]:
        """Circuit b's elements: setting id setting_ids[b], outcomes[b][m] for ancilla outcome m."""
        return [ProbeElement(sid, label, self, row, m)
                for row, (sid, labels) in enumerate(zip(setting_ids, outcomes))
                for m, label in enumerate(labels)]


def phase_filter(samples, links: int = 1) -> np.ndarray:
    """Nested four-point filter (T(0) - T(pi) - i T(pi/2) + i T(-pi/2)) / 4,
    extracting the e^{i theta} Fourier component on each phase link.

    samples is an array whose first `links` axes each run over THETA_GRID;
    the remaining axes (a Choi matrix, a batch of settings, probabilities)
    are carried through. A link axis without four samples raises MissingSample.
    """
    arr = np.asarray(samples)
    if arr.shape[:links] != (len(THETA_GRID),) * links:
        raise MissingSample(f"need {len(THETA_GRID)} phase samples on each of {links} "
                            f"leading axes, got shape {arr.shape}")
    weights = np.array([1, -1, -1j, 1j]) / 4  # over THETA_GRID = (0, pi, pi/2, -pi/2)
    for _ in range(links):
        arr = np.tensordot(weights, arr, axes=1)
    return arr


# ---------------------------------------------------------------------------
# Weyl-block ancilla families
# ---------------------------------------------------------------------------

def weyl_block_spec(d: int, position: str, mu: int,
                    nu: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-lab block choice (K00, V, W) for block_unitary: K00 = sigma_nu / sqrt2
    everywhere; the free unitary targeted by the filter is W = sigma_mu for
    first/middle labs and V = sigma_mu for the last lab."""
    basis = weyl_basis(d, Normalization.WEYL_UNITARY)
    k00 = basis[nu] / np.sqrt(2)
    eye = np.eye(d, dtype=np.complex128)
    if position in ("first", "middle"):
        return k00, eye, basis[mu]
    if position == "last":
        return k00, basis[mu], eye
    raise InvalidSetting(f"unknown lab position {position!r}")


def _position(t: int, n: int) -> str:
    return "first" if t == 1 else ("last" if t == n else "middle")


def weyl_lab_unitaries(d: int, pairs) -> list[np.ndarray]:
    """Joint unitaries for one Weyl-index setting; pairs = [(mu, nu)] per lab."""
    return [block_unitary(*weyl_block_spec(d, _position(t, len(pairs)), mu, nu))
            for t, (mu, nu) in enumerate(pairs, start=1)]


def weyl_isolated_term(d: int, pairs) -> LabeledOperator:
    """Tensor-product term the nested phase filters isolate, built directly
    from the ancilla blocks of the same lab unitaries."""
    n = len(pairs)
    us = weyl_lab_unitaries(d, pairs)
    mats, labels = [], []
    for t, u in enumerate(us, start=1):
        if t == 1:
            ket, bra = ancilla_block(u, 1, 0), ancilla_block(u, 0, 0)
        elif t == n:
            ket, bra = ancilla_block(u, 0, 1), ancilla_block(u, 0, 0)
        else:
            ket, bra = ancilla_block(u, 1, 1), ancilla_block(u, 0, 0)
        vk, vb = choi_link.vec_matrix(ket), choi_link.vec_matrix(bra)
        mats.append(np.outer(vk, vb.conj()))
        labels.extend(lab_labels(t, d))
    full = mats[0]
    for m in mats[1:]:
        full = np.kron(full, m)
    return LabeledOperator(tuple(labels), full)


def _decode_setting(index: int, n_labs: int, d: int) -> list[tuple[int, int]]:
    pairs = []
    base = d * d
    for _ in range(n_labs):
        index, rem = divmod(index, base * base)
        pairs.append((rem // base, rem % base))
    return list(reversed(pairs))


def _check_frame(n_labs: int, d: int, dim: int | None, n_chosen: int | None) -> None:
    """OutOfBudget unless the float64 bytes of the dense frame, 8 D (M + 3D) for D = dim and
    M = n_chosen x 2 x 4^(N-1) elements, are at most MAX_FRAME_BYTES. dim is None above
    INT64_MAX. A D whose 24 D^2 exceeds the bound fails at any M, which keeps every number
    formed here within int64."""
    if dim is None or dim > MAX_FRAME_BYTES // 24 // dim:
        shown = ">= 2^63" if dim is None else f"= {dim}"
        raise OutOfBudget(f"dense frame of N={n_labs} labs at d={d}: D = d^(4N) {shown}, so "
                          f"8 D (M + 3D) exceeds {MAX_FRAME_BYTES} bytes at any element count M")
    elements = n_chosen * 2 * 4 ** (n_labs - 1)
    need = 8 * dim * (elements + 3 * dim)
    if need > MAX_FRAME_BYTES:
        raise OutOfBudget(f"dense frame of N={n_labs} labs at d={d}: D = d^(4N) = {dim} and "
                          f"M = {elements} elements need 8 D (M + 3D) = {need} bytes, above "
                          f"{MAX_FRAME_BYTES}; subsample fewer settings")


def weyl_ancilla_family(n_labs: int, d: int = 2, subsample_settings: int | None = None,
                        seed: int = 0) -> ProbeFamily:
    """Weyl-block qubit-ancilla family: one (mu, nu) pair per lab, the full
    four-point phase grid on every link, and both ancilla outcomes.

    Single-lab families have no phase links, where pure Weyl blocks span only
    d^2 directions; there setting s = effect * d^2 + prep runs the
    measure-and-prepare circuit over the state-tomography grid, keeping the
    d^4 settings x 2 outcomes layout. Settings may be subsampled
    deterministically. Before anything is drawn or built, a family whose dense
    frame would not fit MAX_FRAME_BYTES raises OutOfBudget (_check_frame).
    """
    if n_labs < 1 or d < 2:
        raise InvalidSetting("need n_labs >= 1 and d >= 2")
    recipe = {"n_labs": n_labs, "d": d, "subsample_settings": subsample_settings, "seed": seed}
    n_settings = checked_power(d, 4 * n_labs)  # (d^2)^(2N) = D; None above INT64_MAX
    n_chosen = n_settings if subsample_settings is None else subsample_settings
    if n_settings is not None and not 1 <= n_chosen <= n_settings:
        raise InvalidSetting(f"subsample of {n_chosen} settings is outside 1..{n_settings}")
    if subsample_settings is not None and seed < 0:
        raise InvalidSetting(f"subsample seed must be >= 0 (got {seed})")
    _check_frame(n_labs, d, n_settings, n_chosen)
    chosen = range(n_settings)
    if subsample_settings is not None:
        rng = np.random.default_rng(np.random.SeedSequence([seed, n_labs, d, 0x7E2]))
        chosen = sorted(rng.choice(n_settings, size=subsample_settings, replace=False).tolist())

    if n_labs == 1:  # the same ops as measure_prepare_joint_unitary, each piece built once
        states = op_basis.tomography_state_vectors(d)
        cx = controlled_flip(d)
        prepared = [np.kron(unitary_with_first_column(psi), PAULI_I) @ cx for psi in states]
        measured = [np.kron(unitary_with_first_column(a).conj().T, PAULI_I) for a in states]
        per_setting = [(prepared[s_idx % (d * d)] @ measured[s_idx // (d * d)],)
                       for s_idx in chosen]
    else:  # a lab unitary depends only on its position and (mu, nu): build each once, on use
        lab_unitary = functools.cache(lambda *key: block_unitary(*weyl_block_spec(d, *key)))
        per_setting = [tuple(lab_unitary(_position(t, n_labs), mu, nu) for t, (mu, nu)
                             in enumerate(_decode_setting(s_idx, n_labs, d), start=1))
                       for s_idx in chosen]
    # circuit b runs setting b // n_theta at phases theta_combos[b % n_theta]
    theta_combos = np.array(list(itertools.product(THETA_GRID, repeat=n_labs - 1)))
    n_theta = len(theta_combos)
    stacks = tuple(np.repeat(np.stack(lab), n_theta, axis=0) for lab in zip(*per_setting))
    sids = [f"wa:s{s_idx}" if n_labs == 1 else f"wa:s{s_idx}:th{t_idx}"
            for s_idx in chosen for t_idx in range(n_theta)]
    batch = _CircuitBatch(stacks, np.tile(theta_combos, (len(chosen), 1)))
    elems = batch.elements(sids, [("0", "1")] * len(sids))
    return ProbeFamily(tuple(elems), Provenance.WEYL_ANCILLA, recipe)


GENERATORS = {Provenance.QUBIT16: qubit16_family, Provenance.UNITARY_ONLY: unitary_only_family,
              Provenance.WEYL_ANCILLA: weyl_ancilla_family}


# ---------------------------------------------------------------------------
# Operator Schmidt rank across lab bipartitions
# ---------------------------------------------------------------------------

def operator_schmidt_rank(t, cut) -> int:
    """Rank of the probe reshaped across a bipartition of the labs.

    cut is the set of lab indices on one side; both sides must be nonempty.
    """
    op = t.choi if isinstance(t, ProbeElement) else t
    labs = sorted({l.lab for l in op.labels})
    cut = set(cut)
    if not cut or not cut.issubset(set(labs)) or cut == set(labs):
        raise BadCut(f"cut {sorted(cut)} is not a proper bipartition of labs {labs}")
    left = [l for l in op.labels if l.lab in cut]
    right = [l for l in op.labels if l.lab not in cut]
    arranged = permute_systems(op, left + right)
    dl = math.prod(l.dim for l in left)
    dr = math.prod(l.dim for l in right)
    blocks = arranged.mat.reshape(dl, dr, dl, dr).transpose(0, 2, 1, 3).reshape(dl * dl, dr * dr)
    s = np.linalg.svd(blocks, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > DEFAULT_TOL * s[0]))
