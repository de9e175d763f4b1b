"""Frame operator, dual frame, linear-inversion reconstruction, functional
estimation, and reconstruction-quality metrics.

The generalized Born rule reads p_a = Tr[W^T T_a]. Every probe Choi T_a and
W^T are Hermitian, so the estimator is a real least-squares problem: each
Hermitian matrix of side s has s^2 orthonormal real coordinates
(`hermitian_coords`), in which Tr[AB] is the dot product and p = R x with row
a of R the coordinates of T_a and x those of W^T. The frame G = R^T R is real
symmetric; one `eigh` of it gives the rank, the condition number and the
pseudo-inverse used by every estimate. The single transpose is applied when x
is mapped back to a matrix, never inside the frame.
"""

import collections
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .choi_link import CombDirection, validate_comb
from .errors import (
    DimMismatch,
    EmptyFamily,
    MissingData,
    NotIC,
    NotPSD,
    OutsideSpan,
    UnexpectedRecord,
)
from .probe_factory import ProbeFamily
from .process_sim import ExperimentRecord
from .tensor_core import LabeledOperator, canonicalize, sqrt_psd


def hermitian_coords(mats: np.ndarray) -> np.ndarray:
    """Orthonormal real coordinates (..., s, s) -> (..., s^2) of Hermitian
    matrices: the diagonal, then sqrt2 Re and sqrt2 Im of the strict upper
    triangle, so that <r(A), r(B)> = Tr[AB]."""
    rows, cols = np.triu_indices(mats.shape[-1], 1)
    upper = mats[..., rows, cols] * np.sqrt(2)
    return np.concatenate([np.diagonal(mats, axis1=-2, axis2=-1).real,
                           upper.real, upper.imag], axis=-1)


def hermitian_from_coords(x: np.ndarray, side: int) -> np.ndarray:
    """The Hermitian matrices (..., s, s) with coordinates x (..., s^2)."""
    rows, cols = np.triu_indices(side, 1)
    k = rows.size
    upper = (x[..., side:side + k] + 1j * x[..., side + k:]) / np.sqrt(2)
    mats = np.zeros(x.shape[:-1] + (side, side), dtype=np.complex128)
    mats[..., rows, cols] = upper
    mats[..., cols, rows] = upper.conj()
    mats[..., np.arange(side), np.arange(side)] = x[..., :side]
    return mats


@dataclass(frozen=True)
class FrameBundle:
    family: ProbeFamily
    coords: np.ndarray         # row a = hermitian_coords(T_a), M x D real
    evals: np.ndarray          # kept eigenvalues of G = R^T R, ascending
    evecs: np.ndarray          # their eigenvectors, D x rank
    condition_number: float
    labels: tuple

    @property
    def dim(self) -> int:
        return self.coords.shape[1]

    @property
    def rank(self) -> int:
        return self.evals.size

    @property
    def side(self) -> int:
        return math.isqrt(self.dim)

    @property
    def is_complete(self) -> bool:
        return self.rank == self.dim

    def solve(self, y: np.ndarray) -> np.ndarray:
        """G^+ y over the kept eigenpairs; y is (D,) or (D, n)."""
        return self.evecs @ ((self.evecs.T @ y).T / self.evals).T

    @functools.cached_property
    def tvecs(self) -> np.ndarray:
        """Row a = vec(T_a), complex; built on first use."""
        return np.concatenate([c.transpose(0, 2, 1).reshape(len(c), -1)
                               for c in self.family.choi_chunks()])

    @functools.cached_property
    def duals(self) -> np.ndarray:
        """Row a = vec(D_a) with D_a = F^+ T_a, complex; built on first use."""
        mats = hermitian_from_coords(self.solve(self.coords.T).T, self.side)
        return mats.transpose(0, 2, 1).reshape(len(mats), -1)


def build_frame(family: ProbeFamily) -> FrameBundle:
    """Real coordinates of the probes (by ProbeFamily.choi_chunks) and one
    eigendecomposition of the real symmetric frame G = R^T R.

    Eigenvalues above 1e-10 * lambda_max are kept; they give the rank, the
    condition number (largest kept over smallest kept) and the pseudoinverse.
    """
    if len(family) == 0:
        raise EmptyFamily("cannot build a frame from an empty family")
    coords = np.concatenate([hermitian_coords(c) for c in family.choi_chunks()])
    evals, evecs = np.linalg.eigh(coords.T @ coords)
    keep = evals > max(1e-10 * evals[-1], 0.0)
    kept = evals[keep]
    cond = float(kept[-1] / kept[0]) if kept.size else float("inf")
    return FrameBundle(family=family, coords=coords, evals=kept, evecs=evecs[:, keep],
                       condition_number=cond, labels=family.labels)


def dual_identity_check(bundle: FrameBundle) -> float:
    """Operator-norm residual of sum_a |D_a><T_a| minus the identity, in real
    coordinates: G^+ G - I."""
    if not bundle.is_complete:
        raise NotIC(f"frame rank {bundle.rank} < dimension {bundle.dim}")
    resolution = bundle.solve(bundle.coords.T @ bundle.coords)
    return float(np.linalg.norm(resolution - np.eye(bundle.dim), 2))


def _frequencies(bundle: FrameBundle, data) -> np.ndarray:
    table: dict[tuple[str, str], ExperimentRecord] = {}
    for r in data:
        table[(r.setting_id, r.outcome)] = r
    if len(table) < len(data):  # the table keeps only the last record of a repeated key
        counts = collections.Counter((r.setting_id, r.outcome) for r in data)
        raise UnexpectedRecord(f"record {max(counts, key=counts.get)} is repeated")
    freqs = np.empty(len(bundle.family))
    for i, e in enumerate(bundle.family):
        rec = table.get(e.record_key)
        if rec is None:
            raise MissingData(f"no record for element {e.record_key}")
        freqs[i] = rec.frequency()
    if len(table) > len(freqs):  # every element found a record, so some record has no element
        keys = {e.record_key for e in bundle.family}
        raise UnexpectedRecord(f"record {next(k for k in table if k not in keys)} "
                               f"is no element of the family")
    return freqs


@dataclass
class ReconstructionReport:
    w_est: LabeledOperator
    max_data_residual: float
    rms_data_residual: float
    psd_violation: float
    comb_violation: float
    frame_rank: int
    condition_number: float
    complete: bool
    projected: bool = False
    metrics: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "max_data_residual": self.max_data_residual,
            "rms_data_residual": self.rms_data_residual,
            "psd_violation": self.psd_violation,
            "comb_violation": self.comb_violation,
            "frame_rank": self.frame_rank,
            "condition_number": self.condition_number,
            "complete": self.complete,
            "projected": self.projected,
            "metrics": dict(self.metrics),
        }


def linear_inversion(bundle: FrameBundle, data, project_psd: bool = False) -> ReconstructionReport:
    """Dual-frame estimate W_est = unvec(sum_a p_a D_a)^T, solved in real
    coordinates as x = G^+ R^T p; the estimate is Hermitian by construction.

    PSD and comb violations are reported, not repaired; project_psd=True
    additionally clamps negative eigenvalues and rescales the trace, clearly a
    post-processing step outside plain linear inversion.
    """
    freqs = _frequencies(bundle, data)
    x = bundle.solve(bundle.coords.T @ freqs)  # coordinates of the W^T estimate
    w_mat = hermitian_from_coords(x, bundle.side).T
    projected = False
    if project_psd:
        tr = np.trace(w_mat).real
        vals, vecs = np.linalg.eigh(w_mat)
        clipped = np.clip(vals, 0.0, None)
        w_mat = (vecs * clipped) @ vecs.conj().T
        if np.trace(w_mat).real > 0 and tr > 0:
            w_mat *= tr / np.trace(w_mat).real
        x = hermitian_coords(w_mat.T)
        projected = True
    w_est = LabeledOperator(bundle.labels, w_mat)
    resid = bundle.coords @ x - freqs
    comb = validate_comb(w_est, direction=CombDirection.PROCESS)
    psd_violation = float(max(0.0, -comb.min_eigenvalue))
    return ReconstructionReport(
        w_est=w_est,
        max_data_residual=float(np.max(np.abs(resid))),
        rms_data_residual=float(np.sqrt(np.mean(resid ** 2))),
        psd_violation=psd_violation,
        comb_violation=float(comb.max_violation),
        frame_rank=bundle.rank,
        condition_number=bundle.condition_number,
        complete=bundle.is_complete,
        projected=projected,
    )


def estimate_functional(o: LabeledOperator, bundle: FrameBundle, data):
    """Expand a Hermitian observable in the probe family and evaluate the
    functional Tr[W^T O] from the same statistics used for tomography.

    Returns (value, coefficient map keyed by (setting, outcome), expansion
    residual). Raises OutsideSpan when the observable is not in the family's
    span within a relative residual of 1e-8. A non-Hermitian O = H + iK is
    expanded through H and K, which gives complex coefficients.
    """
    o = canonicalize(o)  # the frame's labels are canonical too, so no other order can match
    if o.labels != bundle.labels:
        raise DimMismatch(f"observable labels {o.labels} vs frame {bundle.labels}")
    herm, skew = (o.mat + o.mat.conj().T) / 2, (o.mat - o.mat.conj().T) / 2j  # O = H + iK
    parts = hermitian_coords(np.stack([herm, skew] if np.any(skew) else [herm]))
    # one matrix-vector product per part: c_a = Tr[D_a H] (and Tr[D_a K])
    coeffs = np.stack([bundle.coords @ bundle.solve(v) for v in parts])
    recon = np.stack([c @ bundle.coords for c in coeffs])
    scale = max(float(np.linalg.norm(parts)), 1.0)
    residual = float(np.linalg.norm(recon - parts)) / scale
    if residual > 1e-8:
        raise OutsideSpan(f"expansion residual {residual:.3e} exceeds 1e-8")
    freqs = _frequencies(bundle, data)
    value = float(coeffs[0] @ freqs)
    complex_coeffs = coeffs[0] + 1j * coeffs[1] if len(coeffs) > 1 else coeffs[0]
    coeff_map = {e.record_key: complex(c) for e, c in zip(bundle.family, complex_coeffs.tolist())}
    return value, coeff_map, residual


def reconstruction_metrics(w_true, w_est) -> dict:
    """Frobenius error, trace distance (half the 1-norm of the difference) and
    fidelity of the trace-normalized Hermitian parts, negative eigenvalues
    clipped. For a non-PSD estimate the fidelity is ill-conditioned (a 1.4e-12
    change in w_est moved it by 3.0e-9 at N=1 d=6), so compare by frobenius_error.
    Metrics that overflow or are not finite (a truth of zero trace) raise NotPSD."""
    a = w_true.op if hasattr(w_true, "op") else w_true
    b = w_est.op if hasattr(w_est, "op") else w_est
    a = canonicalize(a)
    b = canonicalize(b)
    if a.keys != b.keys:
        raise DimMismatch(f"label signatures differ: {a.keys} vs {b.keys}")
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            diff = a.mat - b.mat
            frob = float(np.linalg.norm(diff))
            tdist = float(0.5 * np.sum(np.linalg.svd(diff, compute_uv=False)))
            rho = (a.mat + a.mat.conj().T) / 2
            sig = (b.mat + b.mat.conj().T) / 2
            rho = rho / np.trace(rho).real
            sig = sig / np.trace(sig).real
            sqrt_rho = sqrt_psd(rho, tol=1e-8)
            inner = sqrt_rho @ sig @ sqrt_rho
            vals = np.linalg.eigvalsh((inner + inner.conj().T) / 2)
            fidelity = float(np.sum(np.sqrt(np.clip(vals, 0.0, None))) ** 2)
    except (FloatingPointError, np.linalg.LinAlgError) as exc:
        raise NotPSD(f"metrics are not finite: {exc}") from exc
    return {"frobenius_error": frob, "trace_distance": tdist, "fidelity": fidelity}
