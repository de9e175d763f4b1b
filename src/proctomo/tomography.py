"""Frame operator, dual frame, linear-inversion reconstruction, functional
estimation, and reconstruction-quality metrics.

The generalized Born rule reads p_a = Tr[W^T T_a]; duals are built from the
plain frame F = sum |T_a><T_a| and the single transpose is applied when the
reconstructed vector is reshaped back to a matrix, never inside the frame.
"""

import collections
import functools
from dataclasses import dataclass, field

import numpy as np

from .choi_link import CombDirection, unvec_matrix, validate_comb, vec_matrix
from .errors import DimMismatch, EmptyFamily, MissingData, NotIC, OutsideSpan, UnexpectedRecord
from .probe_factory import ProbeFamily
from .process_sim import ExperimentRecord
from .tensor_core import LabeledOperator, canonicalize, permute_systems, sqrt_psd


@dataclass(frozen=True)
class FrameBundle:
    family: ProbeFamily
    tvecs: np.ndarray          # row a = vec(T_a)
    fpinv: np.ndarray          # F^+, F = sum |T_a><T_a|
    rank: int
    condition_number: float
    labels: tuple

    @property
    def dim(self) -> int:
        return self.tvecs.shape[1]

    @functools.cached_property
    def duals(self) -> np.ndarray:
        """Row a = F^+ vec(T_a); built on first use."""
        return (self.fpinv @ self.tvecs.T).T

    @property
    def is_complete(self) -> bool:
        return self.rank == self.dim


def build_frame(family: ProbeFamily) -> FrameBundle:
    """Duals from one eigendecomposition of the Hermitian PSD frame operator.

    Eigenvalues above 1e-10 * lambda_max are kept; they give the rank, the
    condition number (largest kept over smallest kept) and the pseudoinverse.
    """
    if len(family) == 0:
        raise EmptyFamily("cannot build a frame from an empty family")
    chois = [canonicalize(e.choi) for e in family]
    labels = chois[0].labels
    tvecs = np.stack([vec_matrix(c.mat) for c in chois])
    evals, evecs = np.linalg.eigh(tvecs.T @ tvecs.conj())
    keep = evals > max(1e-10 * evals[-1], 0.0)
    rank = int(np.count_nonzero(keep))
    kept = evals[keep]
    cond = float(kept[-1] / kept[0]) if rank else float("inf")
    basis = evecs[:, keep]
    fpinv = (basis / kept) @ basis.conj().T
    return FrameBundle(family=family, tvecs=tvecs, fpinv=fpinv, rank=rank,
                       condition_number=cond, labels=labels)


def dual_identity_check(bundle: FrameBundle) -> float:
    """Operator-norm residual of sum_a |D_a><T_a| minus the identity."""
    if not bundle.is_complete:
        raise NotIC(f"frame rank {bundle.rank} < dimension {bundle.dim}")
    resolution = bundle.duals.T @ bundle.tvecs.conj()
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
    """Dual-frame estimate W_est = unvec(sum_a p_a D_a)^T = unvec(F^+ T^T p)^T, Hermitized.

    PSD and comb violations are reported, not repaired; project_psd=True
    additionally clamps negative eigenvalues and rescales the trace, clearly a
    post-processing step outside plain linear inversion.
    """
    freqs = _frequencies(bundle, data)
    x = bundle.fpinv @ (bundle.tvecs.T @ freqs)  # vec of W^T estimate
    w_raw = unvec_matrix(x).T
    w_mat = (w_raw + w_raw.conj().T) / 2
    projected = False
    if project_psd:
        tr = np.trace(w_mat).real
        vals, vecs = np.linalg.eigh(w_mat)
        clipped = np.clip(vals, 0.0, None)
        w_mat = (vecs * clipped) @ vecs.conj().T
        if np.trace(w_mat).real > 0 and tr > 0:
            w_mat *= tr / np.trace(w_mat).real
        projected = True
    w_est = LabeledOperator(bundle.labels, w_mat)
    predicted = (bundle.tvecs.conj() @ vec_matrix(w_mat.T)).real
    resid = predicted - freqs
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
    span within a relative residual of 1e-8.
    """
    o = canonicalize(o)
    if o.labels != bundle.labels:
        try:
            o = permute_systems(o, bundle.labels)
        except Exception as exc:
            raise DimMismatch(f"observable labels {o.keys} vs frame {bundle.labels}") from exc
    ovec = vec_matrix(o.mat)
    coeffs = (bundle.duals @ ovec.conj()).conj()  # conj(D) o without copying D
    recon = bundle.tvecs.T @ coeffs
    scale = max(float(np.linalg.norm(ovec)), 1.0)
    residual = float(np.linalg.norm(recon - ovec)) / scale
    if residual > 1e-8:
        raise OutsideSpan(f"expansion residual {residual:.3e} exceeds 1e-8")
    freqs = _frequencies(bundle, data)
    value = complex(np.dot(coeffs, freqs))
    coeff_map = {e.record_key: complex(c) for e, c in zip(bundle.family, coeffs)}
    return float(value.real), coeff_map, residual


def reconstruction_metrics(w_true, w_est) -> dict:
    """Frobenius error, trace distance (half the 1-norm of the difference), and
    fidelity of the trace-normalized operators."""
    a = w_true.op if hasattr(w_true, "op") else w_true
    b = w_est.op if hasattr(w_est, "op") else w_est
    a = canonicalize(a)
    b = canonicalize(b)
    if a.keys != b.keys:
        raise DimMismatch(f"label signatures differ: {a.keys} vs {b.keys}")
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
    return {"frobenius_error": frob, "trace_distance": tdist, "fidelity": fidelity}
