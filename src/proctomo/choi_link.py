"""Choi representations, vectorization, channel application, the link product,
and recursive comb-constraint validation.

Vectorization convention (fixed package-wide): |A> = (I (x) A)|1>> with
|1>> = sum_n |n>|n>, i.e. component n*d + m equals A[m, n]. Under this
convention <vecA|vecB> = Tr[A^dag B] and the Choi of a unitary channel is the
rank-one projector onto |vec U>.
"""

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimMismatch,
    DimMismatchOnSharedLabel,
    NotUnitary,
    ShapeMismatch,
    TraceExceedsOne,
)
from .tensor_core import (
    DEFAULT_TOL,
    LabeledOperator,
    Role,
    SpaceLabel,
    identity_operator,
    partial_trace,
    permute_systems,
    tensor,
)


def vec_matrix(m: np.ndarray) -> np.ndarray:
    """Column-stacking vec: component n*d_out + m equals M[m, n]."""
    return np.asarray(m, dtype=np.complex128).T.reshape(-1)


def unvec_matrix(v: np.ndarray, shape=None) -> np.ndarray:
    v = np.asarray(v, dtype=np.complex128)
    if shape is None:
        d = round(math.isqrt(v.size))
        if d * d != v.size:
            raise DimMismatch(f"vector of length {v.size} is not a square matrix")
        shape = (d, d)
    rows, cols = shape
    return v.reshape(cols, rows).T


def bell_matrix(d: int) -> np.ndarray:
    """Unnormalised maximally entangled projector |1>><<1| on d (x) d."""
    v = np.eye(d, dtype=np.complex128).T.reshape(-1)
    return np.outer(v, v.conj())


def _default_single_lab(d: int):
    return ([SpaceLabel(1, Role.INPUT, d)], [SpaceLabel(1, Role.OUTPUT, d)])


def choi_of_unitary(u, in_labels=None, out_labels=None) -> LabeledOperator:
    """Rank-one Choi projector |vec U><vec U| of a unitary channel."""
    umat = np.asarray(u, dtype=np.complex128)
    d = umat.shape[0]
    if umat.shape != (d, d) or np.max(np.abs(umat.conj().T @ umat - np.eye(d))) > DEFAULT_TOL * 10:
        raise NotUnitary(f"matrix of shape {umat.shape} is not unitary within tolerance")
    if in_labels is None or out_labels is None:
        in_labels, out_labels = _default_single_lab(d)
    in_labels, out_labels = list(in_labels), list(out_labels)
    if math.prod(l.dim for l in in_labels) != d or math.prod(l.dim for l in out_labels) != d:
        raise DimMismatch("label dims do not match the unitary dimension")
    v = vec_matrix(umat)
    return LabeledOperator(tuple(in_labels + out_labels), np.outer(v, v.conj()))


def choi_of_kraus(ks, in_labels=None, out_labels=None) -> LabeledOperator:
    """Sum of vec-projectors of a Kraus family; CPTP iff sum K^dag K = I."""
    mats = [np.asarray(k, dtype=np.complex128) for k in ks]
    if not mats:
        raise ShapeMismatch("empty Kraus list")
    shape = mats[0].shape
    if any(m.shape != shape for m in mats):
        raise ShapeMismatch(f"Kraus operators disagree on shape {shape}")
    d_out, d_in = shape
    gram = sum(m.conj().T @ m for m in mats)
    excess = float(np.linalg.eigvalsh((gram + gram.conj().T) / 2)[-1]) - 1.0
    if excess > DEFAULT_TOL * 10:
        raise TraceExceedsOne(f"sum K^dag K exceeds identity by {excess:.3e}")
    if in_labels is None or out_labels is None:
        if d_in != d_out:
            raise DimMismatch("explicit labels required for non-square Kraus operators")
        in_labels, out_labels = _default_single_lab(d_in)
    in_labels, out_labels = list(in_labels), list(out_labels)
    if math.prod(l.dim for l in in_labels) != d_in or math.prod(l.dim for l in out_labels) != d_out:
        raise DimMismatch("label dims do not match the Kraus shape")
    mat = np.zeros((d_in * d_out, d_in * d_out), dtype=np.complex128)
    for m in mats:
        v = vec_matrix(m)
        mat += np.outer(v, v.conj())
    return LabeledOperator(tuple(in_labels + out_labels), mat)


def link_product(A: LabeledOperator, B: LabeledOperator) -> LabeledOperator:
    """Link product A * B: contraction over the common (lab, role) factors.

    Equals Tr_C[(A^{T_C} (x) I)(I (x) B)] with C the shared factors; reduces to
    the tensor product when no labels are shared and to Tr[A^T B] when all are.
    """
    common = [k for k in A.keys if k in set(B.keys)]
    for k in common:
        if A.labels[A.position(k)].dim != B.labels[B.position(k)].dim:
            raise DimMismatchOnSharedLabel(f"shared label {k} has conflicting dims")
    if not common:
        return tensor(A, B)
    a_only = [l for l in A.labels if l.key not in common]
    b_only = [l for l in B.labels if l.key not in common]
    com_a = [A.labels[A.position(k)] for k in common]
    com_b = [B.labels[B.position(k)] for k in common]
    A2 = permute_systems(A, a_only + com_a)
    B2 = permute_systems(B, com_b + b_only)
    da = math.prod(l.dim for l in a_only)
    dc = math.prod(l.dim for l in com_a)
    db = math.prod(l.dim for l in b_only)
    ta = A2.mat.reshape(da, dc, da, dc)
    tb = B2.mat.reshape(dc, db, dc, db)
    out = np.einsum("imjn,mknl->ikjl", ta, tb, optimize=True)
    return LabeledOperator(tuple(a_only + b_only), out.reshape(da * db, da * db))


# ---------------------------------------------------------------------------
# Comb-constraint validation
# ---------------------------------------------------------------------------

class CombDirection(enum.Enum):
    PROCESS = "Process"
    TESTER = "Tester"


@dataclass
class CombLevel:
    index: int
    identity_key: tuple
    traced_key: tuple | None
    violation: float


@dataclass
class CombReport:
    direction: CombDirection
    min_eigenvalue: float
    levels: list[CombLevel] = field(default_factory=list)
    scalar_violation: float = 0.0

    @property
    def max_violation(self) -> float:
        worst = max((lv.violation for lv in self.levels), default=0.0)
        return max(worst, self.scalar_violation)

    @property
    def passed(self) -> bool:
        return self.min_eigenvalue >= -DEFAULT_TOL and self.max_violation <= DEFAULT_TOL

    def summary(self) -> dict:
        return {
            "direction": self.direction.value,
            "passed": bool(self.passed),
            "min_eigenvalue": self.min_eigenvalue,
            "max_violation": self.max_violation,
            "levels": [
                {"index": lv.index, "identity": f"{lv.identity_key}",
                 "traced": f"{lv.traced_key}", "violation": lv.violation}
                for lv in self.levels
            ],
        }


def _infer_ordering(w: LabeledOperator, direction: CombDirection):
    """Derive the time-ordered (identity wire, traced wire) pairs from labels."""
    keys = set(w.keys)
    labs = sorted({lab for lab, _ in keys})
    pairs = []
    if direction is CombDirection.TESTER:
        for t in labs:
            pairs.append(((t, Role.INPUT), (t, Role.OUTPUT)))
        return pairs
    has_boundary = (labs and (labs[0], Role.INPUT) not in keys)
    if has_boundary:
        # full process matrix with preparation/measurement wires
        for t in labs[:-1]:
            pairs.append(((t, Role.OUTPUT), (t + 1, Role.INPUT)))
    else:
        # interior-only process matrix on per-lab (I, O) pairs
        for t in labs[:-1]:
            pairs.append(((t, Role.OUTPUT), (t + 1, Role.INPUT)))
        pairs.append(((labs[-1], Role.OUTPUT), None))
    return pairs


def validate_comb(W: LabeledOperator,
                  direction: CombDirection = CombDirection.PROCESS) -> CombReport:
    """Check positivity and the recursive causality constraints of a comb.

    Each level traces the later wire of a time-ordered pair and compares the
    result against identity-on-the-earlier-wire tensored with the reduced comb
    one level down; the final scalar must equal one. Tester direction runs the
    same hierarchy with input and output roles interchanged. Violations are
    reported per level in operator norm; nothing is raised.
    """
    h = (W.mat + W.mat.conj().T) / 2
    min_eig = float(np.linalg.eigvalsh(h)[0]) if W.side > 1 else float(h[0, 0].real)
    report = CombReport(direction=direction, min_eigenvalue=min_eig)
    pairs = _infer_ordering(W, direction)
    cur = W
    for idx in range(len(pairs), 0, -1):
        id_key, tr_key = pairs[idx - 1]
        m = partial_trace(cur, [tr_key]) if tr_key is not None else cur
        id_label = m.labels[m.position(id_key)]
        traced = partial_trace(m, [id_key])
        reduced = LabeledOperator(traced.labels, traced.mat / id_label.dim)
        ideal = permute_systems(tensor(reduced, identity_operator([id_label])), m.labels)
        violation = float(np.linalg.norm(m.mat - ideal.mat, 2))
        report.levels.append(CombLevel(idx, id_key, tr_key, violation))
        cur = reduced
    scalar = np.trace(cur.mat) if cur.labels else cur.mat[0, 0]
    report.scalar_violation = float(abs(scalar - 1.0))
    report.levels.reverse()
    return report
