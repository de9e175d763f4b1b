"""Labeled dense complex operators and the tensor-algebra kernel.

Every operator is a square complex128 matrix together with an ordered tuple of
labeled factors (lab index, role, dimension). Subsystem indices follow the
label order; row-major storage throughout. All operations are pure and return
new operators; matrices are frozen after construction.
"""

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DuplicateLabel, NotAPermutation, NotPSD, UnknownLabel

DEFAULT_TOL = 1e-10
MAX_SIDE = 4096  # largest operator side the pipeline builds: a probe Choi or a full W


class Role(enum.Enum):
    INPUT = "Input"
    OUTPUT = "Output"
    ANCILLA = "Ancilla"
    ENV = "Env"


_ROLE_ORDER = {Role.INPUT: 0, Role.OUTPUT: 1, Role.ANCILLA: 2, Role.ENV: 3}


@dataclass(frozen=True)
class SpaceLabel:
    lab: int
    role: Role
    dim: int

    def __post_init__(self):
        if self.lab < 0:
            raise ValueError(f"lab index must be >= 0, got {self.lab}")
        if self.dim < 2:
            raise ValueError(f"factor dimension must be >= 2, got {self.dim}")

    @property
    def key(self) -> tuple[int, Role]:
        return (self.lab, self.role)

    def __repr__(self):
        return f"({self.lab},{self.role.value[0]},{self.dim})"


def _as_key(item) -> tuple[int, Role]:
    if isinstance(item, SpaceLabel):
        return item.key
    lab, role = item
    return (lab, role)


@dataclass(frozen=True, eq=False)
class LabeledOperator:
    labels: tuple[SpaceLabel, ...]
    mat: np.ndarray

    def __post_init__(self):
        labels = tuple(self.labels)
        mat = np.array(self.mat, dtype=np.complex128)
        side = math.prod(l.dim for l in labels)
        if mat.shape != (side, side):
            raise ValueError(f"matrix shape {mat.shape} does not match label dims (side {side})")
        if not np.all(np.isfinite(mat)):
            raise ValueError("matrix entries must be finite")
        keys = [l.key for l in labels]
        if len(set(keys)) != len(keys):
            raise DuplicateLabel(f"repeated (lab, role) key among {keys}")
        mat.flags.writeable = False
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "mat", mat)

    @property
    def side(self) -> int:
        return self.mat.shape[0]

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(l.dim for l in self.labels)

    @property
    def keys(self) -> tuple[tuple[int, Role], ...]:
        return tuple(l.key for l in self.labels)

    def position(self, key) -> int:
        key = _as_key(key)
        for i, l in enumerate(self.labels):
            if l.key == key:
                return i
        raise UnknownLabel(f"label {key} not on operator with keys {self.keys}")

    def tensor_view(self) -> np.ndarray:
        """Matrix reshaped to a rank-2k tensor (row factor axes, then column)."""
        return self.mat.reshape(self.dims + self.dims)

    def __repr__(self):
        return f"LabeledOperator(labels={list(self.labels)}, side={self.side})"


def identity_operator(labels) -> LabeledOperator:
    labels = tuple(labels)
    side = math.prod(l.dim for l in labels)
    return LabeledOperator(labels, np.eye(side, dtype=np.complex128))


def canonical_order(labels) -> tuple[SpaceLabel, ...]:
    """Sort labels by (lab, Input < Output < Ancilla < Env)."""
    return tuple(sorted(labels, key=lambda l: (l.lab, _ROLE_ORDER[l.role])))


def canonicalize(a: LabeledOperator) -> LabeledOperator:
    order = canonical_order(a.labels)
    if order == a.labels:
        return a
    return permute_systems(a, order)


def tensor(a: LabeledOperator, b: LabeledOperator) -> LabeledOperator:
    common = set(a.keys) & set(b.keys)
    if common:
        raise DuplicateLabel(f"label sets intersect on {sorted(common)}")
    return LabeledOperator(a.labels + b.labels, np.kron(a.mat, b.mat))


def _positions(a: LabeledOperator, over) -> list[int]:
    keys = [_as_key(k) for k in over]
    return sorted(a.position(k) for k in keys)


def partial_trace(a: LabeledOperator, over) -> LabeledOperator:
    """Trace out the selected factors; remaining labels keep their order."""
    pos = _positions(a, over)
    k = len(a.labels)
    keep = [i for i in range(k) if i not in pos]
    row = list(range(k))
    col = list(range(k, 2 * k))
    for p in pos:
        col[p] = row[p]
    out_sub = [row[i] for i in keep] + [col[i] for i in keep]
    t = np.einsum(a.tensor_view(), row + col, out_sub)
    new_labels = tuple(a.labels[i] for i in keep)
    side = math.prod(l.dim for l in new_labels)
    return LabeledOperator(new_labels, t.reshape(side, side))


def partial_transpose(a: LabeledOperator, over) -> LabeledOperator:
    """Transpose the selected factors in the computational product basis."""
    pos = _positions(a, over)
    k = len(a.labels)
    axes = list(range(2 * k))
    for p in pos:
        axes[p], axes[k + p] = axes[k + p], axes[p]
    t = a.tensor_view().transpose(axes)
    return LabeledOperator(a.labels, t.reshape(a.side, a.side))


def permute_systems(a: LabeledOperator, new_order) -> LabeledOperator:
    new_keys = [_as_key(l) for l in new_order]
    sort_key = lambda k: (k[0], _ROLE_ORDER[k[1]])
    if sorted(new_keys, key=sort_key) != sorted(a.keys, key=sort_key):
        raise NotAPermutation(f"{new_keys} is not a permutation of {list(a.keys)}")
    perm = [a.position(k) for k in new_keys]
    k = len(a.labels)
    t = a.tensor_view().transpose(perm + [k + p for p in perm])
    new_labels = tuple(a.labels[p] for p in perm)
    return LabeledOperator(new_labels, t.reshape(a.side, a.side))


def sqrt_psd(a: LabeledOperator | np.ndarray, tol: float = DEFAULT_TOL):
    """PSD square root via eigendecomposition, eigenvalues clamped below at 0.

    Raises NotPSD when the input is non-Hermitian beyond tolerance or has an
    eigenvalue below -tol.
    """
    labels = a.labels if isinstance(a, LabeledOperator) else None
    mat = a.mat if isinstance(a, LabeledOperator) else np.asarray(a, dtype=np.complex128)
    skew = np.max(np.abs(mat - mat.conj().T)) if mat.size else 0.0
    if skew > 10 * tol:
        raise NotPSD(f"matrix is not Hermitian (skew norm {skew:.3e})")
    h = (mat + mat.conj().T) / 2
    w, v = np.linalg.eigh(h)
    if w[0] < -tol:
        raise NotPSD(f"minimum eigenvalue {w[0]:.3e} below -tol")
    root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    if labels is None:
        return root
    return LabeledOperator(labels, root)


def rank_and_pinv(a: LabeledOperator | np.ndarray):
    """Moore-Penrose pseudoinverse with singular values <= DEFAULT_TOL*sigma_max dropped.

    Returns (rank, pinv) where pinv has the same labels as the input.
    """
    labels = a.labels if isinstance(a, LabeledOperator) else None
    mat = a.mat if isinstance(a, LabeledOperator) else np.asarray(a, dtype=np.complex128)
    u, s, vh = np.linalg.svd(mat)
    if s.size == 0 or s[0] == 0.0:
        rank = 0
        pinv = np.zeros_like(mat.T)
    else:
        keep = s > DEFAULT_TOL * s[0]
        rank = int(np.count_nonzero(keep))
        inv = np.zeros_like(s)
        inv[keep] = 1.0 / s[keep]
        pinv = (vh.conj().T * inv) @ u.conj().T
    if labels is None:
        return rank, pinv
    return rank, LabeledOperator(labels, pinv)
