"""Weyl-Heisenberg operator bases, the single-qubit Clifford 2-design, the
analytic Haar second-moment twirl, and span-dimension measurements."""

import enum
import functools
from dataclasses import dataclass

import numpy as np

from . import choi_link
from .errors import DesignSizeMismatch, DimMismatch, EmptyFamily, IndexOutOfRange
from .tensor_core import LabeledOperator, Role, SpaceLabel

PAULI_I = np.eye(2, dtype=np.complex128)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2)
PHASE_S = np.array([[1, 0], [0, 1j]], dtype=np.complex128)


class Normalization(enum.Enum):
    HS_ORTHONORMAL = "HSOrthonormal"   # Tr[s^dag s'] = delta
    WEYL_UNITARY = "WeylUnitary"       # Tr[s^dag s'] = d * delta, each element unitary


def shift_matrix(d: int) -> np.ndarray:
    x = np.zeros((d, d), dtype=np.complex128)
    for j in range(d):
        x[(j + 1) % d, j] = 1.0
    return x


def clock_matrix(d: int) -> np.ndarray:
    omega = np.exp(2j * np.pi / d)
    return np.diag(omega ** np.arange(d))


@functools.cache
def weyl_basis(d: int, normalization: Normalization = Normalization.WEYL_UNITARY) -> np.ndarray:
    """Basis sigma_(a,b) = X^a Z^b as a (d^2, d, d) array indexed mu = a*d + b;
    sigma_0 = identity. Cached: the array is read-only."""
    x, z = shift_matrix(d), clock_matrix(d)
    scale = 1.0 if normalization is Normalization.WEYL_UNITARY else 1.0 / np.sqrt(d)
    basis = np.stack([np.linalg.matrix_power(x, a) @ np.linalg.matrix_power(z, b) * scale
                      for a in range(d) for b in range(d)])
    basis.flags.writeable = False
    return basis


def weyl_product_index(d: int, mu: int, nu: int) -> tuple[int, complex]:
    """Index lam and phase with sigma_mu sigma_nu^dag = phase * sigma_lam
    (unitary normalization)."""
    a1, b1 = divmod(mu, d)
    a2, b2 = divmod(nu, d)
    lam = ((a1 - a2) % d) * d + ((b1 - b2) % d)
    basis = weyl_basis(d, Normalization.WEYL_UNITARY)
    prod = basis[mu] @ basis[nu].conj().T
    phase = np.trace(basis[lam].conj().T @ prod) / d
    return lam, complex(phase)


def clifford_design_qubit() -> tuple[np.ndarray, ...]:
    """The 24 single-qubit Clifford unitaries (mod global phase), a 2-design."""
    def canon(u):
        idx = np.argmax(np.abs(u) > 1e-9)
        ph = u.flat[idx]
        return u * (abs(ph) / ph)

    def key(u):
        # entries live on a small discrete set, so coarse rounding is exact
        r = np.round(u.real, 6) + 0.0
        i = np.round(u.imag, 6) + 0.0
        return r.tobytes() + i.tobytes()

    gens = [HADAMARD, PHASE_S]
    seen = {}
    frontier = [canon(PAULI_I)]
    seen[key(frontier[0])] = frontier[0]
    while frontier:
        nxt = []
        for u in frontier:
            for g in gens:
                v = canon(g @ u)
                k = key(v)
                if k not in seen:
                    seen[k] = v
                    nxt.append(v)
        frontier = nxt
    elements = tuple(seen.values())
    if len(elements) != 24:
        raise DesignSizeMismatch(f"Clifford closure gave {len(elements)} elements, not 24")
    return elements


def swap_operator(d: int) -> np.ndarray:
    f = np.zeros((d * d, d * d), dtype=np.complex128)
    for i in range(d):
        for j in range(d):
            f[i * d + j, j * d + i] = 1.0
    return f


def _two_factor_matrix(x) -> tuple[np.ndarray, int]:
    m = np.asarray(x, dtype=np.complex128)
    d = round(np.sqrt(m.shape[0]))
    if m.shape != (d * d, d * d):
        raise DimMismatch(f"side {m.shape[0]} is not a perfect square")
    return m, d


def haar_twirl2(x) -> np.ndarray:
    """Analytic Haar second-moment projection a(X) I + b(X) F on d (x) d.

    The coefficients solve the 2x2 Gram system fixed by Tr[X] and Tr[F X].
    """
    m, d = _two_factor_matrix(x)
    f = swap_operator(d)
    tr_x = np.trace(m)
    tr_fx = np.trace(f @ m)
    gram = np.array([[d * d, d], [d, d * d]], dtype=np.complex128)
    a, b = np.linalg.solve(gram, np.array([tr_x, tr_fx]))
    return a * np.eye(d * d, dtype=np.complex128) + b * f


def design_twirl2(x, design: tuple[np.ndarray, ...]) -> np.ndarray:
    """Empirical second-moment average over a finite design."""
    m, d = _two_factor_matrix(x)
    acc = np.zeros_like(m)
    for u in design:
        uu = np.kron(u, u)
        acc += uu @ m @ uu.conj().T
    acc /= len(design)
    return acc


def choi_weyl_coefficient(choi: LabeledOperator, p: int, q: int, basis: np.ndarray) -> complex:
    """Coefficient of sigma_p^T (x) sigma_q in a Choi operator under the plain
    trace pairing Tr[(sigma_p^T (x) sigma_q) M]."""
    probe = np.kron(basis[p].T, basis[q])
    return complex(np.trace(probe @ choi.mat))


def kpq_operator(p: int, q: int, design: tuple[np.ndarray, ...] | None = None,
                 basis: np.ndarray | None = None, d: int = 2) -> LabeledOperator:
    """Two-design-weighted combination of unitary Chois isolating the traceless
    basis direction sigma_p^T (x) sigma_q.

    The raw design average carries the second-moment constant 1/(d^2-1); the
    returned operator is rescaled by (d^2-1) so it equals sigma_p^T (x) sigma_q
    exactly. With design=None the average is evaluated through the analytic
    Haar twirl instead of a finite design.
    """
    if basis is None:
        basis = weyl_basis(d, Normalization.HS_ORTHONORMAL)
    d = basis.shape[-1]
    if not (1 <= p < d * d and 1 <= q < d * d):
        raise IndexOutOfRange(f"traceless sector indices required, got ({p}, {q})")
    labels = [SpaceLabel(1, Role.INPUT, d), SpaceLabel(1, Role.OUTPUT, d)]
    if design is not None:
        acc = np.zeros((d * d, d * d), dtype=np.complex128)
        for u in design:
            ch = choi_link.choi_of_unitary(u, labels[:1], labels[1:])
            acc += choi_weyl_coefficient(ch, p, q, basis) * ch.mat
        acc *= (d * d - 1) / len(design)
        return LabeledOperator(labels, acc)
    # analytic route: E[C_pq(U) U|n><m|U^dag] evaluated with the Haar twirl
    sp, sq = basis[p], basis[q]
    acc = np.zeros((d, d, d, d), dtype=np.complex128)  # [n, i, m, j]
    eye = np.eye(d, dtype=np.complex128)
    for n in range(d):
        for m in range(d):
            unit = np.outer(eye[:, n], eye[:, m].conj())
            tw = haar_twirl2(np.kron(sp, unit))
            block = np.einsum("ab,bacd->cd", sq,
                              tw.reshape(d, d, d, d).transpose(0, 2, 1, 3))
            acc[n, :, m, :] = block
    acc *= d * d - 1
    return LabeledOperator(labels, acc.reshape(d * d, d * d))


def moment_matrix(design: tuple[np.ndarray, ...], basis: np.ndarray) -> np.ndarray:
    """Second-moment coefficient matrix M[p-1, q-1, i-1, j-1] over the
    traceless sector, rescaled by (d^2-1) so matching indices give exactly one.

    The (i, j) coefficient enters conjugated, which reduces to the plain
    product for Hermitian basis elements.
    """
    d = basis.shape[-1]
    n = d * d - 1
    coeffs = np.zeros((len(design), n, n), dtype=np.complex128)
    for k, u in enumerate(design):
        ch = choi_link.choi_of_unitary(u, [SpaceLabel(1, Role.INPUT, d)],
                                       [SpaceLabel(1, Role.OUTPUT, d)])
        for p in range(1, d * d):
            for q in range(1, d * d):
                coeffs[k, p - 1, q - 1] = choi_weyl_coefficient(ch, p, q, basis)
    m = np.einsum("kab,kcd->abcd", coeffs, coeffs.conj()) / len(design)
    return m * (d * d - 1)


def span_dimension(family) -> int:
    """Rank of the stacked vectorized operators, thresholded at 1e-8 * sigma_max.

    For Hermitian families the complex rank equals the dimension of the
    real-linear span.
    """
    mats = [f.mat if hasattr(f, "mat") else np.asarray(f) for f in family]
    if not mats:
        raise EmptyFamily("span of an empty family is undefined")
    rows = np.stack([m.reshape(-1) for m in mats])
    s = np.linalg.svd(rows, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > 1e-8 * s[0]))


# ---------------------------------------------------------------------------
# Random ensembles and span reports
# ---------------------------------------------------------------------------

def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    ph = np.diag(r).copy()
    ph /= np.abs(ph)
    return q * ph


def haar_state(d: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def random_cptp_choi(d: int, rng: np.random.Generator, kraus_rank: int | None = None):
    """Choi of a CPTP map from a Haar isometry dilation of random Kraus rank."""
    r = int(kraus_rank) if kraus_rank else int(rng.integers(1, d * d + 1))
    z = rng.standard_normal((d * r, d)) + 1j * rng.standard_normal((d * r, d))
    q, _ = np.linalg.qr(z)
    kraus = [q[e * d:(e + 1) * d, :] for e in range(r)]
    return choi_link.choi_of_kraus(kraus)


def tomography_state_vectors(d: int) -> list[np.ndarray]:
    """d^2 pure states whose projectors span the full Hermitian space:
    the basis states |j>, plus (|j>+|k>)/sqrt2 and (|j>+i|k>)/sqrt2 for j<k."""
    eye = np.eye(d, dtype=np.complex128)
    states = [eye[:, j].copy() for j in range(d)]
    for j in range(d):
        for k in range(j + 1, d):
            states.append((eye[:, j] + eye[:, k]) / np.sqrt(2))
            states.append((eye[:, j] + 1j * eye[:, k]) / np.sqrt(2))
    return states


def measure_prepare_chois(d: int) -> list[LabeledOperator]:
    """Chois |a><a|^T (x) |psi><psi| over the d^2 x d^2 state-tomography grid."""
    labels = (SpaceLabel(1, Role.INPUT, d), SpaceLabel(1, Role.OUTPUT, d))
    states = tomography_state_vectors(d)
    out = []
    for a in states:
        eff = np.outer(a, a.conj()).T
        for psi in states:
            prep = np.outer(psi, psi.conj())
            out.append(LabeledOperator(labels, np.kron(eff, prep)))
    return out


@dataclass
class SpanBoundRow:
    family: str
    measured: int
    formula: int

    @property
    def match(self) -> bool:
        return self.measured == self.formula

    def as_dict(self) -> dict:
        return {"family": self.family, "measured": self.measured,
                "formula": self.formula, "match": self.match}


@dataclass
class SpanBoundReport:
    d: int
    rows: list[SpanBoundRow]

    @property
    def all_match(self) -> bool:
        return all(r.match for r in self.rows)

    def as_dict(self) -> dict:
        return {"d": self.d, "rows": [r.as_dict() for r in self.rows],
                "all_match": self.all_match}


def span_bound_reports(d: int, seed: int = 7) -> SpanBoundReport:
    """Measured span dimensions of sampled unitary, sampled CPTP, and
    measure-and-prepare Choi families against the closed-form counts."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, d, 0x5BA2]))
    unitary_formula = (d * d - 1) ** 2 + 1
    cptp_formula = d * d * (d * d - 1) + 1
    n_unitary = max(120, 2 * unitary_formula)
    n_cptp = max(200, 2 * cptp_formula)
    labels = ([SpaceLabel(1, Role.INPUT, d)], [SpaceLabel(1, Role.OUTPUT, d)])
    unitary_fam = [choi_link.choi_of_unitary(haar_unitary(d, rng), *labels)
                   for _ in range(n_unitary)]
    cptp_fam = [random_cptp_choi(d, rng) for _ in range(n_cptp)]
    mp_fam = measure_prepare_chois(d)
    rows = [
        SpanBoundRow("unitary", span_dimension(unitary_fam), unitary_formula),
        SpanBoundRow("cptp", span_dimension(cptp_fam), cptp_formula),
        SpanBoundRow("measure_prepare", span_dimension(mp_fam), d ** 4),
    ]
    return SpanBoundReport(d=d, rows=rows)
