"""Entanglement verdicts for two-qubit gates and classification into families.

A unitary solution of the braided equation is a two-qubit gate.  Two
questions about such a gate are answered here:

* does it create entanglement from any product state?  A gate preserves
  products exactly when it is a local pair A (x) B, possibly composed with
  the swap; both cases are visible as a rank-1 realignment of the matrix.
  When a gate is entangling, a witness product state whose image has
  maximal pair determinant is built in closed form in the magic basis,
  where product states are the vectors a with a^T a = 0.

* which of the five families does it belong to, and for which data
  (Q, k, parameters)?  The stages F5, F1, F4 and F3 each read Q, k and the
  parameters off the spectral or tensor structure of the input in closed
  form; members of F2 always carry a diagonal-family certificate and are
  tagged F1.  Every accepted answer carries a reconstruction whose distance
  to the input is at most 1e-6, so the result is a checkable certificate,
  not a heuristic label.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import braided_residual, swap_matrix
from .errors import ConstraintViolation, NonConvergence, NotASolution, NotUnitary
from .families import FamilySpec, family_member
from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    as_square,
    dagger,
    eigenvalues,
    frobenius,
    is_unitary,
    kron,
)

__all__ = [
    "TwoQubitState",
    "ProductWitness",
    "GateEntanglementReport",
    "ClassificationResult",
    "realign",
    "is_product_state",
    "is_entangling_gate",
    "classify",
]

_SWAP = swap_matrix(2)
_ACCEPT = 1e-6


@dataclass(frozen=True, eq=False)
class TwoQubitState:
    """A normalized state of two qubits in the basis 00, 01, 10, 11."""

    vec: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vec, dtype=complex).reshape(-1)
        if v.shape != (4,):
            raise ValueError(f"expected 4 amplitudes, got shape {v.shape}")
        n = np.linalg.norm(v)
        if n == 0:
            raise ValueError("zero vector is not a state")
        object.__setattr__(self, "vec", v / n)

    @property
    def pair_determinant(self) -> complex:
        """det of the 2x2 amplitude table; zero exactly for product states."""
        v = self.vec
        return v[0] * v[3] - v[1] * v[2]

    def is_product(self, tol: float = 1e-9) -> bool:
        return abs(self.pair_determinant) <= tol

    def factors(self, tol: float = 1e-9) -> tuple[np.ndarray, np.ndarray]:
        """Local factors u, v with u (x) v equal to the state (products only)."""
        if not self.is_product(tol):
            raise ValueError("state is entangled, no product factorization")
        W = self.vec.reshape(2, 2)
        u = W[:, int(np.argmax(np.linalg.norm(W, axis=0)))]
        v = W[int(np.argmax(np.linalg.norm(W, axis=1))), :]
        u = u / np.linalg.norm(u)
        v = v / np.linalg.norm(v)
        v = v * np.vdot(np.kron(u, v), self.vec)
        return u, v


def is_product_state(vec, tol: float = 1e-9) -> bool:
    return TwoQubitState(vec).is_product(tol)


def realign(G: np.ndarray) -> np.ndarray:
    """Reshuffle G so that local pairs A (x) B become rank-1 matrices."""
    G = as_square(G)
    if G.shape != (4, 4):
        raise ValueError("realignment is defined for 4x4 matrices here")
    return G.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)


def _is_rank_one(M: np.ndarray, ratio: float = 1e-6) -> bool:
    s = np.linalg.svd(M, compute_uv=False)
    return s[0] > 0 and s[1] <= ratio * s[0]


@dataclass(frozen=True, eq=False)
class ProductWitness:
    """A product input whose image under the gate is as entangled as possible.

    angles                   (theta1, phi1, theta2, phi2): qubit j of the input
                             is (cos theta_j, e^{i phi_j} sin theta_j), up to a
                             global phase
    state                    the input u (x) v
    output_pair_determinant  |det| of the output's 2x2 amplitude table, the
                             maximum over product inputs (at most 1/2)
    """

    angles: tuple[float, float, float, float]
    state: TwoQubitState
    output_pair_determinant: float


@dataclass(frozen=True, eq=False)
class GateEntanglementReport:
    entangling: bool
    witness: ProductWitness | None


# Columns (|00>+|11>)/sqrt2, i(|00>-|11>)/sqrt2, i(|01>+|10>)/sqrt2 and
# (|01>-|10>)/sqrt2.  The state _MAGIC @ a has pair determinant a^T a / 2.
_MAGIC = np.array(
    [[1, 1j, 0, 0], [0, 0, 1j, 1], [0, 0, 1j, -1], [1, -1j, 0, 0]]
) / np.sqrt(2)


def _takagi_real(S: np.ndarray) -> np.ndarray:
    """Real orthogonal O with O^T S O diagonal, for a symmetric unitary S.

    Re S and Im S commute, so the eigenbasis of Re S diagonalizes Im S too,
    except inside a repeated eigenspace of Re S, which Im S then splits.
    """
    x, O = np.linalg.eigh(S.real)
    start = 0
    for end in range(1, 5):
        if end == 4 or x[end] - x[end - 1] > 1e-8:
            if end - start > 1:
                V = O[:, start:end]
                O[:, start:end] = V @ np.linalg.eigh(V.T @ S.imag @ V)[1]
            start = end
    return O


def _witness_weights(d: np.ndarray) -> np.ndarray:
    """w with sum w = 0 and sum |w| = 1 maximizing |sum w_k d_k|, all |d_k| = 1.

    The maximum is the radius of the smallest circle around the d_k.
    """
    order = np.argsort(np.angle(d))
    phases = np.angle(d[order])
    # arcs[i] runs from the i-th to the (i+1)-th point in angular order
    arcs = np.diff(np.append(phases, phases[0] + 2 * np.pi))
    w = np.zeros(4, dtype=complex)
    widest = int(np.argmax(arcs))
    # F4 members give d = {A, A, -A, -A}, whose half-turn arcs rounding can
    # leave just below pi, where the triangle below degenerates; the chord
    # loses at most (1e-6)^2 / 16 on an arc that short of pi
    if arcs[widest] >= np.pi - 1e-6:
        # the points lie on a half circle: the smallest circle has the chord
        # across the widest arc as its diameter
        w[order[widest]], w[order[(widest + 1) % 4]] = 0.5, -0.5
        return w
    # the origin is inside the hull, the radius is 1, and the triangle left
    # after dropping the point with the shortest neighbouring arcs holds it;
    # its barycentric weights are the sines of the arcs facing each vertex
    drop = int(np.argmin(arcs + np.roll(arcs, 1)))
    keep = order[(drop + np.arange(1, 4)) % 4]
    facing = arcs[(drop + np.array([2, 3, 1])) % 4]
    facing[1] += arcs[drop]
    lam = np.sin(facing)
    w[keep] = lam / lam.sum() * np.conj(d[keep])
    return w


def _qubit_angles(u: np.ndarray) -> tuple[float, float]:
    """theta, phi with u equal to (cos theta, e^{i phi} sin theta) up to phase."""
    return (
        float(np.arctan2(abs(u[1]), abs(u[0]))),
        float(np.angle(u[1] * np.conj(u[0]))),
    )


def _witness(G: np.ndarray) -> ProductWitness:
    # with G_M = B^dagger G B, the output of the product state B a has pair
    # determinant a^T S a / 2 for the symmetric unitary S = G_M^T G_M; with
    # S = O diag(d) O^T and w = (O^T a)^2 entrywise, a is a product state when
    # sum w = 0 and a unit vector when sum |w| = 1
    GM = dagger(_MAGIC) @ G @ _MAGIC
    S = GM.T @ GM
    O = _takagi_real(S)
    w = _witness_weights(np.diag(O.T @ S @ O))
    u, v = TwoQubitState(_MAGIC @ (O @ np.sqrt(w))).factors()
    state = TwoQubitState(np.kron(u, v))
    out = G @ state.vec
    return ProductWitness(
        angles=_qubit_angles(u) + _qubit_angles(v),
        state=state,
        output_pair_determinant=float(abs(out[0] * out[3] - out[1] * out[2])),
    )


def is_entangling_gate(
    G: np.ndarray,
    witness: bool = True,
    tol: Tolerance = DEFAULT_TOL,
) -> GateEntanglementReport:
    """Whether the gate maps some product state to an entangled one.

    Non-entangling gates are exactly the local pairs A (x) B and their
    compositions with the swap; both have rank-1 realignments.  For an
    entangling gate the witness is constructed in closed form: in the magic
    basis the best output pair determinant over product inputs is half the
    radius of the smallest circle around the eigenvalues of G_M^T G_M
    (Kraus and Cirac, PRA 63, 062309, 2001), and the support of that circle
    gives the input.
    """
    G = as_square(G)
    ok, defect = is_unitary(G, tol)
    if not ok:
        raise NotUnitary(f"gate has unitarity defect {defect:.3e}")
    if _is_rank_one(realign(G)) or _is_rank_one(realign(G @ _SWAP)):
        return GateEntanglementReport(entangling=False, witness=None)
    report_witness = _witness(G) if witness else None
    return GateEntanglementReport(entangling=True, witness=report_witness)


@dataclass(frozen=True, eq=False)
class ClassificationResult:
    """Outcome of classify: family label, certificate spec, rebuild residual."""

    family: str | None
    spec: FamilySpec | None
    residual: float
    message: str


def _greedy_multiset_distance(got, want) -> float:
    pool = list(got)
    worst = 0.0
    for w in want:
        i = int(np.argmin([abs(g - w) for g in pool]))
        worst = max(worst, abs(pool.pop(i) - w))
    return worst


def _accept(Rb: np.ndarray, spec: FamilySpec, message: str) -> ClassificationResult | None:
    try:
        member = family_member(spec)
    except ConstraintViolation:
        return None
    residual = frobenius(member - Rb)
    if residual > _ACCEPT:
        return None
    return ClassificationResult(spec.family, spec, residual, message)


def _try_f5(Rb: np.ndarray) -> ClassificationResult | None:
    k = np.trace(Rb) / 4
    if abs(k) < 0.5:
        return None
    spec = FamilySpec("F5", np.eye(2), k / abs(k))
    return _accept(Rb, spec, "scalar multiple of the identity")


def _unit_eigvec_2x2(N: np.ndarray, rel_gap: float = 1e-6) -> np.ndarray | None:
    """A unit eigenvector of a normal 2x2 matrix, or None when degenerate."""
    lams = eigenvalues(N)
    gap = abs(lams[0] - lams[1])
    if gap <= rel_gap * (abs(lams[0]) + abs(lams[1]) + 1e-3):
        return None
    lam = lams[0]
    c1 = np.array([N[0, 1], lam - N[0, 0]])
    c2 = np.array([lam - N[1, 1], N[1, 0]])
    v = c1 if np.linalg.norm(c1) >= np.linalg.norm(c2) else c2
    n = np.linalg.norm(v)
    if n < 1e-12:
        return None
    return v / n


def _orth_complement(u: np.ndarray) -> np.ndarray:
    return np.array([-np.conj(u[1]), np.conj(u[0])])


def _f1_from_basis(Rb: np.ndarray, M: np.ndarray, u0: np.ndarray) -> ClassificationResult | None:
    u1 = _orth_complement(u0)
    for cols in ((u0, u1), (u1, u0)):
        Q = np.column_stack(cols)
        A = kron(Q, Q)
        C = dagger(A) @ M @ A
        k = C[0, 0]
        if abs(k) < 1e-8:
            continue
        params = {"p": C[1, 1] / k, "q": C[2, 2] / k, "r": C[3, 3] / k}
        # snap the moduli the family demands; the rebuild check has the last word
        params = {n: v / abs(v) if abs(v) > 1e-8 else v for n, v in params.items()}
        spec = FamilySpec("F1", Q, k / abs(k), params)
        got = _accept(Rb, spec, "diagonal pattern via partial-trace eigenbasis")
        if got:
            return got
    return None


def _eigen_cluster_basis(M: np.ndarray) -> list[np.ndarray]:
    """Orthonormal bases of 2-dim eigenspaces of a normal matrix."""
    lams = eigenvalues(M)
    scale = max(abs(l) for l in lams) + 1e-12
    clusters: list[list[complex]] = []
    for lam in lams:
        for cl in clusters:
            if abs(lam - cl[0]) <= 1e-6 * scale:
                cl.append(lam)
                break
        else:
            clusters.append([lam])
    bases = []
    eye = np.eye(4, dtype=complex)
    for cl in clusters:
        if len(cl) != 2:
            continue
        lam_c = sum(cl) / len(cl)
        P = eye.copy()
        for other in clusters:
            if other is cl:
                continue
            lam_o = sum(other) / len(other)
            P = P @ (M - lam_o * eye) / (lam_c - lam_o)
        # two dominant columns of the spectral projector span the eigenspace
        order = np.argsort(-np.linalg.norm(P, axis=0))
        v1 = P[:, order[0]]
        v1 = v1 / np.linalg.norm(v1)
        v2 = P[:, order[1]] - v1 * np.vdot(v1, P[:, order[1]])
        n2 = np.linalg.norm(v2)
        if n2 < 1e-8:
            continue
        bases.append(np.column_stack([v1, v2 / n2]))
    return bases


def _product_vectors_in_span(V: np.ndarray) -> list[np.ndarray]:
    """Product vectors inside a 2-dim subspace of C^2 (x) C^2."""
    M1, M2 = V[:, 0].reshape(2, 2), V[:, 1].reshape(2, 2)
    c20 = M1[0, 0] * M1[1, 1] - M1[0, 1] * M1[1, 0]
    c02 = M2[0, 0] * M2[1, 1] - M2[0, 1] * M2[1, 0]
    c11 = (
        M1[0, 0] * M2[1, 1]
        + M2[0, 0] * M1[1, 1]
        - M1[0, 1] * M2[1, 0]
        - M2[0, 1] * M1[1, 0]
    )
    pairs: list[tuple[complex, complex]]
    if abs(c20) <= 1e-12 and abs(c02) <= 1e-12 and abs(c11) <= 1e-12:
        pairs = [(1, 0), (0, 1)]
    elif abs(c20) <= 1e-10 * max(abs(c11), abs(c02), 1e-30):
        pairs = [(1, 0)]
        if abs(c11) > 1e-12:
            pairs.append((-c02 / c11, 1))
    else:
        disc = np.sqrt(c11 * c11 - 4 * c20 * c02 + 0j)
        pairs = [((-c11 + disc) / (2 * c20), 1), ((-c11 - disc) / (2 * c20), 1)]
    out = []
    for alpha, beta in pairs:
        w = alpha * V[:, 0] + beta * V[:, 1]
        n = np.linalg.norm(w)
        if n > 1e-10:
            out.append(w / n)
    return out


def _try_f1(Rb: np.ndarray) -> ClassificationResult | None:
    M = Rb @ _SWAP
    k0 = np.trace(M) / 4
    if abs(k0) > 0.5 and frobenius(M - k0 * np.eye(4)) <= _ACCEPT:
        spec = FamilySpec(
            "F1", np.eye(2), k0 / abs(k0), {"p": 1.0, "q": 1.0, "r": 1.0}
        )
        got = _accept(Rb, spec, "diagonal pattern, scalar case")
        if got:
            return got
    Mt = M.reshape(2, 2, 2, 2)
    for N in (np.einsum("abcb->ac", Mt), np.einsum("abac->bc", Mt)):
        u0 = _unit_eigvec_2x2(N)
        if u0 is None:
            continue
        got = _f1_from_basis(Rb, M, u0)
        if got:
            return got
    # both partial traces degenerate: dig the local basis out of a
    # 2-dim eigenspace, whose product vectors factor through it
    try:
        bases = _eigen_cluster_basis(M)
    except NonConvergence:
        return None
    for V in bases:
        for w in _product_vectors_in_span(V):
            W = w.reshape(2, 2)
            u = W[:, int(np.argmax(np.linalg.norm(W, axis=0)))]
            n = np.linalg.norm(u)
            if n < 1e-8:
                continue
            got = _f1_from_basis(Rb, M, u / n)
            if got:
                return got
    return None


def _try_f4(Rb: np.ndarray) -> ClassificationResult | None:
    M = Rb @ _SWAP
    try:
        eigs = eigenvalues(M)
    except NonConvergence:
        return None
    targets = np.array(
        [np.exp(1j * np.pi / 4), np.exp(-1j * np.pi / 4), 1.0, -1.0]
    )
    k = None
    for lam in eigs:
        for t in targets:
            cand = lam / t
            if abs(abs(cand) - 1.0) > 1e-4:
                continue
            if _greedy_multiset_distance(eigs, cand * targets) <= 1e-5:
                k = cand
                break
        if k is not None:
            break
    if k is None:
        return None
    P = M / k
    G4 = -(P @ P @ P @ P)
    R1 = realign(G4)
    if not _is_rank_one(R1, ratio=1e-5):
        return None
    col = R1[:, int(np.argmax(np.linalg.norm(R1, axis=0)))]
    S_raw = col.reshape(2, 2)
    S_raw = S_raw * (np.sqrt(2) / np.linalg.norm(S_raw))
    tr2 = np.trace(S_raw @ S_raw) / 2
    phi = np.angle(tr2) / 2
    for sign in (1.0, -1.0):
        S = sign * S_raw * np.exp(-1j * phi)
        B = S + np.eye(2)
        j = int(np.argmax(np.linalg.norm(B, axis=0)))
        n = np.linalg.norm(B[:, j])
        if n < 1e-6:
            continue
        u = B[:, j] / n
        U = np.column_stack([u, _orth_complement(u)])
        Pp = dagger(kron(U, U)) @ P @ kron(U, U)
        gamma = np.angle(Pp[0, 3] * np.sqrt(2))
        Q = U @ np.diag([1.0, np.exp(-1j * gamma / 2)])
        spec = FamilySpec("F4", Q, k / abs(k))
        got = _accept(Rb, spec, "orthogonal pattern via fourth-power structure")
        if got:
            return got
    return None


def _try_f3(Rb: np.ndarray) -> ClassificationResult | None:
    # An F3 member is M = Rb P = k (U (x) U) A (U (x) U)^dag with U unitary
    # and A the anti-diagonal pattern with |p| = |q| = 1: a Gram-diagonal Q
    # is U diag(s1, s2), and the diagonal part moves into the moduli of p, q.
    # A^2 = diag(pq, 1, 1, pq), so the traceless part of M^2 is
    # k^2 (pq - 1)/2 N (x) N with N = U Z U^dag, whose realignment is rank one.
    M = Rb @ _SWAP
    M2 = M @ M
    R1 = realign(M2 - np.trace(M2) / 4 * np.eye(4))
    S = R1[:, int(np.argmax(np.linalg.norm(R1, axis=0)))].reshape(2, 2)
    # N is Hermitian with tr(N N) = 2, which fixes the phase of S up to sign
    S = S * np.exp(-0.5j * np.angle(np.trace(S @ S)))
    _, U = np.linalg.eigh(S + dagger(S))
    if abs(U[0, 0]) ** 2 < 0.5:
        U = U[:, ::-1]  # keep the corners of Q away from zero
    A = kron(U, U)
    C = dagger(A) @ M @ A
    k = (C[1, 2] + C[2, 1]) / 2
    if abs(k) < 1e-3:
        return None
    p, q = C[0, 3] / k, C[3, 0] / k
    if abs(p) < 1e-8 or abs(q) < 1e-8:
        return None
    # snap the moduli the family demands; the rebuild check has the last word
    spec = FamilySpec("F3", U, k / abs(k), {"p": p / abs(p), "q": q / abs(q)})
    return _accept(Rb, spec, "anti-diagonal pattern, Gram-diagonal Q")


def classify(
    Rb: np.ndarray,
    rng: np.random.Generator | None = None,
    tol: Tolerance = DEFAULT_TOL,
) -> ClassificationResult:
    """Assign a unitary braided solution to a family, with certificate.

    Stages run in the order F5, F1, F4, F3 and the first stage whose
    reconstruction lands within 1e-6 of the input wins.  Every stage reads
    its certificate off the structure of the input in closed form, so the
    result is deterministic and ``rng`` is ignored (it is accepted for
    callers written against the earlier randomized search).  The families
    genuinely overlap, so the label is a canonical choice, not an exclusive
    one: scalars sit in several families, and every member of the
    anti-diagonal pattern with p q = 1 (all of F2, whose Q forces it, and
    the p q = 1 edge of F3) has eigenvalues {k, -k} with a product
    eigenbasis and therefore a valid diagonal-family certificate, which the
    F1 stage finds first.  No member is ever tagged F2.  Inputs that are not
    unitary or not solutions are rejected with NotUnitary / NotASolution.
    """
    Rb = as_square(Rb)
    if Rb.shape != (4, 4):
        raise ValueError(f"classification needs a 4x4 matrix, got {Rb.shape}")
    ok, defect = is_unitary(Rb, tol)
    if not ok:
        raise NotUnitary(f"input has unitarity defect {defect:.3e}")
    resid = braided_residual(Rb)
    if resid > max(tol.residual_tol, 40 * tol.residual_tol * frobenius(Rb)):
        raise NotASolution(f"braided equation residual {resid:.3e}")
    for stage in (_try_f5, _try_f1, _try_f4, _try_f3):
        got = stage(Rb)
        if got:
            return got
    return ClassificationResult(
        None, None, float("inf"), "no family certificate found"
    )
