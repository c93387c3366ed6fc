"""Tests for entanglement verdicts and family classification."""

from __future__ import annotations

import numpy as np
import pytest

from ybe4.classify import (
    _MAGIC,
    ClassificationResult,
    TwoQubitState,
    _candidates,
    _takagi_real,
    _witness_weights,
    classify,
    is_entangling_gate,
    is_product_state,
    realign,
)
from ybe4.core import braided_residual, swap_matrix
from ybe4.errors import (
    ConstraintViolation,
    DimensionError,
    EntangledState,
    NonFiniteValue,
    NotASolution,
    NotUnitary,
    ZeroState,
)
from ybe4.families import FAMILY_NAMES, FamilySpec, family_member, random_family_spec
from ybe4.linalg import DEFAULT_TOL, Tolerance, dagger, frobenius, kron

SWAP = swap_matrix(2)
HADA_SWAP = (
    np.array([[1, 0, 0, 1], [0, 1, 1, 0], [0, 1, -1, 0], [-1, 0, 0, 1]], dtype=complex)
    / np.sqrt(2)
) @ SWAP
BELL = np.array([1, 0, 0, 1]) / np.sqrt(2)


def random_unitary_2(rng):
    Z = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))) / np.sqrt(2)
    Q, R = np.linalg.qr(Z)
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def test_state_normalization_and_determinant():
    s = TwoQubitState([2, 0, 0, 0])
    assert np.linalg.norm(s.vec) == pytest.approx(1)
    assert s.pair_determinant == 0
    assert TwoQubitState(BELL).pair_determinant == pytest.approx(0.5)


def test_state_input_validation():
    with pytest.raises(DimensionError):
        TwoQubitState([1, 0, 0])
    with pytest.raises(ZeroState):
        TwoQubitState([0, 0, 0, 0])
    with pytest.raises(ZeroState):
        is_product_state([0, 0, 0, 0])


@pytest.mark.parametrize(
    "bad", [[np.nan, 0, 0, 1], [np.inf, 0, 0, 0], [1, 1j * np.inf, 0, 0]]
)
def test_state_rejects_non_finite_amplitudes(bad):
    with pytest.raises(NonFiniteValue):
        TwoQubitState(bad)
    with pytest.raises(NonFiniteValue):
        is_product_state(bad)


@pytest.mark.parametrize("scale", [1e-300, 3e-162, 1e-170, 1e-20, 1e20, 1e200, 1e300])
def test_state_is_scale_free(scale):
    # a norm taken before rescaling overflows beyond ~1e154 and loses digits or
    # underflows below ~1e-154; the state and its verdict must not move
    product = np.kron([0.6, 0.8j], [1 - 2j, 0.5])
    for vec, entangled in ((BELL, True), (product, False)):
        want = TwoQubitState(vec)
        got = TwoQubitState(scale * vec)
        assert np.abs(got.vec - want.vec).max() <= 1e-15
        assert abs(got.pair_determinant - want.pair_determinant) <= 1e-15
        assert is_product_state(scale * vec) is not entangled


def test_subnormal_state_normalizes():
    for tiny in (1e-310, 5e-324):
        assert np.abs(TwoQubitState(tiny * BELL).vec - BELL).max() <= 1e-15


def test_product_state_detection():
    assert is_product_state([1, 0, 0, 0])
    assert is_product_state(np.kron([1, 1j], [3, 2 - 1j]))
    assert not is_product_state(BELL)


def test_product_factors_roundtrip():
    rng = np.random.default_rng(1)
    for _ in range(10):
        u = rng.normal(size=2) + 1j * rng.normal(size=2)
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        s = TwoQubitState(np.kron(u, v))
        fu, fv = s.factors()
        assert np.allclose(np.kron(fu, fv), s.vec, atol=1e-10)
    with pytest.raises(EntangledState):
        TwoQubitState(BELL).factors()


def test_realign_makes_local_pairs_rank_one():
    rng = np.random.default_rng(2)
    A = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    B = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    R = realign(kron(A, B))
    s = np.linalg.svd(R, compute_uv=False)
    assert s[1] < 1e-12 * s[0]
    assert np.allclose(R, np.outer(A.reshape(-1), B.reshape(-1)))


def test_non_entangling_gates():
    assert not is_entangling_gate(np.eye(4)).entangling
    assert not is_entangling_gate(SWAP).entangling
    rng = np.random.default_rng(3)
    for _ in range(5):
        U, V = random_unitary_2(rng), random_unitary_2(rng)
        assert not is_entangling_gate(kron(U, V)).entangling
        assert not is_entangling_gate(kron(U, V) @ SWAP).entangling


def test_scalar_members_are_non_entangling():
    rng = np.random.default_rng(4)
    spec = random_family_spec("F5", rng)
    assert not is_entangling_gate(family_member(spec)).entangling


def test_entangling_gate_with_witness():
    report = is_entangling_gate(HADA_SWAP)
    assert report.entangling
    w = report.witness
    assert w is not None
    assert w.state.is_product(1e-8)
    assert w.output_pair_determinant >= 0.4
    out = TwoQubitState(HADA_SWAP @ w.state.vec)
    assert abs(out.pair_determinant) == pytest.approx(
        w.output_pair_determinant, abs=1e-9
    )


def test_cnot_is_entangling():
    cnot = np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    )
    report = is_entangling_gate(cnot)
    assert report.entangling
    assert report.witness.output_pair_determinant >= 0.4


def test_entanglement_verdict_is_local_basis_invariant():
    rng = np.random.default_rng(5)
    for _ in range(5):
        U, V, W, X = (random_unitary_2(rng) for _ in range(4))
        wrapped = kron(U, V) @ HADA_SWAP @ kron(W, X)
        assert is_entangling_gate(wrapped).entangling
        local = kron(U, V) @ kron(W, X) @ SWAP
        assert not is_entangling_gate(local).entangling


def test_entangling_gate_rejects_non_unitary():
    with pytest.raises(NotUnitary):
        is_entangling_gate(2 * np.eye(4))


def test_witness_can_be_skipped():
    report = is_entangling_gate(HADA_SWAP, witness=False)
    assert report.entangling and report.witness is None


def test_classify_fixed_inputs():
    res = classify(np.eye(4))
    assert res.family == "F5" and res.spec.k == pytest.approx(1)
    assert res.residual < 1e-12

    res = classify(SWAP)
    assert res.family == "F1"
    assert res.residual < 1e-12

    res = classify(HADA_SWAP)
    assert res.family == "F4"
    assert res.residual < 1e-8


def test_classify_rejects_bad_inputs():
    with pytest.raises(NotUnitary):
        classify(2 * np.eye(4))
    with pytest.raises(ValueError):
        classify(np.eye(9))
    with pytest.raises(DimensionError):
        classify(np.eye(9))
    with pytest.raises(DimensionError):
        realign(np.eye(2))
    with pytest.raises(DimensionError):
        is_entangling_gate(np.eye(2))
    rng = np.random.default_rng(6)
    Z = (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))) / np.sqrt(2)
    Q, R = np.linalg.qr(Z)
    U = Q * (np.diag(R) / np.abs(np.diag(R)))
    assert braided_residual(U) > 1e-3
    with pytest.raises(NotASolution):
        classify(U)


EXPECTED = {
    "F1": {"F1"},
    # members built with a free Q sit inside the diagonal family too: the
    # forced p q = 1 gives them eigenvalues {k, -k} with a product eigenbasis,
    # so the earlier diagonal stage certifies them first
    "F2": {"F1"},
    "F3": {"F3"},
    "F4": {"F4"},
    "F5": {"F5"},
}


@pytest.mark.parametrize("family", sorted(EXPECTED))
def test_classify_roundtrip(family):
    rng = np.random.default_rng(7)
    crng = np.random.default_rng(8)
    for _ in range(5):
        spec = random_family_spec(family, rng)
        Rb = family_member(spec)
        res = classify(Rb, rng=crng)
        assert res.family in EXPECTED[family], f"{family} -> {res.family}"
        assert res.residual <= 1e-6
        rebuilt = family_member(res.spec)
        assert frobenius(rebuilt - Rb) <= 1e-6


@pytest.mark.parametrize(
    "pattern",
    ["1pp1", "111r", "1p1p", "11qq", "1--1"],
)
def test_classify_degenerate_diagonal_member(pattern):
    # repeated diagonal entries give M repeated eigenvalues, whose
    # eigenspaces do not single out the product basis; the realignment
    # still does, whichever of the terms N (x) I, I (x) N and N (x) N
    # survive in M
    rng = np.random.default_rng(9)
    for _ in range(5):
        base = random_family_spec("F1", rng)
        phase = np.exp(2j * np.pi * rng.uniform())
        values = {"1": 1.0, "-": -1.0, "p": phase, "q": phase, "r": phase}
        params = dict(zip("pqr", (values[c] for c in pattern[1:])))
        Rb = family_member(FamilySpec("F1", base.Q, base.k, params))
        res = classify(Rb)
        assert res.family == "F1"
        assert res.residual <= 1e-6


MOTIVATING_NEAR_SCALAR = FamilySpec(
    "F1",
    np.eye(2),
    1.0,
    {"p": np.exp(3e-6j), "q": np.exp(-2e-6j), "r": np.exp(5e-6j)},
)


@pytest.mark.parametrize("delta", [1e-4, 1e-6, 1e-8])
def test_near_scalar_diagonal_members_certify_exactly(delta):
    # with all three phases within delta of 1 the product basis is carried
    # by a term of size delta next to the scalar part; it is still read
    # exactly, and the certificate rebuilds to rounding
    rng = np.random.default_rng(14)
    specs = [MOTIVATING_NEAR_SCALAR]
    for _ in range(40):
        base = random_family_spec("F1", rng)
        phases = np.exp(1j * delta * rng.uniform(-1, 1, size=3))
        specs.append(FamilySpec("F1", base.Q, base.k, dict(zip("pqr", phases))))
    for spec in specs:
        Rb = family_member(spec)
        res = classify(Rb)
        assert res.family == "F1"
        assert frobenius(family_member(res.spec) - Rb) <= 1e-12


def test_classify_returns_dataclass():
    res = classify(np.eye(4))
    assert isinstance(res, ClassificationResult)
    assert res.message


@pytest.mark.parametrize(
    "family, n, tag",
    [("F1", 300, "F1"), ("F2", 200, "F1"), ("F3", 500, "F3"), ("F4", 300, "F4")],
)
def test_sampled_members_certify_in_closed_form(family, n, tag):
    # F2 forces p q = 1, so the diagonal stage certifies every member; the
    # product basis of F1, F3 and F4 members is read off M, M^2 and M^4
    # without any search
    rng = np.random.default_rng(10)
    for _ in range(n):
        Rb = family_member(random_family_spec(family, rng))
        res = classify(Rb)
        assert res.family == tag
        assert res.residual <= 1e-6
        assert frobenius(family_member(res.spec) - Rb) <= 1e-6


@pytest.mark.parametrize("delta", [1e-2, 1e-4, 1e-6, 1e-8, 0.0])
def test_f3_members_near_pq_one_are_certified(delta):
    # the F3 extraction reads U from a term proportional to p q - 1, which
    # fades as p q -> 1; the diagonal stage covers the members it cannot see
    rng = np.random.default_rng(13)
    for _ in range(10):
        base = random_family_spec("F3", rng)
        ratio = abs(base.Q[1, 1]) ** 2 / abs(base.Q[0, 0]) ** 2
        phase = np.exp(2j * np.pi * rng.uniform())
        params = {"p": ratio * phase, "q": np.exp(1j * delta) / (ratio * phase)}
        Rb = family_member(FamilySpec("F3", base.Q, base.k, params))
        res = classify(Rb)
        assert res.family in {"F1", "F3"}
        assert frobenius(family_member(res.spec) - Rb) <= 1e-6


def test_f3_certificate_keeps_corners_for_nearly_antidiagonal_q():
    Q = np.array([[1e-3, 2.0], [-1.0, 2e-3]])
    ratio = abs(Q[1, 1]) ** 2 / abs(Q[0, 0]) ** 2
    params = {"p": ratio * np.exp(0.3j), "q": np.exp(1.1j) / ratio}
    Rb = family_member(FamilySpec("F3", Q, np.exp(0.7j), params))
    res = classify(Rb)
    assert res.family == "F3"
    assert abs(res.spec.Q[0, 0]) ** 2 >= 0.5
    assert frobenius(family_member(res.spec) - Rb) <= 1e-6


def test_non_entangling_gates_preserve_all_products():
    rng = np.random.default_rng(12)
    U, V = random_unitary_2(rng), random_unitary_2(rng)
    gate = kron(U, V) @ SWAP
    assert not is_entangling_gate(gate).entangling
    for _ in range(200):
        u = rng.normal(size=2) + 1j * rng.normal(size=2)
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        out = TwoQubitState(gate @ np.kron(u, v))
        assert abs(out.pair_determinant) <= 1e-9


def _bloch(theta, phi):
    return np.array([np.cos(theta), np.sin(theta) * np.exp(1j * phi)])


def reference_witness_determinant(G, grid_points=9):
    """Best output pair determinant found by a grid refined with Nelder-Mead.

    This is the search the closed-form witness replaced; it stays here as
    the reference the closed form must never fall below.
    """
    from scipy.optimize import minimize

    thetas = np.linspace(0.0, np.pi / 2, grid_points)
    phis = np.linspace(0.0, 2 * np.pi, grid_points, endpoint=False)
    tt, pp = np.meshgrid(thetas, phis, indexing="ij")
    locals_ = np.stack(
        [np.cos(tt).ravel(), (np.sin(tt) * np.exp(1j * pp)).ravel()], axis=1
    )
    states = np.einsum("ai,bj->abij", locals_, locals_).reshape(-1, 4)
    out = states @ G.T
    dets = np.abs(out[:, 0] * out[:, 3] - out[:, 1] * out[:, 2])
    flat = int(np.argmax(dets))
    ia, ib = divmod(flat, grid_points * grid_points)

    def angles_of(index):
        i, j = divmod(index, grid_points)
        return float(thetas[i]), float(phis[j])

    def negdet(x):
        psi = G @ np.kron(_bloch(x[0], x[1]), _bloch(x[2], x[3]))
        return -abs(psi[0] * psi[3] - psi[1] * psi[2])

    res = minimize(
        negdet,
        np.array(angles_of(ia) + angles_of(ib)),
        method="Nelder-Mead",
        options={"xatol": 1e-9, "fatol": 1e-13, "maxiter": 600},
    )
    return max(-res.fun, dets[flat])


def random_unitary_4(rng):
    Z = (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))) / np.sqrt(2)
    Q, R = np.linalg.qr(Z)
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def cartan_gate(a, b, c):
    """exp(i (a XX + b YY + c ZZ))."""
    X = np.array([[0, 1], [1, 0]])
    Y = np.array([[0, -1j], [1j, 0]])
    Z = np.diag([1, -1])
    H = a * np.kron(X, X) + b * np.kron(Y, Y) + c * np.kron(Z, Z)
    lam, V = np.linalg.eigh(H)
    return V @ np.diag(np.exp(1j * lam)) @ V.conj().T


def entangling_members(count):
    rng = np.random.default_rng(606)
    gates = []
    while len(gates) < count:
        for family in ("F1", "F3", "F4"):
            M = family_member(random_family_spec(family, rng))
            if is_entangling_gate(M, witness=False).entangling:
                gates.append(M)
    return gates


def haar_gates(count):
    rng = np.random.default_rng(707)
    return [random_unitary_4(rng) for _ in range(count)]


CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)

WITNESS_INPUTS = {
    "family_members": lambda: entangling_members(510),
    "haar": lambda: haar_gates(300),
    "cartan": lambda: [
        cartan_gate(np.pi / 4, np.pi / 8, 0.0),
        cartan_gate(np.pi / 4 - 1e-7, 0.0, 0.0),
        cartan_gate(1e-5, 0.0, 0.0),
    ],
    "cnot_and_hadamard_swap": lambda: [CNOT, HADA_SWAP],
}


@pytest.mark.parametrize("source", sorted(WITNESS_INPUTS))
def test_closed_form_witness_never_below_reference_search(source):
    for G in WITNESS_INPUTS[source]():
        report = is_entangling_gate(G)
        assert report.entangling
        w = report.witness
        assert w.output_pair_determinant >= reference_witness_determinant(G) - 1e-12
        assert abs(w.state.pair_determinant) <= 1e-12
        out = G @ w.state.vec
        out_det = abs(out[0] * out[3] - out[1] * out[2])
        assert abs(out_det - w.output_pair_determinant) <= 1e-12
        rebuilt = np.kron(_bloch(*w.angles[:2]), _bloch(*w.angles[2:]))
        phase = np.vdot(rebuilt, w.state.vec)
        assert np.linalg.norm(rebuilt * phase / abs(phase) - w.state.vec) <= 1e-12


def _is_rank_one(M, ratio=1e-6):
    s = np.linalg.svd(M, compute_uv=False)
    return s[0] > 0 and s[1] <= ratio * s[0]


def realignment_verdict(G):
    """Reference: the realignment test the magic-basis verdict replaced.

    A gate preserves products exactly when it is A (x) B or (A (x) B) SWAP,
    and both have a rank-1 realignment.
    """
    return not (_is_rank_one(realign(G)) or _is_rank_one(realign(G @ SWAP)))


def near_local_gate(rng, eps):
    """(A (x) B) exp(i eps H) (C (x) D) with H = a XX + b YY + c ZZ, |(a, b, c)| = 1.

    H has no local part, so rho / eps lies in [2, 2 sqrt 2] for small eps.
    """
    coeffs = rng.normal(size=3)
    core = cartan_gate(*(eps * coeffs / np.linalg.norm(coeffs)))
    outer = [kron(random_unitary_2(rng), random_unitary_2(rng)) for _ in range(2)]
    return outer[0] @ core @ outer[1]


def verdict_sweep_gates():
    rng = np.random.default_rng(515)
    gates = [random_unitary_4(rng) for _ in range(150)]
    for family in ("F1", "F2", "F3", "F4", "F5"):
        gates += [family_member(random_family_spec(family, rng)) for _ in range(60)]
    for _ in range(60):
        local = kron(random_unitary_2(rng), random_unitary_2(rng))
        gates += [local, local @ SWAP]
    for eps in (1e-3, 1e-5, 1e-7, 1e-9):
        gates += [near_local_gate(rng, eps) for _ in range(60)]
    return gates


def test_radius_verdict_matches_realignment_reference():
    disagree = 0
    for G in verdict_sweep_gates():
        report = is_entangling_gate(G)
        disagree += report.entangling != realignment_verdict(G)
        if report.entangling:
            # the number behind the verdict is the one the witness attains
            bound = DEFAULT_TOL.singular_tol
            assert 2 * report.witness.output_pair_determinant > bound
    assert disagree == 0


def test_radius_resolves_below_sqrt_eps():
    # at eps = 1e-9 the radius is ~2e-9, far below the ~1.5e-8 square root of
    # machine epsilon, and the witness attains it once the bound drops below
    rng = np.random.default_rng(11)
    eps = 1e-9
    fine = Tolerance(singular_tol=1e-12)
    for _ in range(20):
        G = near_local_gate(rng, eps)
        assert not is_entangling_gate(G).entangling
        rho = 2 * is_entangling_gate(G, tol=fine).witness.output_pair_determinant
        assert 0.5 * eps <= rho <= 10 * eps


def test_radius_is_invariant_under_local_gates_and_swap():
    rng = np.random.default_rng(16)
    gates = haar_gates(20) + entangling_members(20)
    for G in gates:
        rho = 2 * is_entangling_gate(G).witness.output_pair_determinant
        left, right = (
            kron(random_unitary_2(rng), random_unitary_2(rng)) for _ in range(2)
        )
        for moved in (left @ G @ right, G @ SWAP):
            report = is_entangling_gate(moved)
            assert report.entangling
            assert abs(2 * report.witness.output_pair_determinant - rho) <= 1e-12


def perturbed_member(rng, family, eps):
    """exp(i eps H) times a member, H Hermitian with ||H||_2 = 1: unitary, and
    eps away from the family."""
    H = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    H = H + dagger(H)
    lam, V = np.linalg.eigh(H / np.linalg.norm(H, 2))
    step = V @ np.diag(np.exp(1j * eps * lam)) @ dagger(V)
    return step @ family_member(random_family_spec(family, rng))


def test_floor_never_exceeds_rebuild_residual():
    # the floor || |C| - |X| ||_F stands in for the rebuild residual of every
    # certificate a stage proposes, both F4 column orders included; members
    # pushed 1e-7 to 1e-5 off their family put residuals around the bound
    rng = np.random.default_rng(17)
    gates = [family_member(random_family_spec(f, rng)) for f in FAMILY_NAMES * 30]
    gates += haar_gates(100)
    gates += [
        perturbed_member(rng, f, eps)
        for eps in (1e-7, 1e-6, 2e-6, 1e-5)
        for f in FAMILY_NAMES * 6
    ]
    residuals = {}
    for G in gates:
        for spec, C, pattern, _ in _candidates(G):
            try:
                residual = frobenius(family_member(spec) - G)
            except ConstraintViolation:
                continue
            floor = frobenius(np.abs(C) - pattern)
            assert floor <= residual + 1e-12
            residuals.setdefault(spec.family, []).append(residual)
    assert sorted(residuals) == ["F1", "F3", "F4", "F5"]
    every = np.concatenate(list(residuals.values()))
    assert np.any((every > 1e-7) & (every < 1e-5))


def classify_rebuilding_every_candidate(Rb, tol):
    """Reference: the stage loop without the floor, one rebuild per candidate."""
    for spec, _, _, message in _candidates(Rb):
        try:
            residual = frobenius(family_member(spec, tol=tol) - Rb)
        except ConstraintViolation:
            continue
        if residual <= 1e-6:
            return certificate(spec), residual, message
    return None, float("inf"), "no family certificate found"


def certificate(spec):
    """A spec as comparable values, bit for bit."""
    if spec is None:
        return None
    return spec.family, spec.Q.tobytes(), spec.k, sorted(spec.params.items())


def test_floor_declines_only_what_the_rebuild_declines():
    # a loose residual_tol lets members pushed off their family through the
    # solution check, so rebuild residuals and floors land around 1e-6
    loose = Tolerance(residual_tol=1e-2)
    rng = np.random.default_rng(19)
    tags = set()
    for eps in (3e-7, 6e-7, 1e-6, 1.5e-6, 2e-6, 4e-6):
        for f in FAMILY_NAMES * 8:
            G = perturbed_member(rng, f, eps)
            got = classify(G, tol=loose)
            want = classify_rebuilding_every_candidate(G, loose)
            assert (certificate(got.spec), got.residual, got.message) == want
            tags.add(got.family)
    assert tags == {"F1", "F3", "F4", "F5", None}


def magic_radius(G):
    """(rho, ||S - tr(S)/4 I||_F), rho from the spectrum as if there were no exit."""
    GM = dagger(_MAGIC) @ G @ _MAGIC
    S = GM.T @ GM
    O = _takagi_real(S)
    d = np.diag(O.T @ S @ O)
    spread = frobenius(S - np.trace(S) / 4 * np.eye(4))
    return abs(_witness_weights(d) @ d), spread


@pytest.mark.parametrize(
    "tol, near_straddle",
    [(DEFAULT_TOL, True), (Tolerance(singular_tol=1e-12), False)],
)
def test_scalar_s_exit_keeps_the_spectrum_verdict(tol, near_straddle):
    # near-local gates at eps from 1e-8 to 1e-6 have ||S - c I||_F = 4 eps,
    # on both sides of singular_tol / 2 at the default bound and above it at
    # 1e-12; exact local gates, and their compositions with the swap, take
    # the exit at both bounds
    rng = np.random.default_rng(18)
    near = [
        near_local_gate(rng, eps) for eps in np.geomspace(1e-8, 1e-6, 9) for _ in range(12)
    ]
    local = []
    for _ in range(10):
        gate = kron(random_unitary_2(rng), random_unitary_2(rng))
        local += [gate, gate @ SWAP]
    exits = []
    for G in near + local:
        rho, spread = magic_radius(G)
        exits.append(spread <= tol.singular_tol / 2)
        report = is_entangling_gate(G, tol=tol)
        assert report.entangling == (rho > tol.singular_tol)
        assert (report.witness is None) == (not report.entangling)
    assert all(exits[len(near):])
    near_exits = sum(exits[: len(near)])
    assert (0 < near_exits < len(near)) if near_straddle else near_exits == 0
