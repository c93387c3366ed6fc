from __future__ import annotations

import numpy as np
import pytest

from ybe4.bracket import (
    BracketParams,
    bracket_R,
    bracket_to_family,
    delta_lower_bound,
    loop_value,
    odot,
    skein_delta,
    unitary_bracket_family,
)
from ybe4.classify import classify, is_entangling_gate
from ybe4.core import braided_residual
from ybe4.errors import (
    ConstraintViolation,
    DegenerateParameter,
    DimensionError,
    PreconditionFailed,
)
from ybe4.families import family_member, validate_spec
from ybe4.linalg import DEFAULT_TOL, Tolerance, frobenius, inverse, is_unitary, kron

I2 = np.eye(2, dtype=complex)

BRACKET_I = np.array(
    [
        [0, 0, 0, -1j],
        [0, 1j, 0, 0],
        [0, 0, 1j, 0],
        [-1j, 0, 0, 0],
    ]
)


def crand(rng, shape=()):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def random_params(rng):
    return BracketParams(
        r=float(rng.uniform(0.05, 1.0)),
        g=float(rng.uniform(-np.pi, np.pi)),
        p=float(rng.uniform(-np.pi, np.pi)),
    )


def test_odot_identity_pair():
    expected = np.array(
        [
            [1, 0, 0, 1],
            [0, 0, 0, 0],
            [0, 0, 0, 0],
            [1, 0, 0, 1],
        ],
        dtype=complex,
    )
    assert np.array_equal(odot(I2, I2), expected)


def test_odot_layout_rows_from_first_factor():
    N = np.array([[1, 2], [3, 4]], dtype=complex)
    K = np.array([[5, 6], [7, 8]], dtype=complex)
    out = odot(N, K)
    # row block ordering follows the flattening (a, b, c, d) of each factor
    assert out[0, 0] == 5 and out[0, 3] == 8
    assert out[3, 0] == 20 and out[1, 2] == 2 * 7
    assert out.shape == (4, 4)


def test_odot_rejects_mismatched_shapes():
    with pytest.raises(ValueError):
        odot(I2, np.eye(3))


def test_odot_shape_error_is_typed():
    cases = ((I2, np.eye(3)), (np.ones((2, 3)), np.ones((2, 3))), (np.ones(4), np.ones(4)))
    for N, K in cases:
        with pytest.raises(DimensionError):
            odot(N, K)


def test_loop_value_examples():
    assert loop_value(I2) == pytest.approx(2.0)
    assert loop_value(np.diag([3.0, 5.0])) == pytest.approx(2.0)
    # any symmetric seed also lands on 2
    assert loop_value(np.array([[1.0, 4.0], [4.0, 9.0]])) == pytest.approx(2.0)
    assert loop_value(np.array([[1, 2], [3, 4]], dtype=float)) == pytest.approx(2.5)


@pytest.mark.parametrize("alpha", [0, 0.0, 0j, -0.0])
def test_alpha_zero_is_degenerate(alpha):
    with pytest.raises(DegenerateParameter):
        skein_delta(alpha)
    with pytest.raises(DegenerateParameter):
        bracket_R(alpha, np.eye(2))


def test_skein_delta_values():
    assert skein_delta(1j) == pytest.approx(2.0)
    assert skein_delta(np.exp(1j * np.pi / 4)) == pytest.approx(0.0, abs=1e-15)


def test_projector_identity_random_seeds():
    rng = np.random.default_rng(11)
    for _ in range(50):
        N = crand(rng, (2, 2))
        if abs(np.linalg.det(N)) < 1e-2:
            continue
        U = odot(N, inverse(N))
        norm = frobenius(U)
        assert frobenius(U @ U - loop_value(N) * U) <= 1e-10 * max(1.0, norm**2)


def test_bracket_identity_seed_frozen():
    R = bracket_R(1j, I2)
    assert np.allclose(R, BRACKET_I, atol=1e-15)
    ok, defect = is_unitary(R)
    assert ok and defect < 1e-15
    assert braided_residual(R) < 1e-15


def test_bracket_alpha_loop_mismatch_breaks_equation():
    # unitary seeds force delta = 2 but alpha = e^{i pi/4} demands delta = 0
    alpha = np.exp(1j * np.pi / 4)
    R = bracket_R(alpha, I2)
    assert braided_residual(R) > 1e-2


def test_unitary_family_inverse_conjugate():
    rng = np.random.default_rng(23)
    for _ in range(100):
        params = random_params(rng)
        N, R = unitary_bracket_family(params)
        assert frobenius(np.conj(N) @ N - I2) <= 1e-12
        assert abs(np.linalg.det(N) - np.exp(1j * params.p)) <= 1e-12
        ok, defect = is_unitary(R)
        assert ok and defect <= 1e-12
        assert braided_residual(R) <= 1e-12
        assert abs(loop_value(N) - 2.0) <= 1e-10


def test_unitary_family_projector_relation():
    rng = np.random.default_rng(24)
    for _ in range(100):
        N, _ = unitary_bracket_family(random_params(rng))
        U = odot(N, inverse(N))
        assert frobenius(U @ U - 2.0 * U) <= 1e-10


def test_unitary_family_endpoints():
    N, R = unitary_bracket_family(BracketParams(r=1.0))
    assert np.allclose(N, I2, atol=1e-15)
    assert np.allclose(R, BRACKET_I, atol=1e-15)
    # r = 0 still gives a valid seed, purely off-diagonal
    N0, R0 = unitary_bracket_family(BracketParams(r=0.0, p=0.6))
    assert abs(N0[0, 0]) == 0.0 and abs(N0[1, 1]) == 0.0
    assert frobenius(np.conj(N0) @ N0 - I2) <= 1e-12
    assert braided_residual(R0) <= 1e-12


def test_params_validation():
    with pytest.raises(ConstraintViolation):
        BracketParams(r=1.2)
    with pytest.raises(ConstraintViolation):
        BracketParams(r=-0.1)


def random_inverse_conjugate(rng, n):
    # N = B conj(B)^-1 satisfies conj(N) N = I for any invertible B
    while True:
        B = crand(rng, (n, n))
        if abs(np.linalg.det(B)) > 1e-2:
            return B @ inverse(np.conj(B))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_delta_lower_bound_identity(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(40):
        N = random_inverse_conjugate(rng, n)
        delta, residual = delta_lower_bound(N)
        assert residual <= 1e-10 * max(1.0, abs(delta))
        assert delta.real >= n - 1e-8
        asym = sum(
            abs(N[i, j] - N[j, i]) ** 2 for i in range(n) for j in range(i + 1, n)
        )
        assert abs(delta - n - asym) <= 1e-9


def test_delta_lower_bound_rejects_general_seed():
    with pytest.raises(PreconditionFailed):
        delta_lower_bound(np.array([[1, 2], [3, 4]], dtype=complex))


def congruence(params):
    """The paper's triangular Q = [[1, 0], [z, sqrt r]], with Q N Q^t diagonal."""
    r, g, p = params.r, params.g, params.p
    z = -1j * np.sqrt(1.0 - r * r) * np.exp(1j * (p / 2.0 - g)) / np.sqrt(r)
    return np.array([[1.0, 0.0], [z, np.sqrt(r)]], dtype=complex)


def test_congruence_diagonalizes_seed():
    rng = np.random.default_rng(31)
    for _ in range(60):
        params = BracketParams(
            r=float(rng.uniform(0.11, 1.0)),
            g=float(rng.uniform(-np.pi, np.pi)),
            p=float(rng.uniform(-np.pi, np.pi)),
        )
        N, _ = unitary_bracket_family(params)
        M = congruence(params) @ N @ congruence(params).T
        assert abs(M[0, 1]) + abs(M[1, 0]) <= 1e-10
        assert abs(M[0, 0] - params.r * np.exp(1j * params.g)) <= 1e-10
        assert abs(M[1, 1] - np.exp(1j * (params.p - params.g))) <= 1e-10
        p0, q0 = -M[0, 0] / M[1, 1], -M[1, 1] / M[0, 0]
        assert abs(abs(p0) - params.r) <= 1e-9
        assert abs(abs(q0) - 1.0 / params.r) <= 1e-9


def test_congruence_conjugate_is_bracket_of_diagonal():
    rng = np.random.default_rng(32)
    for _ in range(20):
        params = random_params(rng)
        N, R = unitary_bracket_family(params)
        Q = congruence(params)
        M = Q @ N @ Q.T
        p0, q0 = -M[0, 0] / M[1, 1], -M[1, 1] / M[0, 0]
        R_conj = kron(Q, Q) @ R @ inverse(kron(Q, Q))
        assert frobenius(R_conj - bracket_R(1j, M)) <= 1e-9
        # anti-diagonal pattern with corners i*p0 and i*q0
        assert abs(R_conj[0, 3] - 1j * p0) <= 1e-9
        assert abs(R_conj[3, 0] - 1j * q0) <= 1e-9
        assert abs(R_conj[1, 1] - 1j) <= 1e-9
        assert abs(R_conj[2, 2] - 1j) <= 1e-9


def test_congruence_compatibility_identity():
    # (Q x Q) (N (.) K) (Q x Q)^-1 = (Q N Q^t) (.) (Q^-t K Q^-1)
    rng = np.random.default_rng(33)
    for _ in range(30):
        N = crand(rng, (2, 2))
        K = crand(rng, (2, 2))
        Q = crand(rng, (2, 2))
        if abs(np.linalg.det(Q)) < 0.1:
            continue
        A = kron(Q, Q)
        lhs = A @ odot(N, K) @ inverse(A)
        Qi = inverse(Q)
        rhs = odot(Q @ N @ Q.T, Qi.T @ K @ Qi)
        assert frobenius(lhs - rhs) <= 1e-9 * max(1.0, frobenius(lhs))


def test_anti_diagonal_pattern_solves_for_any_parameters():
    # why the congruence lands on solutions whatever the corners p0, q0
    rng = np.random.default_rng(34)
    for _ in range(200):
        p0, q0 = crand(rng, 2) * 10.0 ** rng.uniform(-6, 6, 2)
        R = np.diag([0, 1j, 1j, 0])
        R[0, 3], R[3, 0] = 1j * p0, 1j * q0
        assert braided_residual(R) <= 1e-15 * max(1.0, abs(p0), abs(q0)) ** 3


def assert_certifies(params, tol=DEFAULT_TOL):
    """bracket_to_family's spec is a valid F3 certificate that rebuilds R."""
    _, R = unitary_bracket_family(params)
    result = bracket_to_family(params, tol)
    assert result.family == "F3", (params, result.residual)
    assert validate_spec(result.spec, tol) == [], params
    residual = frobenius(family_member(result.spec, tol=tol) - R)
    assert residual == result.residual <= tol.residual_tol
    return result


@pytest.mark.parametrize(
    "r", [0.0, 1e-8, 1.01e-6, 3e-6, 1e-5, 1e-4, 1e-3, 0.1, 0.5, 1.0]
)
def test_reduction_certificate_decides_the_tag(r):
    rng = np.random.default_rng(35)
    for _ in range(25):
        params = BracketParams(
            r=r, g=float(rng.uniform(0, 2 * np.pi)), p=float(rng.uniform(0, 2 * np.pi))
        )
        result = assert_certifies(params)
        # O is real orthogonal, so F3 forces unimodular corners
        assert np.array_equal(result.spec.Q.imag, np.zeros((2, 2)))
        assert abs(result.spec.params["p"] * result.spec.params["q"] - 1) <= 1e-12
    # a bound below the rebuild residual declines the tag and keeps the spec
    tight = Tolerance(residual_tol=1e-18)
    result = bracket_to_family(params, tight)
    assert result.family is None and result.residual > 1e-18
    assert result.spec is not None


def test_reduction_certifies_zero_radius():
    # the congruence's M is singular here; the Takagi basis is not
    for r in (0.0, 5e-10):
        assert_certifies(BracketParams(r=r, g=0.4, p=1.1))


@pytest.mark.parametrize("p", [2e-8, 5e-8, 1e-7])
def test_takagi_basis_at_small_gaps(p):
    # Re N has an eigenvalue gap of order p here, where an eigenbasis of
    # Re N alone, split by Im N only below a fixed gap, misses the bound
    rng = np.random.default_rng(36)
    for _ in range(40):
        assert_certifies(
            BracketParams(
                r=float(rng.uniform(0.0, 1.0)), g=float(rng.uniform(0, 2 * np.pi)), p=p
            )
        )


@pytest.mark.parametrize("g", [0.0, 0.4, 2.0, np.pi])
def test_takagi_basis_at_special_seeds(g):
    # Re N is scalar at (0.37, 0, 0); N itself is scalar at r = 1, p = 2g
    assert_certifies(BracketParams(r=0.37, g=0.0, p=0.0))
    result = assert_certifies(BracketParams(r=1.0, g=g, p=2 * g))
    assert result.spec.params["p"] == pytest.approx(-1.0)
    # the traceless part of N is i e^{ip/2} times a real matrix, so at
    # p = pi/2 those of Re N and Im N are opposite and their plain sum cancels
    for r in (0.2, 0.5, 0.9):
        assert_certifies(BracketParams(r=r, g=g + 0.3, p=np.pi / 2))


def test_skein_members_sit_on_the_singular_locus():
    # every skein member is also a diagonal-family member that entangles
    # nothing, and classify names it F1, its first certifying stage
    rng = np.random.default_rng(37)
    draws = [random_params(rng) for _ in range(30)]
    draws += [BracketParams(r=0.0, g=0.4, p=1.1), BracketParams(r=0.6, g=0.2, p=0.0)]
    draws += [BracketParams(r=0.0), BracketParams(r=1.0)]
    for params in draws:
        assert_certifies(params)
        _, R = unitary_bracket_family(params)
        result = classify(R)
        assert result.family == "F1", params
        assert validate_spec(result.spec) == []
        assert frobenius(family_member(result.spec) - R) <= 1e-6
        assert not is_entangling_gate(R, witness=False).entangling, params


def test_reduction_trivial_seed():
    result = assert_certifies(BracketParams(r=1.0))
    assert np.array_equal(result.spec.Q, I2)
    assert result.spec.k == 1j
    assert result.spec.params["p"] == pytest.approx(-1.0)
    assert result.spec.params["q"] == pytest.approx(-1.0)
