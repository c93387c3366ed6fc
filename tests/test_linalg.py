"""Tests for the dense matrix kernel."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ybe4.errors import ConstraintViolation, NonConvergence, SingularMatrix
from ybe4.linalg import (
    DEFAULT_TOL,
    Tolerance,
    char_poly,
    dagger,
    eigenvalues,
    frobenius,
    inverse,
    is_unitary,
    kron,
)

SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)


def greedy_match(got, want):
    """Max distance when greedily pairing two equal-length complex multisets."""
    got = list(got)
    worst = 0.0
    for w in want:
        i = int(np.argmin([abs(g - w) for g in got]))
        worst = max(worst, abs(got.pop(i) - w))
    return worst


def test_kron_block_convention():
    A = np.array([[1, 2], [3, 4]], dtype=complex)
    B = np.array([[0, 5], [6, 7]], dtype=complex)
    K = kron(A, B)
    assert K.shape == (4, 4)
    # entry ((i,k),(j,l)) = A[i,j] B[k,l] with composite row i*2+k
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    assert K[2 * i + k, 2 * j + l] == A[i, j] * B[k, l]


def test_dagger_and_frobenius():
    A = np.array([[1 + 2j, 3], [4j, 5]], dtype=complex)
    assert np.array_equal(dagger(A), A.conj().T)
    assert frobenius(A) == pytest.approx(np.sqrt(1 + 4 + 9 + 16 + 25))


def test_inverse_known_matrix():
    A = np.array([[1, 1], [-1, 1]], dtype=complex)
    expect = 0.5 * np.array([[1, -1], [1, 1]], dtype=complex)
    assert np.allclose(inverse(A), expect, atol=1e-14)


def test_inverse_rejects_singular():
    with pytest.raises(SingularMatrix):
        inverse(np.array([[1, 2], [2, 4]], dtype=complex))
    with pytest.raises(SingularMatrix):
        inverse(np.zeros((3, 3)))


def test_inverse_respects_pivot_threshold():
    A = np.diag([1.0, 1e-8]).astype(complex)
    with pytest.raises(SingularMatrix):
        inverse(A)
    # a looser threshold lets the same matrix through
    loose = Tolerance(singular_tol=1e-12)
    assert np.allclose(A @ inverse(A, tol=loose), np.eye(2), atol=1e-6)


def test_char_poly_identity():
    assert np.allclose(char_poly(np.eye(4)), [1, -4, 6, -4, 1], atol=1e-12)


def test_char_poly_diagonal():
    got = char_poly(np.diag([2, 8, 2, -8]).astype(complex))
    assert np.allclose(got, [1, -4, -60, 256, -256], atol=1e-9)


def test_char_poly_swap():
    assert np.allclose(char_poly(SWAP), [1, -2, 0, 2, -1], atol=1e-12)


def test_eigenvalues_swap():
    assert greedy_match(eigenvalues(SWAP), [1, 1, 1, -1]) < 1e-8


def test_eigenvalues_fourfold_symmetric_matrix():
    # symmetric matrix whose spectrum splits into two +/- pairs
    M = np.array(
        [[1, 0, 0, -3], [0, 5, -3, 0], [0, -3, 5, 0], [-3, 0, 0, -7]],
        dtype=complex,
    )
    assert greedy_match(eigenvalues(M), [2, 8, 2, -8]) < 1e-7


def test_eigenvalues_defective_multiple_roots():
    # unipotent triangular: quadruple eigenvalue 1 with nontrivial Jordan
    # structure; naive polynomial rooting would scatter it by ~1e-4
    A = np.array(
        [[1, 2, -2, 4], [0, 1, 0, 3], [0, 0, 1, -3], [0, 0, 0, 1]], dtype=complex
    )
    got = eigenvalues(A)
    assert greedy_match(got, [1, 1, 1, 1]) < 1e-10
    mods = np.abs(got)
    assert (mods.max() - mods.min()) / mods.max() < 1e-12


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=-3.0, max_value=3.0), st.integers(0, 2**32 - 1))
def test_eigenvalues_defective_root_is_scale_invariant(log_c, seed):
    # c * S A S^-1 for the unipotent block above has the single 4-fold root c
    c = 10.0**log_c
    A = np.array(
        [[1, 2, -2, 4], [0, 1, 0, 3], [0, 0, 1, -3], [0, 0, 0, 1]], dtype=complex
    )
    rng = np.random.default_rng(seed)
    S = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)) + 3.0 * np.eye(4)
    got = eigenvalues(c * S @ A @ np.linalg.inv(S))
    assert len(got) == 4
    assert np.all(got == got[0])
    assert abs(got[0] - c) <= 1e-10 * c


@pytest.mark.parametrize("c", [1e-3, 1.0, 1e3])
def test_eigenvalues_rejects_a_non_root_at_every_scale(c, monkeypatch):
    # a root solver that returns 1.5c in place of c must be caught whatever
    # the scale; a bound with an absolute floor of 1 let it pass at c = 1e-3
    monkeypatch.setattr(np.linalg, "eigvals", lambda A: np.array([1.5, 2, 3, 4]) * c)
    with pytest.raises(NonConvergence):
        eigenvalues(np.diag([1.0, 2.0, 3.0, 4.0]) * c)


def test_eigenvalues_dim2_closed_form():
    M = np.array([[3, 1], [0, 3 + 1e-9]], dtype=complex)
    got = eigenvalues(M)
    assert greedy_match(got, [3, 3 + 1e-9]) < 1e-6


def test_eigenvalues_agree_with_numpy_oracle():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = rng.integers(2, 7)
        A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        got = eigenvalues(A)
        want = np.linalg.eigvals(A)
        assert greedy_match(got, want) < 1e-7


def test_is_unitary_examples():
    ok, defect = is_unitary(np.eye(4))
    assert ok and defect < 1e-15
    hada = np.array(
        [[1, 0, 0, 1], [0, 1, 1, 0], [0, 1, -1, 0], [-1, 0, 0, 1]], dtype=complex
    )
    ok, _ = is_unitary(hada)
    assert not ok
    ok, defect = is_unitary(hada / np.sqrt(2))
    assert ok and defect < 1e-12


def test_rejects_nonsquare_and_nonfinite():
    with pytest.raises(ValueError):
        inverse(np.ones((2, 3)))
    with pytest.raises(ValueError):
        char_poly(np.array([[np.inf, 0], [0, 1]]))


small_complex = st.complex_numbers(
    max_magnitude=3.0, allow_nan=False, allow_infinity=False
)


def square(n):
    return arrays(np.complex128, (n, n), elements=small_complex)


@settings(max_examples=40, deadline=None)
@given(square(2), square(2), square(2), square(2))
def test_kron_mixed_product(A, B, C, D):
    lhs = kron(A, B) @ kron(C, D)
    rhs = kron(A @ C, B @ D)
    assert np.allclose(lhs, rhs, atol=1e-8)


@settings(max_examples=40, deadline=None)
@given(square(3), square(3))
def test_dagger_reverses_products(A, B):
    assert np.allclose(dagger(A @ B), dagger(B) @ dagger(A), atol=1e-9)


@settings(max_examples=40, deadline=None)
@given(square(3))
def test_inverse_roundtrip_when_well_conditioned(A):
    A = A + 4.0 * np.eye(3)
    try:
        Ainv = inverse(A)
    except SingularMatrix:
        return
    assert np.allclose(A @ Ainv, np.eye(3), atol=1e-6)
    assert np.allclose(Ainv @ A, np.eye(3), atol=1e-6)


@settings(max_examples=30, deadline=None)
@given(square(4))
def test_char_poly_matches_numpy(A):
    got = np.asarray(char_poly(A))
    want = np.poly(A)
    scale = max(1.0, np.abs(want).max())
    assert np.allclose(got, want, atol=1e-7 * scale)


def test_default_tolerance_values():
    assert DEFAULT_TOL.eq_tol == 1e-9
    assert DEFAULT_TOL.residual_tol == 1e-9
    assert DEFAULT_TOL.singular_tol == 1e-6


@pytest.mark.parametrize("field", ["eq_tol", "residual_tol", "singular_tol"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -1e-9])
def test_tolerance_rejects_non_positive_or_non_finite(field, bad):
    with pytest.raises(ConstraintViolation):
        Tolerance(**{field: bad})
