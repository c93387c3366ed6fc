"""Tests for residual computation and braid images."""

from __future__ import annotations

from itertools import product

import numpy as np
import pytest

from ybe4.core import (
    BraidWord,
    algebraic_residual,
    braid_rep,
    braided_residual,
    compose_with_swap,
    contraction_residual,
    is_algebraic_solution,
    is_braided_solution,
    swap_matrix,
)
from ybe4.errors import DimensionError, SingularMatrix, SizeExceeded

SWAP = swap_matrix(2)
HADA = np.array(
    [[1, 0, 0, 1], [0, 1, 1, 0], [0, 1, -1, 0], [-1, 0, 0, 1]], dtype=complex
) / np.sqrt(2)


def crand(rng, shape):
    return (rng.normal(size=shape) + 1j * rng.normal(size=shape)) / np.sqrt(2)


def test_swap_matrix_explicit():
    want = np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    )
    assert np.array_equal(SWAP, want)


def test_swap_matrix_permutes_basis():
    for d in (2, 3):
        P = swap_matrix(d)
        assert np.allclose(P @ P, np.eye(d * d))
        for i in range(d):
            for j in range(d):
                v = np.zeros(d * d)
                v[d * i + j] = 1.0
                w = np.zeros(d * d)
                w[d * j + i] = 1.0
                assert np.array_equal(P @ v, w)


def test_known_braided_solutions():
    assert braided_residual(np.eye(4)) < 1e-14
    assert braided_residual(SWAP) < 1e-14
    assert is_braided_solution(HADA @ SWAP)


def test_known_algebraic_solutions():
    assert algebraic_residual(np.eye(4)) < 1e-14
    assert algebraic_residual(SWAP) < 1e-14
    assert is_algebraic_solution(HADA)


def test_random_matrix_is_not_a_solution():
    rng = np.random.default_rng(3)
    M = crand(rng, (4, 4))
    assert braided_residual(M) > 1e-2
    assert algebraic_residual(M) > 1e-2


def test_swap_composition_bridges_the_two_forms():
    rng = np.random.default_rng(11)
    for _ in range(10):
        M = crand(rng, (4, 4))
        a = algebraic_residual(M)
        b = braided_residual(compose_with_swap(M))
        assert a == pytest.approx(b, rel=1e-12)


def test_contraction_residual_matches_matrix_route():
    rng = np.random.default_rng(5)
    for _ in range(5):
        M = crand(rng, (4, 4))
        assert contraction_residual(M, "braided") == pytest.approx(
            braided_residual(M), abs=1e-12
        )
        assert contraction_residual(M, "algebraic") == pytest.approx(
            algebraic_residual(M), abs=1e-12
        )


def test_contraction_residual_dim3():
    P3 = swap_matrix(3)
    assert contraction_residual(P3, "braided") < 1e-13
    rng = np.random.default_rng(9)
    M = crand(rng, (9, 9))
    assert contraction_residual(M, "algebraic") == pytest.approx(
        algebraic_residual(M), abs=1e-11
    )


def loop_contraction_residual(R, form):
    """The component formulas of contraction_residual, summed term by term."""
    d = round(R.shape[0] ** 0.5)
    T = R.reshape(d, d, d, d)
    total = 0.0
    for i, j, k, x, y, z in product(range(d), repeat=6):
        terms = product(range(d), repeat=3)
        if form == "braided":
            diff = sum(
                T[a, b, i, j] * T[c, z, b, k] * T[x, y, a, c]
                - T[b, c, j, k] * T[x, a, i, b] * T[y, z, a, c]
                for a, b, c in terms
            )
        else:
            diff = sum(
                T[a, b, j, k] * T[c, z, i, b] * T[x, y, c, a]
                - T[a, b, i, j] * T[x, c, a, k] * T[y, z, b, c]
                for a, b, c in terms
            )
        total += abs(diff) ** 2
    return np.sqrt(total)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("form", ["braided", "algebraic"])
def test_contraction_residual_matches_component_loops(d, form):
    rng = np.random.default_rng(17)
    M = crand(rng, (d * d, d * d))
    assert contraction_residual(M, form) == pytest.approx(
        loop_contraction_residual(M, form), rel=1e-12
    )


def test_contraction_residual_rejects_unknown_form():
    with pytest.raises(ValueError):
        contraction_residual(np.eye(4), "sideways")


def test_residual_rejects_non_tensor_square():
    with pytest.raises(ValueError):
        braided_residual(np.eye(5))
    for residual in (braided_residual, algebraic_residual):
        with pytest.raises(DimensionError):
            residual(np.eye(5))


def test_braid_word_validation():
    with pytest.raises(ValueError):
        BraidWord(1)
    with pytest.raises(ValueError):
        BraidWord(3, ((3, 1),))
    with pytest.raises(ValueError):
        BraidWord(3, ((1, 2),))


def test_braid_rep_empty_word_and_single_letter():
    assert np.array_equal(braid_rep(HADA, BraidWord(2)), np.eye(4))
    assert np.allclose(braid_rep(HADA, BraidWord(2, ((1, 1),))), HADA)


def test_braid_rep_inverse_letter_cancels():
    word = BraidWord(3, ((1, 1), (1, -1)))
    assert np.allclose(braid_rep(HADA, word), np.eye(8), atol=1e-12)


def test_braid_rep_singular_inverse():
    sing = np.diag([1, 1, 1, 0]).astype(complex)
    with pytest.raises(SingularMatrix):
        braid_rep(sing, BraidWord(2, ((1, -1),)))
    near = np.diag([2, 1, 1, 1e-7]).astype(complex)
    with pytest.raises(SingularMatrix) as info:
        braid_rep(near, BraidWord(2, ((1, -1),)))
    assert info.value.value == pytest.approx(1e-7)
    assert info.value.bound == pytest.approx(2e-6)


def test_braid_rep_size_cap():
    with pytest.raises(SizeExceeded):
        braid_rep(HADA, BraidWord(7))
    # a custom cap overrides the default
    big = braid_rep(SWAP, BraidWord(7), max_strands=7)
    assert big.shape == (128, 128)


def test_braid_relation_for_braided_solutions():
    R = HADA @ SWAP
    lhs = braid_rep(R, BraidWord(3, ((1, 1), (2, 1), (1, 1))))
    rhs = braid_rep(R, BraidWord(3, ((2, 1), (1, 1), (2, 1))))
    assert np.linalg.norm(lhs - rhs) < 1e-12


def test_far_generators_commute():
    R = HADA @ SWAP
    lhs = braid_rep(R, BraidWord(4, ((1, 1), (3, 1))))
    rhs = braid_rep(R, BraidWord(4, ((3, 1), (1, 1))))
    assert np.linalg.norm(lhs - rhs) < 1e-13
