"""Arguments of the wrong type at the public entry points: each is a
ConstraintViolation named after the parameter, never a bare AttributeError,
TypeError or numpy error from deeper down.  A 0 x 0 matrix, where a function
needs at least one entry, is a DimensionError."""

from __future__ import annotations

import re

import numpy as np
import pytest

from ybe4.bracket import (
    BracketParams,
    bracket_R,
    bracket_to_family,
    skein_delta,
    unitary_bracket_family,
)
from ybe4.classify import TwoQubitState, classify, is_entangling_gate, is_product_state
from ybe4.core import (
    BraidWord,
    braid_rep,
    contraction_residual,
    is_algebraic_solution,
    is_braided_solution,
    solution_check,
    swap_matrix,
)
from ybe4.errors import ConstraintViolation, DimensionError
from ybe4.families import (
    FamilySpec,
    eigenvalue_filter,
    family_member,
    run_elimination,
    validate_spec,
)
from ybe4.linalg import Tolerance, char_poly, eigenvalues, inverse, is_unitary
from ybe4.matrixio import matrix_to_rows

SWAP = swap_matrix(2)
I2 = np.eye(2)
F5 = FamilySpec("F5", I2)
PRODUCT = TwoQubitState([1, 0, 0, 0])
NAN, INF = float("nan"), float("inf")

NOT_A_TOLERANCE = "tol must be a Tolerance, got str"

CASES = [
    # a tol that is not a Tolerance
    (lambda: validate_spec(F5, "x"), NOT_A_TOLERANCE),
    (lambda: family_member(F5, tol="x"), NOT_A_TOLERANCE),
    (lambda: classify(SWAP, tol="x"), NOT_A_TOLERANCE),
    (lambda: is_entangling_gate(SWAP, tol="x"), NOT_A_TOLERANCE),
    (lambda: is_unitary(SWAP, "x"), NOT_A_TOLERANCE),
    (lambda: inverse(SWAP, "x"), NOT_A_TOLERANCE),
    (lambda: solution_check(SWAP, "braided", "x"), NOT_A_TOLERANCE),
    (lambda: is_braided_solution(SWAP, "x"), NOT_A_TOLERANCE),
    (lambda: is_algebraic_solution(SWAP, "x"), NOT_A_TOLERANCE),
    (lambda: bracket_to_family(BracketParams(0.5), "x"), NOT_A_TOLERANCE),
    # other objects of the wrong type
    (lambda: unitary_bracket_family("x"), "params must be a BracketParams, got str"),
    (lambda: bracket_to_family("x"), "params must be a BracketParams, got str"),
    (lambda: braid_rep(SWAP, "w"), "word must be a BraidWord, got str"),
    # scalar fields and arguments
    (lambda: BracketParams(r="a"), "r must be a real number, got str"),
    (lambda: BracketParams(0.5, g=NAN), "g must be finite, got nan"),
    (lambda: BracketParams(0.5, p=INF), "p must be finite, got inf"),
    (lambda: BraidWord("a"), "n_strands must be an integer >= 2, got 'a'"),
    (lambda: BraidWord(3, 5), "letters must be a tuple of pairs, got int"),
    (lambda: BraidWord(3, (1, 1)), "letters must be (generator, exponent) integer pairs, got 1"),
    (
        lambda: BraidWord(3, ((1.0, 1),)),
        "letters must be (generator, exponent) integer pairs, got (1.0, 1)",
    ),
    (lambda: skein_delta("a"), "alpha must be a number, got str"),
    (lambda: bracket_R("a", I2), "alpha must be a number, got str"),
    (lambda: swap_matrix("a"), "d must be an integer >= 1, got 'a'"),
    (lambda: PRODUCT.is_product("x"), "tol must be a real number, got str"),
    (lambda: PRODUCT.factors("x"), "tol must be a real number, got str"),
    (lambda: is_product_state([1, 0, 0, 0], "x"), "tol must be a real number, got str"),
    (lambda: matrix_to_rows("ab"), "expected an array of numbers, got str"),
    (
        lambda: FamilySpec("F1", I2, params={"p": "a", "q": 1, "r": 1}),
        "p must be a number, got str",
    ),
    (
        lambda: FamilySpec("F3", I2, params={"p": 1.0, "q": "a"}),
        "q must be a number, got str",
    ),
    (lambda: FamilySpec("F1", I2, k="a"), "k must be a number, got str"),
    (
        lambda: braid_rep(SWAP, BraidWord(3, ((1, 1),)), max_strands="6"),
        "max_strands must be an integer >= 2, got '6'",
    ),
    (
        lambda: contraction_residual(SWAP, ["braided"]),
        "unknown form ['braided'], expected 'braided' or 'algebraic'",
    ),
    (lambda: is_entangling_gate(SWAP, witness="no"), "witness must be a bool, got str"),
    # a bool is not a number here
    (lambda: Tolerance(eq_tol=True), "eq_tol must be a real number, got bool"),
    (lambda: BracketParams(r=True), "r must be a real number, got bool"),
    (lambda: run_elimination(samples=True), "samples must be an integer >= 1, got True"),
    (lambda: swap_matrix(True), "d must be an integer >= 1, got True"),
    (lambda: FamilySpec("F1", I2, k=True), "k must be a number, got bool"),
    (
        lambda: FamilySpec("F1", I2, params={"p": True, "q": 1, "r": 1}),
        "p must be a number, got bool",
    ),
    (lambda: skein_delta(True), "alpha must be a number, got bool"),
    (lambda: bracket_R(True, I2), "alpha must be a number, got bool"),
]


@pytest.mark.parametrize("call, message", CASES)
def test_wrong_argument_types_are_constraint_violations(call, message):
    with pytest.raises(ConstraintViolation, match=f"^{re.escape(message)}$"):
        call()


EMPTY = "expected at least a 1 x 1 matrix, got shape "

EMPTY_CASES = [
    (lambda: eigenvalues(np.zeros((0, 0))), EMPTY + "(0, 0)"),
    (lambda: eigenvalues(np.zeros((3, 0, 0))), EMPTY + "(3, 0, 0)"),
    (lambda: eigenvalue_filter(np.zeros((0, 0))), EMPTY + "(0, 0)"),
    (lambda: inverse(np.zeros((0, 0))), EMPTY + "(0, 0)"),
]


@pytest.mark.parametrize("call, message", EMPTY_CASES)
def test_empty_matrices_are_dimension_errors(call, message):
    with pytest.raises(DimensionError, match=f"^{re.escape(message)}$"):
        call()


def test_char_poly_of_an_empty_matrix_is_one():
    # det of the 0 x 0 matrix x I - A is the empty product
    assert char_poly(np.zeros((0, 0))).tolist() == [1]
    assert char_poly(np.zeros((3, 0, 0))).tolist() == [[1], [1], [1]]


def test_spec_fields_are_stored_as_given():
    # the number checks convert nothing: numpy scalars keep their type
    k, p = np.complex128(1j), np.float64(1.0)
    spec = FamilySpec("F1", I2, k, {"p": p, "q": 1, "r": 1j})
    assert spec.k is k and spec.params["p"] is p
