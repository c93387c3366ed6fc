"""Arguments of the wrong type at the public entry points: each is a
ConstraintViolation named after the parameter, never a bare AttributeError,
TypeError or numpy error from deeper down.  A 0 x 0 matrix, where a function
needs at least one entry, is a DimensionError.  delta_lower_bound types its
seed like any square matrix, and a precondition defect that overflows fails."""

from __future__ import annotations

import re

import numpy as np
import pytest

from ybe4.bracket import (
    BracketParams,
    bracket_R,
    bracket_to_family,
    delta_lower_bound,
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
from ybe4.errors import (
    ConstraintViolation,
    DimensionError,
    NonFiniteValue,
    PreconditionFailed,
)
from ybe4.families import (
    FamilySpec,
    case_matrix,
    eigenvalue_filter,
    family_member,
    run_elimination,
    validate_spec,
)
from ybe4.linalg import Tolerance, char_poly, eigenvalues, inverse, is_unitary
from ybe4.matrixio import matrix_payload, matrix_to_rows, write_matrix_file

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
    (lambda: matrix_payload(SWAP, "ab"), "metadata must be a dict, got str"),
    (lambda: matrix_payload(SWAP, [("a", 1)]), "metadata must be a dict, got list"),
    (lambda: case_matrix("R12", q="a"), "q must be a number, got str"),
    (lambda: case_matrix("R13", p=[1, 2]), "p must be a number, got list"),
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
    (lambda: is_entangling_gate(SWAP, witness="no"), "witness must be a bool, got str"),
    (
        lambda: classify(SWAP, rng="x"),
        "rng must be None or a numpy.random.Generator, got str",
    ),
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
    (lambda: case_matrix("R12", k=True), "k must be a number, got bool"),
    (
        lambda: BraidWord(3, ((True, 1),)),
        "letters must be (generator, exponent) integer pairs, got (True, 1)",
    ),
    (
        lambda: BraidWord(3, ((1, True),)),
        "letters must be (generator, exponent) integer pairs, got (1, True)",
    ),
]


@pytest.mark.parametrize("call, message", CASES)
def test_wrong_argument_types_are_constraint_violations(call, message):
    with pytest.raises(ConstraintViolation, match=f"^{re.escape(message)}$"):
        call()


METADATA_CASES = [
    ("ab", "metadata must be a dict, got str"),
    ([("a", 1)], "metadata must be a dict, got list"),
    ({1: "a", "b": 2}, "metadata is not JSON encodable: "),
    ({"x": np.float32(1)}, "metadata is not JSON encodable: "),
    ({"x": object()}, "metadata is not JSON encodable: "),
]


@pytest.mark.parametrize("metadata, message", METADATA_CASES)
def test_bad_metadata_is_refused_before_a_file_is_created(tmp_path, metadata, message):
    path = tmp_path / "m.json"
    with pytest.raises(ConstraintViolation, match=f"^{re.escape(message)}"):
        write_matrix_file(str(path), SWAP, metadata)
    assert not path.exists()


FORM_CHECKS = [
    lambda form: solution_check(SWAP, form),
    lambda form: contraction_residual(SWAP, form),
    lambda form: family_member(F5, form),
]


@pytest.mark.parametrize("form", ["x", ["braided"]])
@pytest.mark.parametrize("call", FORM_CHECKS)
def test_unknown_form_is_one_message(call, form):
    message = f"unknown form {form!r}, expected 'braided' or 'algebraic'"
    with pytest.raises(ConstraintViolation, match=f"^{re.escape(message)}$"):
        call(form)


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


SEED_CASES = [
    # conj(N) N - I overflows to NaN: a defect that cannot be measured fails
    ([[1e200, 1e200j], [1e200j, 1e200]], PreconditionFailed, "conj(N) is not the inverse of N"),
    (np.ones((2, 3)), DimensionError, "expected a square matrix, got shape (2, 3)"),
    (np.ones(4), DimensionError, "expected a square matrix, got shape (4,)"),
    ([[INF, 0], [0, 1]], NonFiniteValue, "matrix contains non-finite entries"),
]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("N, error, message", SEED_CASES)
def test_delta_lower_bound_refuses_bad_seeds(N, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        delta_lower_bound(N)


def test_char_poly_of_an_empty_matrix_is_one():
    # det of the 0 x 0 matrix x I - A is the empty product
    assert char_poly(np.zeros((0, 0))).tolist() == [1]
    assert char_poly(np.zeros((3, 0, 0))).tolist() == [[1], [1], [1]]


def test_spec_fields_are_stored_as_given():
    # the number checks convert nothing: numpy scalars keep their type
    k, p = np.complex128(1j), np.float64(1.0)
    spec = FamilySpec("F1", I2, k, {"p": p, "q": 1, "r": 1j})
    assert spec.k is k and spec.params["p"] is p
