"""The numeric rules of ``fusionkit.numerics``: one integrality tolerance,
one exact-integer dtype and one rank cutoff that refuses to guess.

The inventory pins every module-level float constant of fusionkit, as
``test_api`` pins the public defaults: a module that defines its own copy
of a tolerance, or hard-codes ``INT_TOL`` as a literal, fails here.
"""
import ast
from pathlib import Path

import numpy as np
import pytest

import fusionkit
from fusionkit import RankAmbiguityError
from fusionkit.numerics import INT_TOL, exact_int, zero_mask

FLOAT_CONSTANTS = {
    "algebras._RANK_RTOL": 1e-7,
    "numerics.DEFAULT_TOL": 1e-9,
    "numerics.INT_TOL": 1e-6,
    "rings._PF_TOL": 1e-12,
}


def module_trees():
    for path in sorted(Path(fusionkit.__file__).parent.glob("*.py")):
        yield path.stem, ast.parse(path.read_text(encoding="utf-8"))


def module_float_constants():
    for module, tree in module_trees():
        for node in tree.body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign) else [])
            value = getattr(node, "value", None)
            if isinstance(value, ast.Constant) and type(value.value) is float:
                yield from ((f"{module}.{t.id}", value.value) for t in targets)


def test_module_float_constant_inventory():
    assert dict(module_float_constants()) == FLOAT_CONSTANTS


def test_integrality_tolerance_is_written_once():
    where = [module for module, tree in module_trees() for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and type(node.value) is float
             and node.value == INT_TOL]
    assert where == ["numerics"]


class TestExactInt:
    def test_int64_below_two_to_the_63(self):
        assert exact_int(0) is np.int64
        assert exact_int(2 ** 63 - 1) is np.int64

    def test_python_ints_from_two_to_the_63(self):
        assert exact_int(2 ** 63) is object
        assert exact_int(10 ** 30) is object


class TestZeroMask:
    def test_zero_and_nonzero_values(self):
        mask = zero_mask(np.array([0.0, 1e-12, 1e-7, 1e-3, 1.0]), 1e-9, "values")
        assert mask.tolist() == [True, True, False, False, False]

    def test_values_within_a_decade_of_the_cutoff_are_refused(self):
        values = np.array([0.0, 2e-10, 5e-9, 1.0])
        with pytest.raises(RankAmbiguityError,
                           match=r"^test values \[2e-10, 5e-09\] within a decade of cutoff 1\.0e-09"):
            zero_mask(values, 1e-9, "test values")

    def test_a_decade_away_is_decided(self):
        assert zero_mask(np.array([1e-10, 1e-8]), 1e-9, "values").tolist() == [True, False]

    def test_all_zero_values_with_a_zero_cutoff(self):
        # the center of a commutative algebra: every commutator row is zero,
        # so the cutoff relative to the largest value is zero too
        assert zero_mask(np.zeros(3), 0.0, "values").all()
