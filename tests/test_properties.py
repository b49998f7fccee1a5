"""Property tests: the invariant search and the invariance rule commute with
relabelling a model, including relabellings that move the unit off 0; the
associativity check lists exactly the violations of a four-loop reference,
on single-constituent tables and on any other."""
import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fusionkit import modular_matrices, search_invariants
from fusionkit.catalog import cyclic_model, su2_level
from fusionkit.invariants import check_invariance
from fusionkit.rings import _associativity_violations

from helpers import brute_force_associativity, permute_model

# SU(2)_k for k <= 6 and Z_n with q = 1 for even n <= 8 (odd n has no q = 1 twist)
MODELS = [("su2", k) for k in range(1, 7)] + [("cyclic", n) for n in (2, 4, 6, 8)]


def build(spec):
    family, k = spec
    return su2_level(k) if family == "su2" else cyclic_model(k, 1)


def relabelled(Z, perm):
    """Z with its rows and columns moved by the permutation old -> new."""
    out = np.empty_like(Z)
    out[np.ix_(perm, perm)] = Z
    return out


@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(st.data())
def test_search_and_verdict_are_relabelling_equivariant(data):
    model = build(data.draw(st.sampled_from(MODELS), label="model"))
    n = model[0].size
    perm = np.array(data.draw(st.permutations(range(n)), label="perm"))
    md, md_p = modular_matrices(*model), modular_matrices(*permute_model(model, perm))

    found = [mm.Z for mm in search_invariants(md)]
    want = {relabelled(Z, perm).tobytes() for Z in found}
    assert {mm.Z.tobytes() for mm in search_invariants(md_p)} == want

    entries = data.draw(st.lists(st.integers(0, 2), min_size=n * n, max_size=n * n),
                        label="Z")
    for Z in found + [np.array(entries, dtype=np.int64).reshape(n, n)]:
        s, t, failed = check_invariance(md, Z)
        s_p, t_p, failed_p = check_invariance(md_p, relabelled(Z, perm))
        assert len(failed_p) == len(failed)
        assert abs(s_p - s) <= 1e-9 and abs(t_p - t) <= 1e-9


@st.composite
def structure_tables(draw):
    """A dense table on n <= 5 labels with multiplicities 0-3, optionally with
    a unit label; a single-constituent table gives each product at most one
    constituent, any other table draws every N[a,b]^c."""
    n = draw(st.integers(1, 5), label="n")
    single = draw(st.booleans(), label="single")
    unit = draw(st.none() | st.integers(0, n - 1), label="unit")
    T = np.zeros((n, n, n), dtype=np.int64)
    for a, b in itertools.product(range(n), repeat=2):
        if unit in (a, b):
            T[a, b, b if a == unit else a] = 1
        elif single:
            c = draw(st.none() | st.integers(0, n - 1))  # None: an empty product
            if c is not None:
                T[a, b, c] = draw(st.integers(1, 3))
        else:
            T[a, b] = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    return T


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(structure_tables())
def test_associativity_lists_every_violation_in_order(T):
    violations = _associativity_violations(T)
    assert {v.axiom for v in violations} <= {"associativity"}
    assert [(v.where, v.detail) for v in violations] == brute_force_associativity(T.tolist())
