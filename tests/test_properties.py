"""Property tests: the invariant search and the invariance rule commute with
relabelling a model, including relabellings that move the unit off 0."""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fusionkit import modular_matrices, search_invariants
from fusionkit.catalog import cyclic_model, su2_level
from fusionkit.invariants import check_invariance

from helpers import permute_model

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
