"""Output oracles for the benchmark jobs.

None of these calls fusionkit.  Each oracle takes the captured stdout of a
job that exited with code 0 and returns ``None`` when the output is right,
or a one-line reason when it is not; output it cannot parse raises.  The expected answers come from the classification
literature, not from the search code under test:

* SU(2)_k: the A-D-E list (``tests/helpers.expected_su2_invariants``) with
  the type-I column of the A-D-E table (A, D_even, E6, E8 are type I; D_odd
  and E7 are not).
* U(1) at level n/2, i.e. Z_n with twists j^2/(2n): one invariant per
  divisor of n/2 (Gannon 1997), each non-negative, Z[0,0] = 1, supported on
  the exact twist mask and commuting with S[a,b] = e^{-2 pi i ab/n}/sqrt(n).
* Certificates and group algebras: a passing report, and simple blocks equal
  to the character degrees of the group.
"""
from __future__ import annotations

import json
from fractions import Fraction

import numpy as np

# type-I column of the A-D-E table
_D_TYPE_ONE = {0: "yes", 2: "no"}  # k mod 4: D_even is type I, D_odd is not
_EXCEPTIONAL_TYPE_ONE = {10: "yes", 16: "no"}  # E6 at k=10, E7 at k=16


def _z_matrix(obj: dict) -> np.ndarray:
    n = obj["size"]
    Z = np.zeros((n, n), dtype=np.int64)
    for l, m, v in obj["entries"]:
        Z[l, m] = v
    return Z


def _invariant_list(stdout: str):
    """Parsed ``invariants --format json`` output as [(Z, type_one)], or a reason."""
    doc = json.loads(stdout)
    out = [(_z_matrix(inv), inv["flags"]["type_one"]) for inv in doc["invariants"]]
    if doc["count"] != len(out):
        return f"count {doc['count']} disagrees with {len(out)} listed invariants"
    return out


def su2_expected(helpers, k: int) -> list[tuple[np.ndarray, str]]:
    """The A-D-E invariants of SU(2)_k with their type-I flag.

    ``helpers.expected_su2_invariants`` lists A, then D (even k >= 4), then
    the exceptional E6/E7; it omits E8, so level 28 is not a valid input.
    """
    if k == 28:
        raise ValueError("the helper list omits E8 at level 28")
    zs = helpers.expected_su2_invariants(k)
    flags = ["yes"]
    if (k % 4 == 0 and k >= 4) or (k % 4 == 2 and k >= 6):
        flags.append(_D_TYPE_ONE[k % 4])
    if k in _EXCEPTIONAL_TYPE_ONE:
        flags.append(_EXCEPTIONAL_TYPE_ONE[k])
    if len(flags) != len(zs):
        raise ValueError(f"A-D-E table and helper list disagree at level {k}")
    return list(zip(zs, flags))


def check_su2_invariants(expected, stdout: str) -> str | None:
    got = _invariant_list(stdout)
    if isinstance(got, str):
        return got
    want = {Z.tobytes(): flag for Z, flag in expected}
    have = {Z.tobytes(): flag for Z, flag in got}
    if len(have) != len(got):
        return "duplicate invariants in the output"
    if have.keys() != want.keys():
        return f"found {len(got)} invariants, the A-D-E list has {len(expected)} others"
    for key, flag in want.items():
        if have[key] != flag:
            return f"type_one = {have[key]!r} where the A-D-E table says {flag!r}"
    return None


def divisor_count(m: int) -> int:
    return sum(1 for d in range(1, m + 1) if m % d == 0)


def check_cyclic_invariants(n: int, stdout: str) -> str | None:
    """Z_n with twists j^2/(2n) mod 1, n even."""
    got = _invariant_list(stdout)
    if isinstance(got, str):
        return got
    want = divisor_count(n // 2)
    if len(got) != want:
        return f"found {len(got)} invariants, U(1) at level {n // 2} has {want}"
    h = [Fraction(j * j, 2 * n) % 1 for j in range(n)]
    mask = np.array([[h[a] == h[b] for b in range(n)] for a in range(n)])
    a = np.arange(n)
    S = np.exp(-2j * np.pi * np.outer(a, a) / n) / np.sqrt(n)
    seen = set()
    for Z, _ in got:
        if Z.shape != (n, n) or np.any(Z < 0) or Z[0, 0] != 1:
            return "an invariant is not a non-negative matrix with Z[0,0] = 1"
        if np.any(Z[~mask]):
            return "an invariant is non-zero off the twist mask"
        if np.max(np.abs(S @ Z - Z @ S)) > 1e-8 * n:
            return "an invariant does not commute with the closed-form S"
        seen.add(Z.tobytes())
    if len(seen) != len(got):
        return "duplicate invariants in the output"
    return None


def check_ring_report(stdout: str) -> str | None:
    """``check`` on a valid non-degenerate model: every line passes."""
    for needle in ("axioms: ok", "twists: ok", "non-degenerate; full modular algebra: [pass"):
        if needle not in stdout:
            return f"missing {needle!r} in the report"
    return None


def check_certificate_report(stdout: str) -> str | None:
    doc = json.loads(stdout)
    failed = [c["name"] for c in doc["checks"] if not c["passed"]]
    if doc["passed"] is not True or failed:
        return f"certificate rejected (failed checks {failed})"
    return None


def check_block_profile(degrees: tuple[int, ...], stdout: str) -> str | None:
    doc = json.loads(stdout)
    blocks = sorted(doc["blocks"], reverse=True)
    want = sorted(degrees, reverse=True)
    if blocks != want:
        return f"blocks {blocks} differ from the character degrees {want}"
    if doc["dimension"] != sum(x * x for x in want):
        return f"dimension {doc['dimension']} is not the group order"
    return None


def product_degrees(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Character degrees of a direct product: all pairwise products."""
    return tuple(sorted((x * y for x in a for y in b), reverse=True))
