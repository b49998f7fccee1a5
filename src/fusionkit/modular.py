"""Modular data of a braided fusion ring: Y, S, T, central charge, degeneracy.

Given twist exponents h with w_l = e^{2 pi i h_l}, the key objects are

    Y[m,n]  = sum_l (w_m w_n / w_l) N[m,n]^l d_l
    z       = sum_l d_l^2 w_l            (Gauss sum; must be nonzero)
    c       = 4 arg(z) / pi  (mod 8)
    S       = Y / |z|
    T       = e^{-pi i c / 12} diag(w_l)

S and T always obey the partial relations TSTST = S, CTC = T, CSC = S,
T*T = 1.  The braiding is non-degenerate exactly when the weight vectors
y^l = Y[l,:] of the non-unit labels are orthogonal to y^0; then S is unitary,
(ST)^3 = S^2 = C, |z|^2 = w, and S diagonalizes the fusion rules.

``modular_matrices`` reads d and w from ``FusionRing.dimensions()``, found
once per ring, and stores the tolerance it resolves, with the non-degeneracy
verdict, in the ``ModularData`` that every later check reads.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

import numpy as np

from .errors import NumericError, TwistError, VanishingZError, VerlindeError
from .numerics import (INT_TOL, exact_int, max_abs, mod1, readonly, root_of_unity,
                       scaled_tol, tolerance, unit_phase)
from .rings import DimensionVector, FusionRing, _scatter


@dataclass(frozen=True)
class TwistData:
    """Exact rational twist exponents, canonicalized into [0, 1); ``h`` may
    be given as any iterable of rationals.  A ``Fraction`` already in
    [0, 1) is kept as it is."""

    h: tuple[Fraction, ...]
    _numerators: tuple[np.ndarray, int] | None = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "h", tuple(
            v if type(v) is Fraction and 0 <= v.numerator < v.denominator else mod1(v)
            for v in self.h))

    def phases(self) -> np.ndarray:
        """Read-only w_l = e^{2 pi i h_l}, evaluated on the integer numerators
        (``numerators``) without a ``Fraction`` per phase."""
        e, H = self.numerators()
        return _roots(e.tolist(), H)

    def numerators(self) -> tuple[np.ndarray, int]:
        """(e, H) with h_l = e_l / H for the common denominator H, computed
        once; e is read-only, in the ``numerics.exact_int`` type of 2H, so
        e_m + e_n - e_l, in (-H, 2H), stays exact."""
        if self._numerators is None:
            H = math.lcm(*(t.denominator for t in self.h))
            e = np.array([t.numerator * (H // t.denominator) for t in self.h],
                         dtype=exact_int(2 * H))
            object.__setattr__(self, "_numerators", (readonly(e), H))
        return self._numerators

    def __len__(self) -> int:
        return len(self.h)


def _roots(js: list[int], H: int) -> np.ndarray:
    """Read-only e^{2 pi i j/H} for Python ints 0 <= j < H."""
    return readonly(np.array([root_of_unity(j, H) for j in js], dtype=complex))


def validate_twists(ring: FusionRing, twists: TwistData) -> None:
    """Raise TwistError unless h[unit] = 0 and h is conjugation-symmetric."""
    if len(twists) != ring.size:
        raise TwistError(f"{len(twists)} twist exponents for {ring.size} labels")
    if twists.h[ring.unit] != 0:
        raise TwistError(f"unit twist must vanish, got {twists.h[ring.unit]}")
    for lam, lbar in enumerate(ring.dual):
        if twists.h[lam] != twists.h[lbar]:
            raise TwistError(
                f"twist not conjugation-symmetric: h[{lam}] = {twists.h[lam]} "
                f"but h[{lbar}] = {twists.h[lbar]}")


@dataclass(frozen=True)
class ModularData:
    """Y, S, T and friends for one braided fusion ring.

    ``t_exponents`` holds the diagonal of T as exact rationals
    t_l = h_l - c/24 (mod 1), so phase equality stays decidable.  ``tol`` is
    the base tolerance and ``degeneracy`` the verdict of is_nondegenerate at it.
    """

    ring: FusionRing
    twists: TwistData
    d: np.ndarray
    w: float
    Y: np.ndarray
    S: np.ndarray
    T: np.ndarray
    t_exponents: tuple[Fraction, ...]
    z: complex
    c: Fraction
    C: np.ndarray
    tol: float
    degeneracy: DegeneracyReport

    def __post_init__(self):
        for name in ("d", "Y", "S", "T", "C"):
            object.__setattr__(self, name, readonly(np.asarray(getattr(self, name))))

    @property
    def size(self) -> int:
        return self.ring.size


@dataclass(frozen=True)
class ResidualReport:
    """Max-norm residuals of a family of matrix identities."""

    residuals: Mapping[str, float]
    tol: float

    @property
    def passed(self) -> bool:
        return all(r <= self.tol for r in self.residuals.values())

    @property
    def worst(self) -> float:
        return max(self.residuals.values(), default=0.0)

    def __str__(self) -> str:
        body = ", ".join(f"{k}: {v:.3e}" for k, v in self.residuals.items())
        status = "pass" if self.passed else "FAIL"
        return f"[{status} @ tol {self.tol:.1e}] {body}"


@dataclass(frozen=True)
class DegeneracyReport:
    """Outcome of the non-degeneracy test, with degenerate witness labels."""

    nondegenerate: bool
    witnesses: tuple[int, ...]
    max_cross: float  # largest |<y^l, y^0>| / w over l != 0

    def __bool__(self) -> bool:
        return self.nondegenerate

    @property
    def witness(self) -> int | None:
        return self.witnesses[0] if self.witnesses else None


def y_matrix(ring: FusionRing, twists: TwistData) -> np.ndarray:
    """Y[m,n] = sum_l (w_m w_n / w_l) N[m,n]^l d_l from the sorted columns
    (m, n, l, N), the ``dimensions()`` and the twist numerators h_l = e_l / H.

    Each entry's exponent j = (e_m + e_n - e_l) mod H is an integer, and the
    phase ``root_of_unity(j, H)`` is evaluated once per distinct j.  When H
    is at most the entry count, the phases sit in a table indexed by j;
    otherwise ``np.unique`` numbers the distinct j, which keeps memory
    bounded for huge H.  The real and imaginary parts of Y are each one
    ``np.bincount`` over the flat index of the cell (m, n); the columns are
    sorted, so every Y[m,n] adds its terms in increasing l.
    """
    validate_twists(ring, twists)
    n = ring.size
    d = ring.dimensions().d
    e, H = twists.numerators()  # e_m + e_n - e_l lies in (-H, 2H)
    a, b, c, mult = ring.columns()
    j = (e[a] + e[b] - e[c]) % H
    if H <= len(j):
        seen = np.zeros(H, dtype=bool)
        seen[j] = True
        k = np.flatnonzero(seen)
        phase, slot = np.zeros(H, dtype=complex), j
        phase[k] = _roots(k.tolist(), H)
    else:
        k, slot = np.unique(j, return_inverse=True)
        phase = _roots(k.tolist(), H)
    weight, cell = mult * d[c], a * n + b
    Y = np.empty((n, n), dtype=complex)
    Y.real = np.bincount(cell, phase.real[slot] * weight, n * n).reshape(n, n)
    Y.imag = np.bincount(cell, phase.imag[slot] * weight, n * n).reshape(n, n)
    return Y


def _central_charge(z: complex, H: int, tol: float) -> Fraction:
    """Snap 4 arg(z)/pi to an exact rational representative in [0, 8).

    The twists are roots of unity, so for the models handled here z has a
    rational argument in units of pi/4; the denominator is bounded in terms
    of the common twist denominator H.
    """
    c_float = (4.0 / math.pi) * math.atan2(z.imag, z.real) % 8.0
    limit = max(240, 24 * H)
    cand = Fraction(c_float).limit_denominator(limit)
    cand = Fraction(cand.numerator % (8 * cand.denominator), cand.denominator)
    # verify against the unit phase rather than against the float estimate
    expected = unit_phase(Fraction(cand, 8))
    actual = z / abs(z)
    if abs(expected - actual) > max(tol, 1e-8):
        raise NumericError(
            f"central charge 4 arg(z)/pi = {c_float!r} not resolved as a rational "
            f"with denominator <= {limit}")
    return cand


def modular_matrices(ring: FusionRing, twists: TwistData, *,
                     tol: float | None = None) -> ModularData:
    """Assemble the full modular data; raises VanishingZError when z = 0."""
    tol = tolerance(tol)
    dims = ring.dimensions()
    Y = y_matrix(ring, twists)
    z = complex(np.sum(dims.d * dims.d * twists.phases()))
    e, H = twists.numerators()
    eps = scaled_tol(tol, ring.size)
    if abs(z) <= eps * dims.w:
        raise VanishingZError(f"|z| = {abs(z):.3e} vanishes; S undefined")
    c = _central_charge(z, H, eps)
    # t_l = h_l - c/24 = (24 q e_l - p H) / (24 q H) mod 1, for c = p/q
    p, q = c.numerator, c.denominator
    D = 24 * q * H
    t = [(24 * q * x - p * H) % D for x in e.tolist()]
    t_exps = tuple(Fraction(x, D) for x in t)
    T = np.diag(_roots(t, D))
    S = Y / abs(z)
    return ModularData(ring=ring, twists=twists, d=dims.d, w=dims.w, Y=Y, S=S, T=T,
                       t_exponents=t_exps, z=z, c=c, C=ring.conjugation_matrix(),
                       tol=tol, degeneracy=_degeneracy(Y, dims, ring.unit, eps))


def check_partial_verlinde(md: ModularData) -> ResidualReport:
    """Residuals of TSTST = S, CTC = T, CSC = S, T*T = 1."""
    S, T, C = md.S, md.T, md.C
    eye = np.eye(md.size)
    res = {
        "TSTST-S": max_abs(T @ S @ T @ S @ T - S),
        "CTC-T": max_abs(C @ T @ C - T),
        "CSC-S": max_abs(C @ S @ C - S),
        "T*T-1": max_abs(T.conj().T @ T - eye),
    }
    return ResidualReport(res, scaled_tol(md.tol, md.size))


def _degeneracy(Y: np.ndarray, dims: DimensionVector, unit: int, eps: float) -> DegeneracyReport:
    """Test <y^l, y^0> = delta_{l,0} w at the scaled tolerance ``eps``."""
    gram0 = Y.conj() @ dims.d  # <y^l, y^0> for each l
    others = [l for l in range(len(gram0)) if l != unit]
    bad = tuple(l for l in others if abs(gram0[l]) > eps * dims.w)
    cross = max((abs(gram0[l]) / dims.w for l in others), default=0.0)
    return DegeneracyReport(nondegenerate=not bad, witnesses=bad, max_cross=cross)


def is_nondegenerate(ring: FusionRing, twists: TwistData, *,
                     tol: float | None = None) -> DegeneracyReport:
    """Test <y^l, y^0> = delta_{l,0} w; degenerate labels are the witnesses.

    Needs only Y, d and w, so it also covers models with a vanishing Gauss
    sum.  A label l is degenerate exactly when y^l stays parallel to y^0.
    Equivalent characterizations (S unitary; |z|^2 = w; a trivial braiding
    phase of the witness against everything) are exercised by the test suite.
    """
    tol = tolerance(tol)
    return _degeneracy(y_matrix(ring, twists), ring.dimensions(), ring.unit,
                       scaled_tol(tol, ring.size))


def verlinde_fusion(md: ModularData) -> tuple[np.ndarray, float]:
    """Recover the fusion tensor from S via the Verlinde formula.

    Returns the rounded integer tensor and the worst pre-rounding deviation.
    Raises VerlindeError when the deviation exceeds ``numerics.INT_TOL``, an
    entry rounds negative, or the result disagrees with the ring's own table.
    """
    S = md.S
    weights = 1.0 / S[md.ring.unit, :]
    raw = np.einsum("lr,mr,nr,r->lmn", S, S, S.conj(), weights, optimize=True)
    if max_abs(raw.imag) > INT_TOL:
        raise VerlindeError(f"Verlinde sum has imaginary part {max_abs(raw.imag):.3e}")
    rounded = np.rint(raw.real).astype(np.int64)
    deviation = float(np.max(np.abs(raw.real - rounded)))
    if deviation > INT_TOL:
        raise VerlindeError(f"Verlinde sum is {deviation:.3e} from integers")
    if np.any(rounded < 0):
        raise VerlindeError("Verlinde sum produced a negative multiplicity")
    if not np.array_equal(rounded, _scatter(md.ring, np.int64)):
        raise VerlindeError("Verlinde tensor disagrees with the ring's fusion tensor")
    return rounded, deviation


def sl2z_relations(md: ModularData) -> ResidualReport:
    """Residuals of the full modular algebra, valid iff non-degenerate."""
    S, T, C = md.S, md.T, md.C
    eye = np.eye(md.size)
    ST = S @ T
    res = {
        "S*S-1": max_abs(S.conj().T @ S - eye),
        "(ST)^3-S^2": max_abs(ST @ ST @ ST - S @ S),
        "S^2-C": max_abs(S @ S - C),
        "CTC-T": max_abs(C @ T @ C - T),
    }
    return ResidualReport(res, scaled_tol(md.tol, md.size))

