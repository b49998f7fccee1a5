"""Verification of induction certificates against sector-level identities.

A certificate pairs a braided fusion ring (the "base" or N-N system) with a
candidate extended sector algebra (the "M-M" system) and two non-negative
integer branching matrices A+ and A- whose (l, beta) entries say how often
the extended sector [beta] occurs in the induced image of the base label l
for each braiding chirality.  Certificates are verified, never constructed:
building the branching data genuinely requires operator-level input that
this package does not model.  The verifiable consequences are:

* structure: the base passes ``validate_fusion_ring`` and the extended
  algebra ``validate_based_algebra``;
* unit row: both inductions send the base unit to the extended unit;
* dimension preservation: sum_beta A[l,beta] d_beta = d_l;
* homomorphism: with v_l = sum_beta A[l,beta] [beta], the exact integer
  identity v_l v_m = sum_nu N[l,m]^nu v_nu holds per chirality;
* the mass matrix Z[l,m] = sum_beta A+[l,beta] A-[m,beta] is a modular
  invariant of the base (``invariants.check_invariance``);
* the generating identity
  sum_{l,m} d_l d_m v+_l v-_m = w sum_beta d_beta [beta]
  (requires a non-degenerate base), which also forces every extended sector
  to occur in some mixed product;
* tr Z counts the intermediate sectors and tr Z Z^t the extended ones;
* when a branching vector of the induced unit object theta is supplied,
  sum_beta A[l,beta] A[m,beta] <= sum_nu theta_nu N[nu l]^m.

Z, the theta bound and the Gram sums are integer products, computed in
Python ints wherever int64 could wrap.

The homomorphism sums are float products, exact because the inputs are
non-negative integers: an integer bound on every partial sum, read from
the columns, goes through ``numerics.exact_float`` (float32 below 2^24,
float64 below 2^53, ``NumericError`` above), the rule of the associativity
check of the extended algebra.  Each row l is one n x m equation read from
the columns, with no n^3 array (``_homomorphism``); when the ``structure``
check passed, the rows of the base's generating set decide every row, by
the rule of the ``rings`` module docstring.  The generating identity, a
float comparison at ``GEN_TOL``, needs no bound: it is bilinear, one
product of two vectors (``verify_generating``).  The theta bound sums the
columns exactly.  The ``structure`` check decides the associativity of
both tables as the ``rings`` module docstring describes.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebras import BasedAlgebra, validate_based_algebra
from .errors import (CertificateError, FusionKitError, NondegeneracyRequired,
                     StructureError)
from .invariants import _unit_entry, check_invariance, invariant_counts
from .modular import ModularData, TwistData, modular_matrices
from .numerics import exact_float, max_abs, readonly
from .rings import (_INTS, FusionRing, _int_array, _matrix, _ranges, _row, _top,
                    validate_fusion_ring)

DIM_TOL = 1e-6
GEN_TOL = 1e-6


@dataclass(frozen=True, eq=False, slots=True)
class InductionCertificate:
    """Immutable bundle: base ring + twists, extended algebra with dimension
    vector, branching matrices per chirality, optional theta branching and a
    declared intermediate-sector count."""

    ring: FusionRing
    twists: TwistData
    mm: BasedAlgebra
    aplus: np.ndarray
    aminus: np.ndarray
    theta: tuple[int, ...] | None = None
    nm_count: int | None = None

    def __post_init__(self):
        aplus, aminus = _integer_matrix(self.aplus), _integer_matrix(self.aminus)
        shape = (self.ring.size, self.mm.size)
        if aplus.shape != shape or aminus.shape != shape:
            raise StructureError(
                f"branching matrices must be {shape}, got {aplus.shape} and {aminus.shape}")
        if np.any(aplus < 0) or np.any(aminus < 0):
            raise StructureError("branching multiplicities must be non-negative")
        if self.mm.dims is None:
            raise StructureError("extended algebra needs a dimension vector")
        if self.mm.unit is None:
            raise StructureError("extended algebra needs a unit basis element")
        theta, nm_count = self.theta, self.nm_count
        if theta is not None:
            theta = _integer_matrix(theta)
            if theta.shape != (self.ring.size,) or np.any(theta < 0):
                raise StructureError("theta branching must be per-base-label non-negative")
            theta = tuple(theta.tolist())
        if nm_count is not None and (type(nm_count) not in _INTS or nm_count < 0):
            raise StructureError(
                f"intermediate-sector count must be a non-negative integer, got {nm_count!r}")
        values = (readonly(aplus), readonly(aminus), theta,
                  None if nm_count is None else int(nm_count))
        for name, value in zip(("aplus", "aminus", "theta", "nm_count"), values):
            object.__setattr__(self, name, value)

    def branching(self, sign: str) -> np.ndarray:
        if sign == "+":
            return self.aplus
        if sign == "-":
            return self.aminus
        raise StructureError(f"sign must be '+' or '-', got {sign!r}")


def _integer_matrix(values) -> np.ndarray:
    """``values`` read by ``rings._int_array`` into an array of its own (an
    int64 ndarray is copied); ragged rows or an entry that is not an
    integer (a bool, float or string) is a StructureError."""
    a = _int_array(values)
    if a is None:
        raise StructureError("branching data must be a rectangular array of int64 integers")
    return a.copy() if a is values else a


@dataclass(frozen=True)
class HomomorphismReport:
    sign: str
    passed: bool
    violation: tuple[int, int, int, int, int] | None  # (l, m, beta, got, expected)

    def __str__(self) -> str:
        if self.passed:
            return f"homomorphism[{self.sign}]: pass"
        l, m, b, got, want = self.violation
        return (f"homomorphism[{self.sign}]: coefficient of [{b}] in v_{l} v_{m} "
                f"is {got}, expected {want}")


@dataclass(frozen=True)
class GeneratingReport:
    passed: bool
    max_residual: float  # worst |coefficient - w d_beta| / w
    uncovered: tuple[int, ...]  # extended sectors missing from every mixed product


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class CertificateReport:
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.checks if not c.passed)

    def __getitem__(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def __str__(self) -> str:
        return "\n".join(f"{'pass' if c.passed else 'FAIL'} {c.name}: {c.detail}"
                         for c in self.checks)


def verify_homomorphism(cert: InductionCertificate, sign: str) -> HomomorphismReport:
    """Exact check of v_l v_m = sum_nu N[l,m]^nu v_nu for one chirality, on
    every row l (``_homomorphism``)."""
    return _homomorphism(cert, sign, range(cert.ring.size))


def _homomorphism(cert: InductionCertificate, sign: str, labels) -> HomomorphismReport:
    """The identity on the rows ``labels``; the first differing (l, m, beta)
    in that order is the violation.  Row l is A L_l = P_l A: L_l[gamma,delta]
    = sum_beta A[l,beta] N_mm[beta,gamma,delta] is one ``np.bincount`` over
    the slices of the extended columns with A[l,beta] > 0 (``_ranges``), so
    it costs the row's support; P_l[m,nu] = N[l,m]^nu is a scatter of the
    row's slice of the base columns.  Both are exact under ``exact_float``
    for the bounds rowsum(A)^2 max(N_mm) and max_{l,m} sum_nu N[l,m]^nu
    max(A), summed in float64: exact below 2^53, at least 2^53 above, which
    is all it needs."""
    A = cert.branching(sign)
    size, size_mm = A.shape
    left, right, out, mult = cert.ring.columns()
    rows, pairs = A.sum(axis=1, dtype=float).max(), np.bincount(left * size + right, mult).max()
    bound = max(int(rows) ** 2 * _top(cert.mm), int(pairs) * int(A.max()))
    dtype = exact_float(bound, f"homomorphism[{sign}] sums up to {bound}")
    beta, gamma, delta, mult_mm = cert.mm.columns()
    cells, Af = gamma * size_mm + delta, A.astype(dtype)
    first = np.searchsorted(beta, np.arange(size_mm + 1))  # beta's entries start at first[beta]
    for l in labels:
        support = np.flatnonzero(A[l])
        at = _ranges(first[support], first[support + 1] - first[support])
        L = np.bincount(cells[at], A[l][beta[at]] * mult_mm[at], size_mm * size_mm).astype(dtype)
        row = _row(left, l)
        got = Af @ L.reshape(size_mm, size_mm)
        want = _matrix(right[row], out[row], mult[row], size).astype(dtype) @ Af
        if not np.array_equal(got, want):
            m, b = (int(x) for x in np.argwhere(got != want)[0])
            return HomomorphismReport(sign=sign, passed=False, violation=(
                l, m, b, int(got[m, b]), int(want[m, b])))
    return HomomorphismReport(sign=sign, passed=True, violation=None)


def _exact_product(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """X @ Y for non-negative integer arrays, exactly: in int64 when every
    sum is below 2^63 (they are at most rowsum(X) max(Y), summed here as
    Python ints), else in Python ints (an object array)."""
    if int(X.sum(axis=-1, dtype=object).max(initial=0)) * int(Y.max(initial=0)) < 2 ** 63:
        return X @ Y
    return X.astype(object) @ Y.astype(object)


def _theta_bound(ring: FusionRing, theta: tuple[int, ...]) -> np.ndarray:
    """[l, m] = sum_nu theta_nu N[nu,l]^m, summed from the columns exactly:
    in int64 when every sum is below 2^63 (they are at most
    sum(theta) max(N), as Python ints), else in Python ints."""
    n = ring.size
    nu, l, m, mult = ring.columns()
    dtype = np.int64 if sum(theta) * _top(ring) < 2 ** 63 else object
    bound = np.zeros(n * n, dtype)
    np.add.at(bound, l * n + m, np.array(theta, dtype)[nu] * mult.astype(dtype, copy=False))
    return bound.reshape(n, n)


def compute_Z_from_branching(cert: InductionCertificate) -> np.ndarray:
    """Z[l,m] = sum_beta A+[l,beta] A-[m,beta], exactly (Python ints past
    int64); the unit entry must be 1."""
    Z = _exact_product(cert.aplus, cert.aminus.T)
    unit_ok, unit_cell = _unit_entry(Z, cert.ring.unit)
    if not unit_ok:
        raise CertificateError(f"{unit_cell} != 1: the two inductions share more "
                               "than the vacuum at the unit label")
    return Z


def verify_generating(cert: InductionCertificate, md: ModularData) -> GeneratingReport:
    """Check sum_{l,m} d_l d_m v+_l v-_m = w sum_beta d_beta [beta], with d
    and w from ``md``, the modular data of the base.

    Raises NondegeneracyRequired on a degenerate base braiding, where the
    identity genuinely fails in general.

    The sum is bilinear, so it is V+ V- with V± = sum_l d_l v±_l, whose
    coefficients d A± are float64 vectors over the extended sectors; the
    coefficient of [delta] in V+ V- sums mult V+[beta] V-[gamma] over the
    entries (beta, gamma, delta) of the columns.  Every mixed product has
    non-negative integer coefficients, so [delta] occurs in one exactly
    when some entry (beta, gamma, delta) has beta in the image of A+ and
    gamma in that of A-.
    """
    if not md.degeneracy:
        raise NondegeneracyRequired("generating identity requires a non-degenerate base")
    beta, gamma, delta, mult = cert.mm.columns()
    m = cert.mm.size
    Vp, Vm = md.d @ cert.aplus, md.d @ cert.aminus
    lhs = np.bincount(delta, mult * Vp[beta] * Vm[gamma], m)
    residual = float(np.max(np.abs(lhs - md.w * np.array(cert.mm.dims)))) / md.w
    hit = delta[cert.aplus.any(axis=0)[beta] & cert.aminus.any(axis=0)[gamma]]
    uncovered = tuple(np.flatnonzero(np.bincount(hit, minlength=m) == 0).tolist())
    return GeneratingReport(passed=(residual <= GEN_TOL and not uncovered),
                            max_residual=residual, uncovered=uncovered)


def full_report(cert: InductionCertificate, *,
                tol: float | None = None) -> CertificateReport:
    """Run every certificate check independently and aggregate the verdicts.

    Check names: structure, unit_row, dimension, homomorphism_plus,
    homomorphism_minus, z_matrix, modular_invariance, nondegeneracy,
    generating, counts, and theta_bound when theta data is present.
    """
    checks: list[CheckResult] = []
    ring, mm = cert.ring, cert.mm

    invalid = [f"{what} invalid: {rep.axioms()}"
               for what, rep in (("base ring", validate_fusion_ring(ring)),
                                 ("extended algebra", validate_based_algebra(mm)))
               if not rep.ok]
    checks.append(CheckResult("structure", not invalid, "; ".join(invalid)
                              or "base ring and extended algebra axioms hold"))

    e_nn, e_mm = ring.unit, mm.unit
    unit_ok = all(A[e_nn, e_mm] == 1 and A[e_nn].sum() == 1 for A in (cert.aplus, cert.aminus))
    checks.append(CheckResult("unit_row", unit_ok,
                              "unit label induces the extended unit once" if unit_ok
                              else "unit row is not the standard basis vector at the extended unit"))

    try:
        d = ring.dimensions().d
    except FusionKitError as exc:  # no Perron-Frobenius eigenvector
        checks.append(CheckResult("dimension", False, f"no quantum dimensions: {exc}"))
    else:
        dm = np.array(mm.dims)
        worst = max(max_abs(cert.aplus @ dm - d), max_abs(cert.aminus @ dm - d))
        dim_ok = worst <= DIM_TOL * max(1.0, float(np.max(d)))
        checks.append(CheckResult("dimension", dim_ok,
                                  f"max |A d_mm - d_nn| = {worst:.2e}"))

    for sign, name in (("+", "homomorphism_plus"), ("-", "homomorphism_minus")):
        rep = _homomorphism(cert, sign, ring.generating_labels())
        if invalid or not rep.passed:  # G decides every row only if both tables are associative
            rep = verify_homomorphism(cert, sign)
        checks.append(CheckResult(name, rep.passed, str(rep)))

    Z = _exact_product(cert.aplus, cert.aminus.T)
    checks.append(CheckResult("z_matrix", *_unit_entry(Z, e_nn)))

    try:
        md = modular_matrices(ring, cert.twists, tol=tol)
    except FusionKitError as exc:  # vanishing z or twist trouble
        nd = False
        checks.append(CheckResult("modular_invariance", False, f"no modular data: {exc}"))
    else:
        residual_s, _, failed = check_invariance(md, Z)
        checks.append(CheckResult(
            "modular_invariance", not failed,
            ", ".join(failed) or f"T-pattern exact, |SZ-ZS| = {residual_s:.2e}"))
        nd = md.degeneracy.nondegenerate

    checks.append(CheckResult("nondegeneracy", nd,
                              "base braiding non-degenerate" if nd
                              else "base braiding degenerate"))
    if nd:
        gen = verify_generating(cert, md)
        checks.append(CheckResult(
            "generating", gen.passed,
            f"residual {gen.max_residual:.2e}"
            + (f", uncovered sectors {gen.uncovered}" if gen.uncovered else "")))
    else:
        checks.append(CheckResult("generating", False,
                                  "skipped: NondegeneracyRequired"))

    tr_z, tr_zzt = invariant_counts(Z)
    counts_ok = tr_zzt == mm.size
    detail = f"tr Z = {tr_z}, tr Z Z^t = {tr_zzt} vs {mm.size} extended sectors"
    if cert.nm_count is not None:
        counts_ok = counts_ok and tr_z == cert.nm_count
        detail += f"; declared intermediate count {cert.nm_count}"
    checks.append(CheckResult("counts", counts_ok, detail))

    if cert.theta is not None:
        bound = _theta_bound(ring, cert.theta)
        for name, A in (("+", cert.aplus), ("-", cert.aminus)):
            gram = _exact_product(A, A.T)
            if np.any(gram > bound):
                l, m = np.argwhere(gram > bound)[0]
                checks.append(CheckResult(
                    "theta_bound", False, f"<A{name}_{l}, A{name}_{m}> = {gram[l, m]} "
                    f"exceeds <theta {l}, {m}> = {bound[l, m]}"))
                break
        else:
            checks.append(CheckResult(
                "theta_bound", True, "sector-count bound <A_l, A_m> <= <theta l, m> holds, "
                f"largest <theta l, m> = {bound.max()}"))

    return CertificateReport(tuple(checks))


def trivial_certificate(ring: FusionRing, twists: TwistData) -> InductionCertificate:
    """Both inductions are the identity on the base system (mm = base ring)."""
    return _self_certificate(ring, twists, np.eye(ring.size, dtype=np.int64))


def conjugation_certificate(ring: FusionRing, twists: TwistData) -> InductionCertificate:
    """A+ = identity, A- = the conjugation permutation; a valid certificate
    for commutative base systems, with mass matrix Z = C."""
    return _self_certificate(ring, twists, ring.conjugation_matrix())


def _self_certificate(ring: FusionRing, twists: TwistData, aminus) -> InductionCertificate:
    """Certificate whose extended algebra is the base ring itself, with its
    quantum dimensions, A+ = identity and the given A-."""
    mm = BasedAlgebra(ring.labels, ring.unit, ring.dual, np.stack(ring.columns(), axis=1),
                      dims=ring.dimensions().d)
    return InductionCertificate(ring, twists, mm, np.eye(ring.size, dtype=np.int64), aminus)
