"""Acceptance suite: one test per criterion, printing one PASS/FAIL line each.

Every tolerance is pinned here, not configurable: S-matrix oracle 1e-9, exact
rational T exponents, partial/full modular-algebra residuals 1e-9, Verlinde
pre-rounding deviation 1e-6, Gauss-sum identity 1e-9 relative, invariant
budget identity 1e-6 relative, generating-identity residual 1e-6, and the
byte-identity of repeated CLI runs.
"""
import time
from fractions import Fraction

import numpy as np
import pytest

from fusionkit import (BasedAlgebra, BlockProfile, InductionCertificate,
                       check_partial_verlinde,
                       conjugation_certificate, decompose_semisimple,
                       full_report, invariant_counts, is_nondegenerate,
                       modular_matrices, search_invariants,
                       trivial_certificate, verify_dimension_theorem,
                       verlinde_fusion)
from fusionkit.catalog import cyclic_model, named_model, su2_level
from fusionkit.cli import main as cli_main

from helpers import (GROUP_FIXTURES, brute_force_invariants, permute_table, su2_s_closed_form,
                     table_dict)

from test_induction import homomorphism_breaking_aplus


def report(num: int, desc: str, failures: list[str]) -> None:
    status = "FAIL" if failures else "PASS"
    print(f"[acceptance {num:02d}] {status} {desc}")
    if failures:
        pytest.fail(f"criterion {num}: {desc}: " + " | ".join(failures),
                    pytrace=False)


def test_criterion_01_su2_oracle_match():
    failures = []
    for k in range(1, 25):
        t0 = time.monotonic()
        ring, twists = su2_level(k)
        md = modular_matrices(ring, twists)
        err = float(np.max(np.abs(md.S - su2_s_closed_form(k))))
        if err >= 1e-9:
            failures.append(f"k={k}: |S - closed form| = {err:.2e}")
        c_wzw = Fraction(3 * k, k + 2) % 8
        if md.c != c_wzw:
            failures.append(f"k={k}: c = {md.c} != {c_wzw}")
        for a in range(k + 1):
            want = (twists.h[a] - Fraction(c_wzw, 24)) % 1
            if md.t_exponents[a] != want:
                failures.append(f"k={k}: T exponent at {a} is {md.t_exponents[a]}, want {want}")
                break
        elapsed = time.monotonic() - t0
        if elapsed >= 1.0:
            failures.append(f"k={k}: took {elapsed:.2f}s")
    report(1, "SU(2)_k S-matrix oracle and exact T phases, k = 1..24, < 1s each",
           failures)


def test_criterion_02_partial_verlinde_all_catalog(catalog_modular):
    failures = []
    for name, md in catalog_modular.items():
        rep = check_partial_verlinde(md)
        if rep.worst >= 1e-9:
            failures.append(f"{name}: worst residual {rep.worst:.2e}")
    report(2, "TSTST=S, CTC=T, CSC=S, T*T=1 below 1e-9 on every catalog model "
              "with z != 0 (degenerate ones included)", failures)


def test_criterion_03_full_verlinde():
    failures = []
    models = [(f"su2_{k}", su2_level(k)) for k in range(1, 17)]
    models += [("fibonacci", named_model("fibonacci")), ("ising", named_model("ising"))]
    for name, (ring, twists) in models:
        md = modular_matrices(ring, twists)
        try:
            _, dev = verlinde_fusion(md)
        except Exception as exc:
            failures.append(f"{name}: {exc}")
            continue
        if dev >= 1e-6:
            failures.append(f"{name}: pre-rounding deviation {dev:.2e}")
        gauss = abs(abs(md.z) ** 2 - md.w) / md.w
        if gauss >= 1e-9:
            failures.append(f"{name}: | |z|^2 - w |/w = {gauss:.2e}")
    report(3, "Verlinde formula reproduces the fusion tensor (k = 1..16, "
              "fibonacci, ising) and |z|^2 = w", failures)


def test_criterion_04_nondegeneracy_detection():
    failures = []
    for n in range(2, 7):
        ring, twists = cyclic_model(n, 0)
        md = modular_matrices(ring, twists)
        nd = md.degeneracy
        if nd.nondegenerate or not nd.witnesses:
            failures.append(f"cyclic({n},0): not reported degenerate")
            continue
        for lam in nd.witnesses:
            parallel = float(np.max(np.abs(md.Y[lam] - md.d[lam] * md.d)))
            if parallel >= 1e-9:
                failures.append(f"cyclic({n},0): witness {lam} not parallel "
                                f"({parallel:.2e})")
    good = [(f"su2_{k}", su2_level(k)) for k in range(1, 25)]
    good += [("semion", cyclic_model(2, 1)), ("fibonacci", named_model("fibonacci")),
             ("ising", named_model("ising"))]
    for name, (ring, twists) in good:
        if not is_nondegenerate(ring, twists).nondegenerate:
            failures.append(f"{name}: wrongly reported degenerate")
    report(4, "degenerate cyclic(n,0) detected with parallel witnesses; "
              "SU(2)_k, semion, fibonacci, ising non-degenerate", failures)


def test_criterion_05_ade_counts():
    # A at every k, D at even k >= 4 (D_3 = A_3 at k = 2), E at k = 10, 16, 28.
    expected = {k: 1 + (k % 2 == 0 and k >= 4) + (k in (10, 16, 28))
                for k in range(1, 17)}
    failures = []
    for k in sorted(expected):
        ring, twists = su2_level(k)
        md = modular_matrices(ring, twists)
        t0 = time.monotonic()
        found = search_invariants(md)
        elapsed = time.monotonic() - t0
        if elapsed >= 60.0:
            failures.append(f"k={k}: search took {elapsed:.1f}s")
        if len(found) != expected[k]:
            failures.append(f"k={k}: found {len(found)} invariants, expected {expected[k]}")
        dd = np.outer(md.d, md.d)
        for mm in found:
            Z = mm.Z
            if Z[0, 0] != 1:
                failures.append(f"k={k}: Z[0,0] = {Z[0, 0]}")
            if Z.sum() > md.w * (1 + 1e-9):
                failures.append(f"k={k}: entry-sum bound violated (sum {Z.sum()})")
            budget = float(np.sum(dd * Z))
            if abs(budget - md.w) >= 1e-6 * md.w:
                failures.append(f"k={k}: sum d d Z = {budget}, w = {md.w}")
    report(5, "A-D-E invariant counts for k <= 16 with Z00 = 1, entry-sum bound "
              "and the global-index identity, each search < 60s", failures)


def test_criterion_06_d4_and_k6():
    failures = []
    md4 = modular_matrices(*su2_level(4))
    found = search_invariants(md4)
    d4 = [mm for mm in found if not mm.is_identity]
    expected = np.zeros((5, 5), dtype=np.int64)
    expected[0, 0] = expected[0, 4] = expected[4, 0] = expected[4, 4] = 1
    expected[2, 2] = 2
    if len(d4) != 1 or not np.array_equal(d4[0].Z, expected):
        failures.append(f"k=4 non-identity invariant wrong: {[m.Z.tolist() for m in d4]}")
    else:
        mm = d4[0]
        if invariant_counts(mm.Z) != (4, 8):
            failures.append(f"k=4 counts {invariant_counts(mm.Z)} != (4, 8)")
        if mm.type_one != "yes" or mm.gram_rows is None:
            failures.append("k=4 invariant not certified type I")
        else:
            B = np.array(mm.gram_rows)
            if not np.array_equal(B.T @ B, mm.Z):
                failures.append("k=4 Gram witness does not reproduce Z")
            if list(B[:, 0]).count(1) != 1 or B[:, 0].sum() != 1:
                failures.append("k=4 Gram witness unit column not standard basis")
    md6 = modular_matrices(*su2_level(6))
    other = [mm for mm in search_invariants(md6) if not mm.is_identity]
    if len(other) != 1:
        failures.append(f"k=6: expected one non-identity invariant, got {len(other)}")
    else:
        mm = other[0]
        if not (mm.is_permutation and mm.is_symmetric and mm.type_one == "no"):
            failures.append(f"k=6 invariant flags wrong: perm={mm.is_permutation} "
                            f"sym={mm.is_symmetric} type_one={mm.type_one}")
    report(6, "D-type invariant at k=4 exact with counts (4,8) and explicit "
              "type-I factorization; k=6 partner is a symmetric permutation, "
              "type II", failures)


def test_criterion_07_oracle_completeness():
    failures = []
    for k in range(1, 9):
        md = modular_matrices(*su2_level(k))
        fast = [mm.Z for mm in search_invariants(md)]
        slow = brute_force_invariants(md)
        if len(fast) != len(slow) or any(not np.array_equal(a, b)
                                         for a, b in zip(fast, slow)):
            failures.append(f"k={k}: enumeration and DFS disagree")
    report(7, "commutant enumeration equals brute-force DFS for k <= 8", failures)


def test_criterion_08_representation_decomposition():
    failures = []
    for n in range(1, 9):
        alg = BasedAlgebra.from_group_table(
            [[(i + j) % n for j in range(n)] for i in range(n)])
        if decompose_semisimple(alg).sizes != (1,) * n:
            failures.append(f"Z_{n}: profile not all ones")
    from helpers import symmetric_table
    if decompose_semisimple(
            BasedAlgebra.from_group_table(symmetric_table(3))).sizes != (2, 1, 1):
        failures.append("S3 profile != (2,1,1)")
    names = sorted(GROUP_FIXTURES)
    rng = np.random.default_rng(2024)
    for i in range(100):
        name = names[i % len(names)]
        table, degrees = GROUP_FIXTURES[name]
        perm = list(rng.permutation(len(table)))
        alg = BasedAlgebra.from_group_table(permute_table(table, perm))
        profile = decompose_semisimple(alg, seed=i)
        if profile.dimension != alg.size:
            failures.append(f"fixture {i} ({name}): sum n_i^2 = "
                            f"{profile.dimension} != {alg.size}")
        if profile.sizes != degrees:
            failures.append(f"fixture {i} ({name}): profile {profile.sizes} "
                            f"!= {degrees}")
    if not verify_dimension_theorem(np.eye(4, dtype=int), BlockProfile((1, 1, 1, 1))):
        failures.append("identity/all-ones pairing rejected")
    Z = np.zeros((5, 5), dtype=int)
    Z[0, 0] = Z[0, 4] = Z[4, 0] = Z[4, 4] = 1
    Z[2, 2] = 2
    if not verify_dimension_theorem(Z, BlockProfile((2, 1, 1, 1, 1))):
        failures.append("D-type/(2,1,1,1,1) pairing rejected")
    report(8, "block profiles: Z_n all ones, S3 = (2,1,1), 100 randomized "
              "fixtures with sum n_i^2 = dim, dimension-theorem pairings", failures)


def test_criterion_09_induction_certificates():
    failures = []
    for k in range(1, 11):
        ring, twists = su2_level(k)
        for build in (trivial_certificate, conjugation_certificate):
            rep = full_report(build(ring, twists))
            if not rep.passed:
                failures.append(f"k={k} {build.__name__}: {rep.failures}")
                continue
            detail = rep["generating"].detail
            residual = float(detail.split("residual ")[1].split(",")[0])
            if residual >= 1e-6:
                failures.append(f"k={k} {build.__name__}: generating residual {residual:.2e}")

    ring, twists = su2_level(4)
    base = trivial_certificate(ring, twists)

    def variant(**kw):
        return InductionCertificate(
            kw.get("ring", base.ring), kw.get("twists", base.twists),
            kw.get("mm", base.mm), kw.get("aplus", base.aplus),
            kw.get("aminus", base.aminus))

    bad_unit = np.eye(5, dtype=np.int64)[[4, 1, 2, 3, 0]]
    bad_dims = BasedAlgebra(base.mm.labels, base.mm.unit, base.mm.dual,
                            table_dict(base.mm),
                            dims=[d + 0.25 for d in base.mm.dims])
    double_unit = np.eye(5, dtype=np.int64)
    double_unit[0, 1] = 1
    corruptions = [
        ("unit_row", variant(aplus=bad_unit)),
        ("dimension", variant(mm=bad_dims)),
        ("homomorphism_plus", variant(aplus=homomorphism_breaking_aplus(ring))),
        ("z_matrix", variant(aplus=double_unit, aminus=double_unit)),
        ("nondegeneracy", trivial_certificate(*cyclic_model(2, 0))),
    ]
    for name, cert in corruptions:
        rep = full_report(cert)
        if rep.passed or name not in rep.failures:
            failures.append(f"corruption {name!r} not flagged (failures: {rep.failures})")
    report(9, "trivial/conjugation certificates pass for k <= 10 incl. the "
              "generating identity; five targeted corruptions fail by name",
           failures)


def test_criterion_10_determinism(tmp_path, capsys):
    failures = []
    ring_file = str(tmp_path / "su2_6.json")
    cli_main(["gen", "su2", "--level", "6", "-o", ring_file])
    outdirs = [str(tmp_path / f"run{i}") for i in range(3)]
    outputs = []
    for outdir, jobs in zip(outdirs, ("1", "8", "1")):
        code = cli_main(["invariants", ring_file, "--jobs", jobs,
                         "--format", "json", "--out", outdir])
        captured = capsys.readouterr().out
        if code != 0:
            failures.append(f"--jobs {jobs} exited {code}")
        outputs.append(captured.encode())
    if not (outputs[0] == outputs[1] == outputs[2]):
        failures.append("stdout differs between runs/job counts")
    from pathlib import Path
    files = [sorted(Path(d).glob("*.json")) for d in outdirs]
    for f1, f8 in zip(files[0], files[1]):
        if f1.read_bytes() != f8.read_bytes():
            failures.append(f"{f1.name} differs between --jobs 1 and --jobs 8")
    report(10, "`invariants` output byte-identical across repeats and "
               "--jobs 1 vs --jobs 8", failures)
