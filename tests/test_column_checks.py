"""The checks that read the sparse columns (the axiom validators, the
generating set, the center and the certificate checks) against the
dense code they replaced (``references.py``), with blocks of the
default size and of one row each; tracemalloc bounds on the largest of
them, as multiples of the bytes of the table's columns; and the certify
commands on passing inputs with the dense tensor out of reach."""
import contextlib
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusionkit import (BasedAlgebra, FusionKitError, catalog_models, cli,
                       conjugation_certificate, decompose_semisimple, full_report,
                       modular_matrices, serialize, trivial_certificate, validate_based_algebra, validate_fusion_ring,
                       verify_generating, verify_homomorphism)
from fusionkit import rings
from fusionkit.algebras import _center
from fusionkit.catalog import cyclic_model, su2_level
from fusionkit.induction import InductionCertificate, _theta_bound
from fusionkit.rings import _associativity_violations, _generating_labels

from helpers import (GROUP_FIXTURES, dense, permute_model, permute_table, product_model,
                     product_table, refuse_int64_scatter, table_dict)
from references import (reference_associativity_violations, reference_center,
                        reference_generating_labels, reference_verify_generating,
                        reference_verify_homomorphism)

# block sizes: the default, and one byte, which cuts every product the
# associativity check forms into blocks of one row
BLOCK_SIZES = [None, 1]


def blocks(size):
    """``rings._BLOCK_BYTES`` set to ``size`` inside the block (None keeps it)."""
    if size is None:
        return contextlib.nullcontext()
    return mock.patch.object(rings, "_BLOCK_BYTES", size)


def group_algebra(name, perm=None):
    table = GROUP_FIXTURES[name][0]
    return BasedAlgebra.from_group_table(table if perm is None else permute_table(table, perm))


def structures():
    """Catalog rings, group algebras, relabelled rings and algebras, a
    product of two groups and a table whose generating set needs the
    columns of its generators."""
    for name, ring, _ in catalog_models():
        yield name, ring
    for name in GROUP_FIXTURES:
        yield name, group_algebra(name)
    rng = np.random.default_rng(5)
    for k in (3, 8, 16):
        yield f"su2_{k} relabelled", permute_model(su2_level(k), rng.permutation(k + 1))[0]
    for name in ("s3", "q8", "a4"):
        perm = rng.permutation(len(GROUP_FIXTURES[name][0])).tolist()
        yield f"{name} relabelled", group_algebra(name, perm)
    yield "s3xd4", BasedAlgebra.from_group_table(
        product_table(GROUP_FIXTURES["s3"][0], GROUP_FIXTURES["d4"][0]))
    # 0 0 = 1 proves 1, and only the column of the generator 2 holds 1 2 = 3
    yield "proved by a column", BasedAlgebra(list("0123"), None, range(4),
                                             {(0, 0, 1): 1, (1, 2, 3): 1})


STRUCTURES = list(structures())


def assert_matches_references(structure, precheck):
    """The generating set, the associativity violations from ``precheck``
    and from every label, and the center basis equal the dense references."""
    T = dense(structure)
    gens = _generating_labels(structure)
    assert gens == reference_generating_labels(T)
    for labels in (precheck, range(structure.size)):
        assert (_associativity_violations(structure, labels)
                == reference_associativity_violations(T, labels))
    assert np.array_equal(_center(structure), reference_center(T, gens))


@pytest.mark.parametrize("size", BLOCK_SIZES)
@pytest.mark.parametrize("name, structure", STRUCTURES, ids=[name for name, _ in STRUCTURES])
def test_checks_match_dense_references(name, structure, size):
    with blocks(size):
        assert_matches_references(structure, structure.generating_labels())


def deep_closures():
    """Tables whose generating sets (|G| from 3 to 23) are larger than those
    of the Hypothesis tables: seeded relabellings of SU(2)_64, a product of
    two groups and a Deligne product."""
    for seed in range(3):
        perm = np.random.default_rng(seed).permutation(65)
        yield f"su2_64 relabelled {seed}", permute_model(su2_level(64), perm)[0]
    yield "d6xs3", BasedAlgebra.from_group_table(
        product_table(GROUP_FIXTURES["d6"][0], GROUP_FIXTURES["s3"][0]))
    yield "su2_10xsu2_10", product_model(su2_level(10), su2_level(10))[0]


DEEP_CLOSURES = list(deep_closures())


@pytest.mark.parametrize("name, structure", DEEP_CLOSURES, ids=[name for name, _ in DEEP_CLOSURES])
def test_deep_closures_match_the_reference(name, structure):
    assert _generating_labels(structure) == reference_generating_labels(dense(structure))


def perturbed(draw, structure):
    """``structure`` with one drawn defect: none, a multiplicity changed, or
    an entry moved to another cell."""
    n, table = structure.size, table_dict(structure)
    defect = draw(st.sampled_from(["none", "change", "move"]), label="defect")
    key = draw(st.sampled_from(sorted(table)), label="entry")
    if defect == "change":
        table[key] = draw(st.sampled_from([0, 2, 3]), label="mult")
    elif defect == "move":
        cell = draw(st.tuples(*[st.integers(0, n - 1)] * 3), label="cell")
        value = table.pop(key)
        table[cell] = table.get(cell, 0) + value
    return type(structure)(structure.labels, structure.unit, structure.dual, table)


def sources():
    """Relabelled SU(2)_k rings, relabelled group algebras, and SU(2)_k
    tables as algebras with no unit, which are not single-constituent."""
    out = [("ring", k) for k in range(1, 9)] + [("algebra", k) for k in (2, 3, 5)]
    return out + [("group", name) for name in sorted(GROUP_FIXTURES)]


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(st.data())
def test_perturbed_tables_match_dense_references(data):
    kind, arg = data.draw(st.sampled_from(sources()), label="source")
    if kind == "group":
        perm = data.draw(st.permutations(range(len(GROUP_FIXTURES[arg][0]))), label="perm")
        structure = group_algebra(arg, perm)
    else:
        perm = data.draw(st.permutations(range(arg + 1)), label="perm")
        ring = permute_model(su2_level(arg), perm)[0]
        structure = ring if kind == "ring" else BasedAlgebra(
            ring.labels, None, ring.dual, table_dict(ring))
    structure = perturbed(data.draw, structure)
    with blocks(data.draw(st.sampled_from(BLOCK_SIZES), label="block")):
        assert_matches_references(structure, structure.generating_labels())
        validate = validate_fusion_ring if kind == "ring" else validate_based_algebra
        report = validate(structure)
    # the validator checks the generating set less a unit that obeys the unit law
    gens = reference_generating_labels(dense(structure))
    precheck = [g for g in gens if g != structure.unit or "unit" in report.axioms()]
    assert ([v for v in report.violations if v.axiom == "associativity"]
            == reference_associativity_violations(dense(structure), precheck))


def single_constituent(structure) -> bool:
    a, b, _, _ = structure.columns()
    return not np.any((a[1:] == a[:-1]) & (b[1:] == b[:-1]))


def assert_deciders_agree(structure):
    """The composition test and the product test give one verdict per label."""
    n = structure.size
    a, b, c, mult = structure.columns()
    P, M = rings._matrix(a, b, c, n), rings._matrix(a, b, mult, n)
    F = rings._scatter(structure, np.float32)
    assert ([rings._composed_fails(P, M, x) for x in range(n)]
            == [rings._product_fails(F, x) for x in range(n)])


SINGLE = [(name, s) for name, s in STRUCTURES if single_constituent(s)]


@pytest.mark.parametrize("size", BLOCK_SIZES)
@pytest.mark.parametrize("name, structure", SINGLE, ids=[name for name, _ in SINGLE])
def test_associativity_deciders_agree(name, structure, size):
    with blocks(size):
        assert_deciders_agree(structure)


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(st.data())
def test_associativity_deciders_agree_on_perturbed_tables(data):
    # each defect keeps one constituent per (a, b): a multiplicity changed
    # (0 drops the entry) or the constituent of an entry moved
    name, structure = data.draw(st.sampled_from(SINGLE), label="structure")
    n, table = structure.size, table_dict(structure)
    for _ in range(data.draw(st.integers(1, 2), label="defects") if n > 1 else 1):
        key = data.draw(st.sampled_from(sorted(table)), label="entry")
        if data.draw(st.booleans(), label="move"):
            table[(*key[:2], data.draw(st.integers(0, n - 1), label="c"))] = table.pop(key)
        else:
            table[key] = data.draw(st.sampled_from([0, 2, 3]), label="mult")
            table = {k: v for k, v in table.items() if v}
    structure = type(structure)(structure.labels, structure.unit, structure.dual, table)
    assert single_constituent(structure)
    assert_deciders_agree(structure)


def outcome(check, *args):
    """What ``check(*args)`` returns, or the type and text of the
    fusionkit error it raises."""
    try:
        return check(*args)
    except FusionKitError as exc:
        return type(exc), str(exc)


def certificates():
    for model in [su2_level(k) for k in (1, 2, 3, 4, 6, 10)] + [cyclic_model(3, 2),
                                                                cyclic_model(4, 1)]:
        yield trivial_certificate(*model)
        yield conjugation_certificate(*model)


CERTIFICATES = list(certificates())


@settings(max_examples=120, deadline=None, database=None, derandomize=True)
@given(st.data())
def test_certificate_checks_match_dense_references(data):
    cert = data.draw(st.sampled_from(CERTIFICATES), label="certificate")
    n = cert.ring.size
    A = {"+": cert.aplus.copy(), "-": cert.aminus.copy()}
    for sign in sorted(data.draw(st.sets(st.sampled_from("+-")), label="perturbed")):
        l, beta = data.draw(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), label="cell")
        A[sign][l, beta] = data.draw(st.integers(0, 3), label="entry")
    theta = data.draw(st.none() | st.lists(st.integers(0, 3), min_size=n, max_size=n),
                      label="theta")
    cert = InductionCertificate(cert.ring, cert.twists, cert.mm, A["+"], A["-"], theta=theta)
    with blocks(data.draw(st.sampled_from(BLOCK_SIZES), label="block")):
        for sign in "+-":
            assert (outcome(verify_homomorphism, cert, sign)
                    == outcome(reference_verify_homomorphism, cert, sign))
        md = modular_matrices(cert.ring, cert.twists)
        gen = outcome(verify_generating, cert, md)
        want = outcome(reference_verify_generating, cert, md)
        if isinstance(want, tuple):
            assert gen == want
        else:
            # the identity is summed in another order, so only the residual's rounding differs
            assert (gen.passed, gen.uncovered) == (want.passed, want.uncovered)
            assert math.isclose(gen.max_residual, want.max_residual, rel_tol=1e-9, abs_tol=1e-11)
        report = full_report(cert)
    for sign, name in (("+", "homomorphism_plus"), ("-", "homomorphism_minus")):
        assert report[name].detail == str(reference_verify_homomorphism(cert, sign))
    if not isinstance(gen, tuple):
        assert report["generating"].detail.startswith(f"residual {gen.max_residual:.2e}")


@pytest.mark.parametrize("top", [3, 2 ** 62])
def test_theta_bound_is_exact(top):
    # sum(theta) max(N) below 2^63 sums in int64, above it in Python ints
    ring = su2_level(6)[0]
    n = ring.size
    theta = [top, 0, 1, 2, 0, 1, top]
    want = (np.array(theta, dtype=object)
            @ dense(ring).astype(object).reshape(n, n * n)).reshape(n, n)
    got = _theta_bound(ring, tuple(theta))
    assert got.dtype == (np.int64 if top == 3 else object)
    assert np.array_equal(got, want)


def traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def column_bytes(structure) -> int:
    return sum(col.nbytes for col in structure.columns())


def fresh(structure):
    """A copy of ``structure`` with nothing computed yet."""
    return type(structure)(structure.labels, structure.unit, structure.dual,
                           np.stack(structure.columns(), axis=1))


def test_ring_validation_memory():
    # SU(2)_64: 1.53 MB of columns; its int64 tensor alone is 2.2 MB, and
    # with the float copy and both full sides the dense validator peaked at
    # 3.8 times the columns
    ring = fresh(su2_level(64)[0])
    assert traced_peak(lambda: validate_fusion_ring(ring)) <= 2.5 * column_bytes(ring)


def test_algebra_validation_and_decomposition_memory():
    # d6 x s3, 72 elements: 166 kB of columns; its int64 tensor alone is
    # 3.0 MB, and the dense validator and center peaked at 36 times the columns
    alg = BasedAlgebra.from_group_table(
        product_table(GROUP_FIXTURES["d6"][0], GROUP_FIXTURES["s3"][0]))
    peak = traced_peak(lambda: (validate_based_algebra(alg), decompose_semisimple(alg)))
    assert peak <= 12 * column_bytes(alg)


def test_certificate_report_memory():
    # the trivial SU(2)_48 certificate: 666 kB of columns in its ring (and
    # as much in its extended algebra); the two cached int64 tensors, their
    # float copies and the full contractions peaked at 5.2 times that
    cert = trivial_certificate(*su2_level(48))
    assert traced_peak(lambda: full_report(cert)) <= 4.5 * column_bytes(cert.ring)


def test_homomorphism_never_forms_an_n_cubed_array():
    # the product SU(2)_8 x SU(2)_8, n = 81: the dense check scattered
    # N and N_mm as two float32 n^3 tables of 2.1 MB each
    cert = trivial_certificate(*product_model(su2_level(8), su2_level(8)))
    n = cert.ring.size
    assert traced_peak(lambda: verify_homomorphism(cert, "+")) < n ** 3 * 4


@pytest.mark.parametrize("k, l", [(4, 2), (4, 4), (10, 5), (10, 10)])
def test_corrupted_row_outside_the_generating_set_fails(k, l):
    # v_l enters the products of G = (0, 1), so a broken row l outside G
    # breaks a row of G too; full_report then checks every row and names
    # the first violation, as the dense reference does
    cert = trivial_certificate(*su2_level(k))
    assert cert.ring.generating_labels() == (0, 1)
    A = cert.aplus.copy()
    A[l] = np.roll(A[l], 1)
    cert = InductionCertificate(cert.ring, cert.twists, cert.mm, A, cert.aminus)
    report = full_report(cert)
    assert report["structure"].passed and not report["homomorphism_plus"].passed
    assert report["homomorphism_plus"].detail == str(reference_verify_homomorphism(cert, "+"))


def test_certify_commands_never_build_the_tensor(tmp_path, monkeypatch, capsys):
    ring_file = tmp_path / "su2_64.json"
    serialize.write_ring(ring_file, *su2_level(64))
    alg_file = tmp_path / "d6xs3.json"
    alg = BasedAlgebra.from_group_table(
        product_table(GROUP_FIXTURES["d6"][0], GROUP_FIXTURES["s3"][0]))
    alg_file.write_text(serialize.dumps(serialize.algebra_to_dict(alg)), encoding="utf-8")
    jobs = [["check", str(ring_file)], ["decompose", str(alg_file)]]
    for factory in (trivial_certificate, conjugation_certificate):
        cert_file = tmp_path / f"{factory.__name__}.json"
        cert = factory(*su2_level(48))
        cert_file.write_text(serialize.dumps(serialize.certificate_to_dict(cert)),
                             encoding="utf-8")
        jobs.append(["verify-induction", str(cert_file)])

    refuse_int64_scatter(monkeypatch)
    for argv in jobs:
        assert cli.main(argv) == 0, (argv, capsys.readouterr())
