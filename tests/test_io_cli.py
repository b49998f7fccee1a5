import gc
import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusionkit import (BasedAlgebra, SchemaError, modular_matrices,
                       search_invariants)
from fusionkit.catalog import cyclic_model, su2_level
from fusionkit.cli import _parser, main
from fusionkit.induction import (InductionCertificate, conjugation_certificate,
                                 trivial_certificate)
from fusionkit import serialize

from helpers import GROUP_FIXTURES, cyclic_table, full_form, permute_model, unconjugated_z3


def counted_certificate(k, nm_count, theta=None):
    """The trivial SU(2)_k certificate, declaring ``nm_count`` intermediate
    sectors and the ``theta`` branching."""
    cert = trivial_certificate(*su2_level(k))
    return InductionCertificate(cert.ring, cert.twists, cert.mm, cert.aplus, cert.aminus,
                                theta=theta, nm_count=nm_count)


class TestRingRoundtrip:
    def test_su2_4_bit_identical(self, tmp_path):
        ring, twists = su2_level(4)
        path = tmp_path / "ring.json"
        serialize.write_ring(path, ring, twists)
        first = path.read_bytes()
        ring2, twists2 = serialize.parse_ring(path)
        assert ring2 == ring and twists2 == twists
        serialize.write_ring(path, ring2, twists2)
        assert path.read_bytes() == first

    def test_twist_string_parses_exactly(self):
        assert serialize.parse_rational("3/16", "t") == Fraction(3, 16)
        assert serialize.parse_rational("0", "t") == 0

    def test_not_lowest_terms_rejected(self):
        with pytest.raises(SchemaError):
            serialize.parse_rational("2/4", "t")

    @pytest.mark.parametrize("text, canonical", [
        ("0.5", "1/2"), ("+1/2", "1/2"), ("0/1", "0"), ("1e-1", "1/10"), ("2/4", "1/2")])
    def test_non_canonical_twist_names_its_spelling(self, text, canonical):
        want = f"t: twist '{text}' is not written as p/q in lowest terms; write '{canonical}'"
        with pytest.raises(SchemaError) as info:
            serialize.parse_rational(text, "t")
        assert str(info.value) == want
        assert serialize.parse_rational(f" {canonical} ", "t") == Fraction(canonical)

    def test_out_of_range_rejected(self):
        with pytest.raises(SchemaError):
            serialize.parse_rational("5/4", "t")
        with pytest.raises(SchemaError):
            serialize.parse_rational("-1/4", "t")

    @pytest.mark.parametrize("text", ["1", "2", "7/7"])
    def test_whole_turns_rejected(self, text):
        # "7/7" parses to 1, then fails the range before the lowest-terms rule
        with pytest.raises(SchemaError, match=r"twist '.*' must lie in \[0, 1\)"):
            serialize.parse_rational(text, "t")

    def test_duplicate_fusion_key_named(self, tmp_path):
        obj = full_form(*cyclic_model(2, 1))
        obj["fusion"].append(obj["fusion"][0])
        path = tmp_path / "dup.json"
        path.write_text(serialize.dumps(obj))
        with pytest.raises(SchemaError, match=r"duplicate key \(0, 0, 0\)"):
            serialize.parse_ring(path)

    def test_duplicate_orbit_named(self, tmp_path):
        obj = serialize.ring_to_dict(*cyclic_model(2, 1))
        obj["fusion_orbits"].append(obj["fusion_orbits"][0])
        path = tmp_path / "dup.json"
        path.write_text(serialize.dumps(obj))
        with pytest.raises(SchemaError, match=r"duplicate key \(0, 0, 0\)"):
            serialize.parse_ring(path)

    def test_index_out_of_range(self, tmp_path):
        obj = full_form(*cyclic_model(2, 1))
        obj["fusion"][0] = [0, 0, 9, 1]
        path = tmp_path / "bad.json"
        path.write_text(serialize.dumps(obj))
        with pytest.raises(SchemaError):
            serialize.parse_ring(path)

    def test_orbit_index_out_of_range(self, tmp_path):
        obj = serialize.ring_to_dict(*cyclic_model(2, 1))
        obj["fusion_orbits"][0] = [0, 0, 9, 1]
        path = tmp_path / "bad.json"
        path.write_text(serialize.dumps(obj))
        with pytest.raises(SchemaError, match=r"structure entry \[0, 0, 9, 1\] needs integer"):
            serialize.parse_ring(path)

    @pytest.mark.parametrize("enabled", [True, False])
    def test_garbage_collector_state_kept(self, tmp_path, enabled):
        # reading a file and building a table's lists pause the collector
        # and leave it as the caller had it, also when the read fails
        good, bad = tmp_path / "good.json", tmp_path / "bad.json"
        serialize.write_ring(good, *su2_level(4))
        bad.write_text('{"labels": ')
        was = gc.isenabled()
        try:
            (gc.enable if enabled else gc.disable)()
            serialize.parse_ring(good)
            assert gc.isenabled() == enabled
            with pytest.raises(SchemaError, match="invalid JSON"):
                serialize.load_json(bad)
            assert gc.isenabled() == enabled
            serialize.ring_to_dict(*su2_level(4))
            assert gc.isenabled() == enabled
        finally:
            (gc.enable if was else gc.disable)()

    def test_missing_field(self, tmp_path):
        path = tmp_path / "missing.json"
        path.write_text('{"labels": ["0"]}')
        with pytest.raises(SchemaError, match="missing field"):
            serialize.parse_ring(path)

    def test_catalog_roundtrips(self, catalog, tmp_path):
        for name, (ring, twists) in catalog.items():
            path = tmp_path / f"{name}.json"
            serialize.write_ring(path, ring, twists)
            ring2, twists2 = serialize.parse_ring(path)
            assert ring2 == ring and twists2 == twists, name


def reference_dumps(x, pad=""):
    """The layout rule of ``serialize.dumps`` item by item (no trailing newline)."""
    inner = pad + "  "
    if isinstance(x, dict) and x:
        members = (f"{inner}{json.dumps(k)}: {reference_dumps(v, inner)}" for k, v in x.items())
        return "{\n" + ",\n".join(members) + f"\n{pad}}}"
    if isinstance(x, (list, tuple)) and any(isinstance(v, (dict, list, tuple)) for v in x):
        return "[\n" + ",\n".join(inner + reference_dumps(v, inner) for v in x) + f"\n{pad}]"
    return json.dumps(x)


def plain(x):
    """``x`` as JSON reads it back: tuples become lists."""
    if isinstance(x, dict):
        return {k: plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [plain(v) for v in x]
    return x


NUMBERS = st.integers(-2**70, 2**70) | st.floats(allow_nan=False)
SCALARS = (st.none() | st.booleans() | NUMBERS
           | st.text() | st.sampled_from(['"], ["', '], [', '"', '\\"]', "é ∞ 𝔰𝔲"]))
JSON_VALUES = st.recursive(
    SCALARS | st.lists(st.lists(NUMBERS, max_size=4), max_size=5),
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(st.text(max_size=5), inner, max_size=4)),
    max_leaves=25)

ISING = """{
  "labels": ["0", "sigma", "psi"],
  "unit": 0,
  "dual": [0, 1, 2],
  "fusion_orbits": [
    [0, 0, 0, 1],
    [0, 1, 1, 1],
    [0, 2, 2, 1],
    [1, 1, 2, 1]
  ],
  "twists": ["0", "1/16", "1/2"]
}
"""

# what the writer gave before orbit rows, which still reads
ISING_FULL = """{
  "labels": ["0", "sigma", "psi"],
  "unit": 0,
  "dual": [0, 1, 2],
  "fusion": [
    [0, 0, 0, 1],
    [0, 1, 1, 1],
    [0, 2, 2, 1],
    [1, 0, 1, 1],
    [1, 1, 0, 1],
    [1, 1, 2, 1],
    [1, 2, 1, 1],
    [2, 0, 2, 1],
    [2, 1, 1, 1],
    [2, 2, 0, 1]
  ],
  "twists": ["0", "1/16", "1/2"]
}
"""


class TestCanonicalLayout:
    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(JSON_VALUES)
    def test_dumps_roundtrips_values_and_bytes(self, x):
        text = serialize.dumps(x)
        assert text == reference_dumps(x) + "\n"
        assert json.loads(text) == plain(x)
        assert serialize.dumps(json.loads(text)) == text

    def test_non_string_key_refused(self):
        with pytest.raises(TypeError, match="keys must be strings"):
            serialize.dumps({"a": {1: 2}})

    def test_gen_ising_golden(self, capsys):
        assert main(["gen", "named", "--name", "ising"]) == 0
        assert capsys.readouterr().out == ISING

    def test_full_form_ising_still_reads(self, tmp_path, capsys):
        paths = tmp_path / "orbits.json", tmp_path / "full.json"
        for path, text in zip(paths, (ISING, ISING_FULL)):
            path.write_text(text)
        assert serialize.parse_ring(paths[1]) == serialize.parse_ring(paths[0])
        assert serialize.dumps(full_form(*serialize.parse_ring(paths[1]))) == ISING_FULL
        assert main(["check", str(paths[1])]) == 0
        assert "axioms: ok" in capsys.readouterr().out

    def test_files_rewrite_to_the_same_bytes(self, catalog):
        texts = [serialize.dumps(serialize.ring_to_dict(*model)) for model in catalog.values()]
        for model in (su2_level(6), cyclic_model(5, 2)):
            texts += [serialize.dumps(serialize.certificate_to_dict(factory(*model)))
                      for factory in (trivial_certificate, conjugation_certificate)]
        texts += [serialize.dumps(serialize.algebra_to_dict(BasedAlgebra.from_group_table(t)))
                  for t, _ in GROUP_FIXTURES.values()]
        for text in texts:
            obj = json.loads(text)
            if "nn" in obj:
                back = serialize.certificate_to_dict(serialize.certificate_from_dict(obj))
            elif "fusion" in obj or "fusion_orbits" in obj:
                back = serialize.ring_to_dict(*serialize.ring_from_dict(obj))
            else:
                back = serialize.algebra_to_dict(serialize.algebra_from_dict(obj))
            assert serialize.dumps(back) == text

    @pytest.mark.parametrize("argv", [
        ["gen", "su2", "--level", "3"],
        ["gen", "cyclic", "--order", "4", "--q", "1"],
        ["gen", "named", "--name", "fibonacci"],
        ["modular", "{ring}", "--format", "json", "--print", "Y,S,T,c"],
        ["invariants", "{ring}", "--format", "json"],
        ["classify", "{z}", "{ring}", "--format", "json"],
        ["decompose", "{alg}", "--format", "json"],
        ["verify-induction", "{cert}", "--format", "json"],
    ])
    def test_cli_json_output_is_canonical(self, argv, tmp_path, capsys):
        files = {name: str(tmp_path / f"{name}.json") for name in ("ring", "z", "alg", "cert")}
        serialize.write_ring(files["ring"], *su2_level(4))
        md = modular_matrices(*su2_level(4))
        z_obj = serialize.invariant_to_dict(search_invariants(md)[1], list(md.ring.labels))
        for name, obj in (("z", z_obj),
                          ("alg", serialize.algebra_to_dict(
                              BasedAlgebra.from_group_table(GROUP_FIXTURES["s3"][0]))),
                          ("cert", serialize.certificate_to_dict(
                              counted_certificate(4, nm_count=5)))):
            Path(files[name]).write_text(serialize.dumps(obj))
        assert main([arg.format(**files) for arg in argv]) == 0
        out = capsys.readouterr().out
        assert out == serialize.dumps(json.loads(out))


class TestInvariantFiles:
    def test_roundtrip(self):
        md = modular_matrices(*su2_level(4))
        mm = search_invariants(md)[1]
        obj = serialize.invariant_to_dict(mm, labels=list(md.ring.labels))
        Z = serialize.z_matrix_from_dict(obj, 5)
        assert np.array_equal(Z, mm.Z)
        assert obj["counts"] == {"trZ": 4, "trZZt": 8}
        assert [0, 0, 1] in obj["entries"]

    @pytest.mark.parametrize("entry, shown", [
        ([True, 0, 1], "[True, 0, 1]"),
        ([0, 0, 1.0], "[0, 0, 1.0]"),
        ([0, "1", 1], "[0, '1', 1]"),
        ([0, 2, 1], "[0, 2, 1]"),
        ([0, 1, -1], "[0, 1, -1]"),
        ([0, 1, 2**63], "[0, 1, 9223372036854775808]"),
    ])
    def test_bad_entry_named(self, entry, shown):
        # the rule of structure tables: the first bad entry in input order
        obj = {"size": 2, "entries": [[0, 0, 1], entry, [1, 1, 1.5]]}
        with pytest.raises(SchemaError) as exc:
            serialize.z_matrix_from_dict(obj, 2, where="inv")
        assert str(exc.value) == (f"inv: invariant entry {shown} needs integer indices in "
                                  "range(2) and an integer value in [0, 2**63)")

    @pytest.mark.parametrize("entry, shown", [
        ([0, 1], "[0, 1]"), ([0, 1, 1, 1], "[0, 1, 1, 1]"), (7, "7")])
    def test_wrong_length_named(self, entry, shown):
        obj = {"size": 2, "entries": [[0, 0, 1], entry, [1, 1]]}
        with pytest.raises(SchemaError) as exc:
            serialize.z_matrix_from_dict(obj, 2, where="inv")
        assert str(exc.value) == f"inv: invariant entry {shown} is not (l, m, value)"

    @pytest.mark.parametrize("entries, diagonal", [
        ([[0, 0, 1], [0, 0, 1], [1, 1, 1]], None),  # positive then positive
        ([[0, 0, 1], [1, 1, 1], [0, 0, 0]], None),  # positive then zero
        ([[0, 0, 0], [0, 0, 1], [1, 1, 1]], (1, 1)),  # zero then positive
        ([[1, 1, 1], [0, 0, 0], [0, 0, 0]], (0, 1))])
    def test_duplicate_rule(self, entries, diagonal):
        # the duplicate rule of structure tables: a cell repeats only while
        # no earlier entry gave it a positive value
        obj = {"size": 2, "entries": entries}
        if diagonal is None:
            with pytest.raises(SchemaError, match=r"^inv: duplicate key \(0, 0\)$"):
                serialize.z_matrix_from_dict(obj, 2, where="inv")
        else:
            assert np.array_equal(serialize.z_matrix_from_dict(obj, 2, where="inv"),
                                  np.diag(diagonal))

    @pytest.mark.parametrize("size", [10**12, 2**70])
    def test_size_mismatch_refused_before_allocation(self, size):
        with pytest.raises(SchemaError, match="does not match ring size 5"):
            serialize.z_matrix_from_dict({"size": size, "entries": []}, 5)

    def test_csv_export(self):
        Z = np.array([[1, 0], [0, 1]])
        text = serialize.z_matrix_to_csv(Z, ["0", "1"])
        assert text == ",0,1\n0,1,0\n1,0,1\n"


class TestCertificateFiles:
    def test_roundtrip(self, tmp_path):
        cert = counted_certificate(3, nm_count=4, theta=[1, 0, 2, 0])
        obj = serialize.certificate_to_dict(cert)
        path = tmp_path / "cert.json"
        path.write_text(serialize.dumps(obj))
        back = serialize.certificate_from_dict(serialize.load_json(path))
        assert back.ring == cert.ring
        assert back.mm == cert.mm
        assert np.array_equal(back.aplus, cert.aplus)
        assert (back.theta, back.nm_count) == ((1, 0, 2, 0), 4)

    def test_twists_required(self):
        cert = trivial_certificate(*su2_level(2))
        obj = serialize.certificate_to_dict(cert)
        del obj["nn"]["twists"]
        with pytest.raises(SchemaError, match="twist data is required"):
            serialize.certificate_from_dict(obj)


class TestCLI:
    def test_gen_to_stdout(self, capsys):
        assert main(["gen", "named", "--name", "fibonacci"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["labels"] == ["0", "tau"]
        assert obj["twists"] == ["0", "2/5"]

    def test_gen_check_invariants_flow(self, tmp_path, capsys):
        ring_file = str(tmp_path / "su2_4.json")
        assert main(["gen", "su2", "--level", "4", "-o", ring_file]) == 0
        assert main(["check", ring_file]) == 0
        assert main(["invariants", ring_file]) == 0
        out = capsys.readouterr().out
        assert "2 modular invariant(s)" in out

    def test_check_corrupted_ring_exits_1(self, tmp_path, capsys):
        obj = full_form(*su2_level(2))
        obj["fusion"] = [e for e in obj["fusion"] if e[:3] != [1, 1, 2]]
        path = tmp_path / "broken.json"
        path.write_text(serialize.dumps(obj))
        assert main(["check", str(path)]) == 1
        assert "VIOLATED" in capsys.readouterr().out

    def test_check_corrupted_orbit_ring_exits_1(self, tmp_path, capsys):
        # dropping the orbit row [1, 1, 2] drops N[1,1]^2, N[1,2]^1 and
        # N[2,1]^1; the file still parses, and the axioms fail
        obj = serialize.ring_to_dict(*su2_level(2))
        obj["fusion_orbits"] = [e for e in obj["fusion_orbits"] if e[:3] != [1, 1, 2]]
        path = tmp_path / "broken.json"
        path.write_text(serialize.dumps(obj))
        assert main(["check", str(path)]) == 1
        assert "VIOLATED" in capsys.readouterr().out

    def test_unknown_subcommand_exits_2(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_missing_file_exits_2(self, capsys):
        assert main(["check", "/nonexistent/nowhere.json"]) == 2

    def test_gen_without_level_exits_2(self, capsys):
        assert main(["gen", "su2"]) == 2

    def test_modular_print(self, tmp_path, capsys):
        ring_file = str(tmp_path / "m.json")
        main(["gen", "named", "--name", "ising", "-o", ring_file])
        assert main(["modular", ring_file, "--print", "S,c"]) == 0
        out = capsys.readouterr().out
        assert "central charge c = 1/2" in out
        assert "S:" in out

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_modular_unknown_print_item_exits_2(self, fmt, tmp_path, capsys):
        ring_file = str(tmp_path / "m.json")
        main(["gen", "named", "--name", "ising", "-o", ring_file])
        capsys.readouterr()
        assert main(["modular", ring_file, "--print", "Q", "--format", fmt]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_modular_checks_print_items_before_the_modular_data(self, tmp_path, capsys):
        # Z_2 with q = 2 has z = 0, so building its modular data fails with
        # exit 1; a bad --print item is a usage error and is reported first
        ring_file = str(tmp_path / "fermion.json")
        main(["gen", "cyclic", "--order", "2", "--q", "2", "-o", ring_file])
        capsys.readouterr()
        assert main(["modular", ring_file, "--print", "Q"]) == 2
        assert capsys.readouterr() == ("", "error: unknown --print item 'Q'\n")

    def test_unexpected_exception_exits_3(self, tmp_path, capsys, monkeypatch):
        import fusionkit.cli

        def boom(*args, **kwargs):
            raise RuntimeError("boom\nsecond line")

        ring_file = str(tmp_path / "r.json")
        main(["gen", "su2", "--level", "4", "-o", ring_file])
        capsys.readouterr()
        monkeypatch.setattr(fusionkit.cli, "search_invariants", boom)
        assert main(["invariants", ring_file]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and "boom" in err and err.count("\n") == 1

    def test_invariants_json_and_files(self, tmp_path, capsys):
        ring_file = str(tmp_path / "r.json")
        outdir = tmp_path / "invs"
        main(["gen", "su2", "--level", "4", "-o", ring_file])
        assert main(["invariants", ring_file, "--out", str(outdir),
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 2
        files = sorted(outdir.glob("invariant_*.json"))
        assert len(files) == 2
        assert json.loads(files[0].read_text())["flags"]["is_identity"]

    def test_invariants_z32_classifies(self, tmp_path, capsys):
        # U(1) at level 16: one invariant per divisor of 16, all classified
        ring_file = str(tmp_path / "z32.json")
        main(["gen", "cyclic", "--order", "32", "--q", "1", "-o", ring_file])
        capsys.readouterr()
        assert main(["invariants", ring_file, "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["count"] == 5

    def test_invariants_degenerate_exits_1(self, tmp_path, capsys):
        ring_file = str(tmp_path / "deg.json")
        main(["gen", "cyclic", "--order", "2", "-o", ring_file])
        assert main(["invariants", ring_file]) == 1

    def test_classify_flow(self, tmp_path, capsys):
        ring_file = str(tmp_path / "r.json")
        outdir = tmp_path / "invs"
        main(["gen", "su2", "--level", "4", "-o", ring_file])
        main(["invariants", ring_file, "--out", str(outdir)])
        capsys.readouterr()
        zfile = str(outdir / "invariant_001.json")
        assert main(["classify", zfile, ring_file]) == 0
        out = capsys.readouterr().out
        assert "type_one: yes" in out
        assert "trZ=4 trZZt=8" in out

    def test_classify_csv(self, tmp_path, capsys):
        ring_file = str(tmp_path / "r.json")
        outdir = tmp_path / "invs"
        main(["gen", "su2", "--level", "4", "-o", ring_file])
        main(["invariants", ring_file, "--out", str(outdir)])
        capsys.readouterr()
        assert main(["classify", str(outdir / "invariant_000.json"), ring_file,
                     "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == ",0,1,2,3,4"

    def test_classify_counts_are_exact(self, tmp_path, capsys):
        # tr Z Z^t = 2^124 + 2 for diag(1, 2^62, 1); an int64 sum prints 2
        ring_file = str(tmp_path / "r.json")
        main(["gen", "su2", "--level", "2", "-o", ring_file])
        zfile = tmp_path / "z.json"
        zfile.write_text(json.dumps({"size": 3, "entries": [[0, 0, 1], [1, 1, 2**62], [2, 2, 1]]}))
        capsys.readouterr()
        main(["classify", str(zfile), ring_file])
        assert f"counts: trZ={2**62 + 2} trZZt={2**124 + 2}\n" in capsys.readouterr().out

    def test_classify_rejects_unit_entry_not_one(self, tmp_path, capsys):
        # 2 I commutes with S and T on the semion but is no modular invariant
        ring_file = str(tmp_path / "semion.json")
        main(["gen", "cyclic", "--order", "2", "--q", "1", "-o", ring_file])
        zfile = tmp_path / "z.json"
        zfile.write_text(json.dumps({"size": 2, "entries": [[0, 0, 2], [1, 1, 2]]}))
        capsys.readouterr()
        assert main(["classify", str(zfile), ring_file]) == 1
        out, err = capsys.readouterr()
        assert out == ("is_identity: False\nis_permutation: False\nis_symmetric: True\n"
                       "type_one: yes\ncounts: trZ=4 trZZt=8\n"
                       "residuals: |SZ-ZS|=0.000e+00 |TZ-ZT|=0.000e+00\n")
        assert err == "check failed: Z[0,0] = 2, expected 1\n"

    def test_classify_names_failed_commutation(self, tmp_path, capsys):
        # [[1, 1], [0, 1]] on the semion has Z[0,0] = 1 but commutes with neither S nor T
        ring_file = str(tmp_path / "semion.json")
        main(["gen", "cyclic", "--order", "2", "--q", "1", "-o", ring_file])
        zfile = tmp_path / "z.json"
        zfile.write_text(json.dumps({"size": 2, "entries": [[0, 0, 1], [0, 1, 1]]}))
        capsys.readouterr()
        assert main(["classify", str(zfile), ring_file]) == 1
        out, err = capsys.readouterr()
        assert out.endswith("residuals: |SZ-ZS|=7.071e-01 |TZ-ZT|=1.414e+00\n")
        assert err == ("check failed: |SZ-ZS| = 7.071e-01 > 2.0e-09, "
                       "Z[0,1] = 1 off the twist mask\n")

    def test_classify_decides_t_by_the_exact_mask(self, tmp_path, capsys):
        # twists 0 and 1e-10 differ, so all-ones is off the mask although
        # |TZ-ZT| = 6.3e-10 is under the 2e-09 limit; full_report agrees
        obj = serialize.ring_to_dict(*cyclic_model(2, 0))
        obj["twists"] = ["0", "1/10000000000"]
        ring_file = tmp_path / "z2.json"
        ring_file.write_text(serialize.dumps(obj))
        zfile = tmp_path / "z.json"
        zfile.write_text(json.dumps({"size": 2, "entries": [[0, 0, 1], [0, 1, 1],
                                                            [1, 0, 1], [1, 1, 1]]}))
        capsys.readouterr()
        assert main(["classify", str(zfile), str(ring_file)]) == 1
        out, err = capsys.readouterr()
        assert out.endswith("residuals: |SZ-ZS|=6.283e-10 |TZ-ZT|=6.283e-10\n")
        assert err == "check failed: Z[0,1] = 1 and 1 more off the twist mask\n"

    def test_classify_names_the_unit_cell_by_index(self, tmp_path, capsys):
        ring_file = tmp_path / "semion_unit1.json"
        serialize.write_ring(ring_file, *permute_model(cyclic_model(2, 1), [1, 0]))
        zfile = tmp_path / "z.json"
        zfile.write_text(json.dumps({"size": 2, "entries": [[0, 0, 2], [1, 1, 2]]}))
        capsys.readouterr()
        assert main(["classify", str(zfile), str(ring_file)]) == 1
        assert capsys.readouterr().err == "check failed: Z[1,1] = 2, expected 1\n"

    def test_classify_checks_invariance_once(self, tmp_path, capsys, monkeypatch):
        # the flags and the verdict come from one check_invariance call
        import fusionkit.invariants
        calls = []
        original = fusionkit.invariants.check_invariance

        def counted(md, Z):
            calls.append(Z)
            return original(md, Z)

        monkeypatch.setattr(fusionkit.invariants, "check_invariance", counted)
        ring_file = tmp_path / "semion.json"
        serialize.write_ring(ring_file, *cyclic_model(2, 1))
        zfile = tmp_path / "z.json"
        zfile.write_text(json.dumps({"size": 2, "entries": [[0, 0, 2], [1, 1, 2]]}))
        assert main(["classify", str(zfile), str(ring_file)]) == 1
        assert capsys.readouterr().err == "check failed: Z[0,0] = 2, expected 1\n"
        assert len(calls) == 1

    def test_decompose_flow(self, tmp_path, capsys):
        from helpers import symmetric_table
        from fusionkit import BasedAlgebra
        alg = BasedAlgebra.from_group_table(symmetric_table(3))
        path = tmp_path / "s3.json"
        path.write_text(serialize.dumps(serialize.algebra_to_dict(alg)))
        assert main(["decompose", str(path)]) == 0
        assert "blocks: 2 1 1" in capsys.readouterr().out

    def test_decompose_negative_seed_exits_2(self, tmp_path, capsys):
        # the seed reaches numpy's generator, which refuses a negative one
        from helpers import symmetric_table
        path = tmp_path / "s3.json"
        alg = BasedAlgebra.from_group_table(symmetric_table(3))
        path.write_text(serialize.dumps(serialize.algebra_to_dict(alg)))
        capsys.readouterr()
        assert main(["decompose", str(path), "--seed", "-1"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage: fusionkit decompose ")
        assert err.endswith("error: argument --seed: invalid seed value: '-1'\n")
        assert main(["decompose", str(path), "--seed", "0"]) == 0

    def test_decompose_splits_su2_240_into_single_blocks(self, tmp_path, capsys):
        # 241 labels: the central spectrum once failed to split here
        path = tmp_path / "su2_240.json"
        alg = trivial_certificate(*su2_level(240)).mm
        path.write_text(serialize.dumps(serialize.algebra_to_dict(alg)))
        assert main(["decompose", str(path)]) == 0
        assert capsys.readouterr().out == f"blocks: {' '.join(['1'] * 241)} (dimension 241)\n"

    def test_decompose_refuses_a_radical_everything_annihilates(self, tmp_path, capsys):
        # a a = a and every product with b is 0: the axioms hold, but b spans
        # a radical, so the trace form G[x,y] = Tr L(x y) has rank 1
        path = tmp_path / "radical.json"
        path.write_text(json.dumps({"labels": ["a", "b"], "unit": None, "dual": [0, 1],
                                    "structure": [[0, 0, 0, 1]]}))
        assert main(["decompose", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: trace form has rank 1 of 2 ")
        assert err.count("\n") == 1

    def test_decompose_refuses_a_non_associative_algebra(self, tmp_path, capsys, monkeypatch):
        # the center from a generating set assumes associativity, so the
        # axioms fail first and decompose_semisimple is never called
        import fusionkit.cli as cli
        monkeypatch.setattr(cli, "decompose_semisimple", lambda *args, **kwargs: pytest.fail(
            "decompose_semisimple called on an invalid algebra"))
        # Z3 with 1 * 1 redirected to the unit: (1 1) 2 = 2 but 1 (1 2) = 1;
        # the table is commutative, so the identity dual is an involution
        alg = BasedAlgebra(["0", "1", "2"], 0, (0, 1, 2),
                           {(0, 0, 0): 1, (0, 1, 1): 1, (0, 2, 2): 1, (1, 0, 1): 1,
                            (2, 0, 2): 1, (1, 1, 0): 1, (1, 2, 0): 1, (2, 1, 0): 1,
                            (2, 2, 1): 1})
        path = tmp_path / "bad.json"
        path.write_text(serialize.dumps(serialize.algebra_to_dict(alg)))
        assert main(["decompose", str(path)]) == 1
        head, *lines = capsys.readouterr().out.splitlines()
        assert head == "algebra axioms violated:"
        assert lines and all(line.startswith("associativity at ") for line in lines)

    def test_verify_induction_flow(self, tmp_path, capsys):
        cert = trivial_certificate(*su2_level(4))
        path = tmp_path / "cert.json"
        path.write_text(serialize.dumps(serialize.certificate_to_dict(cert)))
        assert main(["verify-induction", str(path)]) == 0
        assert "pass generating" in capsys.readouterr().out

    @pytest.mark.parametrize("env, tol", [("1e-25", "1e-6"), ("bogus", "1e-9"), ("1e-25", None)])
    def test_verify_induction_ignores_tol_env(self, env, tol, tmp_path, capsys, monkeypatch):
        # every check runs at --tol or at 1e-9, whatever FUSIONKIT_TOL says
        monkeypatch.setenv("FUSIONKIT_TOL", env)
        path = tmp_path / "cert.json"
        path.write_text(serialize.dumps(serialize.certificate_to_dict(
            trivial_certificate(*su2_level(10)))))
        flags = [] if tol is None else ["--tol", tol]
        assert main(["verify-induction", str(path), *flags, "--format", "json"]) == 0
        out, err = capsys.readouterr()
        report = json.loads(out)
        assert report["passed"] and all(c["passed"] for c in report["checks"])
        assert err == ""

    def test_verify_induction_failure_exits_1(self, tmp_path, capsys):
        cert = trivial_certificate(*cyclic_model(2, 0))
        path = tmp_path / "cert.json"
        path.write_text(serialize.dumps(serialize.certificate_to_dict(cert)))
        assert main(["verify-induction", str(path)]) == 1
        assert "FAIL nondegeneracy" in capsys.readouterr().out

    def test_verify_induction_base_not_a_fusion_ring_exits_1(self, tmp_path, capsys):
        ring, twists = unconjugated_z3()
        ring_path, cert_path = tmp_path / "z3.json", tmp_path / "cert.json"
        ring_path.write_text(serialize.dumps(serialize.ring_to_dict(ring, twists)))
        cert_path.write_text(serialize.dumps(serialize.certificate_to_dict(
            trivial_certificate(ring, twists))))
        assert main(["check", str(ring_path)]) == 1
        capsys.readouterr()
        assert main(["verify-induction", str(cert_path)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "FAIL structure: base ring invalid: ('conjugate', 'frobenius')"
        assert all(line.startswith("pass ") for line in lines[1:])

    def test_verify_induction_inexact_sums_exit_1(self, tmp_path, capsys):
        obj = serialize.certificate_to_dict(trivial_certificate(*cyclic_model(2, 1)))
        obj["aplus"] = [[1, 0], [2**63 - 1, 0]]
        path = tmp_path / "cert.json"
        path.write_text(serialize.dumps(obj))
        assert main(["verify-induction", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: homomorphism[+] sums up to ")
        assert err.endswith(" are not exact in float64\n") and err.count("\n") == 1

    def test_check_twist_invariant_violation_exits_1(self, tmp_path, capsys):
        # cyclic(3,1) parses fine but its twists are not conjugation-symmetric
        ring_file = str(tmp_path / "c31.json")
        main(["gen", "cyclic", "--order", "3", "--q", "1", "-o", ring_file])
        assert main(["check", ring_file]) == 1
        assert "twists: VIOLATED" in capsys.readouterr().out

    def test_fermion_check_mentions_vanishing_z(self, tmp_path, capsys):
        ring_file = str(tmp_path / "f.json")
        main(["gen", "cyclic", "--order", "2", "--q", "2", "-o", ring_file])
        assert main(["check", ring_file]) == 0
        assert "z = 0" in capsys.readouterr().out

    def test_degenerate_check_names_the_witnesses(self, tmp_path, capsys):
        # Rep(Z_2): z = 2 but the braiding is degenerate, so SL(2,Z) is not checked
        ring_file = str(tmp_path / "rep_z2.json")
        main(["gen", "cyclic", "--order", "2", "--q", "0", "-o", ring_file])
        assert main(["check", ring_file]) == 0
        out, err = capsys.readouterr()
        assert out.splitlines()[-1] == "degenerate braiding; witness labels (1,)"
        assert "full modular algebra" not in out and err == ""

    @pytest.mark.parametrize("argv", [
        ["invariants", "{ring}", "--out", "{file}"],
        ["invariants", "{ring}", "--out", "{taken}"],
        ["gen", "su2", "--level", "4", "-o", "{missing}"],
        ["gen", "su2", "--level", "4", "-o", "{dir}"],
    ])
    def test_failed_write_exits_2(self, argv, tmp_path, capsys):
        # a file where a directory goes, an output file that is a directory
        # (invariant_000.json under --out, or the -o target), a missing parent
        ring_file = tmp_path / "r.json"
        main(["gen", "su2", "--level", "4", "-o", str(ring_file)])
        (tmp_path / "afile").write_text("")
        (tmp_path / "taken" / "invariant_000.json").mkdir(parents=True)
        paths = {"ring": ring_file, "file": tmp_path / "afile", "taken": tmp_path / "taken",
                 "missing": tmp_path / "missing" / "x.json", "dir": tmp_path}
        capsys.readouterr()
        assert main([a.format(**paths) for a in argv]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: cannot write ") and err.count("\n") == 1
        assert not (tmp_path / "missing").exists()

    @pytest.mark.parametrize("argv", [
        ["check", "{ring}", "--format", "json"],
        ["check", "{ring}", "--seed", "5"],
        ["gen", "su2", "--level", "1", "--format", "csv"],
        ["gen", "su2", "--level", "1", "--seed", "3"],
        ["gen", "su2", "--level", "1", "--tol", "5"],
        ["modular", "{ring}", "--format", "csv"],
        ["modular", "{ring}", "--seed", "1"],
        ["invariants", "{ring}", "--seed", "1"],
        ["classify", "{ring}", "{ring}", "--seed", "1"],
        ["decompose", "{ring}", "--format", "csv"],
        ["decompose", "{ring}", "--tol", "1e-6"],
        ["verify-induction", "{ring}", "--format", "csv"],
        ["verify-induction", "{ring}", "--seed", "1"],
        ["gen", "su2", "--level", "1", "--name", "ising"],
        ["gen", "su2", "--level", "1", "--q", "1"],
        ["gen", "named", "--name", "ising", "--level", "2"],
        ["gen", "cyclic", "--order", "4", "--level", "2"],
        ["gen", "su3", "--level", "1"],
    ])
    def test_flag_a_subcommand_ignores_exits_2(self, argv, tmp_path, capsys):
        # every flag sits only on the subcommands that read it
        ring_file = str(tmp_path / "r.json")
        main(["gen", "su2", "--level", "1", "-o", ring_file])
        capsys.readouterr()
        assert main([arg.format(ring=ring_file) for arg in argv]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "unrecognized arguments" in err or "invalid choice" in err
        # the usage line names the subcommand, and the gen family that was chosen
        command = argv[:2] if argv[0] == "gen" and argv[1] != "su3" else argv[:1]
        assert err.startswith(f"usage: fusionkit {' '.join(command)} [-h]")

    def test_parser_built_once_gives_fresh_results(self, tmp_path, capsys):
        ring, cert = str(tmp_path / "ring.json"), str(tmp_path / "cert.json")
        Path(cert).write_text(serialize.dumps(serialize.certificate_to_dict(
            trivial_certificate(*su2_level(10)))))
        calls = [  # --tol 1e-25 fails non-degeneracy on SU(2)_10
            ["gen", "su2", "--level", "4", "-o", ring],
            ["check", ring],
            ["verify-induction", cert, "--format", "json"],
            ["verify-induction", cert, "--format", "json", "--tol", "1e-25"],
            ["verify-induction", cert, "--tol", "1e-6"],
            ["modular", ring, "--print", "S", "--tol", "bogus"],
            ["modular", ring, "--print", "S", "--format", "json"],
            ["invariants", ring, "--format", "csv", "--tol", "1e-6"],
            ["gen", "su2"],
            ["decompose", ring, "--tol", "1e-6"],
        ]

        def run(argv, fresh):
            if fresh:
                _parser.cache_clear()
            code = main(argv)
            return code, *capsys.readouterr()

        fresh = [run(argv, fresh=True) for argv in calls]
        parser = _parser()
        reused = [run(argv, fresh=False) for argv in calls]
        assert _parser() is parser
        assert reused == fresh
        assert [code for code, _, _ in fresh] == [0, 0, 0, 1, 0, 2, 0, 0, 2, 2]

    @pytest.mark.parametrize("command", ["check", "modular", "invariants", "classify",
                                         "verify-induction"])
    @pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
    def test_tol_must_be_finite_and_positive(self, command, tol, tmp_path, capsys):
        ring, zfile, cert = (str(tmp_path / name) for name in ("r.json", "z.json", "c.json"))
        main(["gen", "su2", "--level", "4", "-o", ring])
        Path(zfile).write_text(json.dumps({"size": 5, "entries": [[i, i, 1] for i in range(5)]}))
        Path(cert).write_text(serialize.dumps(serialize.certificate_to_dict(
            trivial_certificate(*su2_level(4)))))
        files = {"classify": [zfile, ring], "verify-induction": [cert]}.get(command, [ring])
        assert main([command, *files, "--tol", tol]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"usage: fusionkit {command} ")
        assert err.endswith(f"error: argument --tol: invalid tolerance value: '{tol}'\n")

    @pytest.mark.parametrize("command", ["modular", "invariants", "classify"])
    def test_twists_required(self, command, tmp_path, capsys):
        ring, zfile = tmp_path / "bare.json", tmp_path / "z.json"
        ring.write_text(serialize.dumps(serialize.ring_to_dict(su2_level(2)[0])))
        zfile.write_text(json.dumps({"size": 3, "entries": [[i, i, 1] for i in range(3)]}))
        files = [zfile, ring] if command == "classify" else [ring]
        assert main([command, *map(str, files)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: {ring}: twist data is required") and err.count("\n") == 1

    def test_zero_multiplicity_in_a_full_form_file_exits_2(self, tmp_path, capsys):
        obj = full_form(*cyclic_model(2, 1))
        obj["fusion"].append([1, 1, 1, 0])
        path = tmp_path / "zero.json"
        path.write_text(serialize.dumps(obj))
        assert main(["check", str(path)]) == 2
        assert capsys.readouterr() == ("", f"error: {path}.fusion: multiplicities must be "
                                           "positive\n")

    def test_text_output_golden(self, tmp_path, capsys):
        ring_file = str(tmp_path / "s.json")
        main(["gen", "su2", "--level", "1", "-o", ring_file])
        capsys.readouterr()
        assert main(["invariants", ring_file]) == 0
        out = capsys.readouterr().out
        assert out == ("1 modular invariant(s)\n"
                       "[0] trZ=2 trZZt=2 |SZ-ZS|=0.00e+00 "
                       "identity permutation symmetric type_one=yes\n"
                       "    1 0\n"
                       "    0 1\n")


def _valid_file(kind):
    # full-form rings and algebras, so a malformed table is the only fault
    if kind == "ring":
        return full_form(*cyclic_model(2, 1))
    if kind == "algebra":
        return full_form(BasedAlgebra.from_group_table(cyclic_table(2)))
    if kind == "invariant":
        return {"size": 2, "entries": [[0, 0, 1], [1, 1, 1]]}
    return serialize.certificate_to_dict(trivial_certificate(*su2_level(2)))


# (file kind, field, malformed value): each must exit 2 with one error line
MALFORMED = [
    ("ring", "dual", ["a", "b"]),
    ("ring", "dual", "01"),
    ("ring", "dual", [0.7, 1.2]),
    ("ring", "unit", True),
    ("ring", "labels", 5),
    ("ring", "fusion", [[0, 0, 0, 2**64], [0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1]]),
    ("algebra", "dual", ["a", "b"]),
    ("algebra", "dual", "01"),
    ("algebra", "dual", [0.7, 1.2]),
    ("algebra", "unit", False),
    ("algebra", "unit", True),
    ("algebra", "structure", 5),
    ("algebra", "structure", [[0, 0, 0, 1.9]]),
    ("algebra", "labels", 5),
    ("algebra", "labels", [1, 2]),
    ("algebra", "dims", ["a", "b"]),
    ("algebra", "dims", 5),
    ("invariant", "entries", 5),
    ("invariant", "size", True),
    ("invariant", "size", 10**12),
    ("invariant", "entries", [[0, 0, 2**70]]),
    ("invariant", "entries", [[0, 0, 1], [0, 0, 1], [1, 1, 1]]),
    ("invariant", "entries", [[0, 0, 1], [1, 1, 1], [0, 0, 0]]),
    ("certificate", "aplus", [[1, 0, 0], [0, 1], [0, 0, 1]]),
    ("certificate", "theta", ["a", "b", "c"]),
    ("certificate", "nm_count", "x"),
    ("certificate", "nm_count", 1.5),
    ("certificate", "nm_count", -1),
]


@pytest.mark.parametrize("kind, field, value", MALFORMED,
                         ids=[f"{k}.{f}={v!r}"[:48] for k, f, v in MALFORMED])
def test_malformed_input_exits_2(kind, field, value, tmp_path, capsys):
    obj = _valid_file(kind)
    obj[field] = value
    path = tmp_path / f"bad_{kind}.json"
    path.write_text(json.dumps(obj))
    ring_file = tmp_path / "ring.json"
    ring_file.write_text(serialize.dumps(_valid_file("ring")))
    argv = {"ring": ["check", str(path)],
            "algebra": ["decompose", str(path)],
            "invariant": ["classify", str(path), str(ring_file)],
            "certificate": ["verify-induction", str(path)]}[kind]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


# (file kind, fault, error line after "error: "): schema faults of three-label
# files, each named with the file path as {file}
SCHEMA_FAULTS = [
    pytest.param("ring", lambda f: {**f, "twists": [0, *f["twists"][1:]]},
                 "{file}.twists[0]: twist must be a rational string, got 0", id="twist-int"),
    pytest.param("ring", lambda f: {**f, "twists": [f["twists"][0], "x", f["twists"][2]]},
                 "{file}.twists[1]: 'x' is not a rational p/q", id="twist-x"),
    pytest.param("ring", lambda f: {**f, "twists": f["twists"][:2]},
                 "{file}.twists: expected one rational string per label", id="two-twists"),
    pytest.param("ring", lambda f: [f], "{file}: expected a JSON object", id="ring-list"),
    pytest.param("invariant", lambda f: {"size": f["size"]},
                 "{file}: expected an object with 'size' and 'entries'", id="no-entries"),
    pytest.param("invariant", lambda f: [f],
                 "{file}: expected an object with 'size' and 'entries'", id="invariant-list"),
    pytest.param("invariant", lambda f: {**f, "size": 3.0},
                 "{file}.size: expected a positive integer", id="size-float"),
    pytest.param("certificate", lambda f: [f], "certificate: expected a JSON object",
                 id="certificate-list"),
    pytest.param("certificate", lambda f: {k: v for k, v in f.items() if k != "aminus"},
                 "certificate: missing field 'aminus'", id="no-aminus"),
]


@pytest.mark.parametrize("kind, fault, line", SCHEMA_FAULTS)
def test_schema_fault_names_itself(kind, fault, line, tmp_path, capsys):
    model = su2_level(2)
    valid = {"ring": full_form(*model),
             "invariant": {"size": 3, "entries": [[i, i, 1] for i in range(3)]},
             "certificate": serialize.certificate_to_dict(trivial_certificate(*model))}
    path, ring_file = tmp_path / f"bad_{kind}.json", tmp_path / "ring.json"
    path.write_text(json.dumps(fault(valid[kind])))
    ring_file.write_text(json.dumps(valid["ring"]))
    argv = {"ring": ["check", str(path)],
            "invariant": ["classify", str(path), str(ring_file)],
            "certificate": ["verify-induction", str(path)]}[kind]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {line.format(file=path)}\n")


class TestDeterminism:
    def test_jobs_byte_identical(self, tmp_path, capsys):
        ring_file = str(tmp_path / "su2_6.json")
        main(["gen", "su2", "--level", "6", "-o", ring_file])
        capsys.readouterr()
        outputs = []
        for jobs in ("1", "8", "1"):
            assert main(["invariants", ring_file, "--jobs", jobs,
                         "--format", "json"]) == 0
            outputs.append(capsys.readouterr().out.encode())
        assert outputs[0] == outputs[1] == outputs[2]
