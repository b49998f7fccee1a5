"""Command-line interface.

Subcommands:

    gen su2 --level K [-o FILE]             write a built-in model as JSON
    gen cyclic --order N [--q Q] [-o FILE]
    gen named --name ID [-o FILE]
    check FILE [--tol EPS]                  fusion axioms + modular relations
    modular FILE [--print Y,S,T,c] [--tol EPS] [--format text|json]
                                            modular data summary / matrices
    invariants FILE [--out DIR] [--jobs J] [--tol EPS] [--format text|json|csv]
                                            enumerate modular invariants
    classify ZFILE RINGFILE [--tol EPS] [--format text|json|csv]
                                            flags and counts for one invariant
    decompose ALGFILE [--seed N] [--format text|json]
                                            simple block profile
    verify-induction CERTFILE [--tol EPS] [--format text|json]
                                            full certificate report

Each subcommand takes only the flags it reads; each gen family is a
subcommand with its own required flag.  --tol, finite and > 0, defaults to
1e-9.  Exit codes: 0 all checks pass, 1 checks failed, 2 usage or I/O
error, 3 internal error.
Every command calls only public library functions.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import sys
from pathlib import Path

import numpy as np

from . import serialize
from .algebras import decompose_semisimple, validate_based_algebra
from .catalog import cyclic_model, named_model, su2_level
from .errors import (FusionKitError, NondegeneracyRequired, SchemaError,
                     StructureError, TwistError, VanishingZError)
from .induction import full_report
from .invariants import classify_invariant, search_invariants
from .modular import (check_partial_verlinde, modular_matrices, sl2z_relations,
                      validate_twists)
from .numerics import tolerance
from .rings import validate_fusion_ring


def _fmt_complex(z: complex) -> str:
    return f"{z.real:.12g}{z.imag:+.12g}j"


def _complex_matrix(M: np.ndarray) -> list[list[list[float]]]:
    return np.stack([M.real, M.imag], axis=-1).tolist()


def _emit(text: str) -> None:
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


@contextlib.contextmanager
def _writing(path):
    """Turn an OSError while writing ``path`` into SchemaError("cannot
    write ..."), as ``serialize.load_json`` does for a failed read."""
    try:
        yield
    except OSError as exc:
        raise SchemaError(f"cannot write {path}: {exc.strerror or exc}") from None


def cmd_gen(args) -> int:
    ring, twists = args.model(args)
    text = serialize.dumps(serialize.ring_to_dict(ring, twists))
    if args.output is None or args.output == "-":
        sys.stdout.write(text)
    else:
        with _writing(args.output):
            Path(args.output).write_text(text, encoding="utf-8")
    return 0


def cmd_check(args) -> int:
    ring, twists = serialize.parse_ring(args.file)
    report = validate_fusion_ring(ring)
    failed = not report.ok
    lines = [f"labels: {ring.size}", f"axioms: {'ok' if report.ok else 'VIOLATED'}"]
    lines.extend(f"  {v}" for v in report.violations)
    if twists is not None:
        try:
            validate_twists(ring, twists)
            lines.append("twists: ok")
        except TwistError as exc:
            lines.append(f"twists: VIOLATED ({exc})")
            failed = True
        if not failed:
            try:
                md = modular_matrices(ring, twists, tol=args.tol)
            except VanishingZError:
                lines.append("modular: z = 0, relations skipped")
            else:
                pv = check_partial_verlinde(md)
                lines.append(f"partial modular algebra: {pv}")
                failed = failed or not pv.passed
                if md.degeneracy:
                    sl = sl2z_relations(md)
                    lines.append(f"non-degenerate; full modular algebra: {sl}")
                    failed = failed or not sl.passed
                else:
                    lines.append(f"degenerate braiding; witness labels {md.degeneracy.witnesses}")
    _emit("\n".join(lines))
    return 1 if failed else 0


def _twisted_ring(path):
    """The (ring, twists) of a ring file that must carry twists (``SchemaError``)."""
    ring, twists = serialize.parse_ring(path)
    if twists is None:
        raise SchemaError(f"{path}: twist data is required")
    return ring, twists


def cmd_modular(args) -> int:
    wanted = [p.strip() for p in (args.print or "").split(",") if p.strip()]
    for name in wanted:
        if name not in ("Y", "S", "T", "c"):
            raise SchemaError(f"unknown --print item {name!r}")
    blocks = [name for name in wanted if name != "c"]  # c is always printed
    ring, twists = _twisted_ring(args.file)
    md = modular_matrices(ring, twists, tol=args.tol)
    nd = md.degeneracy
    if args.format == "json":
        obj = {
            "labels": list(ring.labels),
            "z": [md.z.real, md.z.imag],
            "central_charge": str(md.c),
            "global_index": md.w,
            "nondegenerate": nd.nondegenerate,
            "dimensions": [float(x) for x in md.d],
        }
        obj.update((name, _complex_matrix(getattr(md, name))) for name in blocks)
        _emit(serialize.dumps(obj))
        return 0
    lines = [
        f"labels: {ring.size}",
        f"z = {_fmt_complex(md.z)}  |z|^2 = {abs(md.z)**2:.12g}",
        f"central charge c = {md.c} (mod 8)",
        f"global index w = {md.w:.12g}",
        f"braiding: {'non-degenerate' if nd.nondegenerate else f'degenerate, witnesses {nd.witnesses}'}",
    ]
    for name in blocks:
        lines.append(f"{name}:")
        lines.extend("  " + "  ".join(_fmt_complex(z) for z in row) for row in getattr(md, name))
    _emit("\n".join(lines))
    return 0


def cmd_invariants(args) -> int:
    ring, twists = _twisted_ring(args.file)
    md = modular_matrices(ring, twists, tol=args.tol)
    found = search_invariants(md)
    dicts = [serialize.invariant_to_dict(mm, labels=list(ring.labels)) for mm in found]
    if args.out:
        outdir = Path(args.out)
        with _writing(outdir):
            outdir.mkdir(parents=True, exist_ok=True)
        for i, obj in enumerate(dicts):
            path = outdir / f"invariant_{i:03d}.json"
            with _writing(path):
                path.write_text(serialize.dumps(obj), encoding="utf-8")
    if args.format == "json":
        _emit(serialize.dumps({"count": len(found), "invariants": dicts}))
    elif args.format == "csv":
        blocks = [serialize.z_matrix_to_csv(mm.Z, list(ring.labels)) for mm in found]
        sys.stdout.write("\n".join(blocks))
    else:
        lines = [f"{len(found)} modular invariant(s)"]
        for i, mm in enumerate(found):
            tr_z, tr_zzt = mm.counts
            tags = [t for t, on in (("identity", mm.is_identity),
                                    ("permutation", mm.is_permutation),
                                    ("symmetric", mm.is_symmetric)) if on]
            tags.append(f"type_one={mm.type_one}")
            lines.append(f"[{i}] trZ={tr_z} trZZt={tr_zzt} "
                         f"|SZ-ZS|={mm.residual_s:.2e} {' '.join(tags)}")
            lines.extend("    " + " ".join(str(int(v)) for v in row) for row in mm.Z)
        _emit("\n".join(lines))
    return 0


def cmd_classify(args) -> int:
    raw = serialize.load_json(args.zfile)
    ring, twists = _twisted_ring(args.ringfile)
    Z = serialize.z_matrix_from_dict(raw, ring.size, where=str(args.zfile))
    mm = classify_invariant(modular_matrices(ring, twists, tol=args.tol), Z)
    if args.format == "json":
        _emit(serialize.dumps(serialize.invariant_to_dict(mm, labels=list(ring.labels))))
    elif args.format == "csv":
        sys.stdout.write(serialize.z_matrix_to_csv(mm.Z, list(ring.labels)))
    else:
        tr_z, tr_zzt = mm.counts
        _emit("\n".join([
            f"is_identity: {mm.is_identity}",
            f"is_permutation: {mm.is_permutation}",
            f"is_symmetric: {mm.is_symmetric}",
            f"type_one: {mm.type_one}",
            f"counts: trZ={tr_z} trZZt={tr_zzt}",
            f"residuals: |SZ-ZS|={mm.residual_s:.3e} |TZ-ZT|={mm.residual_t:.3e}",
        ]))
    if mm.failed:
        print(f"check failed: {', '.join(mm.failed)}", file=sys.stderr)
        return 1
    return 0


def cmd_decompose(args) -> int:
    alg = serialize.algebra_from_dict(serialize.load_json(args.file), where=str(args.file))
    report = validate_based_algebra(alg)
    if not report.ok:
        _emit(f"algebra axioms violated:\n{report}")
        return 1
    profile = decompose_semisimple(alg, seed=args.seed)
    if args.format == "json":
        _emit(serialize.dumps(serialize.profile_to_dict(profile)))
    else:
        _emit(f"blocks: {' '.join(str(s) for s in profile.sizes)} "
              f"(dimension {profile.dimension})")
    return 0


def cmd_verify_induction(args) -> int:
    cert = serialize.certificate_from_dict(serialize.load_json(args.file))
    report = full_report(cert, tol=args.tol)
    if args.format == "json":
        obj = {"passed": report.passed,
               "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail}
                          for c in report.checks]}
        _emit(serialize.dumps(obj))
    else:
        _emit(str(report))
    return 0 if report.passed else 1


class _SubcommandParser(argparse.ArgumentParser):
    """A subcommand's parser, which refuses what it does not read under its own usage line."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it as it was."""
    tol = argparse.ArgumentParser(add_help=False)
    tol.add_argument("--tol", type=tolerance, default=None,
                     help="global tolerance, finite and > 0 (default 1e-9)")
    json_format = argparse.ArgumentParser(add_help=False)
    json_format.add_argument("--format", choices=("text", "json"), default="text")
    csv_format = argparse.ArgumentParser(add_help=False)
    csv_format.add_argument("--format", choices=("text", "json", "csv"), default="text")

    p = argparse.ArgumentParser(prog="fusionkit", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True, parser_class=_SubcommandParser)

    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("-o", "--output", help="output file (default stdout)")
    families = sub.add_parser("gen", help="write a built-in model").add_subparsers(
        dest="family", required=True)
    g = families.add_parser("su2", parents=[output], help="SU(2)_k")
    g.add_argument("--level", type=int, required=True, help="su2 level k >= 1")
    g.set_defaults(func=cmd_gen, model=lambda args: su2_level(args.level))
    g = families.add_parser("cyclic", parents=[output], help="Z_n with twist q j^2 / (2n)")
    g.add_argument("--order", type=int, required=True, help="cyclic group order n >= 1")
    g.add_argument("--q", type=int, default=0, help="cyclic quadratic parameter")
    g.set_defaults(func=cmd_gen, model=lambda args: cyclic_model(args.order, args.q))
    g = families.add_parser("named", parents=[output], help="trivial, fibonacci or ising")
    g.add_argument("--name", required=True, help="named model id (trivial|fibonacci|ising)")
    g.set_defaults(func=cmd_gen, model=lambda args: named_model(args.name))

    c = sub.add_parser("check", parents=[tol], help="fusion axioms + modular relations")
    c.add_argument("file")
    c.set_defaults(func=cmd_check)

    m = sub.add_parser("modular", parents=[tol, json_format],
                       help="modular data for a ring file")
    m.add_argument("file")
    m.add_argument("--print", dest="print", default="",
                   help="comma list of blocks to print: Y,S,T,c")
    m.set_defaults(func=cmd_modular)

    i = sub.add_parser("invariants", parents=[tol, csv_format],
                       help="enumerate modular invariant mass matrices")
    i.add_argument("file")
    i.add_argument("--out", help="directory for per-invariant JSON files")
    i.add_argument("--jobs", type=int, default=1,
                   help="accepted and ignored: the enumeration is serial")
    i.set_defaults(func=cmd_invariants)

    cl = sub.add_parser("classify", parents=[tol, csv_format], help="classify one invariant")
    cl.add_argument("zfile")
    cl.add_argument("ringfile")
    cl.set_defaults(func=cmd_classify)

    def seed(value: str) -> int:  # argparse reports a ValueError as "invalid seed value"
        if int(value) < 0:
            raise ValueError(f"seed {value} < 0")
        return int(value)

    d = sub.add_parser("decompose", parents=[json_format],
                       help="simple block profile of a based algebra")
    d.add_argument("file")
    d.add_argument("--seed", type=seed, default=0, help="randomized-algorithm seed >= 0")
    d.set_defaults(func=cmd_decompose)

    v = sub.add_parser("verify-induction", parents=[tol, json_format],
                       help="verify an induction certificate")
    v.add_argument("file")
    v.set_defaults(func=cmd_verify_induction)
    return p


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (SchemaError, StructureError, TwistError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (VanishingZError, NondegeneracyRequired) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    except FusionKitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # a fault in fusionkit, never "checks failed"
        print(f"error: internal error: {exc!r}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
