"""The benchmark's workloads: input files, CLI jobs and the oracle for each.

A workload's ``make`` function writes its input files into a directory and
returns the timed jobs plus one warm-up job.  Every job is one ``fusionkit.cli.main``
call; its argv names only files in that directory.  Importing this module
imports fusionkit and the test helpers, so the benchmark imports it inside
the timed set-up.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import helpers
from fusionkit import serialize
from fusionkit.algebras import BasedAlgebra
from fusionkit.catalog import cyclic_model, su2_level
from fusionkit.induction import conjugation_certificate, trivial_certificate

import oracles


@dataclass(frozen=True)
class Job:
    name: str
    argv: tuple[str, ...]
    check: Callable[[str], str | None]  # stdout -> None, or why it is wrong


MakeJobs = Callable[[Path, random.Random], tuple[list[Job], Job]]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make: MakeJobs


def _ring_file(inputs: Path, name: str, model) -> str:
    path = inputs / f"{name}.json"
    serialize.write_ring(path, *model)
    return str(path)


def _su2_invariants(inputs: Path, k: int) -> Job:
    path = _ring_file(inputs, f"su2_{k}", su2_level(k))
    return Job(f"invariants su2_{k}", ("invariants", path, "--format", "json"),
               partial(oracles.check_su2_invariants, oracles.su2_expected(helpers, k)))


def _cyclic_invariants(inputs: Path, n: int, jobs: int) -> Job:
    path = _ring_file(inputs, f"cyclic_{n}_1", cyclic_model(n, 1))
    return Job(f"invariants cyclic_{n}_1 --jobs {jobs}",
               ("invariants", path, "--format", "json", "--jobs", str(jobs)),
               partial(oracles.check_cyclic_invariants, n))


def su2_sweep(levels: tuple[int, ...]) -> MakeJobs:
    def make(inputs: Path, rng: random.Random):
        return [_su2_invariants(inputs, k) for k in levels], _su2_invariants(inputs, 4)
    return make


def cyclic_sweep(orders: tuple[int, ...], jobs: int) -> MakeJobs:
    def make(inputs: Path, rng: random.Random):
        return ([_cyclic_invariants(inputs, n, jobs) for n in orders],
                _cyclic_invariants(inputs, 8, jobs))
    return make


def _certificate_job(inputs: Path, kind: str, k: int) -> Job:
    factory = {"trivial": trivial_certificate, "conjugation": conjugation_certificate}[kind]
    path = inputs / f"cert_{kind}_{k}.json"
    path.write_text(serialize.dumps(serialize.certificate_to_dict(factory(*su2_level(k)))),
                    encoding="utf-8")
    return Job(f"verify-induction {kind} su2_{k}",
               ("verify-induction", str(path), "--format", "json"),
               oracles.check_certificate_report)


def group_algebras() -> dict[str, tuple[list[list[int]], tuple[int, ...]]]:
    """Group multiplication tables with their character degrees: the test
    fixtures plus two 72-element products."""
    fx = dict(helpers.GROUP_FIXTURES)
    for a, b in (("d6", "s3"), ("s4", "z3")):
        fx[f"{a}x{b}"] = (helpers.product_table(fx[a][0], fx[b][0]),
                          oracles.product_degrees(fx[a][1], fx[b][1]))
    return fx


def certify(check_levels: tuple[int, ...], cert_levels: tuple[int, ...],
            groups: tuple[str, ...] | None) -> MakeJobs:
    """``check`` on SU(2) rings, both certificates per level, and ``decompose``
    on group algebras (all of ``group_algebras()`` when ``groups`` is None)."""
    def make(inputs: Path, rng: random.Random):
        jobs = [Job(f"check su2_{k}", ("check", _ring_file(inputs, f"su2_{k}", su2_level(k))),
                    oracles.check_ring_report) for k in check_levels]
        jobs += [_certificate_job(inputs, kind, k)
                 for k in cert_levels for kind in ("trivial", "conjugation")]
        for name, (table, degrees) in group_algebras().items():
            if groups is not None and name not in groups:
                continue
            path = inputs / f"group_{name}.json"
            alg = BasedAlgebra.from_group_table(table)
            path.write_text(serialize.dumps(serialize.algebra_to_dict(alg)), encoding="utf-8")
            jobs.append(Job(f"decompose {name}",
                            ("decompose", str(path), "--format", "json",
                             "--seed", str(rng.randrange(2**31))),
                            partial(oracles.check_block_profile, degrees)))
        return jobs, _certificate_job(inputs, "trivial", 4)
    return make


WORKLOADS = {w.name: w for w in (
    Workload("su2_sweep",
             "SU(2)_k, k in 16,32,48,64: few twist collisions, commutant dim 2-4; "
             "the full SVD in commutant_basis dominates the time",
             su2_sweep((16, 32, 48, 64))),
    Workload("cyclic_sweep",
             "U(1) at level n/2 (Z_n, q=1), n in 16,20,24,32: dense twist collisions, "
             "commutant dim 4-6; the pivot-box scan dominates, the SVD is small",
             cyclic_sweep((16, 20, 24, 32), jobs=1)),
    Workload("cyclic_jobs2",
             "the cyclic_sweep jobs with --jobs 2: measures the process-pool path "
             "of the enumeration against the serial one",
             cyclic_sweep((16, 20, 24, 32), jobs=2)),
    Workload("certify",
             "check, verify-induction and decompose: the side paths that never "
             "enumerate (validation, full_report, decompose_semisimple)",
             certify((32, 64), (10, 24, 32, 48), None)),
)}
