"""The public surface: every parameter with a default is one some caller changes.

The inventory counts, over ``fusionkit.__all__``, the parameters that have a
default in each function's signature and in each class's ``__init__``.  A
change that adds a default (a knob) or a public name updates this list.
"""
import inspect

import fusionkit

KNOBS = [
    "BasedAlgebra.dims",
    "InductionCertificate.theta",
    "InductionCertificate.nm_count",
    "decompose_semisimple.seed",
    "full_report.tol",
    "is_nondegenerate.tol",
    "modular_matrices.tol",
]


def defaulted_parameters():
    for name in fusionkit.__all__:
        obj = getattr(fusionkit, name)
        if not callable(obj):
            continue
        signature = inspect.signature(obj.__init__ if inspect.isclass(obj) else obj)
        yield from (f"{name}.{p.name}" for p in signature.parameters.values()
                    if p.default is not inspect.Parameter.empty)


def test_public_knob_inventory():
    assert sorted(defaulted_parameters()) == sorted(KNOBS)
    assert len(fusionkit.__all__) == 51
