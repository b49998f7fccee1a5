from __future__ import annotations

import os

# one BLAS thread, set before anything imports numpy: small dense problems
# run many times slower on a pool of threads
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import pytest

from fusionkit import VanishingZError, catalog_models, modular_matrices


@pytest.fixture(scope="session")
def catalog():
    """name -> (ring, twists) for every built-in model."""
    return {name: (ring, twists) for name, ring, twists in catalog_models()}


@pytest.fixture(scope="session")
def catalog_modular(catalog):
    """name -> ModularData for every catalog model with z != 0."""
    out = {}
    for name, (ring, twists) in catalog.items():
        try:
            out[name] = modular_matrices(ring, twists)
        except VanishingZError:
            pass
    return out
