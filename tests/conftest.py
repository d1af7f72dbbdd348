import numpy as np
import pytest

from tracefem import assembly


@pytest.fixture()
def rng():
    return np.random.default_rng(42)


@pytest.fixture(autouse=True)
def uncut_meshes():
    """Every test starts with no interface cut cached.

    The meshes of tests/helpers live for the whole session, and so would
    their cuts: a later test would read the cache instead of cutting, and
    a chunk size it patches or a memory window it opens would miss the cut.
    """
    assembly._CUTS.clear()
