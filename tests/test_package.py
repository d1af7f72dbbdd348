"""The package's public names."""

import tracefem


def test_every_exported_name_resolves():
    """A stale name in __all__ would break `from tracefem import *`."""
    assert [name for name in tracefem.__all__ if not hasattr(tracefem, name)] == []
    assert len(set(tracefem.__all__)) == len(tracefem.__all__)
    namespace = {}
    exec("from tracefem import *", namespace)
    assert set(tracefem.__all__) <= set(namespace)
