"""The compute kernels live in the numpy module ``py``."""

from . import py


# The benchmark's tracer wraps the kernels on the module active() returns, so
# library code looks them up here at call time, never by ``from ... import``.
def active():
    return py
