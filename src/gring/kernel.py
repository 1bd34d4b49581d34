"""The hot polynomial loops, re-exported from ``_kernel_py``.

Callers import the kernel through this module, never ``_kernel_py``: a
run-time tracer can then wrap these names and leave the implementation's
own globals alone, so the calls made inside ``reduce_nd`` stay unwrapped.
"""

from ._kernel_py import (
    FieldOverflow,
    Packing,
    mono_deg,
    mono_div,
    mono_key,
    mono_lcm,
    mono_mul,
    nd_monic,
    nd_scale,
    nd_shift,
    nd_sub,
    poly_add,
    poly_mul,
    poly_scale,
    reduce_nd,
)


def backend() -> str:
    """Name of the kernel implementation."""
    return "python"
