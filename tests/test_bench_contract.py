"""The benchmark's contract with gring.

``verdictbench/`` drives gring through its public modules and reads its
outputs back (``workloads.poly_terms`` names variables through
``Poly.registry``).  One round of each workload must run, and its records
must pass the benchmark's own independent checker, so that a change to
gring that breaks the benchmark fails here first.
"""

import os
import random
import sys

import pytest

BENCH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "verdictbench"
)
sys.path.insert(0, BENCH)

import tracing  # noqa: E402
import workloads  # noqa: E402
from check import check_records  # noqa: E402

SEED = 31


@pytest.mark.parametrize("workload", sorted(workloads.ROUNDS))
def test_one_round_passes_the_checker(workload):
    make_round = workloads.ROUNDS[workload](random.Random(SEED))
    records = [op.record(op.call()) for op in make_round(first=False)]
    assert records
    assert check_records(workload, records, SEED) == []


#: Hooks in ``tracing.HOOKS`` whose targets are gone from gring already.
STALE_HOOKS = {
    "kernel.mono_div",
    "kernel.mono_lcm",
    "groebner.groebner_with_cofactors",
}


def test_every_hook_target_but_the_stale_ones_resolves():
    # the tracer lists a missing target as untraced and carries on, so a
    # renamed or deleted function would silently drop out of the trace
    missing = {t for t, _ in tracing.HOOKS if tracing.resolve(t) is None}
    assert missing <= STALE_HOOKS
