"""A stub left where the shared-memory export was.

Pool workers open a column store the parent writes (see
:mod:`repro.serving.pool`); nothing maps shared memory any more.  This
module exists only because ``benchmarks/e2e/workloads.py:47`` imports
:func:`attached_segment_count`; ROADMAP direction 1 deletes both.
"""


def attached_segment_count() -> int:
    """Always 0: no process attaches shared-memory segments."""
    return 0
