"""The name of the causality encoding, kept for benchmark records.

``benchmarks/suite`` stores :func:`default_backend_name` in every
record's host metadata and imports it from here, so this module keeps
that one name.  Nothing in :mod:`repro` imports it.
"""

from __future__ import annotations

__all__ = ["default_backend_name"]


def default_backend_name() -> str:
    """The name of the one causality encoding: ``"vector"``.

    Benchmark records carry it as host metadata.
    """
    return "vector"
