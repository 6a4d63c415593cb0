"""Host metadata for benchmark records.

:func:`~repro.backends.base.default_backend_name` is all this package
holds.  The causal order ``≺`` has one encoding, the columnar vector
clocks of :class:`~repro.events.poset.Execution`, and the Table-2 cut
fills live in :mod:`repro.core.cuts`.  The package stays only because
``benchmarks/suite`` records the name as host metadata and imports it
from :mod:`repro.backends.base`.
"""

from .base import default_backend_name

__all__ = ["default_backend_name"]
