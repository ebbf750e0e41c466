"""Anti-Combining: the paper's contribution.

The package provides:

* the record encodings (plain / EagerSH / LazySH) — :mod:`repro.core.encoding`;
* the reduce-task ``Shared`` structure — :mod:`repro.core.shared`;
* the ``AntiMapper`` / ``AntiReducer`` / spill-time ``AntiCombiner``
  wrappers — :mod:`repro.core.anti_mapper`,
  :mod:`repro.core.anti_reducer`, :mod:`repro.core.anti_combiner`;
* the purely syntactic program transformation
  :func:`~repro.core.transform.enable_anti_combining`.
"""

from repro.core.config import AntiCombiningConfig, Strategy
from repro.core.encoding import EncodingError
from repro.core.shared import Shared
from repro.core.transform import enable_anti_combining

__all__ = [
    "AntiCombiningConfig",
    "EncodingError",
    "Shared",
    "Strategy",
    "enable_anti_combining",
]
