"""Backend tiers and the array-module dispatch layer.

``repro.backend`` owns two related concerns:

* the fixed set of kernel tiers (``scalar`` / ``vectorized`` /
  ``gpu``) that every kernel entry point validates against; and
* the **dispatch layer** that makes ``backend="gpu"`` real: xp-style
  array-module resolution (cupy auto-detection with a capability
  probe), host<->device transfer helpers with accounting, keyed staging
  so micro-batches pay one upload, and measured kernel wall-time.

Without a device, ``gpu`` degrades to ``vectorized`` on numpy with a
single logged warning — results are identical either way.
"""

from .dispatch import (
    ArrayModule,
    DeviceStager,
    KernelTiming,
    TransferStats,
    get_array_module,
    host_array_module,
    probe_array_module,
    set_array_module_override,
    use_array_module,
)
from .registry import (
    BACKENDS,
    ResolvedBackend,
    resolve_backend,
    validate_backend,
)

__all__ = [
    "ArrayModule",
    "BACKENDS",
    "DeviceStager",
    "KernelTiming",
    "ResolvedBackend",
    "TransferStats",
    "get_array_module",
    "host_array_module",
    "probe_array_module",
    "resolve_backend",
    "set_array_module_override",
    "use_array_module",
    "validate_backend",
]
