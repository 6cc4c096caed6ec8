"""The kernel tiers: the one place they are declared.

``bundle_adjustment.py``, ``pose_graph.py``, ``tracking.py`` and every
other kernel entry point validate their ``backend`` argument through
:func:`validate_backend` / :func:`resolve_backend`, so all of them share
one ``unknown backend {name!r}`` contract.

Three tiers exist:

* ``"scalar"`` — per-item Python reference loops;
* ``"vectorized"`` — batched numpy kernels (the default);
* ``"gpu"`` — the vectorized kernels executed through an array-module
  dispatch layer (:mod:`repro.backend.dispatch`) on a real device
  (cupy) when one exists, degrading to ``"vectorized"`` on numpy with a
  logged warning when not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from ..obs import get_logger

_log = get_logger("backend")

BACKENDS = ("scalar", "vectorized", "gpu")
_DEVICE_TIER = "gpu"
_DEVICE_FALLBACK = "vectorized"


@dataclass(frozen=True)
class ResolvedBackend:
    """Outcome of :func:`resolve_backend`.

    ``requested`` is what the caller asked for; ``kernel`` is the tier
    whose kernels actually run (``"gpu"`` degrades to ``"vectorized"``
    without a device); ``array_module`` is the device dispatch module,
    or ``None`` for pure-numpy execution.
    """

    requested: str
    kernel: str
    array_module: Optional[object] = None

    @property
    def on_device(self) -> bool:
        return self.array_module is not None and self.array_module.is_device


def validate_backend(name: str, allowed: Optional[Iterable[str]] = None) -> str:
    """Check ``name`` against :data:`BACKENDS` (and an optional subset).

    Returns the validated name so call sites can write
    ``backend = validate_backend(backend or DEFAULT)``.  Raises the
    historical ``unknown backend {name!r}`` ValueError, so existing
    callers and tests see the same contract from every kernel entry
    point.
    """
    if name not in BACKENDS:
        raise ValueError(f"unknown backend {name!r}")
    if allowed is not None and name not in tuple(allowed):
        raise ValueError(f"unknown backend {name!r}")
    return name


_warned_fallback = False


def resolve_backend(
    name: str,
    allowed: Optional[Iterable[str]] = None,
    array_module: Optional[object] = None,
) -> ResolvedBackend:
    """Validate ``name`` and bind it to an execution plan.

    For the ``"gpu"`` tier, the array module is auto-detected via
    :func:`repro.backend.dispatch.get_array_module` unless one is
    passed explicitly (tests inject the fake module this way).  When no
    device module exists the tier degrades to ``"vectorized"`` and a
    warning is logged once per process.
    """
    validate_backend(name, allowed)
    if name != _DEVICE_TIER:
        return ResolvedBackend(requested=name, kernel=name)
    if array_module is None:
        from .dispatch import get_array_module

        array_module = get_array_module("auto")
    if array_module is not None and array_module.is_device:
        return ResolvedBackend(
            requested=name, kernel=name, array_module=array_module
        )
    global _warned_fallback
    if not _warned_fallback:
        _warned_fallback = True
        _log.warning(
            "backend %r requested but no device array module is available "
            "(cupy with a GPU); falling back to %r on numpy",
            name, _DEVICE_FALLBACK,
        )
    return ResolvedBackend(requested=name, kernel=_DEVICE_FALLBACK)
