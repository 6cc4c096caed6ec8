"""Device formulations of the routed hot kernels.

These mirror the numpy kernels in ``repro.vision.brief`` /
``repro.vision.matching`` but are written against an
:class:`~repro.backend.dispatch.ArrayModule`, taking *already staged*
device arrays so callers control when host<->device transfers happen
(once per micro-batch, via ``DeviceStager``).  Results are returned as
device arrays too; only the caller downloads, and only what it needs.

Kept dependency-clean: this module imports numpy and the dispatch layer
only, so ``vision.brief`` / ``vision.matching`` can import it without
cycles.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .dispatch import ArrayModule


def stage_descriptors(am: ArrayModule, descriptors: np.ndarray):
    """Upload one descriptor block in the module's Hamming word layout.

    With native 64-bit popcount the ``(n, 32)`` uint8 rows are viewed as
    ``(n, 4)`` uint64 words (8x fewer popcounts); otherwise they stay
    uint8 for the byte-LUT path.  The corresponding host-side transform
    is pure reinterpretation, so staging cost is one contiguous copy.
    """
    descriptors = np.ascontiguousarray(descriptors, dtype=np.uint8)
    if descriptors.ndim != 2:
        raise ValueError("descriptors must be 2-D")
    if am.hamming_dtype == np.uint64 and descriptors.shape[1] % 8 == 0:
        return am.to_device(descriptors.view(np.uint64))
    return am.to_device(descriptors)


def hamming_matrix_device(am: ArrayModule, a_dev, b_dev):
    """All-pairs Hamming distances between two staged descriptor blocks.

    Returns an ``(na, nb)`` int32 device array.  XOR + popcount over the
    broadcast pair grid — the exact computation of the vectorized numpy
    kernel, on whatever device ``am`` wraps.
    """
    xp = am.xp
    with am.kernel("hamming_matrix"):
        diff = a_dev[:, None, :] ^ b_dev[None, :, :]
        counts = am.popcount(diff)
        out = xp.sum(counts.astype(np.int32), axis=2).astype(np.int32)
    return out


def hamming_pairs_device(am: ArrayModule, a_dev, b_dev):
    """Rowwise Hamming distances between two aligned staged blocks."""
    xp = am.xp
    with am.kernel("hamming_pairs"):
        counts = am.popcount(a_dev ^ b_dev)
        out = xp.sum(counts.astype(np.int32), axis=1).astype(np.int32)
    return out


def match_min2_device(
    am: ArrayModule, a_dev, b_dev
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-row best match + best/second-best distances, downloaded.

    The distance matrix lives and dies on the device; only three
    ``(na,)`` vectors come back.  Mirrors the ``argmin`` +
    ``partition(..., 1)`` idiom of ``match_descriptors``.
    """
    xp = am.xp
    dist = hamming_matrix_device(am, a_dev, b_dev)
    nb = int(dist.shape[1])
    with am.kernel("match_min2"):
        best_idx = xp.argmin(dist, axis=1)
        if nb >= 2:
            part = xp.partition(dist, 1, axis=1)
            best = part[:, 0]
            second = part[:, 1]
        else:
            best = xp.min(dist, axis=1)
            second = best
    return (
        am.to_host(best_idx).astype(np.intp),
        am.to_host(best).astype(np.int64),
        am.to_host(second).astype(np.int64),
    )


def gather_pairs_distance_device(
    am: ArrayModule, a_dev, b_dev, rows_a: np.ndarray, rows_b: np.ndarray,
    rows_a_dev=None, rows_b_dev=None,
) -> np.ndarray:
    """Hamming distance for explicit ``(rows_a[i], rows_b[i])`` pairs.

    Index vectors may be pre-staged (``rows_*_dev``) when the caller
    batches several gathers; otherwise they are uploaded here (small:
    ``O(pairs)`` int64, not ``O(pairs * 32)`` descriptor bytes).
    """
    if rows_a_dev is None:
        rows_a_dev = am.to_device(np.ascontiguousarray(rows_a, dtype=np.int64))
    if rows_b_dev is None:
        rows_b_dev = am.to_device(np.ascontiguousarray(rows_b, dtype=np.int64))
    sel_a = am.gather(a_dev, rows_a_dev)
    sel_b = am.gather(b_dev, rows_b_dev)
    return am.to_host(hamming_pairs_device(am, sel_a, sel_b)).astype(np.int64)


def resolve_device_module(am: Optional[ArrayModule]) -> Optional[ArrayModule]:
    """Normalize an ``am`` kernel argument: device modules pass, host
    modules and ``None`` collapse to ``None`` (numpy path)."""
    if am is not None and am.is_device:
        return am
    return None
