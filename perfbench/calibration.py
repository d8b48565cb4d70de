"""A fixed reference kernel that measures how fast the machine runs right now.

The benchmark runs on shared virtual machines whose speed drifts by tens of
percent for seconds to minutes at a time, as neighbours load the host; the
process CPU clock does not remove that. The worker runs this kernel once per
epoch, outside the epoch's own interval, and scales each epoch's time by
``REFERENCE_S`` over the kernel's local time (see README.md). The kernel is
benchmark code that no change to the program touches, and it mixes what the
program spends its time on: small-array numpy (an EM-like responsibility
step and a grid-sized ``exp``) and interpreter work on lists and dicts.
"""

from __future__ import annotations

from time import process_time as clock

import numpy as np

# CPU time of one kernel call on the machine the reference figures in
# README.md come from. Scaled times read as times on that machine.
REFERENCE_S = 0.30e-3

# CPU time of one kernel call, called back to back, on the same machine.
REFERENCE_WARM_S = 0.21e-3
WARM_UP_CALLS, SETUP_CALLS = 20, 200

# Epochs on each side whose kernel times are averaged for one epoch's scale.
HALF_WINDOW = 16

_rng = np.random.default_rng(20240502)
_POINTS = _rng.normal(size=(400, 2))
_MEANS = _rng.normal(size=(6, 2))
_GRID = _rng.uniform(0.0, 4.0, size=(120, 120))


def kernel() -> float:
    d = _POINTS[:, None, :] - _MEANS[None, :, :]
    r = np.exp(-0.5 * np.einsum("nmk,nmk->nm", d, d))
    r /= r.sum(axis=1, keepdims=True)
    total = float(r.sum()) + float(np.exp(-_GRID).sum())
    table = {i: 0.5 * i for i in range(400)}
    return total + sum(v for v in table.values() if v > 10.0)


def timed_kernel() -> float:
    """CPU seconds of one kernel call."""
    start = clock()
    kernel()
    return clock() - start


def local_scales(kernel_s: list[float]) -> list[float]:
    """For each epoch, REFERENCE_S over the mean kernel time of its neighbours."""
    n = len(kernel_s)
    prefix = [0.0]
    for k in kernel_s:
        prefix.append(prefix[-1] + k)
    scales = []
    for i in range(n):
        lo, hi = max(0, i - HALF_WINDOW), min(n, i + HALF_WINDOW + 1)
        scales.append(REFERENCE_S * (hi - lo) / (prefix[hi] - prefix[lo]))
    return scales


def setup_scale() -> float:
    """REFERENCE_WARM_S over the median of back-to-back kernel times, for set-up times."""
    for _ in range(WARM_UP_CALLS):
        kernel()
    times = sorted(timed_kernel() for _ in range(SETUP_CALLS))
    return REFERENCE_WARM_S / times[len(times) // 2]
