"""Host-speed reference: a fixed numpy/Python loop that calls no latdec code.

The benchmark host is a shared 2-core VM whose speed drifts by tens of
percent from one second to the next.  Timed latdec work is interleaved
with slices of this loop, and every timing is rescaled to the nominal
host speed `NOMINAL_UNITS_PER_S`:

    value_at_nominal = raw_seconds * (measured_units_per_s / NOMINAL_UNITS_PER_S)

The loop mixes what latdec's hot path does (Python-level loops over tiny
float64 arrays, one LAPACK QR and SVD per unit), so host contention slows
both alike.  It must never change: a later change to it would shift every
reported figure.
"""

from __future__ import annotations

import gc
import math
import time

import numpy as np

#: Reference units per second that define "nominal host speed" (the
#: typical rate on the 2-core VM the reference figures were taken on).
NOMINAL_UNITS_PER_S = 15000.0

_BATCH = 20
_A = np.arange(16, dtype=np.float64).reshape(4, 4) / 7.0 + np.eye(4)
_EYE = np.eye(4)


def _unit(a: np.ndarray, eye: np.ndarray) -> float:
    g = a.T @ a + eye
    u = np.zeros((4, 4))
    for i in range(4):
        p = g[i, i] - u[:i, i] @ u[:i, i]
        d = math.sqrt(p)
        u[i, i] = d
        u[i, i + 1:] = (g[i, i + 1:] - u[:i, i] @ u[:i, i + 1:]) / d
    _, r = np.linalg.qr(a)
    s = np.linalg.svd(a, compute_uv=False)
    return float(u[3, 3]) + float(s[0]) + float(r[0, 0])


class HostRef:
    """Accumulates reference units and the wall seconds they took."""

    def __init__(self):
        self.units = 0
        self.seconds = 0.0

    def run_for(self, seconds: float) -> None:
        """Run whole batches of the loop until `seconds` of wall time pass.

        The cyclic garbage collector is off meanwhile: the loop makes no
        cycles, and a collection it triggered would bill the reference for
        objects the timed code left behind."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            while True:
                for _ in range(_BATCH):
                    _unit(_A, _EYE)
                self.units += _BATCH
                elapsed = time.perf_counter() - t0
                if elapsed >= seconds:
                    self.seconds += elapsed
                    return
        finally:
            if enabled:
                gc.enable()

    def speed(self) -> float:
        """Measured host speed as a multiple of the nominal speed."""
        if self.seconds <= 0.0:
            raise ValueError("no reference slices were run")
        return self.units / self.seconds / NOMINAL_UNITS_PER_S
