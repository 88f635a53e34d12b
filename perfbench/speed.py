"""Machine-speed probe: a fixed kernel timed between the benchmark's operations.

On a shared machine the speed of a core drifts by 10-25% over tens of
seconds to minutes, with neighbours' load and clock changes.  Averaging
inside one run does not remove drift that slow, and it moved every timing
of a run together: in five runs of one workload, one deterministic load
step read 0.24 s in one run and 0.35 s in another.

The probe runs the same work in every run: small dense numpy operations in
a Python loop, a dense Cholesky factorization, sparse matrix-vector
products, and parsing of ``index:value`` text.  These are the kinds of work
the solvers and loaders do.  It uses only numpy and scipy, never ``sqamin``,
so a change to the library cannot move it.  Each time metric is scaled by
``REFERENCE_SECONDS / mean(probe time)``.  This reports it in seconds at
the speed at which the probe takes ``REFERENCE_SECONDS``.
"""

import statistics
import time

import numpy as np
import scipy.linalg
import scipy.sparse

# Mean probe time on the two-core x86-64 machine the bounds were set on.
REFERENCE_SECONDS = 0.01


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._dense = rng.normal(size=(300, 300))
        self._vector = np.ones(300)
        factor = rng.normal(size=(120, 120))
        self._spd = factor @ factor.T + 120.0 * np.eye(120)
        self._sparse = scipy.sparse.random(5000, 500, density=0.01, format="csr",
                                           random_state=rng)
        self._weights = np.ones(500)
        self._tokens = [f"{j}:{float(value)!r}" for j, value
                        in enumerate(rng.normal(size=1000), start=1)]
        self.times = []

    def __call__(self):
        """Run the kernel once and record its wall time."""
        start = time.perf_counter()
        for _ in range(100):
            y = self._dense @ self._vector
            y = np.clip(y, -1.0, 1.0) + 0.5 * self._vector
            float(y @ y)
        scipy.linalg.cho_factor(self._spd, lower=True)
        for _ in range(25):
            margins = self._sparse @ self._weights
            self._sparse.T @ margins
        for token in self._tokens:
            index, value = token.split(":")
            int(index)
            float(value)
        self.times.append(time.perf_counter() - start)

    def scale(self):
        """Factor that turns this run's seconds into reference seconds."""
        return REFERENCE_SECONDS / statistics.fmean(self.times)
