"""Fixed calibration kernel: how fast this machine runs the studies' kind of work.

The studies spend their time in ``scipy.sparse`` assembly, sparse LU
factorizations of a few hundred rows, and interpreted loops over numpy
rows.  ``sample()`` does a fixed, small amount of each (about 13 ms): it
assembles and factorizes one 401-row bordered system and runs a banded
LDL^T update over part of the band the N_d = 10 stability count
factorizes.  It has fixed inputs and calls nothing from ``snaklat``, so a
change to the package never changes its time.  On a machine shared with
other tenants the speed of the processor drifts by a quarter and more,
from one second to the next; timing this kernel while a study runs
measures that drift, so the benchmark can divide it out.
"""

import signal
import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

SIDE = 20            # sparse part: a SIDE x SIDE grid, bordered by one row
BAND_WIDTH = 20      # banded part: the bandwidth of the N_d = 10 square
SAMPLE_COLUMNS = 100
CALIBRATE_SAMPLES = 30

_ONE = sp.diags([np.ones(SIDE - 1), -2.0 * np.ones(SIDE), np.ones(SIDE - 1)],
                [-1, 0, 1])
_LAP = (sp.kron(sp.eye(SIDE), _ONE) + sp.kron(_ONE, sp.eye(SIDE))).tocsc()
_BORDER = sp.csc_matrix(np.ones(SIDE * SIDE))
_BAND = np.random.default_rng(0).random((BAND_WIDTH + 1,
                                         SAMPLE_COLUMNS + BAND_WIDTH))
_BAND[0] += 2.0 * BAND_WIDTH


def sample():
    """Seconds taken by one run of the fixed kernel."""
    t0 = time.perf_counter()
    n = SIDE * SIDE
    x = np.linspace(0.0, 1.0, n)
    jac = (1e-3 * _LAP + sp.diags(1.0 - 3.0 * x * x)).tocsc()
    big = sp.bmat([[jac, _BORDER.T], [_BORDER, sp.csc_matrix((1, 1))]],
                  format="csc")
    step = spla.splu(big).solve(np.ones(n + 1))
    ab = _BAND.copy()
    for k in range(SAMPLE_COLUMNS):
        d = ab[0, k]
        col = ab[1:, k] / d
        for j in range(1, BAND_WIDTH + 1):
            ab[: BAND_WIDTH - j + 1, k + j] -= (d * col[j - 1]) * col[j - 1:]
    elapsed = time.perf_counter() - t0
    if not (np.all(np.isfinite(step)) and np.all(np.isfinite(ab))):
        raise ArithmeticError("calibration kernel produced non-finite values")
    return elapsed


def calibrate():
    """Times of ``CALIBRATE_SAMPLES`` runs of the kernel, back to back."""
    return [sample() for _ in range(CALIBRATE_SAMPLES)]


class Sampler:
    """Runs the kernel every ``period`` seconds while a study runs.

    A ``SIGALRM`` handler runs it between two bytecodes of the interrupted
    study, on the study's own processor, so its times follow the speed the
    study sees.  ``times`` holds one time per run; their sum is the time the
    kernel took away from the study.
    """

    def __init__(self, period):
        self.period = period
        self.times = []

    def __enter__(self):
        signal.signal(signal.SIGALRM, lambda *_: self.times.append(sample()))
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


if __name__ == "__main__":
    times = calibrate()
    print(f"{sum(times) / len(times):.5f} s per sample, "
          f"{len(times)} samples")
