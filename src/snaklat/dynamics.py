"""Time integration of the lattice flow for nonlinear-stability checks."""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from . import lattice, solver
from .lattice import Field


class StepUnderflow(solver.SolverError):
    pass


@dataclass
class Trajectory:
    times: np.ndarray
    states: list          # sampled Fields
    deviation: np.ndarray  # sup-norm distance from the reference state

    def final_state(self):
        return self.states[-1]


def integrate(u0, nonlinearity, mu, d, t_end, n_samples=81, rtol=1e-8,
              atol=1e-10, reference=None):
    """Integrate du/dt = d*Lap(u) + f(u, mu) with an adaptive RK45 pair.

    ``reference`` (default: the initial state) defines the deviation track.
    """
    # imported on first use: no other command needs scipy.integrate
    import scipy.integrate

    if t_end <= 0:
        raise ValueError("t_end must be positive")
    grid = u0.grid
    lap = lattice.laplacian_matrix(grid)

    def rhs(_t, y):
        return d * (lap @ y) + nonlinearity.f(y, mu)

    t_eval = np.linspace(0.0, t_end, n_samples)
    sol = scipy.integrate.solve_ivp(rhs, (0.0, t_end), u0.values,
                                    method="RK45", rtol=rtol, atol=atol,
                                    t_eval=t_eval)
    if not sol.success:
        raise StepUnderflow(sol.message)
    ref = (reference.values if reference is not None else u0.values)
    states = [Field(grid, sol.y[:, i].copy()) for i in range(sol.y.shape[1])]
    deviation = np.max(np.abs(sol.y - ref[:, None]), axis=0)
    return Trajectory(times=sol.t, states=states, deviation=deviation)


def growth_rate(trajectory, window=None):
    """Exponential rate fitted to log(deviation) over a time window."""
    t = trajectory.times
    dev = trajectory.deviation
    mask = dev > 0
    if window is not None:
        mask &= (t >= window[0]) & (t <= window[1])
    if int(mask.sum()) < 3:
        raise ValueError("not enough points with positive deviation")
    coeffs = np.polyfit(t[mask], np.log(dev[mask]), 1)
    return float(coeffs[0])


def export_csv(trajectory, path):
    """Write rows (t, deviation)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "deviation"])
        for t, dev in zip(trajectory.times, trajectory.deviation):
            writer.writerow([repr(float(t)), repr(float(dev))])
