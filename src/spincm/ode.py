"""Adaptive Chebyshev-Picard integration of an autonomous flow.

Modified Chebyshev-Picard iteration (Bai & Junkins, J. Astronaut. Sci. 58
(2011)).  On a window [t, t + h] the solution is the polynomial of degree
N = 16 through its values Y at the N + 1 Chebyshev-Lobatto nodes, and a
Picard sweep Y <- y(t) + h Q f(Y) refines every node at once: one stacked
call of f on the N + 1 rows, then one product with Q, the node-to-node
Chebyshev integration matrix.  A window is accepted when its last two sweep
increments and its last two Chebyshev coefficients are below tolerance, in
the RMS norm over ``atol + rtol * |y|`` of *Solving ODEs I*, Sec. II.4 (two
increments, since on these flows they contract unevenly: a sweep that barely
moves may follow one that moves a lot).  A window whose sweeps fault or stall
is rejected and shrunk, and the tail of the accepted one sets the next
window's length, which starts from the last polynomial extrapolated.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

EPS = float(np.finfo(float).eps)
N = 16                # polynomial degree: a window holds N + 1 nodes
MAX_SWEEPS = 30       # sweeps after which a window counts as stalled
SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 1.8
SHRINK = 0.5          # window factor after a fault or a stall
EARLY_TAIL = 10.0     # tail error that rejects a window before it converges
NOISE = 100 * EPS     # a coefficient's rounding noise, relative to max |Y|
QUANT = 8             # window factors are powers of 2^(1 / QUANT)
# Chebyshev-Lobatto nodes on [-1, 1], ascending: NODES[0] = -1, NODES[N] = 1.
NODES = -np.cos(np.pi * np.arange(N + 1) / N)


def _basis(tau, degree: int = N) -> np.ndarray:
    """T_0 .. T_degree at each real tau, one row per tau: cos(k arccos tau),
    which is cosh(k arccosh tau) past 1, so a tau past [-1, 1] extrapolates."""
    theta = np.arccos(np.asarray(tau, dtype=complex))
    return np.cos(np.multiply.outer(theta, np.arange(degree + 1))).real


def _integration_matrix() -> np.ndarray:
    """Q: the values at the nodes of (1/2) int_{-1}^tau p, p the polynomial
    through given node values (so a window of length h integrates by h Q)."""
    J = np.zeros((N + 2, N + 1))     # coefficients of int T_k, up to a constant
    J[1, 0], J[2, 1] = 1.0, 0.25
    for k in range(2, N + 1):
        J[k + 1, k] = 1 / (2 * (k + 1))
        J[k - 1, k] = -1 / (2 * (k - 1))
    at_nodes = _basis(NODES, N + 1) - _basis([-1.0], N + 1)
    return 0.5 * at_nodes @ J @ COEF


COEF = np.linalg.inv(_basis(NODES))    # node values -> Chebyshev coefficients
Q = _integration_matrix()


def _denoised(coef: np.ndarray, size: np.ndarray) -> np.ndarray:
    """Chebyshev coefficients of node values of largest modulus size (per
    column), 0 where they are within rounding noise of 0."""
    return np.where(abs(coef) > NOISE * size, coef, 0)


def _lattice(factor: float) -> float:
    """factor rounded to a power of 2^(1 / QUANT): two runs whose tail
    errors differ by rounding take the same windows."""
    return 2.0 ** (round(QUANT * math.log2(factor)) / QUANT)


def _norm(x: np.ndarray) -> float:
    """The largest RMS norm of a row of x."""
    x = abs(x)
    return math.sqrt((x * x).sum(-1).max() / x.shape[-1])


class ChebyshevPicard:
    """Adaptive integration of y' = fun(y) from y0 at t = 0 towards t_final.

    ``fun`` takes states stacked on leading axes.  The first :meth:`step`
    evaluates fun(y0) on one row; a fault there is raised at once.  A
    ``faults`` error in a sweep rejects the window, and one at the minimum
    window (10 ulp of the larger of |t| and |t_final|) is raised.  rtol is
    floored at 100 eps.  ``calls`` (sequential calls of fun), ``nfev``
    (the rows they evaluated), ``accepted``, ``rejected`` and the accepted
    |h| range are counted as the work is done (:attr:`stats`)."""

    def __init__(self, fun: Callable[[np.ndarray], np.ndarray],
                 y0: np.ndarray, t_final: float, rtol: float, atol: float,
                 faults: tuple = ()):
        self.fun = fun
        self.faults = faults
        self.t = 0.0
        self.y = np.asarray(y0, dtype=complex)
        self.t_final = t_final
        self.direction = 1.0 if t_final >= 0 else -1.0
        self.rtol = max(rtol, 100 * EPS)
        self.atol = atol
        self.f0 = None
        self.h_abs = math.nan
        self.h = 0.0          # the last accepted window: [t - h, t]
        self.nodes = self.coef = None
        self.calls = self.nfev = self.accepted = self.rejected = 0
        self.h_min = math.inf
        self.h_max = 0.0

    @property
    def finished(self) -> bool:
        return self.direction * (self.t - self.t_final) >= 0

    @property
    def stats(self) -> dict:
        steps = self.accepted > 0
        return {"calls": self.calls, "nfev": self.nfev,
                "accepted": self.accepted, "rejected": self.rejected,
                "h_min": float(self.h_min) if steps else None,
                "h_max": float(self.h_max) if steps else None}

    @property
    def times(self) -> np.ndarray:
        """The node times of the last accepted window."""
        return self.t - self.h + self.h * (NODES + 1) / 2

    def _eval(self, Y: np.ndarray) -> np.ndarray:
        self.calls += 1
        self.nfev += len(Y)
        return self.fun(Y)

    def _first_window(self) -> float:
        """|h| of the first window: the time in which y moves by its own
        size (max norm) at its initial speed, at most the whole interval."""
        ny, nf = float(abs(self.y).max()), float(abs(self.f0).max())
        interval = abs(self.t_final)
        return min(interval, ny / nf) if ny > 0 and nf > 0 else interval

    def _guess(self, h: float) -> np.ndarray | None:
        """The node values of a window of length h from (t, y): the last
        window's polynomial extrapolated, None before the first window.
        Its noise-level coefficients are dropped, since past the window
        T_k grows like (tau + sqrt(tau^2 - 1))^k."""
        if self.coef is None:
            return None
        Y = _basis(1 + (NODES + 1) * h / self.h) @ _denoised(
            self.coef, abs(self.nodes).max(0))
        Y[0] = self.y
        return Y

    def _sweep(self, h: float) -> tuple[tuple | None, float]:
        """Picard sweeps on a window of length h from (t, y): ((Y, its
        Chebyshev coefficients), the tail error) once two increments in a
        row are below tolerance; (None, the tail error) if the third sweep
        reads a tail error above EARLY_TAIL; (None, inf) if the sweeps
        stall: no contraction over two sweeps, or MAX_SWEEPS sweeps.  A cold
        window (the first) starts from y(t) at every node, so its first
        sweep needs no call: fun(y0) was evaluated once, on one row."""
        Y = self._guess(h)
        F = np.broadcast_to(self.f0, (N + 1, self.y.size)) if Y is None \
            else self._eval(Y)
        Y = self.y if Y is None else Y
        d = [math.inf, math.inf, math.inf]   # the last three increments
        for sweep in range(MAX_SWEEPS):
            Y_new = self.y + h * (Q @ F)
            size = abs(Y_new)
            d = d[1:] + [_norm((Y_new - Y) / (self.atol + self.rtol * size))]
            Y = Y_new
            done = d[1] < 1 and d[2] < 1
            if done or sweep == 2:
                size = size.max(0)
                tail = COEF[N - 1:] @ Y
                if done:
                    tail = _denoised(tail, size)
                error = _norm(tail / (self.atol + self.rtol * size))
                if done:
                    return (Y, COEF @ Y), error
                if error > EARLY_TAIL:
                    return None, error
            if d[2] >= d[0]:
                break
            F = self._eval(Y)
        return None, math.inf

    def step(self) -> bool:
        """Take one accepted window, False (nothing moved) if the window
        fell below its minimum without a fault; a fault at the minimum
        window is raised."""
        if self.f0 is None:
            self.f0 = self._eval(self.y[None])[0]
            self.h_abs = self._first_window()
        t = self.t
        min_h = 10 * np.spacing(max(abs(t), abs(self.t_final)))
        h_abs = max(self.h_abs, min_h)
        while True:
            t_new = t + h_abs * self.direction
            if self.direction * (t_new - self.t_final) > 0:
                t_new = self.t_final
            h = t_new - t
            h_abs = abs(h)
            try:
                window, error = self._sweep(h)
            except self.faults:
                if h_abs <= min_h:
                    raise
                window, error = None, math.inf
            if error <= 1:
                break
            self.rejected += 1
            if h_abs <= min_h:
                return False
            factor = SHRINK if error == math.inf else \
                max(MIN_FACTOR, SAFETY * error ** (-1 / N))
            h_abs = max(h_abs * _lattice(factor), min_h)
        self.accepted += 1
        self.h_min = min(self.h_min, h_abs)
        self.h_max = max(self.h_max, h_abs)
        self.nodes, self.coef = window
        self.t, self.h, self.y = t_new, h, self.nodes[N]
        self.h_abs = h_abs * _lattice(MAX_FACTOR if error == 0 else min(
            MAX_FACTOR, SAFETY * error ** (-1 / N)))
        return True

    def solution(self, t) -> np.ndarray:
        """The last window's polynomial at the times t (one row each), its
        end node at its end."""
        t = np.asarray(t, dtype=float)
        y = _basis(-1 + 2 * (t - self.t + self.h) / self.h) @ self.coef
        y[t == self.t] = self.y
        return y
