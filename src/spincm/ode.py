"""Dormand-Prince 5(4) stepper with 4th-order dense output.

The embedded pair of Dormand & Prince (J. Comput. Appl. Math. 6 (1980)
19-26) with Shampine's dense-output coefficients, driven by the standard
step-size controller of Hairer, Norsett & Wanner, *Solving Ordinary
Differential Equations I*, Sec. II.4: RMS error norm over
``atol + rtol * max(|y|, |y_new|)``, safety factor 0.9, step factors
clipped to [0.2, 10], no growth right after a rejected step, and their
initial-step rule.  The arithmetic follows scipy's ``RK45`` operation for
operation, so the accepted steps and the dense output agree with it.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

EPS = float(np.finfo(float).eps)
SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10.0
ERROR_EXPONENT = -1.0 / 5.0       # -1 / (order of the error estimator + 1)

C = np.array([0, 1/5, 3/10, 4/5, 8/9, 1])
A = np.array([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656]])
B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525,
              1/40])
# dense output: y(t_old + x h) = y_old + h (K^T P) [x, x^2, x^3, x^4]
P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608,
     -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933,
     87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304,
     -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408,
     701980252875/199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423]])


def _rms(x: np.ndarray) -> float:
    return np.linalg.norm(x) / x.size ** 0.5


class DormandPrince:
    """Adaptive integration of y' = fun(t, y) from (t0, y0) towards t_final.

    Nothing is evaluated on construction: the first :meth:`step` evaluates
    fun(t0, y0) and the initial-step probe, so every fault of ``fun``
    surfaces from :meth:`step`.  rtol is floored at 100 eps.  ``nfev``,
    ``accepted``, ``rejected`` and the accepted |h| range are counted as
    the steps are taken (:attr:`stats`).
    """

    def __init__(self, fun: Callable[[float, np.ndarray], np.ndarray],
                 t0: float, y0: np.ndarray, t_final: float, rtol: float,
                 atol: float):
        self.fun = fun
        self.t = t0
        self.y = np.asarray(y0, dtype=complex)
        self.t_final = t_final
        self.direction = 1.0 if t_final >= t0 else -1.0
        self.rtol = max(rtol, 100 * EPS)
        self.atol = atol
        self.f = None
        self.h_abs = math.nan
        self.K = np.empty((len(C) + 1, self.y.size), dtype=complex)
        self.t_old = self.y_old = None
        self.nfev = self.accepted = self.rejected = 0
        self.h_min = math.inf
        self.h_max = 0.0

    @property
    def finished(self) -> bool:
        return self.direction * (self.t - self.t_final) >= 0

    @property
    def stats(self) -> dict:
        steps = self.accepted > 0
        return {"nfev": self.nfev, "accepted": self.accepted,
                "rejected": self.rejected,
                "h_min": float(self.h_min) if steps else None,
                "h_max": float(self.h_max) if steps else None}

    def _eval(self, t: float, y: np.ndarray) -> np.ndarray:
        self.nfev += 1
        return self.fun(t, y)

    def _initial_step(self) -> float:
        y0, f0 = self.y, self.f
        interval = abs(self.t_final - self.t)
        scale = self.atol + np.abs(y0) * self.rtol
        d0 = _rms(y0 / scale)
        d1 = _rms(f0 / scale)
        h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
        h0 = min(h0, interval)
        f1 = self._eval(self.t + h0 * self.direction,
                        y0 + h0 * self.direction * f0)
        d2 = _rms((f1 - f0) / scale) / h0
        if d1 <= 1e-15 and d2 <= 1e-15:
            h1 = max(1e-6, h0 * 1e-3)
        else:
            h1 = (0.01 / max(d1, d2)) ** (1 / 5)
        return min(100 * h0, h1, interval)

    def _attempt(self, h: float) -> np.ndarray:
        """One Runge-Kutta step of size h from (t, y) into K; returns y_new."""
        t, y, K = self.t, self.y, self.K
        K[0] = self.f
        for s in range(1, len(C)):
            dy = np.dot(K[:s].T, A[s, :s]) * h
            K[s] = self._eval(t + C[s] * h, y + dy)
        y_new = y + h * np.dot(K[:-1].T, B)
        K[-1] = self._eval(t + h, y_new)
        return y_new

    def step(self) -> bool:
        """Take one accepted step, False (nothing moved) if the step size
        fell below 10 ulp of t."""
        if self.f is None:
            self.f = self._eval(self.t, self.y)
            self.h_abs = self._initial_step()
        t, y = self.t, self.y
        min_step = 10 * abs(np.nextafter(t, self.direction * np.inf) - t)
        h_abs = max(self.h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                return False
            t_new = t + h_abs * self.direction
            if self.direction * (t_new - self.t_final) > 0:
                t_new = self.t_final
            h = t_new - t
            h_abs = abs(h)
            y_new = self._attempt(h)
            scale = self.atol + np.maximum(np.abs(y), np.abs(y_new)) * self.rtol
            error = _rms(np.dot(self.K.T, E) * h / scale)
            if error < 1:
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error ** ERROR_EXPONENT)
            rejected = True
            self.rejected += 1
        factor = MAX_FACTOR if error == 0 else \
            min(MAX_FACTOR, SAFETY * error ** ERROR_EXPONENT)
        if rejected:
            factor = min(1, factor)
        self.accepted += 1
        self.h_min = min(self.h_min, h_abs)
        self.h_max = max(self.h_max, h_abs)
        self.t_old, self.y_old = t, y
        self.t, self.y, self.f = t_new, y_new, self.K[-1].copy()
        self.h_abs = h_abs * factor
        return True

    def dense(self, t: float) -> np.ndarray:
        """The 4th-order interpolant of the last accepted step at t."""
        h = self.t - self.t_old
        x = (t - self.t_old) / h
        y = h * np.dot(self.K.T.dot(P), np.cumprod(np.full(4, x)))
        y += self.y_old
        return y
