"""Dormand-Prince 8(5,3) stepper with 7th-order dense output.

DOP853 of Hairer, Norsett & Wanner, *Solving Ordinary Differential
Equations I*, Sec. II.10: the 12-stage 8th-order pair of Prince & Dormand
(J. Comput. Appl. Math. 7 (1981) 67-75), first-same-as-last, with an error
estimate that blends an embedded 5th- and 3rd-order formula, and a
7th-order interpolant that costs three extra stages.  The step-size control
is that of Sec. II.4: RMS norm over ``atol + rtol * max(|y|, |y_new|)``,
safety factor 0.9, step factors clipped to [0.2, 10], no growth right after
a rejected step, and the initial-step rule for an order-7 estimator.  The
tableau is the data of scipy's ``dop853_coefficients`` (BSD licence) and
the arithmetic follows scipy's ``DOP853`` operation for operation, so the
accepted steps and the dense output agree with it.  A dense output reads
only its own step, so the extra stages of many steps stack, one call each.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import Callable

import numpy as np

EPS = float(np.finfo(float).eps)
SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10.0
ERROR_EXPONENT = -1.0 / 8.0       # -1 / (order of the error estimator + 1)
N_STAGES = 12         # K[N_STAGES] is the FSAL stage f(t + h, y_new)
N_EXTENDED = 16       # three more stages for the dense output

# The tableau: nodes C and stage matrix A over 16 stages, whose row 12 holds
# the weights B of the 8th-order solution (stage 12 is the FSAL stage) and
# rows 13-15 the three extra stages of the dense output; the error weights
# E5 and E3 = B - b3 over K[0..12]; D, the last four coefficient rows of the
# interpolant, over all 16 stages.
C = np.array([
    0.0, 0.526001519587677318785587544488e-01,
    0.789002279381515978178381316732e-01, 0.118350341907227396726757197510,
    0.281649658092772603273242802490, 0.333333333333333333333333333333,
    0.25, 0.307692307692307692307692307692,
    0.651282051282051282051282051282, 0.6,
    0.857142857142857142857142857142, 1.0, 1.0, 0.1, 0.2,
    0.777777777777777777777777777778])
_A_ROWS = {
    1: {0: 5.26001519587677318785587544488e-2},
    2: {0: 1.97250569845378994544595329183e-2,
        1: 5.91751709536136983633785987549e-2},
    3: {0: 2.95875854768068491816892993775e-2,
        2: 8.87627564304205475450678981324e-2},
    4: {0: 2.41365134159266685502369798665e-1,
        2: -8.84549479328286085344864962717e-1,
        3: 9.24834003261792003115737966543e-1},
    5: {0: 3.7037037037037037037037037037e-2,
        3: 1.70828608729473871279604482173e-1,
        4: 1.25467687566822425016691814123e-1},
    6: {0: 3.7109375e-2, 3: 1.70252211019544039314978060272e-1,
        4: 6.02165389804559606850219397283e-2, 5: -1.7578125e-2},
    7: {0: 3.70920001185047927108779319836e-2,
        3: 1.70383925712239993810214054705e-1,
        4: 1.07262030446373284651809199168e-1,
        5: -1.53194377486244017527936158236e-2,
        6: 8.27378916381402288758473766002e-3},
    8: {0: 6.24110958716075717114429577812e-1,
        3: -3.36089262944694129406857109825,
        4: -8.68219346841726006818189891453e-1,
        5: 2.75920996994467083049415600797e1,
        6: 2.01540675504778934086186788979e1,
        7: -4.34898841810699588477366255144e1},
    9: {0: 4.77662536438264365890433908527e-1,
        3: -2.48811461997166764192642586468,
        4: -5.90290826836842996371446475743e-1,
        5: 2.12300514481811942347288949897e1,
        6: 1.52792336328824235832596922938e1,
        7: -3.32882109689848629194453265587e1,
        8: -2.03312017085086261358222928593e-2},
    10: {0: -9.3714243008598732571704021658e-1,
        3: 5.18637242884406370830023853209, 4: 1.09143734899672957818500254654,
        5: -8.14978701074692612513997267357,
        6: -1.85200656599969598641566180701e1,
        7: 2.27394870993505042818970056734e1,
        8: 2.49360555267965238987089396762,
        9: -3.0467644718982195003823669022},
    11: {0: 2.27331014751653820792359768449,
        3: -1.05344954667372501984066689879e1,
        4: -2.00087205822486249909675718444,
        5: -1.79589318631187989172765950534e1,
        6: 2.79488845294199600508499808837e1,
        7: -2.85899827713502369474065508674,
        8: -8.87285693353062954433549289258,
        9: 1.23605671757943030647266201528e1,
        10: 6.43392746015763530355970484046e-1},
    12: {0: 5.42937341165687622380535766363e-2,
        5: 4.45031289275240888144113950566, 6: 1.89151789931450038304281599044,
        7: -5.8012039600105847814672114227,
        8: 3.1116436695781989440891606237e-1,
        9: -1.52160949662516078556178806805e-1,
        10: 2.01365400804030348374776537501e-1,
        11: 4.47106157277725905176885569043e-2},
    13: {0: 5.61675022830479523392909219681e-2,
        6: 2.53500210216624811088794765333e-1,
        7: -2.46239037470802489917441475441e-1,
        8: -1.24191423263816360469010140626e-1,
        9: 1.5329179827876569731206322685e-1,
        10: 8.20105229563468988491666602057e-3,
        11: 7.56789766054569976138603589584e-3, 12: -8.298e-3},
    14: {0: 3.18346481635021405060768473261e-2,
        5: 2.83009096723667755288322961402e-2,
        6: 5.35419883074385676223797384372e-2,
        7: -5.49237485713909884646569340306e-2,
        10: -1.08347328697249322858509316994e-4,
        11: 3.82571090835658412954920192323e-4,
        12: -3.40465008687404560802977114492e-4,
        13: 1.41312443674632500278074618366e-1},
    15: {0: -4.28896301583791923408573538692e-1,
        5: -4.69762141536116384314449447206,
        6: 7.68342119606259904184240953878, 7: 4.06898981839711007970213554331,
        8: 3.56727187455281109270669543021e-1,
        12: -1.39902416515901462129418009734e-3,
        13: 2.9475147891527723389556272149,
        14: -9.15095847217987001081870187138},
}
_D_ROWS = {
    0: {0: -0.84289382761090128651353491142e+1,
        5: 0.56671495351937776962531783590,
        6: -0.30689499459498916912797304727e+1,
        7: 0.23846676565120698287728149680e+1,
        8: 0.21170345824450282767155149946e+1,
        9: -0.87139158377797299206789907490,
        10: 0.22404374302607882758541771650e+1,
        11: 0.63157877876946881815570249290,
        12: -0.88990336451333310820698117400e-1,
        13: 0.18148505520854727256656404962e+2,
        14: -0.91946323924783554000451984436e+1,
        15: -0.44360363875948939664310572000e+1},
    1: {0: 0.10427508642579134603413151009e+2,
        5: 0.24228349177525818288430175319e+3,
        6: 0.16520045171727028198505394887e+3,
        7: -0.37454675472269020279518312152e+3,
        8: -0.22113666853125306036270938578e+2,
        9: 0.77334326684722638389603898808e+1,
        10: -0.30674084731089398182061213626e+2,
        11: -0.93321305264302278729567221706e+1,
        12: 0.15697238121770843886131091075e+2,
        13: -0.31139403219565177677282850411e+2,
        14: -0.93529243588444783865713862664e+1,
        15: 0.35816841486394083752465898540e+2},
    2: {0: 0.19985053242002433820987653617e+2,
        5: -0.38703730874935176555105901742e+3,
        6: -0.18917813819516756882830838328e+3,
        7: 0.52780815920542364900561016686e+3,
        8: -0.11573902539959630126141871134e+2,
        9: 0.68812326946963000169666922661e+1,
        10: -0.10006050966910838403183860980e+1,
        11: 0.77771377980534432092869265740,
        12: -0.27782057523535084065932004339e+1,
        13: -0.60196695231264120758267380846e+2,
        14: 0.84320405506677161018159903784e+2,
        15: 0.11992291136182789328035130030e+2},
    3: {0: -0.25693933462703749003312586129e+2,
        5: -0.15418974869023643374053993627e+3,
        6: -0.23152937917604549567536039109e+3,
        7: 0.35763911791061412378285349910e+3,
        8: 0.93405324183624310003907691704e+2,
        9: -0.37458323136451633156875139351e+2,
        10: 0.10409964950896230045147246184e+3,
        11: 0.29840293426660503123344363579e+2,
        12: -0.43533456590011143754432175058e+2,
        13: 0.96324553959188282948394950600e+2,
        14: -0.39177261675615439165231486172e+2,
        15: -0.14972683625798562581422125276e+3},
}
_E5 = {0: 0.1312004499419488073250102996e-1,
       5: -0.1225156446376204440720569753e+1,
       6: -0.4957589496572501915214079952,
       7: 0.1664377182454986536961530415e+1,
       8: -0.3503288487499736816886487290,
       9: 0.3341791187130174790297318841,
       10: 0.8192320648511571246570742613e-1,
       11: -0.2235530786388629525884427845e-1}


def _table(rows: dict, shape: tuple) -> np.ndarray:
    """A dense array from {row: {column: value}}."""
    out = np.zeros(shape)
    for i, row in rows.items():
        out[i, list(row)] = list(row.values())
    return out


A = _table(_A_ROWS, (N_EXTENDED, N_EXTENDED))
B = A[N_STAGES, :N_STAGES]
D = _table(_D_ROWS, (4, N_EXTENDED))
E5 = _table({0: _E5}, (1, N_STAGES + 1))[0]
E3 = np.append(B, 0.0)
E3[[0, 8, 11]] -= [0.244094488188976377952755905512,
                   0.733846688281611857341361741547,
                   0.220588235294117647058823529412e-1]
# The stage rows (row N_STAGES: B) cast once to the state's complex type, as
# np.dot would at every stage, and the nodes as Python floats.
_ROWS = [A[s, :s].astype(complex) for s in range(N_EXTENDED)]
_NODES = C.tolist()


# An accepted step from (t_old, y_old) to (t, y) with its stages K[0] ..
# K[N_STAGES] (the last one f(t, y)): all that its dense output reads.
Step = namedtuple("Step", "t_old y_old t y K")


def _rms(x: np.ndarray) -> float:
    return np.linalg.norm(x) / x.size ** 0.5


class DormandPrince:
    """Adaptive integration of y' = fun(t, y) from (t0, y0) towards t_final.

    Nothing is evaluated on construction: the first :meth:`step` evaluates
    fun(t0, y0) and the initial-step probe, so every fault of ``fun``
    surfaces from :meth:`step` (or from :meth:`interpolants`, whose fun
    calls take stacked rows).  rtol is floored at 100 eps.  ``nfev`` (the
    evaluated states), ``accepted``, ``rejected``, ``dense_steps`` (the
    steps whose interpolant was built) and the accepted |h| range are
    counted as the work is done (:attr:`stats`)."""

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
        self.K = np.empty((N_EXTENDED, self.y.size), dtype=complex)
        self.t_old = self.y_old = None
        self._F = None    # the last step's interpolant, built lazily
        self.nfev = self.accepted = self.rejected = self.dense_steps = 0
        self.h_min = math.inf
        self.h_max = 0.0

    @property
    def finished(self) -> bool:
        return self.direction * (self.t - self.t_final) >= 0

    @property
    def stats(self) -> dict:
        steps = self.accepted > 0
        return {"nfev": self.nfev, "accepted": self.accepted,
                "rejected": self.rejected, "dense": self.dense_steps,
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
            h1 = (0.01 / max(d1, d2)) ** (1 / 8)
        return min(100 * h0, h1, interval)

    def _attempt(self, h: float) -> np.ndarray:
        """One Runge-Kutta step of size h from (t, y) into K; returns y_new."""
        t, y, K = self.t, self.y, self.K
        K[0] = self.f
        for s in range(1, N_STAGES):
            dy = np.dot(K[:s].T, _ROWS[s]) * h
            K[s] = self._eval(t + _NODES[s] * h, y + dy)
        y_new = y + h * np.dot(K[:N_STAGES].T, _ROWS[N_STAGES])
        K[N_STAGES] = self._eval(t + h, y_new)
        return y_new

    def _error_norm(self, h: float, scale: np.ndarray) -> float:
        """The 5th-order error estimate, damped where the 3rd-order one is
        small: |h| ||e5||^2 / sqrt(n (||e5||^2 + 0.01 ||e3||^2))."""
        K = self.K[:N_STAGES + 1]
        err5 = np.linalg.norm(np.dot(K.T, E5) / scale) ** 2
        err3 = np.linalg.norm(np.dot(K.T, E3) / scale) ** 2
        if err5 == 0 and err3 == 0:
            return 0.0
        return abs(h) * err5 / np.sqrt((err5 + 0.01 * err3) * scale.size)

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
            error = self._error_norm(h, scale)
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
        self.t, self.y, self.f = t_new, y_new, self.K[N_STAGES].copy()
        self.h_abs = h_abs * factor
        self._F = None
        return True

    @property
    def last_step(self) -> Step:
        """The last accepted step, its stages copied."""
        return Step(self.t_old, self.y_old, self.t, self.y,
                    self.K[:N_STAGES + 1].copy())

    def interpolants(self, steps: list[Step]) -> np.ndarray:
        """The seven coefficient rows of each step's interpolant, (steps, 7,
        n): its three extra stages in three calls of fun, on one state row
        per step, formed with that step's own operations."""
        K = np.empty((len(steps), N_EXTENDED, self.y.size), dtype=complex)
        K[:, :N_STAGES + 1] = [step.K for step in steps]
        h = [step.t - step.t_old for step in steps]
        for s in range(N_STAGES + 1, N_EXTENDED):
            t = [step.t_old + _NODES[s] * hk for step, hk in zip(steps, h)]
            y = [step.y_old + np.dot(k[:s].T, _ROWS[s]) * hk
                 for step, k, hk in zip(steps, K, h)]
            self.nfev += len(steps)
            K[:, s] = self.fun(np.array(t), np.array(y))
        self.dense_steps += len(steps)
        F = np.empty((len(steps), 7, self.y.size), dtype=complex)
        for step, k, hk, f in zip(steps, K, h, F):
            delta_y = step.y - step.y_old
            f[0] = delta_y
            f[1] = hk * k[0] - delta_y
            f[2] = 2 * delta_y - hk * (k[N_STAGES] + k[0])
            f[3:] = hk * np.dot(D, k)
        return F

    def dense(self, t) -> np.ndarray:
        """:func:`interpolate` in the last accepted step (its interpolant
        built on the first call with a time inside it)."""
        step, t = self.last_step, np.asarray(t, dtype=float)
        if self._F is None and (t != step.t).any():
            self._F = self.interpolants([step])[0]
        return interpolate(step, self._F, t)


def interpolate(step: Step, F: np.ndarray | None, t) -> np.ndarray:
    """The solution at t (a time, or an array of times, one row each) in
    ``step``: its own y at its end, elsewhere the 7th-order interpolant of
    the rows F (None if every t is the end).  One Horner pass serves all
    times, each with the operations of a call of its own: the same bits."""
    t = np.asarray(t, dtype=float)
    at_end = t == step.t
    if at_end.all():
        return np.broadcast_to(step.y, t.shape + step.y.shape).copy()
    x = ((t - step.t_old) / (step.t - step.t_old))[..., None]
    y = np.zeros(t.shape + step.y.shape, dtype=complex)
    for i, f in enumerate(reversed(F)):
        y += f
        y *= x if i % 2 == 0 else 1 - x
    y += step.y_old
    y[at_end] = step.y
    return y
