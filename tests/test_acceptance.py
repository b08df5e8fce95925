"""Acceptance battery: one test per structural guarantee, eleven in all.

Each test prints a single line

    criterion NN <label>: PASS|FAIL (worst <residual> vs tol <threshold>)

(visible under ``pytest -s``) and then asserts.  Tolerances are pinned here
and nowhere else; they are deliberately loose relative to what the library
actually achieves, so a failure means something structural broke, not that a
random draw got unlucky.

Sampling notes.  Random configuration points keep a collision margin of at
least 0.2 (min |(alpha, q)|, |sin (alpha, q)| or lattice distance over the
active roots), because coefficient magnitudes grow like 1/u^2 near a wall
and float cancellation would otherwise dominate the residuals being
measured.  Spectral parameters live on rings bounded away from 0 and from
each other.  The T = 10 reduced trajectories are computed once per family
and shared between the conservation and Lax criteria.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from spincm.elliptic import Lattice, l_kernel
from spincm.rootsys import AlgElement, build_root_system, torus_adjoint
from spincm.phase import PhasePoint, gauge_g, project_pi, torus_action
from spincm.rmatrix import verify_axioms, verify_cdybe, verify_mdybe
from spincm.dynamics import (collision_margin, fpbr_residual, hamiltonian,
                             integrate, involution_residuals, lax_residuals,
                             make_system, spectral_drifts, spinless_state)

from helpers import point, poisson_reduced, spin_coordinate_function, stack
from test_phase import SL3_ROOTS, SL3_TABLE

WIDE = Lattice(2.0, 2.2j)
SKEW = Lattice(1.7, 0.4 + 1.9j)
FAMILIES = ("rational", "trigonometric", "elliptic")

Q_MARGIN = 0.2

_SYSTEMS: dict = {}
_TRAJECTORIES: dict = {}


def system(family, rank):
    key = (family, rank)
    if key not in _SYSTEMS:
        kwargs = {"lattice": WIDE} if family == "elliptic" else {}
        _SYSTEMS[key] = make_system(family, rank, **kwargs)
    return _SYSTEMS[key]


def _gate(num, label, pairs):
    """pairs: [(measured, tol)]; print the one-line verdict, then assert."""
    ok = all(v < t for v, t in pairs)
    _, worst, tol = max(((v / t, v, t) for v, t in pairs))
    line = (f"criterion {num:02d} {label}: {'PASS' if ok else 'FAIL'} "
            f"(worst {worst:.3e} vs tol {tol:.1e})")
    print(line)
    assert ok, line


# -- guarded samplers ---------------------------------------------------------


def guarded_q(sys_, rng, lo=0.55, hi=1.15):
    rs = sys_.rs
    for _ in range(200):
        q = rng.uniform(lo, hi, size=rs.rank) * np.sign(rng.normal(size=rs.rank))
        if collision_margin(sys_, q.astype(complex)) >= Q_MARGIN:
            return q
    raise AssertionError("no admissible q after 200 draws")


def sigma_point(sys_, rng, scale=0.8):
    """Random point with J = 0 and every root component populated."""
    rs = sys_.rs
    vec = rng.normal(size=rs.dim) + 1j * rng.normal(size=rs.dim)
    vec[:rs.rank] = 0.0
    q = guarded_q(sys_, rng)
    p = scale * rng.normal(size=rs.rank)
    return point(rs, q.astype(complex), p.astype(complex), vec)


def generic_point(sys_, rng):
    """Like sigma_point but with a nonzero Cartan spin block (J != 0)."""
    x = sigma_point(sys_, rng)
    vec = x.xi.copy()
    vec[:sys_.rs.rank] = rng.normal(size=sys_.rs.rank) \
        + 1j * rng.normal(size=sys_.rs.rank)
    return point(sys_.rs, x.q, x.p, vec)


def reduced_point(sys_, rng):
    rs = sys_.rs
    n_s = rs.n_roots - rs.rank
    s = rng.normal(size=n_s) + 1j * rng.normal(size=n_s)
    q = guarded_q(sys_, rng).astype(complex)
    return point(rs, q, rng.normal(size=rs.rank).astype(complex), s, True)


def ring_z(rng, lo=0.25, hi=0.8):
    return complex(rng.uniform(lo, hi)
                   * cmath.exp(2j * math.pi * rng.uniform()))


def ring_z_tuple(rng, n, sep=0.1):
    """n ring samples with pairwise separation sep (differences feed the
    coefficient functions, which are singular at 0)."""
    for _ in range(200):
        zs = [ring_z(rng) for _ in range(n)]
        if all(abs(a - b) >= sep for i, a in enumerate(zs)
               for b in zs[i + 1:]):
            return zs
    raise AssertionError("no admissible z tuple after 200 draws")


def random_laurent(rs, order, rng):
    """Principal coefficients (order, dim) of a random pole-only Laurent
    covector."""
    return np.array([rng.normal(size=rs.dim) + 1j * rng.normal(size=rs.dim)
                     for _ in range(order)])


def conserved_trajectory(family, rank):
    """Reduced T = 10 run at tol 1e-10, shared by criteria 05 and 06.

    The initial-point margin guard does not stop the flow from drifting
    toward a wall later, and the conditioning of the pointwise Lax identity
    degrades like the squared coefficient magnitude there.  So candidate
    seeds are scanned in a fixed order and the first run that completes
    while keeping the collision margin at 0.2 over the whole grid is kept;
    the measurement should be about structure, not float cancellation.

    The margin is also capped from above.  For the trigonometric family
    |sin (alpha, q)| grows like exp |Im (alpha, q)|, and scattering
    trajectories with complex spin send Im q off linearly; the exponential
    compensator in the coefficients then amplifies cancellation until the
    pointwise residual measures nothing but float noise (observed: margin
    6e+19 at t = 10 turns an identity satisfied at 1e-13 into 4e-5).  Runs
    are rejected once any margin exceeds 1e9, which bounds the compensator
    at a few dozen.  The cap never binds for the other families.
    """
    key = (family, rank)
    if key not in _TRAJECTORIES:
        sys_ = system(family, rank)
        n_points = 61 if (family, rank) == ("elliptic", 2) else 101
        base = 5000 + 10 * FAMILIES.index(family) + rank
        for attempt in range(6):
            rng = np.random.default_rng(base + 1000 * attempt)
            red = reduced_point(sys_, rng)
            traj = integrate(sys_, red, 10.0, 1e-10, n_points=n_points)
            if not traj.completed:
                continue
            margins = [collision_margin(sys_, pt.q) for pt in traj.points]
            if min(margins) >= Q_MARGIN and max(margins) <= 1e9:
                break
        else:
            raise AssertionError(f"no well-conditioned run for {key}")
        _TRAJECTORIES[key] = traj
    return _TRAJECTORIES[key]


# -- the battery --------------------------------------------------------------


def test_01_r_matrix_axioms():
    # zero weight, unitarity and the Casimir residue at z = 0: 20 (q, z)
    # samples per family and rank.
    pairs = []
    for family in FAMILIES:
        tol = 1e-8 if family == "elliptic" else 1e-10
        for rank in (1, 2):
            sys_ = system(family, rank)
            rng = np.random.default_rng(100 + rank)
            samples = [(guarded_q(sys_, rng), ring_z(rng)) for _ in range(20)]
            rep = verify_axioms(sys_, *zip(*samples))
            worst = max(np.max(rep["zero_weight"]), np.max(rep["unitarity"]),
                        np.max(rep["residue"]))
            pairs.append((worst, tol))
    _gate(1, "r-matrix axioms", pairs)


def test_02_dynamical_yang_baxter():
    pairs = []
    for family in FAMILIES:
        tol = 1e-8 if family == "elliptic" else 1e-10
        sys_ = system(family, 2)
        rng = np.random.default_rng(200)
        worst = 0.0
        for _ in range(10):
            q = guarded_q(sys_, rng)
            z1, z2, z3 = ring_z_tuple(rng, 3)
            worst = max(worst, verify_cdybe(sys_, q, z1, z2, z3))
        pairs.append((worst, tol))
    _gate(2, "dynamical Yang-Baxter equation", pairs)


def test_03_modified_dynamical_yang_baxter():
    # operator form with c = -1/4, Laurent arguments of pole order <= 2
    pairs = []
    for family in ("rational", "trigonometric"):
        for rank in (1, 2):
            sys_ = system(family, rank)
            rng = np.random.default_rng(300 + rank)
            worst = 0.0
            for k in range(10):
                q = guarded_q(sys_, rng)
                xi = random_laurent(sys_.rs, 1 + k % 2, rng)
                eta = random_laurent(sys_.rs, 2, rng)
                worst = max(worst, verify_mdybe(sys_, q, xi, eta))
            pairs.append((worst, 1e-8))
    _gate(3, "modified dynamical Yang-Baxter equation", pairs)


def test_04_reduced_bracket_table():
    # the six closed-form sl(3) brackets of the reduced spin coordinates
    rs = build_root_system("A", 2)
    rng = np.random.default_rng(400)
    worst = 0.0
    for _ in range(100):
        vals = {name: complex(rng.normal(), rng.normal() * 0.5)
                for name in SL3_ROOTS}
        red = PhasePoint.make_reduced(
            rs, rng.normal(size=2), rng.normal(size=2),
            {SL3_ROOTS[n]: v for n, v in vals.items()})
        for (na, nb), formula in SL3_TABLE.items():
            fa = spin_coordinate_function(rs, SL3_ROOTS[na])
            fb = spin_coordinate_function(rs, SL3_ROOTS[nb])
            got = poisson_reduced(fa, fb, red)
            worst = max(worst, abs(got - formula(vals)))
    _gate(4, "reduced bracket table", [(worst, 1e-12)])


def test_05_conserved_quantities_along_flow():
    # relative drift of the energy and of every h_k(z) (k <= n+1, 8 ring
    # samples) along reduced trajectories to T = 10 at tol 1e-10
    pairs = []
    for family in FAMILIES:
        for rank in (1, 2):
            sys_ = system(family, rank)
            traj = conserved_trajectory(family, rank)
            e = traj.energy
            e_drift = float(np.max(np.abs(e - e[0])) / max(1.0, abs(e[0])))
            pairs.append((e_drift, 1e-6))
            pairs.append((spectral_drifts(sys_, traj)["spectrum_drift"], 1e-6))
    _gate(5, "conserved quantities along the reduced flow", pairs)


def test_06_lax_pair():
    pairs = []
    # unreduced dL/dt = [B, L] on the J = 0 surface
    for family in FAMILIES:
        for rank in (1, 2):
            sys_ = system(family, rank)
            rng = np.random.default_rng(600 + rank)
            worst = np.max(lax_residuals(
                sys_, stack([sigma_point(sys_, rng) for _ in range(3)])))
            pairs.append((worst, 1e-6))
    # reduced form along the shared trajectories: isospectrality of
    # rho(L_0(z)) and the pointwise dL_0/dt = [B_0, L_0] residual
    for family in FAMILIES:
        sys_ = system(family, 2)
        traj = conserved_trajectory(family, 2)
        rep = spectral_drifts(sys_, traj)
        pairs.append((rep["isospectral_drift"], 1e-5))
        at = np.linspace(0, traj.n_points - 1, 9).astype(int)
        pairs.append((np.max(lax_residuals(sys_, traj.points[at])), 1e-5))
    # off the constraint surface the rational flow satisfies the quasi-Lax
    # equation with the momentum anomaly
    for rank in (1, 2):
        sys_ = system("rational", rank)
        rng = np.random.default_rng(660 + rank)
        worst = np.max(lax_residuals(
            sys_, stack([generic_point(sys_, rng) for _ in range(5)])))
        pairs.append((worst, 1e-6))
    _gate(6, "Lax pair", pairs)


def test_07_involution_of_spectral_invariants():
    battery = [
        ((2, 0.41 + 0.22j), (3, -0.33 + 0.47j)),
        ((2, 0.41 + 0.22j), (2, -0.52 - 0.18j)),
        ((3, 0.29 - 0.44j), (3, -0.33 + 0.47j)),
        ((1, 0.61 + 0.09j), (3, 0.29 - 0.44j)),
        ((2, -0.52 - 0.18j), (3, 0.29 - 0.44j)),
        ((1, 0.61 + 0.09j), (2, 0.41 + 0.22j)),
    ]
    pairs = []
    for family in FAMILIES:
        tol = 1e-6 if family == "elliptic" else 1e-8
        sys_ = system(family, 2)
        rng = np.random.default_rng(700)
        worst = np.max(involution_residuals(
            sys_, stack([reduced_point(sys_, rng) for _ in range(2)]),
            battery))
        pairs.append((worst, tol))
    _gate(7, "involution of spectral invariants", pairs)


def test_08_spinless_limit():
    # every spin component equal to m: H collapses to the classical
    # inverse-square pair potential in particle coordinates, and the reduced
    # spin coordinates are frozen by the flow
    pairs = []
    rng = np.random.default_rng(800)
    for rank in (1, 2):
        sys_ = system("rational", rank)
        rs = sys_.rs
        n = rank + 1
        h_diag = np.array([np.diag(rs.basis_matrices[a]).real
                           for a in range(rank)])
        worst = 0.0
        for _ in range(50):
            while True:
                x_part = rng.normal(size=n) * 1.5
                x_part -= x_part.mean()
                gaps = [abs(x_part[i] - x_part[j])
                        for i in range(n) for j in range(i + 1, n)]
                if min(gaps) >= 0.3:
                    break
            pi_part = rng.normal(size=n)
            pi_part -= pi_part.mean()
            m = complex(rng.normal(), rng.normal()) * 0.8
            w = spinless_state(rs, h_diag @ x_part, h_diag @ pi_part, m)
            href = 0.5 * np.sum(pi_part ** 2) - sum(
                m ** 2 / (x_part[i] - x_part[j]) ** 2
                for i in range(n) for j in range(i + 1, n))
            worst = max(worst, abs(hamiltonian(sys_, w) - href))
        pairs.append((worst, 1e-12))
    # s constant along the reduced flow; imaginary m keeps the pair
    # potential repulsive so the run cannot hit the collision guard
    sys2 = system("rational", 2)
    red0 = project_pi(spinless_state(sys2.rs, guarded_q(sys2, rng),
                                     rng.normal(size=2), 1j))
    traj = integrate(sys2, red0, 2.0, 1e-11, n_points=41)
    assert traj.completed, traj.abort_reason
    s_drift = max(float(np.max(np.abs(pt.spin - red0.spin)))
                  for pt in traj.points)
    pairs.append((s_drift, 1e-10))
    _gate(8, "spinless limit", pairs)


def test_09_gauge_map():
    # equivariance of the gauge torus element under small torus shifts, and
    # invariance of the reduction projection along torus orbits
    sys_ = system("rational", 2)
    rs = sys_.rs
    rng = np.random.default_rng(900)
    worst_eq = worst_proj = 0.0
    for _ in range(50):
        while True:
            x = sigma_point(sys_, rng)
            vals = np.array([x.xi[rs.basis_index(rs.roots[i])]
                             for i in range(rs.rank)])
            # keep the simple components away from the log branch cut
            if np.all(np.abs(vals) > 0.3) \
                    and np.all(np.abs(np.angle(vals)) < 2.0):
                break
        c = rng.uniform(-0.1, 0.1, size=rs.rank) \
            + 1j * rng.uniform(-0.1, 0.1, size=rs.rank)
        shifted = gauge_g(point(rs, x.q, x.p, torus_adjoint(
            c, AlgElement(rs, x.xi)).vec))
        worst_eq = max(worst_eq, float(np.max(np.abs(
            shifted - (gauge_g(x) + c)))))
        ra, rb = project_pi(x), project_pi(torus_action(c, x))
        worst_proj = max(worst_proj, float(np.max(np.abs(ra.spin
                                                         - rb.spin))))
    _gate(9, "gauge map", [(worst_eq, 1e-10), (worst_proj, 1e-10)])


def test_10_fundamental_bracket_relation():
    # {L(z), L(w)} against the r-matrix commutator plus the momentum term,
    # at generic unreduced points (Cartan spin block nonzero)
    worst = 0.0
    for rank in (1, 2):
        sys_ = system("rational", rank)
        rng = np.random.default_rng(1000 + rank)
        for _ in range(10):
            x = generic_point(sys_, rng)
            for _ in range(4):
                z, w = ring_z_tuple(rng, 2, sep=0.15)
                worst = max(worst, fpbr_residual(sys_, x, z, w))
    _gate(10, "fundamental bracket relation", [(worst, 1e-7)])


def test_11_elliptic_function_layer():
    # zeta = sigma'/sigma and wp = -zeta' by directional finite differences,
    # plus exact symmetry of the two-variable kernel
    h = 1e-5
    worst_fd = worst_sym = 0.0
    for lattice in (WIDE, SKEW):
        rng = np.random.default_rng(1100)

        def cell_point():
            while True:
                z = (2 * lattice.omega1 * rng.uniform(0.05, 0.95)
                     + 2 * lattice.omega2 * rng.uniform(0.05, 0.95))
                if lattice.lattice_distance(z) >= 0.25:
                    return z

        for _ in range(50):
            z = cell_point()
            d = cmath.exp(2j * math.pi * rng.uniform())
            sig_p = (lattice.sigma(z + h * d) - lattice.sigma(z - h * d)) \
                / (2 * h * d)
            zet_p = (lattice.zeta(z + h * d) - lattice.zeta(z - h * d)) \
                / (2 * h * d)
            zet = lattice.zeta(z)
            wp = lattice.wp(z)
            worst_fd = max(
                worst_fd,
                abs(sig_p / lattice.sigma(z) - zet) / max(1.0, abs(zet)),
                abs(-zet_p - wp) / max(1.0, abs(wp)))
            w = cell_point()
            worst_sym = max(worst_sym, abs(l_kernel(lattice, w, z)
                                           - l_kernel(lattice, z, w)))
    _gate(11, "elliptic function layer", [(worst_fd, 1e-8),
                                          (worst_sym, 1e-12)])
