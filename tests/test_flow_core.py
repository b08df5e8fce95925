"""The flat flow core behind `vector_field` (at both point kinds),
`integrate` and the Lax check: an independent oracle for the field, pinned
trajectories (checked also against their values from the 5(4) pair before
the core was flattened), its fault paths, the core against its composition
from public pieces and a stacked call against its single-state calls (bit
for bit), and the stacked diagnostics against per-point loops.

The oracle builds the field from `pair_weight` and the dense structure
tensor of the matrix units (`dense_reference`); the reduced field is the
push-forward of the unreduced one through the invariants s_gamma =
xi_gamma prod_j xi_{alpha_j}^(-m_gamma^j), whose differential at the slice
lift is ds_gamma = dxi_gamma - s_gamma sum_j m_gamma^j dxi_{alpha_j}.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_reference import dense_structure
from helpers import pair_weight, point
from spincm import dynamics
from spincm.dynamics import (conserved_spectrum, hamiltonian,
                             integrate, lax_L, make_system, spectral_drifts,
                             spinless_state, vector_field)
from spincm.elliptic import Lattice
from spincm.errors import PoleError, StructuralError, raise_on_fp_fault
from spincm.phase import (PhasePoint, lift_reduced, momentum_J,
                          reduced_roots, slice_lift)
from spincm.rmatrix import positive_pair_weight
from spincm.rootsys import matrix_rep

FAMILIES = ("rational", "trigonometric", "elliptic")


def system(family, rank):
    lattice = Lattice(2.0, 2.2j) if family == "elliptic" else None
    return make_system(family, rank, lattice=lattice)


def oracle_field(sys_, q, p, xi):
    """(dq, dp, dxi) of the unreduced flow from pair_weight and a dense
    einsum over the structure constants."""
    rs = sys_.rs
    w, w_du = pair_weight(sys_, rs.root_values(q))
    roots = xi[rs.rank:]
    prod = roots * roots[rs.dual_index[rs.rank:] - rs.rank]
    grad_q = -0.5 * rs.alpha_h.T @ (w_du * prod)
    grad_xi = np.concatenate([np.zeros(rs.rank), -w * roots])
    spin = -np.einsum("a,b,abc->c", grad_xi, xi, dense_structure(rs))
    return p, -grad_q, spin


def oracle_reduced(sys_, x_red):
    rs = sys_.rs
    xi = lift_reduced(x_red).xi
    dq, dp, dxi = oracle_field(sys_, x_red.q, x_red.p, xi)
    ds = []
    for root, s in zip(reduced_roots(rs), x_red.spin):
        chain = sum(m * dxi[rs.basis_index(simple)]
                    for m, simple in zip(root, rs.simple_roots))
        ds.append(dxi[rs.basis_index(root)] - s * chain)
    return dq, dp, np.array(ds)


def random_state(sys_, seed):
    """q with simple-root values in [0.25, 0.6] (every root value in
    [0.25, 2.4], clear of every wall), random p and complex spins."""
    rs = sys_.rs
    rng = np.random.default_rng(seed)
    q = np.linalg.solve(rs.alpha_h[:rs.rank],
                        rng.uniform(0.25, 0.6, size=rs.rank))
    p = rng.normal(size=rs.rank)
    xi = rng.normal(size=rs.dim) + 1j * rng.normal(size=rs.dim)
    return q.astype(complex), p.astype(complex), xi


def rel_err(got, want):
    return np.max(np.abs(got - want)) / max(1.0, np.max(np.abs(want)))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(FAMILIES), st.integers(1, 4),
       st.integers(0, 2 ** 32 - 1))
def test_fields_match_the_dense_oracle(family, rank, seed):
    sys_ = system(family, rank)
    rs = sys_.rs
    q, p, xi = random_state(sys_, seed)
    v = vector_field(sys_, point(rs, q, p, xi))
    want = np.concatenate(oracle_field(sys_, q, p, xi))
    assert rel_err(np.concatenate([v.q, v.p, v.xi]), want) < 1e-13
    x_red = point(rs, q, p, xi[2 * rs.rank:], True)
    v_red = vector_field(sys_, x_red)
    want = np.concatenate(oracle_reduced(sys_, x_red))
    assert rel_err(np.concatenate([v_red.q, v_red.p, v_red.spin]),
                   want) < 1e-13


# Final points and solver counts (nfev, accepted, rejected, dense) of three
# runs of the Dormand-Prince 8(5,3) driver: T = 0.5, tol 1e-9, 5 grid points
# from pin_start.  Final state q | p | xi, or q | p | s.
PINNED = {
    ("elliptic", 4, False): ((131, 9, 1, 3), [
        (0.598300181684911-6.853317986320888e-19j),
        (0.7962766335062629-1.6624499153213315e-17j),
        (1.07566281190829+1.474038188604688e-17j),
        (1.5641893222929284-2.2968071901523795e-17j),
        (0.38525264517810165-8.480161710780525e-18j),
        (0.5908112060986644-5.300763188037191e-17j),
        (0.44860031305356207-4.090600463810837e-17j),
        (1.2328087526815688-3.8987275652303546e-17j),
        (1.9798737248860943e-17-7.60657717025006e-18j),
        (-7.354750478473281e-17-8.849334335451281e-18j),
        (-8.484596183518374e-17-7.239136571399679e-18j),
        (8.179405225973521e-17+1.5775962418788265e-17j),
        (0.2323721731665856+0.325581284992564j),
        (0.0626751623348881+0.39505926647275447j),
        (-0.04178168482920814+0.39781187867288254j),
        (-0.18879753153960166+0.3526407408174442j),
        (0.2805166004258434+0.2851498498783484j),
        (0.021066705786227474+0.39944485715422096j),
        (-0.2245995625037543+0.3309909916046988j),
        (0.24919698664475393+0.31289113417896625j),
        (-0.16996306070515524+0.3620946809805636j),
        (0.07200984051520208+0.39346484324373576j),
        (-0.23237217316658562+0.32558128499256406j),
        (-0.06267516233488805+0.39505926647275447j),
        (0.041781684829208215+0.39781187867288254j),
        (0.18879753153960163+0.35264074081744423j),
        (-0.2805166004258433+0.28514984987834835j),
        (-0.021066705786227425+0.39944485715422096j),
        (0.2245995625037543+0.33099099160469875j),
        (-0.24919698664475395+0.31289113417896625j),
        (0.1699630607051552+0.3620946809805636j),
        (-0.07200984051520205+0.3934648432437357j)]),
    ("rational", 4, True): ((947, 59, 19, 3), [
        (0.6814871229230673+0.10720331985228806j),
        (0.990283843010562+0.6653975291917443j),
        (1.3397163256185263+0.9824583916111815j),
        (0.6627932164678184-1.1699791047385975j),
        (0.27576150521490156+0.43531650440043296j),
        (1.4351506269561296+1.8313610847672435j),
        (0.7581620983933234+1.8057571787481237j),
        (-0.6473279209948446-2.90461270198837j),
        (0.18668032585982644+0.5575360818534113j),
        (0.8117410557098296+0.45743831523002026j),
        (0.6698940555925403-0.6116540448607641j),
        (-0.14105502181368396+0.9296362142386798j),
        (-0.24215072460510262-0.6322832360970544j),
        (-0.26170851169912573+0.03224121366490327j),
        (-0.025964468882768408-0.2248905706587199j),
        (-0.19027593777257581-1.1161327811837123j),
        (-0.5559816968474712-0.3426333332473056j),
        (0.18383600407474943+0.2241115753454498j),
        (0.15417510066697312+0.3994837285615944j),
        (0.6066417491841828-0.47217951419477294j),
        (0.12729891634963691+0.24207412429335898j),
        (-0.016310173597066376-0.10907687053038j),
        (-0.23546790261271025+1.4032365753983493j),
        (-0.8422256007993744-1.5200123297689567j)]),
    ("trigonometric", 3, True): ((227, 15, 3, 3), [
        (0.5669668550037128-0.06581004199235684j),
        (1.0850343413149857-0.22652127679162493j),
        (1.5896798705554274+0.024055095975819188j),
        (0.4613035215277207+0.4678945064292098j),
        (2.0838720394589467-0.48671289157096087j),
        (2.142007712938216-0.03600737305209118j),
        (0.05426701071467211+0.15934921775200822j),
        (0.893653709688948+0.6358661487816126j),
        (0.08540008437856411+0.8578805790197382j),
        (-0.4204706242892567-0.22005816133992268j),
        (-0.698992538334597+0.5499203577235596j),
        (-0.2633848689400796+0.22293844163461168j),
        (-0.21784940960549282-0.8640668667259221j),
        (-0.341033065244779-0.44528362328272186j),
        (0.49209436224962094-0.37595593474538513j)]),
}

# The same final points from the Dormand-Prince 5(4) pair that the driver
# used before, recorded before the flow core was flattened (the per-point
# vector field, the dense two-step bracket and P = C F C^T): a cross-method
# check, to 1e-7 (the two methods differ by 2e-10 to 5e-9 here).
DP5_FINALS = {
    ("elliptic", 4, False): [
        (0.5983001816165913-6.814289260924383e-19j),
        (0.7962766335963419-4.1853416356138634e-19j),
        (1.0756628119239684-5.605650444227369e-19j),
        (1.5641893222770575+1.3858933727342763e-18j),
        (0.3852526451980039-3.006906845273884e-18j),
        (0.5908112058825465+3.2006047124049105e-18j),
        (0.448600313396301-7.23686875574089e-18j),
        (1.2328087524646867+5.500425747242073e-18j),
        (2.1396895729474154e-18-5.646704997889325e-18j),
        (-1.9455259542129055e-18-4.589136353378268e-19j),
        (-2.4459151782858862e-18+9.719095459693287e-19j),
        (-5.395508347340688e-19-1.896281519391508e-18j),
        (0.2323721731529251+0.3255812849955097j),
        (0.06267516236430813+0.39505926646760303j),
        (-0.0417816848410358+0.39781187866808604j),
        (-0.1887975315707664+0.3526407408002235j),
        (0.2805166004360718+0.2851498498658853j),
        (0.02106670580418887+0.3994448571493533j),
        (-0.2245995625475357+0.33099099157104417j),
        (0.24919698664385476+0.31289113417828557j),
        (-0.1699630607254704+0.3620946809661548j),
        (0.0720098404794202+0.3934648432479131j),
        (-0.2323721731529251+0.3255812849955097j),
        (-0.06267516236430813+0.39505926646760303j),
        (0.04178168484103581+0.39781187866808604j),
        (0.1887975315707664+0.3526407408002235j),
        (-0.2805166004360718+0.2851498498658853j),
        (-0.021066705804188852+0.3994448571493533j),
        (0.2245995625475357+0.33099099157104417j),
        (-0.24919698664385476+0.31289113417828557j),
        (0.1699630607254704+0.3620946809661548j),
        (-0.0720098404794202+0.3934648432479131j)],
    ("rational", 4, True): [
        (0.6814871228922579+0.10720331997442188j),
        (0.9902838432526899+0.6653975299803134j),
        (1.3397163214140364+0.9824583909020169j),
        (0.6627932214902743-1.1699791052569821j),
        (0.27576150603175875+0.4353165049821263j),
        (1.435150627447901+1.8313610904271223j),
        (0.7581620849120522+1.8057571717623588j),
        (-0.647327907483734-2.9046127025437203j),
        (0.18668032732549028+0.5575360816573375j),
        (0.8117410532255561+0.4574383180976098j),
        (0.6698940520554684-0.6116540494024819j),
        (-0.1410550238742922+0.9296362131299477j),
        (-0.24215072522159367-0.6322832353044219j),
        (-0.2617085084691523+0.03224121265261945j),
        (-0.025964468940004034-0.2248905706818549j),
        (-0.19027594126454295-1.1161327814561233j),
        (-0.5559816984443257-0.3426333323185641j),
        (0.18383600470339362+0.22411157864242323j),
        (0.15417509955510555+0.39948372708806296j),
        (0.6066417465289765-0.47217951600151153j),
        (0.12729891904207993+0.24207412497186684j),
        (-0.016310170749806903-0.10907687308069311j),
        (-0.23546790259362582+1.4032365811873015j),
        (-0.8422256041220668-1.520012336865988j)],
    ("trigonometric", 3, True): [
        (0.5669668550093729-0.06581004192494698j),
        (1.0850343414711212-0.22652127688582446j),
        (1.5896798705361008+0.024055095996617003j),
        (0.4613035215346123+0.4678945065540724j),
        (2.083872039501388-0.48671289118515254j),
        (2.142007712105851-0.03600737279966739j),
        (0.05426701077263121+0.15934921764114574j),
        (0.8936537096199825+0.6358661491105186j),
        (0.08540008442686767+0.8578805791703599j),
        (-0.4204706242113448-0.2200581613815616j),
        (-0.6989925382356235+0.5499203578686253j),
        (-0.2633848689787565+0.22293844165467036j),
        (-0.21784940978398712-0.8640668666561333j),
        (-0.3410330653952713-0.445283623194902j),
        (0.49209436212474056-0.37595593483043954j)],
}


def pin_start(family, rank, reduced):
    sys_ = system(family, rank)
    rs = sys_.rs
    q = np.linalg.solve(rs.alpha_h[:rank], [0.5, 0.6, 0.55, 0.45][:rank])
    p = np.array([0.3, -0.1, 0.2, 0.05][:rank])
    if not reduced:
        return sys_, spinless_state(rs, q, p, 0.4j)
    k = np.arange(rs.n_roots - rank)
    s = (0.3 + 0.05 * k) * np.exp(0.7j * k)
    return sys_, point(rs, q.astype(complex), p.astype(complex), s, True)


@pytest.mark.parametrize("key", list(PINNED), ids=lambda key: "-".join(
    [key[0], f"A{key[1]}", "reduced" if key[2] else "unreduced"]))
def test_trajectories_match_the_pinned_runs(key):
    counts, final = PINNED[key]
    sys_, x0 = pin_start(*key)
    traj = integrate(sys_, x0, 0.5, 1e-9, n_points=5)
    assert traj.completed
    assert (traj.stats["nfev"], traj.stats["accepted"],
            traj.stats["rejected"], traj.stats["dense"]) == counts
    got = traj.points[-1].y
    assert rel_err(got, np.array(final)) < 1e-12
    assert rel_err(got, np.array(DP5_FINALS[key])) < 1e-7


# -- fault paths ---------------------------------------------------------------


def test_overflow_in_the_field_aborts_with_finite_points():
    """Spins of 1e160 on the positive roots and 1e-160 on the negative
    ones: every xi_alpha xi_{-alpha}, and so H, stays of order one, but the
    coadjoint leg multiplies two positive spins and overflows."""
    sys_ = system("rational", 2)
    rs = sys_.rs
    q, p, _ = random_state(sys_, 5)
    xi = np.zeros(rs.dim, dtype=complex)
    xi[rs.rank:rs.rank + rs.n_pos] = 1e160
    xi[rs.rank + rs.n_pos:] = 1e-160
    x0 = point(rs, q, p, xi)
    traj = integrate(sys_, x0, 0.5, 1e-9, n_points=5)
    assert not traj.completed
    assert traj.abort_reason.startswith("integration aborted at t = 0: ")
    assert "overflow" in traj.abort_reason
    assert all(np.all(np.isfinite(pt.y)) for pt in traj.points)
    assert np.all(np.isfinite(traj.energy))


def test_energy_fault_cuts_the_trajectory(monkeypatch):
    """A grid point whose energy faults ends the trajectory before it; a
    fault at the initial point is a StructuralError."""
    sys_ = system("rational", 1)
    x0 = PhasePoint.make(sys_.rs, [0.7], [0.3])
    energy = dynamics._energy

    def faulty(system_, q, p, xi):
        if np.any(q.real > limit):
            raise FloatingPointError("overflow planted in the energy")
        return energy(system_, q, p, xi)

    monkeypatch.setattr(dynamics, "_energy", faulty)
    limit = 0.9         # the free flow passes q = 0.85 at t = 0.5
    traj = integrate(sys_, x0, 1.0, 1e-9, n_points=5)
    assert not traj.completed and traj.n_points == 3
    assert traj.abort_reason == ("energy evaluation failed at t = 0.75: "
                                 "overflow planted in the energy")
    assert np.allclose(traj.energy, 0.045)
    limit = 0.0
    with pytest.raises(StructuralError, match="initial state"):
        integrate(sys_, x0, 1.0, 1e-9, n_points=5)


def test_a_pole_on_a_grid_point_cuts_the_energy_column():
    """Rational A_1 from s = 0 at q = 0.02, p = -1 moves freely, so the
    grid time t = 0.02 lands on q = 0, the pole of the pair weight: the
    energy column stops before it as at a fault, naming the root.  A pole
    at the initial point raises as it is."""
    sys_ = system("rational", 1)
    rs = sys_.rs

    def at(q):
        return point(rs, np.array([q]), np.array([-1.0 + 0j]),
                     np.zeros(1, dtype=complex), True)
    traj = integrate(sys_, at(0.02 + 0j), 0.1, n_points=11)
    assert not traj.completed and traj.n_points == 2
    assert traj.abort_reason == (
        "energy evaluation failed at t = 0.02: rational pair weight: "
        "(alpha, q) = 0 at the root [1]")
    with pytest.raises(PoleError, match=r"at the root \[1\]"):
        integrate(sys_, at(0j), 0.1, n_points=11)


@pytest.mark.parametrize("reduced", [False, True])
@pytest.mark.parametrize("family", FAMILIES)
def test_core_on_a_wall_names_the_root(family, reduced):
    """Simple-root values (0.7, -0.7, 0.4) put q on the wall of [1,1,0]
    alone: its root value is 0, a pole of every family's pair weight."""
    sys_ = system(family, 3)
    rs = sys_.rs
    q = np.linalg.solve(rs.alpha_h[:3], [0.7, -0.7, 0.4]).astype(complex)
    _, p, xi = random_state(sys_, 7)
    spin = xi[2 * rs.rank:] if reduced else xi
    y = np.concatenate([q, p, spin])
    with pytest.raises(PoleError, match=r"at the root \[1,1,0\]"):
        dynamics._flow(sys_, y, reduced)


# -- the flat core against its composition ------------------------------------


@raise_on_fp_fault
def composed_flow(sys_, ys, reduced):
    """The flow at the stacked states ys, composed from public pieces: the
    root values and pair weights of all states in one 2-D stack
    (Lattice.wp_pair for the elliptic family), then state by state dH/dq,
    the bracket of w xi with xi and, reduced, its pushforward ds_gamma =
    dxi_gamma - s_gamma sum_j m_gamma^j dxi_{alpha_j} from the simple-root
    coordinates m of the reduced roots."""
    rs, n = sys_.rs, sys_.rs.rank
    q, p, spin = ys[:, :n], ys[:, n:2 * n], ys[:, 2 * n:]
    xi = slice_lift(rs, spin) if reduced else spin
    up = rs.positive_root_values(q)
    w, w_du = sys_.lattice.wp_pair(up) if sys_.family == "elliptic" \
        else positive_pair_weight(sys_, up)
    m = np.ascontiguousarray(np.array(reduced_roots(rs), dtype=complex).T)
    out = []
    for k in range(len(ys)):
        roots = xi[k, n:]
        prod = roots[:rs.n_pos] * roots[rs.n_pos:]
        dq = -((w_du[k] * prod) @ rs.alpha_h[:rs.n_pos])
        weights = np.concatenate([np.zeros(n), w[k], w[k]])
        dspin = rs.bracket_coords(weights * xi[k], xi[k])
        if reduced:
            dspin = dspin[2 * n:] - spin[k] * (dspin[n:2 * n] @ m)
        out.append(np.concatenate([p[k], -dq, dspin]))
    return np.array(out)


def random_states(sys_, reduced, seed, count):
    """``count`` flat states: complex q clear of every wall, random p and
    spins."""
    rs, rank = sys_.rs, sys_.rs.rank
    rng = np.random.default_rng(seed)
    simple = rng.uniform(0.25, 0.6, (count, rank)) \
        + 1j * rng.uniform(-0.25, 0.25, (count, rank))
    q = np.linalg.solve(rs.alpha_h[:rank], simple.T).T
    n_spin = rs.dim - 2 * rank if reduced else rs.dim
    spin = rng.normal(size=(count, n_spin)) \
        + 1j * rng.normal(size=(count, n_spin))
    return np.concatenate([q, rng.normal(size=(count, rank)) + 0j, spin], 1)


@pytest.mark.parametrize("reduced", [False, True])
@pytest.mark.parametrize("rank", [1, 2, 3, 4])
@pytest.mark.parametrize("family", FAMILIES)
def test_flow_is_its_composition_bit_for_bit(family, rank, reduced):
    """_flow at 200 random states equals composed_flow bit for bit: the
    flat elliptic pass gives each state its values in a 2-D stack of
    wp_pair."""
    sys_ = system(family, rank)
    ys = random_states(sys_, reduced, [rank, reduced, len(family)], 200)
    got = np.array([dynamics._flow(sys_, y, reduced) for y in ys])
    assert np.array_equal(got, composed_flow(sys_, ys, reduced))


@pytest.mark.parametrize("reduced", [False, True])
@pytest.mark.parametrize("rank", [1, 2, 3, 4])
@pytest.mark.parametrize("family", FAMILIES)
def test_stacked_flow_is_its_single_state_calls_bit_for_bit(family, rank,
                                                             reduced):
    """One _flow call on 60 stacked states, as a (60,) and a (5, 12) stack,
    gives each row its single-state field bit for bit."""
    sys_ = system(family, rank)
    ys = random_states(sys_, reduced, [rank, reduced, len(family), 26], 60)
    single = np.array([dynamics._flow(sys_, y, reduced) for y in ys])
    assert np.array_equal(dynamics._flow(sys_, ys, reduced), single)
    assert np.array_equal(
        dynamics._flow(sys_, ys.reshape(5, 12, -1), reduced),
        single.reshape(5, 12, -1))


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
@pytest.mark.parametrize("family", FAMILIES)
def test_stacked_collision_margin_is_its_single_point_calls_bit_for_bit(
        family, rank):
    """collision_margin on 60 stacked q, as a (60,) and a (5, 12) stack,
    gives each q its single-point float bit for bit."""
    sys_ = system(family, rank)
    rng = np.random.default_rng([rank, len(family), 31])
    q = rng.uniform(-3, 3, (60, rank)) + 1j * rng.uniform(-0.3, 0.3,
                                                         (60, rank))
    single = [dynamics.collision_margin(sys_, x) for x in q]
    assert all(type(margin) is float for margin in single)
    assert np.array_equal(dynamics.collision_margin(sys_, q), single)
    assert np.array_equal(dynamics.collision_margin(sys_, q.reshape(
        5, 12, rank)), np.reshape(single, (5, 12)))


def test_flat_elliptic_pass_is_wp_pair_element_by_element():
    """The flow's elliptic pass (wp and wp' of the flat Lattice._pass)
    equals wp_pair on scalar, 1-D, strided and 3-D arguments, each element
    equals its scalar wp_pair call, and the 3-D values equal -zeta' and
    -zeta'' of zeta_ladder, all bit for bit."""
    lat = Lattice(2.0, 2.2j)
    rng = np.random.default_rng(25)
    z = rng.uniform(-5, 5, (3, 4, 10)) + 1j * rng.uniform(-5, 5, (3, 4, 10))
    flat_pass = raise_on_fp_fault(
        lambda z: lat._wp_from_theta(lat._pass(z, "wp")[3]))
    for arg in (z[0, 0, 0], z[1, 2], z[:, ::2, ::-3], z):
        flat = flat_pass(np.asarray(arg))
        scalars = np.array([lat.wp_pair(complex(v)) for v in np.ravel(arg)])
        for k, want in enumerate(lat.wp_pair(arg)):
            assert flat[k].shape == (np.size(arg),)
            assert np.array_equal(flat[k], np.ravel(want))
            assert np.array_equal(flat[k], scalars[:, k])
    ladder = lat.zeta_ladder(z, 3)
    assert np.array_equal(flat[0], -ladder[1].ravel())
    assert np.array_equal(flat[1], -ladder[2].ravel())


# -- stacked diagnostics -------------------------------------------------------


def loop_table(sys_, pt, z, kmax):
    """h_k(z) at one point from matrix powers, z by z."""
    x = lift_reduced(pt) if pt.reduced else pt
    table = np.zeros((len(z), kmax), dtype=complex)
    for i, zi in enumerate(z):
        mat = matrix_rep(sys_.rs, lax_L(sys_, x, zi))
        for k in range(1, kmax + 1):
            table[i, k - 1] = np.trace(np.linalg.matrix_power(mat, k)) / k
    return table


def mp_char_poly(mp, mat):
    """Monic coefficients of det(w Id - mat), highest power first, in
    mpmath at its working precision (Faddeev-LeVerrier)."""
    n = len(mat)
    a = mp.matrix([[mp.mpc(complex(v)) for v in row] for row in mat])
    coeffs, m = [mp.mpc(1)], mp.zeros(n, n)
    for k in range(1, n + 1):
        m = a * m + coeffs[-1] * mp.eye(n)
        am = a * m
        coeffs.append(-sum(am[i, i] for i in range(n)) / k)
    return coeffs


@pytest.mark.parametrize("reduced", [False, True])
@pytest.mark.parametrize("rank", [1, 2, 3, 4])
@pytest.mark.parametrize("family", FAMILIES)
def test_stacked_diagnostics_match_per_point_loops(family, rank, reduced):
    """The stacked tables along a trajectory against per-point loops; the
    energy column and each row of the power-sum table are their
    single-point values bit for bit, and both spectral drifts hold on
    either trajectory kind."""
    sys_, x0 = pin_start(family, rank, reduced)
    traj = integrate(sys_, x0, 0.3, 1e-9, n_points=7)
    z = [0.41 + 0.22j, -0.33 + 0.47j, 0.29 - 0.44j]
    kmax = sys_.rs.matrix_size
    tables = [loop_table(sys_, pt, z, kmax) for pt in traj.points]
    sums = dynamics._power_sums(sys_, traj.points, z) / np.arange(1,
                                                                  kmax + 1)
    for pt, table, row in zip(traj.points, tables, sums):
        spectrum = conserved_spectrum(sys_, pt, z)
        assert rel_err(spectrum, table) < 1e-13
        assert np.array_equal(spectrum, row)
    denom = np.maximum(1.0, np.abs(tables[0]))
    drift = max(np.max(np.abs(t - tables[0]) / denom) for t in tables[1:])
    # the drift is already relative to the per-entry denominator (>= 1)
    got = spectral_drifts(sys_, traj, z)
    assert abs(got["spectrum_drift"] - drift) < 1e-13
    lifts = [lift_reduced(pt) if reduced else pt for pt in traj.points]
    energy = np.array([hamiltonian(sys_, x) for x in traj.points])
    assert np.array_equal(traj.energy, energy)
    j0 = momentum_J(lifts[0])
    constraint = [np.max(np.abs(momentum_J(x) - j0)) for x in lifts]
    assert np.max(np.abs(traj.constraint - constraint)) < 1e-13
    # the isospectral drift against a 40-digit characteristic polynomial
    # of the same float matrices, relative per coefficient
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        curves = [[mp_char_poly(mp, matrix_rep(sys_.rs, lax_L(sys_, x, zi)))
                   for zi in z] for x in lifts]
        iso = float(max(abs(a - b) / max(1, abs(b)) for c in curves
                        for row, row0 in zip(c, curves[0])
                        for a, b in zip(row, row0)))
    assert abs(got["isospectral_drift"] - iso) < 1e-13


@pytest.mark.parametrize("reduced", [False, True])
@pytest.mark.parametrize("rank", [1, 2, 3, 4])
@pytest.mark.parametrize("family", FAMILIES)
def test_power_sums_are_the_eigenvalue_power_sums(family, rank, reduced):
    """tr rho(L(z))^k from half the powers and Frobenius pairings equals
    sum lambda^k over the eigenvalues of rho(L(z)) to 1e-12 relative to
    max(1, |p_k|), for k = 1..n; a stacked table is its per-point tables
    bit for bit."""
    sys_ = system(family, rank)
    x = PhasePoint(sys_.rs, random_states(sys_, reduced, [rank, reduced, 7],
                                          6), reduced)
    z = dynamics.default_z_samples()
    power_sums = raise_on_fp_fault(dynamics._power_sums)
    sums = power_sums(sys_, x, z)
    for k in range(len(x.y)):
        assert np.array_equal(power_sums(sys_, x[k:k + 1], z), sums[k:k + 1])
    lax = dynamics._lax_value(dynamics._lax(sys_, x.q, z)[0, 0], x.p, x.xi)
    eigs = np.linalg.eigvals(sys_.rs.to_matrix(lax))
    want = np.stack([np.sum(eigs ** k, -1) for k in
                     range(1, sys_.rs.matrix_size + 1)], -1)
    assert sums.shape == want.shape
    assert np.max(np.abs(sums - want) / np.maximum(1.0, np.abs(want))) < 1e-12
