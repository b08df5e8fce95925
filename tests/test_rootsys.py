"""Lie-algebra layer: structure constants, the form, torus action."""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from dense_reference import dense_structure
from spincm.errors import StructuralError, UnsupportedAlgebraError
from helpers import coadjoint_action, element_from_matrix
from spincm.phase import PhasePoint
from spincm.rootsys import (bracket, build_root_system, form, matrix_rep,
                            negate, parse_root_label, root_label,
                            root_system_summary, torus_adjoint)

RANKS = [1, 2, 3, 4]


def random_element(rs, rng):
    return rng.normal(size=rs.dim) + 1j * rng.normal(size=rs.dim)


@pytest.mark.parametrize("rank", RANKS)
def test_root_ordering_and_counts(rank):
    rs = build_root_system("A", rank)
    assert rs.n_pos == rank * (rank + 1) // 2
    assert rs.n_roots == 2 * rs.n_pos
    assert rs.dim == rank + rs.n_roots
    assert rs.simple_roots == rs.roots[:rank]
    for k in range(rs.n_pos):
        assert rs.roots[k + rs.n_pos] == negate(rs.roots[k])
    for j, simple in enumerate(rs.simple_roots):
        expected = tuple(int(i == j) for i in range(rank))
        assert simple == expected


@pytest.mark.parametrize("rank", RANKS)
def test_cartan_matrix_inverse_is_exact(rank):
    rs = build_root_system("A", rank)
    a = rs.cartan_matrix
    c = rs.cartan_inverse
    for i in range(rank):
        for j in range(rank):
            acc = sum(Fraction(a[i][k]) * c[k][j] for k in range(rank))
            assert acc == Fraction(int(i == j))


@pytest.mark.parametrize("rank", RANKS)
def test_cartan_basis_is_orthonormal_traceless(rank):
    rs = build_root_system("A", rank)
    for i in range(rank):
        assert abs(np.sum(rs.h_diag[i])) < 1e-14
        for j in range(rank):
            tr = float(rs.h_diag[i] @ rs.h_diag[j])
            assert abs(tr - (i == j)) < 1e-13


@pytest.mark.parametrize("rank", RANKS)
def test_closed_form_root_data_matches_exact_references(rank):
    """h_diag and alpha_h bit for bit against exact Gram-Schmidt over the
    coroot diagonals E_kk - E_{k+1,k+1}, floats taken once at the end, and
    the Cartan inverse against the Gram matrix of the fundamental weights
    omega_i = e_1 + .. + e_{i+1} - (i+1)/(n+1) (e_1 + .. + e_{n+1})."""
    rs = build_root_system("A", rank)
    size = rank + 1
    basis = []
    for k in range(rank):
        d = [Fraction(int(i == k) - int(i == k + 1)) for i in range(size)]
        for b, nb in basis:
            c = sum(x * y for x, y in zip(d, b)) / nb
            d = [x - c * y for x, y in zip(d, b)]
        basis.append((d, sum(x * x for x in d)))
    h = np.array([[float(x) * (1.0 / math.sqrt(float(nb))) for x in d]
                  for d, nb in basis])
    assert h.tobytes() == rs.h_diag.tobytes()
    rows, cols = rs.root_entries
    assert (h[:, rows] - h[:, cols]).T.tobytes() == rs.alpha_h.tobytes()
    omega = [[Fraction(int(j <= i)) - Fraction(i + 1, size)
              for j in range(size)] for i in range(rank)]
    assert rs.cartan_inverse == tuple(
        tuple(sum(x * y for x, y in zip(a, b)) for b in omega) for a in omega)


@pytest.mark.parametrize("rank", RANKS)
def test_root_lengths_are_two(rank):
    rs = build_root_system("A", rank)
    for k in range(rs.n_roots):
        assert rs.root_pairings[k, k] == 2
        # the orthonormal-coordinate row reproduces the same inner product
        assert abs(rs.alpha_h[k] @ rs.alpha_h[k] - 2.0) < 1e-13


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_jacobi_identity(rank):
    rs = build_root_system("A", rank)
    rng = np.random.default_rng(10 + rank)
    for _ in range(200 // rank):
        x, y, z = (random_element(rs, rng) for _ in range(3))
        res = (bracket(rs, x, bracket(rs, y, z))
               + bracket(rs, y, bracket(rs, z, x))
               + bracket(rs, z, bracket(rs, x, y)))
        assert np.abs(res).max() < 1e-12


@pytest.mark.parametrize("rank", RANKS)
def test_bracket_matches_matrix_commutator(rank):
    rs = build_root_system("A", rank)
    rng = np.random.default_rng(20 + rank)
    for _ in range(20):
        x, y = random_element(rs, rng), random_element(rs, rng)
        lhs = matrix_rep(rs, bracket(rs, x, y))
        mx, my = matrix_rep(rs, x), matrix_rep(rs, y)
        assert np.max(np.abs(lhs - (mx @ my - my @ mx))) < 1e-12


@pytest.mark.parametrize("rank", RANKS)
@pytest.mark.parametrize("shape", [(), (3, 5)])
def test_bracket_is_the_commutator_of_matrix_reps(rank, shape):
    # single elements and batches, also a single element against a batch
    rs = build_root_system("A", rank)
    rng = np.random.default_rng(30 + rank)
    x, y = (rng.normal(size=shape + (rs.dim,))
            + 1j * rng.normal(size=shape + (rs.dim,)) for _ in range(2))
    single = x[(0,) * len(shape)]
    for a, b in ((x, y), (single, y), (y, single)):
        got = bracket(rs, a, b)
        assert got.shape == shape + (rs.dim,)
        ma, mb = np.broadcast_arrays(matrix_rep(rs, a), matrix_rep(rs, b))
        for idx in np.ndindex(shape):
            comm = ma[idx] @ mb[idx] - mb[idx] @ ma[idx]
            want = element_from_matrix(rs, comm)
            assert np.max(np.abs(got[idx] - want)) < 1e-13


@pytest.mark.parametrize("rank", RANKS)
@pytest.mark.parametrize("shape", [(11, 8), (101, 8), (3, 5), (1,), ()])
def test_stacked_to_matrix_is_its_row_calls_bit_for_bit(rank, shape):
    """One to_matrix call on a stack gives each coordinate row its own
    call's matrix bit for bit, so a stacked power-sum table holds each
    point's single-point values; a root entry is its coordinate exactly."""
    rs = build_root_system("A", rank)
    rng = np.random.default_rng([rank, len(shape), sum(shape)])
    vec = rng.normal(size=shape + (rs.dim,)) \
        + 1j * rng.normal(size=shape + (rs.dim,))
    got = rs.to_matrix(vec)
    assert got.shape == shape + (rs.matrix_size,) * 2
    for idx in np.ndindex(shape):
        assert np.array_equal(got[idx], rs.to_matrix(vec[idx]))
    assert np.array_equal(got[(...,) + rs.root_entries], vec[..., rank:])


@pytest.mark.parametrize("rank", RANKS)
@pytest.mark.parametrize("shape", [(), (3, 7), (1,), (12,), (268,), (2, 3)])
def test_sparse_bracket_matches_dense_einsum(rank, shape):
    # single elements, batches (268 was the node count of verify_mdybe on
    # its former fixed 256-node ring; the id stays), and a single element
    # against a batch, against the structure constants built from the
    # matrix units; the name predates the matrix bracket and is kept so
    # that the test ids stay
    rs = build_root_system("A", rank)
    rng = np.random.default_rng(40 + rank)
    x, y = (rng.normal(size=shape + (rs.dim,))
            + 1j * rng.normal(size=shape + (rs.dim,)) for _ in range(2))
    for a, b in ((x, y), (x[(0,) * len(shape)], y)):
        want = np.einsum("...a,...b,abc->...c", a, b, dense_structure(rs))
        got = bracket(rs, a, b)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want), initial=0.0) <= 1e-14 * max(
            1.0, np.max(np.abs(want)))


@pytest.mark.parametrize("rank", RANKS)
def test_form_is_trace_form_and_invariant(rank):
    rs = build_root_system("A", rank)
    rng = np.random.default_rng(30 + rank)
    for _ in range(20):
        x, y, z = (random_element(rs, rng) for _ in range(3))
        assert abs(form(rs, x, y)
                   - np.trace(matrix_rep(rs, x) @ matrix_rep(rs, y))) < 1e-12
        inv = form(rs, bracket(rs, x, y), z) + form(rs, y, bracket(rs, x, z))
        assert abs(inv) < 1e-11


def test_arithmetic_past_the_float_range_raises():
    """Entries of 1e200 on A_2: the form and the bracket overflow, and so
    does the defining matrix at 1.7e308; each raises FloatingPointError
    instead of returning inf or nan (einsum, the form's former sum, sets no
    floating-point flag, and the matrix gave a RuntimeWarning)."""
    rs = build_root_system("A", 2)
    x = np.full(rs.dim, 1e200, dtype=complex)
    edge = np.full(rs.dim, 1.7e308, dtype=complex)
    for op in (lambda: form(rs, x, x), lambda: bracket(rs, x, 2j * x),
               lambda: matrix_rep(rs, edge)):
        with pytest.raises(FloatingPointError):
            op()
    assert form(rs, x, x * 1e-300) == pytest.approx(1e100 * rs.dim)


@pytest.mark.parametrize("rank", RANKS)
def test_coroot_bracket(rank):
    # [e_alpha, e_-alpha] = h_alpha, whose orthonormal coordinates are the
    # alpha(h_i) row
    rs = build_root_system("A", rank)
    for root in rs.roots:
        unit = np.eye(rs.dim, dtype=complex)
        e_plus = unit[rs.basis_index(root)]
        e_minus = unit[rs.basis_index(negate(root))]
        h = bracket(rs, e_plus, e_minus)
        assert np.max(np.abs(h[rank:])) < 1e-14
        expected = rs.alpha_h[rs.root_index[root]]
        assert np.max(np.abs(h[:rs.rank] - expected)) < 1e-13


@pytest.mark.parametrize("rank", RANKS)
def test_cartan_acts_by_root_value(rank):
    rs = build_root_system("A", rank)
    rng = np.random.default_rng(40 + rank)
    coords = rng.normal(size=rank)
    h = np.zeros(rs.dim, dtype=complex)
    h[:rank] = coords
    for k, root in enumerate(rs.roots):
        e = np.eye(rs.dim, dtype=complex)[rank + k]
        lhs = bracket(rs, h, e)
        alpha_of_h = rs.alpha_h[k] @ coords
        assert np.abs(lhs - alpha_of_h * e).max() < 1e-13


@pytest.mark.parametrize("rank", RANKS)
def test_root_values_are_one_row_product(rank):
    """The positive half of root_values is the flow's product q @ alpha_h^T
    over the positive roots, a stack gives each point its own values, and
    the negative half is the exact negative of the positive one, bit for
    bit."""
    rs = build_root_system("A", rank)
    rng = np.random.default_rng(60 + rank)
    q = rng.normal(size=(200, rank)) + 1j * rng.normal(size=(200, rank))
    stacked = rs.root_values(q)
    assert stacked.shape == (200, rs.n_roots)
    for point, row in zip(q, stacked):
        u = rs.root_values(point)
        assert np.array_equal(u[:rs.n_pos], point @ rs.alpha_h[:rs.n_pos].T)
        assert np.array_equal(u, row)
        assert np.array_equal(u[rs.n_pos:], -u[:rs.n_pos])
    assert np.array_equal(rs.root_values(q[:3].reshape(3, 1, rank))[:, 0],
                          stacked[:3])


def test_pairing_with_cartan_matches_matrix_picture():
    rs = build_root_system("A", 3)
    rng = np.random.default_rng(5)
    q = rng.normal(size=3)
    diag = rs.h_diag.T @ q      # diagonal of sum q_i h_i
    for k, root in enumerate(rs.roots):
        a, b = rs.eps_pairs[k]
        assert abs(rs.root_values(q)[k] - (diag[a] - diag[b])) < 1e-13


def test_element_from_matrix_round_trip():
    rs = build_root_system("A", 2)
    rng = np.random.default_rng(6)
    x = random_element(rs, rng)
    back = element_from_matrix(rs, matrix_rep(rs, x))
    assert np.abs(back - x).max() < 1e-13
    with pytest.raises(StructuralError):
        element_from_matrix(rs, np.eye(3))


def test_unsupported_algebras_are_rejected():
    with pytest.raises(UnsupportedAlgebraError):
        build_root_system("B", 2)
    with pytest.raises(UnsupportedAlgebraError):
        build_root_system("A", 5)
    with pytest.raises(UnsupportedAlgebraError):
        build_root_system("A", 0)


def test_basis_index_rejects_non_roots():
    rs = build_root_system("A", 2)
    with pytest.raises(StructuralError):
        rs.basis_index((2, 0))


def test_root_label_round_trip():
    rs = build_root_system("A", 3)
    for root in rs.roots:
        assert parse_root_label(root_label(root), 3) == root
    with pytest.raises(ValueError, match="1,0"):
        parse_root_label("[1,0]", 3)


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_torus_adjoint_is_a_lie_automorphism(rank):
    rs = build_root_system("A", rank)
    rng = np.random.default_rng(50 + rank)
    c = 0.3 * rng.normal(size=rank)
    x, y = random_element(rs, rng), random_element(rs, rng)
    lhs = torus_adjoint(rs, c, bracket(rs, x, y))
    rhs = bracket(rs, torus_adjoint(rs, c, x), torus_adjoint(rs, c, y))
    assert np.abs(lhs - rhs).max() < 1e-10


def test_torus_adjoint_rank_one_scaling():
    # For A_1 and h = exp(t h_alpha), Ad_h e_alpha = e^{2t} e_alpha.
    rs = build_root_system("A", 1)
    alpha = rs.roots[0]
    k, neg = rs.basis_index(alpha), rs.basis_index(negate(alpha))
    unit = np.eye(rs.dim, dtype=complex)
    t = 0.5
    out = torus_adjoint(rs, [t], unit[k])
    assert abs(out[k] - np.exp(1.0)) < 1e-13
    out_neg = torus_adjoint(rs, [t], unit[neg])
    assert abs(out_neg[neg] - np.exp(-1.0)) < 1e-13


def test_torus_adjoint_preserves_form():
    rs = build_root_system("A", 2)
    rng = np.random.default_rng(7)
    c = rng.normal(size=2) * 0.4
    x, y = random_element(rs, rng), random_element(rs, rng)
    assert abs(form(rs, torus_adjoint(rs, c, x), torus_adjoint(rs, c, y))
               - form(rs, x, y)) < 1e-10


def test_coadjoint_action_is_minus_bracket():
    rs = build_root_system("A", 2)
    rng = np.random.default_rng(8)
    x, xi = random_element(rs, rng), random_element(rs, rng)
    # ad* is the dual of ad here: <ad*_X xi, Y> = <xi, [X, Y]> for all Y,
    # which the form isomorphism turns into -[X, I xi]
    y = random_element(rs, rng)
    lhs = form(rs, coadjoint_action(rs, x, xi), y)
    rhs = form(rs, xi, bracket(rs, x, y))
    assert abs(lhs - rhs) < 1e-11


def test_summary_is_json_serializable():
    rs = build_root_system("A", 2)
    text = json.dumps(root_system_summary(rs))
    data = json.loads(text)
    assert data["rank"] == 2
    assert len(data["roots"]) == 6
    assert data["cartan_matrix"] == [[2, -1], [-1, 2]]


_A2 = build_root_system("A", 2)
_ONE = np.ones(2, dtype=complex)


@pytest.mark.parametrize("build,error,match", [
    (lambda: PhasePoint.make(_A2, np.ones(3, dtype=complex), _ONE),
     StructuralError, r"expected q of shape \(2,\), got \(3,\)"),
    (lambda: PhasePoint.make(_A2, _ONE, _ONE, xi_cartan=[1]),
     StructuralError, r"expected xi_cartan of shape \(2,\), got \(1,\)"),
    (lambda: PhasePoint.make(_A2, _ONE, _ONE, xi_cartan=[1, 2, 3]),
     StructuralError, r"expected xi_cartan of shape \(2,\), got \(3,\)"),
    (lambda: PhasePoint.make_reduced(_A2, _ONE, np.ones((1, 2)), {}),
     StructuralError, r"expected p of shape \(2,\), got \(1, 2\)"),
    (lambda: PhasePoint(_A2, np.concatenate([_ONE, _ONE, np.ones(5)]), True),
     StructuralError, r"expected state rows of shape \(\.\.\., 8\), got "
                      r"\(9,\)"),
    (lambda: matrix_rep(_A2, np.ones(9)),
     StructuralError, r"expected coordinate rows of shape \(\.\.\., 8\)"),
    (lambda: torus_adjoint(_A2, np.ones(3), np.zeros(8)),
     StructuralError, r"expected coroot coordinates of shape \(\.\.\., 2\)"),
    (lambda: parse_root_label("[1,x]", 2),
     ValueError, "is not a tuple of integers"),
], ids=["phase-q", "phase-cartan-short", "phase-cartan-long",
        "reduced-p", "reduced-s", "element-shape",
        "coroot-shape", "label-not-integer"])
def test_construction_errors_are_typed(build, error, match):
    with pytest.raises(error, match=match):
        build()


@pytest.mark.parametrize("call", [
    lambda rs, x: bracket(rs, x, np.zeros(rs.dim)),
    lambda rs, x: bracket(rs, np.zeros(rs.dim), x),
    lambda rs, x: form(rs, x, np.zeros(rs.dim)),
    lambda rs, x: form(rs, np.zeros(rs.dim), x),
    lambda rs, x: matrix_rep(rs, x),
    lambda rs, x: torus_adjoint(rs, np.zeros(rs.rank), x),
], ids=["bracket-x", "bracket-y", "form-x", "form-y", "matrix_rep",
        "torus_adjoint"])
@pytest.mark.parametrize("shape", [(9,), (7,), (3, 15), ()])
def test_rows_of_another_width_raise(call, shape):
    """A row without rs.dim coordinates on its last axis, or a scalar,
    raises StructuralError naming its shape in each algebra export."""
    with pytest.raises(StructuralError, match=re.escape(
            f"expected coordinate rows of shape (..., 8), got {shape}")):
        call(_A2, np.ones(shape))


@pytest.mark.parametrize("rank", RANKS)
@pytest.mark.parametrize("shape", [(), (4,), (2, 3)])
def test_torus_adjoint_of_real_rows_is_that_of_their_complex_copy(rank,
                                                                  shape):
    """Real coordinates and real log-coordinates act as their complex
    copies, bit for bit (a float row raised numpy's UFuncTypeError from the
    in-place scaling)."""
    rs = build_root_system("A", rank)
    rng = np.random.default_rng([70, rank, len(shape)])
    x, c = rng.normal(size=shape + (rs.dim,)), rng.normal(size=rank)
    got = torus_adjoint(rs, c, x)
    assert got.dtype == complex
    assert np.array_equal(got, torus_adjoint(rs, c + 0j, x + 0j))
