import numpy as np
import pytest

import twcalc as tw
from twcalc.errors import TruncationWarning
from twcalc.oscillators import (_CENTRE, _TAPS, LadderKind, _add_taps, h_bar_sigma_from_ladders,
                                t_sigma_log_scale)


def u(pair, d=1, n_max=6):
    return tw.unit_entry(d, n_max, pair)


def only_entry(C):
    nz = np.nonzero(C.entries)
    assert len(nz[0]) == 1
    return C.entries[nz][0], (int(nz[0][0]), int(nz[1][0]))


# --- diagonal scalings ---

@pytest.mark.parametrize("pair,d,scale", [
    ((((1,), (2,))), 1, 3.0),
    ((((0,), (5,))), 1, 1.0),
    ((((1, 1), (0, 0))), 2, 6.0),
])
def test_h_sigma_eigenvalues(pair, d, scale):
    out = tw.apply_h_sigma_coeff(u(pair, d))
    val, _ = only_entry(out)
    assert val == scale


@pytest.mark.parametrize("pair,d,scale", [
    ((((2,), (1,))), 1, 3.0),
    ((((5,), (0,))), 1, 1.0),
    ((((0, 0), (1, 1))), 2, 6.0),
])
def test_h_bar_sigma_eigenvalues(pair, d, scale):
    out = tw.apply_h_bar_sigma_coeff(u(pair, d))
    val, _ = only_entry(out)
    assert val == scale


def test_t_sigma_power_scaling():
    out = tw.apply_t_sigma_coeff(u(((1,), (2,))), 1)
    val, _ = only_entry(out)
    assert val == pytest.approx(15.0)


def test_t_sigma_zeroth_power_is_identity(rng):
    C = tw.WongCoeffMatrix(1, 4, rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))
    np.testing.assert_array_equal(tw.apply_t_sigma_coeff(C, 0).entries, C.entries)


def test_t_sigma_ground_state_fixed():
    for N in (1, 7, 40):
        out = tw.apply_t_sigma_coeff(u(((0,), (0,))), N)
        val, at = only_entry(out)
        assert at == (0, 0) and val == pytest.approx(1.0)


def test_t_sigma_overflow_guard():
    C = u(((6,), (6,)))
    with pytest.raises(OverflowError):
        tw.apply_t_sigma_coeff(C, 200)
    logs = tw.apply_t_sigma_log(C, 200)
    lam = 2 * 6 + 1
    want = 200 * 2 * np.log(lam)
    assert logs[6, 6] == pytest.approx(want)
    assert np.all(np.isinf(logs[0]))  # vanished entries carry -inf


def test_commutation_is_exact(rng):
    # integer entries make both multiply orders exactly representable
    C = tw.WongCoeffMatrix(1, 5, rng.integers(-9, 9, size=(6, 6)) + 1j * rng.integers(-9, 9, size=(6, 6)))
    ab = tw.apply_h_sigma_coeff(tw.apply_h_bar_sigma_coeff(C))
    ba = tw.apply_h_bar_sigma_coeff(tw.apply_h_sigma_coeff(C))
    np.testing.assert_array_equal(ab.entries, ba.entries)


def test_commutation_on_floats(rng):
    C = tw.WongCoeffMatrix(1, 5, rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
    ab = tw.apply_h_sigma_coeff(tw.apply_h_bar_sigma_coeff(C))
    ba = tw.apply_h_bar_sigma_coeff(tw.apply_h_sigma_coeff(C))
    assert np.max(np.abs(ab.entries - ba.entries)) <= 1e-14 * ba.norm()


# --- ladders ---

def test_ladder_lowers_second_index():
    out = tw.apply_ladder(u(((0,), (2,))), LadderKind("Z1"))
    val, at = only_entry(out)
    assert at == (0, 1) and val == pytest.approx(2.0)  # sqrt(2*2)


def test_ladder_annihilates_at_zero():
    out = tw.apply_ladder(u(((0,), (3,))), LadderKind("Z2"))
    assert np.all(out.entries == 0)


def test_ladder_raises_first_index():
    out = tw.apply_ladder(u(((1,), (0,))), LadderKind("Z2_tilde"))
    val, at = only_entry(out)
    assert at == (2, 0) and val == pytest.approx(2.0)  # sqrt(2*1+2)


def test_ladder_signs():
    val, _ = only_entry(tw.apply_ladder(u(((0,), (0,))), LadderKind("Z1_tilde")))
    assert val == pytest.approx(-np.sqrt(2.0))
    val, _ = only_entry(tw.apply_ladder(u(((1,), (0,))), LadderKind("Z2")))
    assert val == pytest.approx(-np.sqrt(2.0))


def test_ladder_truncation_warns():
    with pytest.warns(TruncationWarning):
        out = tw.apply_ladder(u(((6,), (0,))), LadderKind("Z2_tilde"))
    assert np.all(out.entries == 0)


def test_ladder_axis_bounds():
    with pytest.raises(ValueError):
        tw.apply_ladder(u(((0,), (0,))), LadderKind("Z1", axis=1))
    with pytest.raises(ValueError):
        LadderKind("Z9")


@pytest.mark.parametrize("d", [1, 2])
def test_ladder_factorization_reproduces_h_sigma(rng, d):
    n_max = 8 if d == 1 else 3
    side = (n_max + 1) ** d
    C = tw.WongCoeffMatrix(d, n_max, rng.normal(size=(side, side)) + 1j * rng.normal(size=(side, side)))
    via_ladders = tw.h_sigma_from_ladders(C)
    direct = tw.apply_h_sigma_coeff(C)
    assert np.max(np.abs(via_ladders.entries - direct.entries)) <= 1e-12 * direct.norm()
    mirrored = h_bar_sigma_from_ladders(C)
    direct_bar = tw.apply_h_bar_sigma_coeff(C)
    assert np.max(np.abs(mirrored.entries - direct_bar.entries)) <= 1e-12 * direct_bar.norm()


@pytest.mark.parametrize("pair,scale", [
    ((((1,), (2,))), 3.0),
    ((((0,), (5,))), 1.0),
    ((((3,), (0,))), 7.0),
])
def test_ladder_route_on_unit_entries(pair, scale):
    out = tw.h_sigma_from_ladders(u(pair))
    val, _ = only_entry(out)
    assert val == pytest.approx(scale, abs=1e-12)


# --- grid oracle ---

def test_grid_oscillator_eigenvalues(wong_cache):
    for pair, lam in [(((1,), (2,)), 3.0), (((0,), (0,)), 1.0)]:
        r = wong_cache(pair)
        out = tw.apply_h_sigma_grid(r)
        err = np.max(np.abs(out.values - lam * r.values)) / np.max(np.abs(lam * r.values))
        assert err < 1e-3


def test_grid_oscillator_conjugate_swaps_roles(wong_cache):
    r = wong_cache(((2,), (3,)))
    out = tw.apply_h_sigma_grid(r, conjugate=True)
    err = np.max(np.abs(out.values - 7.0 * r.values)) / np.max(np.abs(7.0 * r.values))
    assert err < 1e-3


def _diff4(a, axis, h, order):
    """4th-order central difference, zero beyond the boundary."""
    def sh(k):
        out = np.roll(a, -k, axis)
        idx = [slice(None)] * a.ndim
        if k > 0:
            idx[axis] = slice(-k, None)
        else:
            idx[axis] = slice(0, -k)
        out[tuple(idx)] = 0.0
        return out
    if order == 1:
        out = (-sh(2) + 8 * sh(1) - 8 * sh(-1) + sh(-2)) / (12 * h)
    else:
        out = (-sh(2) + 16 * sh(1) - 30 * a + 16 * sh(-1) - sh(-2)) / (12 * h * h)
    return out


def h_sigma_reference(a, conjugate=False):
    """Whole-array realization of H_sig: one difference per axis and term."""
    d = a.dims // 2
    dx = a.spacing
    v = a.values
    lap = sum(_diff4(v, ax, dx, 2) for ax in range(a.dims))
    grids = np.meshgrid(*([a.axis()] * a.dims), indexing="ij", sparse=True)
    radial = sum(g ** 2 for g in grids)
    sign = -1.0 if conjugate else 1.0
    rot = sum(sign * (-1j * grids[d + j] * _diff4(v, j, dx, 1) + 1j * grids[j] * _diff4(v, d + j, dx, 1))
              for j in range(d))
    return radial * v - 0.25 * lap + rot


@pytest.mark.parametrize("conjugate", [False, True])
@pytest.mark.parametrize("dims,box,n", [(2, 8.0, 129), (2, 8.0, 256), (4, 5.5, 33)])
def test_grid_oscillator_matches_whole_array_reference(dims, box, n, conjugate):
    # a rough field: every tap and partner weight shows at full size
    rng = np.random.default_rng(n)
    axis = np.linspace(-box, box, n)
    envelope = np.exp(-sum(g ** 2 for g in np.meshgrid(*([axis] * dims), indexing="ij", sparse=True)))
    noise = rng.normal(size=(n,) * dims) + 1j * rng.normal(size=(n,) * dims)
    a = tw.GridFunction(dims, box, n, envelope * noise)
    want = h_sigma_reference(a, conjugate)
    got = tw.apply_h_sigma_grid(a, conjugate=conjugate).values
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.filterwarnings("ignore:.*boundary mass.*")
@pytest.mark.parametrize("conjugate", [False, True])
def test_grid_oscillator_d2_is_sum_over_axis_pairs(conjugate):
    # H(r1 (x) r2) = H(r1) (x) r2 + r1 (x) H(r2), axes (x1, x2, xi1, xi2)
    box, n = 5.5, 33
    r1 = tw.hermite_wong_eval(((1,), (2,)), box, n)
    r2 = tw.hermite_wong_eval(((3,), (0,)), box, n)
    H1, H2 = (tw.apply_h_sigma_grid(r, strict=False, conjugate=conjugate).values for r in (r1, r2))
    r = tw.GridFunction(4, box, n, np.einsum("ik,jl->ijkl", r1.values, r2.values))
    want = np.einsum("ik,jl->ijkl", H1, r2.values) + np.einsum("ik,jl->ijkl", r1.values, H2)
    got = tw.apply_h_sigma_grid(r, strict=False, conjugate=conjugate).values
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_grid_oscillator_is_linear(rng, wong_cache):
    r1 = wong_cache(((1,), (0,)))
    r2 = wong_cache(((0,), (2,)))
    c1, c2 = rng.normal(size=2)
    mix = tw.GridFunction(2, r1.box_half_width, r1.points_per_axis,
                          c1 * r1.values + c2 * r2.values)
    out = tw.apply_h_sigma_grid(mix)
    sep = c1 * tw.apply_h_sigma_grid(r1).values + c2 * tw.apply_h_sigma_grid(r2).values
    assert np.max(np.abs(out.values - sep)) < 1e-10


# --- intertwining ---

def test_intertwining_on_the_grid_kernel():
    # A(H_sig a) = (|x|^2 - d_x^2) A(a): the kernel map on the grid, then the
    # 5-point stencil on the first slot, against the coefficient scaling.
    # Measured worst at (L=8, n=129): 3.4e-4 over 40 random matrices, 3.7e-4
    # over the 49 unit entries of n_max=6
    box, n, n_max = 8.0, 129, 6
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(5):
        C = tw.WongCoeffMatrix(1, n_max, rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7)))
        K = tw.kernel_map_A_grid(tw.synthesize(C, box, n))
        x, h = K.axis(), K.spacing
        lhs = (x * x - _CENTRE / h ** 2)[:, None] * K.values
        _add_taps(lhs, K.values, 0, [(k, -d2 / h ** 2) for k, d2, _ in _TAPS], np.empty_like(lhs))
        hs = tw.hermite_batch(n_max, x)
        rhs = np.einsum("ab,ax,by->xy", tw.kernel_map_A_coeff(tw.apply_h_sigma_coeff(C)).entries, hs, hs)
        worst = max(worst, np.max(np.abs(lhs - rhs)) / np.max(np.abs(rhs)))
    assert worst <= 1e-3


def test_intertwine_zero_powers(rng):
    C = tw.WongCoeffMatrix(1, 5, rng.normal(size=(6, 6)) + 0j)
    assert tw.intertwine_residual(C, 0, 0) == 0.0


def test_intertwine_unit_entry_scaling():
    C = u(((1,), (2,)))
    assert tw.intertwine_residual(C, 2, 1) <= 1e-12
    # both routes scale the single entry by 3^2 * 5
    left = tw.apply_h_bar_sigma_coeff(
        tw.apply_h_sigma_coeff(tw.apply_h_sigma_coeff(C)))
    val, _ = only_entry(left)
    assert val == pytest.approx(45.0)


def test_intertwine_random_matrices(rng):
    for _ in range(12):
        C = tw.WongCoeffMatrix(1, 6, rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7)))
        n1, n2 = rng.integers(0, 5, size=2)
        assert tw.intertwine_residual(C, int(n1), int(n2)) <= 1e-12


def test_t_sigma_spectrum_at_least_one():
    scale = t_sigma_log_scale(u(((0,), (0,)), d=1, n_max=8), 1)
    assert np.all(scale >= 0.0)  # log of eigenvalues >= d^2 = 1
