import numpy as np
import pytest

import twcalc as tw
from twcalc.errors import GridMismatchError, TruncationError
from twcalc.phase_space import check_boundary


L, N = 8.0, 256


def hermite_grid(k, n=N, box=L):
    axis = np.linspace(-box, box, n)
    return tw.GridFunction(1, box, n, tw.hermite_batch(k, axis)[k] + 0j)


# --- Wigner distribution ---

def test_wigner_ground_state_closed_form():
    # W_{h0,h0}(x,xi) = sqrt(2/pi) exp(-x^2 - xi^2), by the Gaussian integral
    f = hermite_grid(0)
    W = tw.wigner(f, f)
    axis = f.axis()
    X, XI = np.meshgrid(axis, axis, indexing="ij")
    closed = np.sqrt(2 / np.pi) * np.exp(-X ** 2 - XI ** 2)
    assert np.max(np.abs(W.values - closed)) < 1e-12


def test_wigner_origin_value_on_centered_grid():
    f = hermite_grid(0, n=257)
    W = tw.wigner(f, f)
    assert W.values[128, 128].real == pytest.approx(np.sqrt(2 / np.pi), abs=1e-12)


def test_wigner_is_unitary_on_ground_state():
    f = hermite_grid(0)
    assert tw.wigner(f, f).norm() == pytest.approx(1.0, abs=1e-10)


def test_wigner_cross_terms_are_orthonormal():
    f0, f1 = hermite_grid(0), hermite_grid(1)
    W00, W01 = tw.wigner(f0, f0), tw.wigner(f0, f1)
    assert W01.norm() == pytest.approx(1.0, abs=1e-10)
    assert abs(W00.inner(W01)) < 1e-10
    assert np.max(np.abs(W01.values.imag)) > 1e-3  # genuinely complex


def test_wigner_rejects_mismatched_grids():
    with pytest.raises(GridMismatchError):
        tw.wigner(hermite_grid(0, n=256), hermite_grid(0, n=128))


def test_boundary_mass_strict_vs_permissive():
    axis = np.linspace(-L, L, 64)
    bad = tw.GridFunction(1, L, 64, np.ones(64) + 0j)
    with pytest.raises(TruncationError):
        check_boundary(bad, strict=True)
    with pytest.warns(UserWarning):
        check_boundary(bad, strict=False)


# --- Hermite-Wong functions ---

def test_wong_ground_state_origin():
    W = tw.hermite_wong_eval(((0,), (0,)), L, 257)
    assert W.values[128, 128].real == pytest.approx(np.sqrt(2 / np.pi), abs=1e-12)


def test_wong_off_diagonal_vanishes_at_origin():
    W = tw.hermite_wong_eval(((1,), (0,)), L, 257)
    assert abs(W.values[128, 128]) < 1e-12


def test_wong_orthonormality_small_indices(wong_cache):
    pairs = [((i,), (j,)) for i in range(3) for j in range(3)]
    fs = [wong_cache(p, L, 128) for p in pairs]
    for a, fa in enumerate(fs):
        for b, fb in enumerate(fs):
            want = 1.0 if a == b else 0.0
            assert abs(fa.inner(fb) - want) < 1e-8


def test_wong_index_cap():
    with pytest.raises(ValueError):
        tw.hermite_wong_eval(((33,), (0,)), L, 64)


def test_wong_dimension_mismatch():
    with pytest.raises(ValueError):
        tw.hermite_wong_eval(((1, 2), (0,)), L, 64)


# --- symplectic Fourier transform ---

@pytest.mark.filterwarnings("ignore:.*boundary mass.*")
def test_fsigma_matches_direct_quadrature():
    # the dense-quadrature definition is the oracle for the matrix form
    a = tw.hermite_wong_eval(((1,), (2,)), L, 96)
    out = tw.symplectic_fourier(a, strict=False)
    axis = a.axis()
    dx = a.spacing
    rng = np.random.default_rng(2)
    for i, k in rng.integers(20, 76, size=(4, 2)):
        phase = np.exp(2j * (axis[:, None] * axis[k] - axis[i] * axis[None, :]))
        want = dx * dx / np.pi * np.sum(a.values * phase)
        assert out.values[i, k] == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("pair,sign", [
    (((0,), (0,)), 1.0),
    (((1,), (0,)), -1.0),
    (((1,), (3,)), -1.0),
])
def test_fsigma_eigenfunctions(pair, sign, wong_cache):
    r = wong_cache(pair)
    out = tw.symplectic_fourier(r)
    scale = np.max(np.abs(r.values))
    assert np.max(np.abs(out.values - sign * r.values)) / scale < 1e-10


def test_fsigma_involution(wong_cache):
    r = wong_cache(((1,), (3,)))
    twice = tw.symplectic_fourier(tw.symplectic_fourier(r))
    assert np.max(np.abs(twice.values - r.values)) < 1e-8 * np.max(np.abs(r.values))


# --- kernel map A ---

@pytest.mark.parametrize("pair", [((0,), (0,)), ((2,), (1,))])
def test_kernel_map_sends_wong_to_hermite_tensor(pair, wong_cache):
    K = tw.kernel_map_A_grid(wong_cache(pair))
    axis = K.axis()
    hs = tw.hermite_batch(max(pair[0][0], pair[1][0]), axis)
    target = np.outer(hs[pair[0][0]], hs[pair[1][0]])
    assert np.max(np.abs(K.values - target)) < 1e-6


@pytest.mark.filterwarnings("ignore:.*boundary mass.*")
@pytest.mark.parametrize("n", [17, 18, 21, 22])
def test_kernel_map_matches_defining_sum(n):
    # K(x_i, x_j) = (2pi)^{-1/2} dx sum_{m,k} sinc(((x_j - x_i)/2 - x_m)/dx) a[m, k] e^{-i (x_i + x_j) xi_k},
    # term by term; even n flips which columns of the doubled box each half-step row meets
    box = 4.0
    rng = np.random.default_rng(n)
    x = np.linspace(-box, box, n)
    env = np.exp(-0.5 * (x[:, None] ** 2 + x[None, :] ** 2))
    a = tw.GridFunction(2, box, n, (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) * env)
    dx = a.spacing
    sinc = np.sinc(((x[None, :, None] - x[:, None, None]) / 2 - x[None, None, :]) / dx)    # [i, j, m]
    phase = np.exp(-1j * (x[:, None, None] + x[None, :, None]) * x[None, None, :])          # [i, j, k]
    want = (2 * np.pi) ** -0.5 * dx * np.einsum("ijm,mk,ijk->ij", sinc, a.values, phase)
    got = tw.kernel_map_A_grid(a, strict=False).values
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_kernel_map_is_unitary(rng):
    C = rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7))
    a = tw.synthesize(tw.WongCoeffMatrix(1, 6, C), L, N)
    K = tw.kernel_map_A_grid(a)
    assert K.norm() / a.norm() == pytest.approx(1.0, abs=1e-6)


def test_kernel_map_undoes_wigner_with_reflection():
    # A(W_{f,g}) = fcheck (x) conj(g)
    axis = np.linspace(-L, L, N)
    hs = tw.hermite_batch(4, axis)
    fv = hs[2] + 0.5 * hs[3] + 0j
    gv = hs[1] - 0.25 * hs[4] + 0j
    f = tw.GridFunction(1, L, N, fv)
    g = tw.GridFunction(1, L, N, gv)
    K = tw.kernel_map_A_grid(tw.wigner(f, g))
    target = np.outer(fv[::-1], np.conj(gv))
    assert np.max(np.abs(K.values - target)) < 1e-6


def test_inverse_kernel_map_round_trip(wong_cache):
    r = wong_cache(((2,), (1,)), L, 129)
    back = tw.inverse_kernel_map_grid(tw.kernel_map_A_grid(r))
    assert np.max(np.abs(back.values - r.values)) < 1e-10


def test_inverse_kernel_map_needs_odd_grid():
    K = tw.GridFunction(2, L, 64, np.zeros((64, 64)) + 0j)
    with pytest.raises(ValueError):
        tw.inverse_kernel_map_grid(K)


def test_parseval_grid_vs_coefficients(rng):
    Ca = rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7))
    Cb = rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7))
    a = tw.synthesize(tw.WongCoeffMatrix(1, 6, Ca), L, 128)
    b = tw.synthesize(tw.WongCoeffMatrix(1, 6, Cb), L, 128)
    grid = a.inner(b)
    coeff = np.sum(Ca * np.conj(Cb))
    assert abs(grid - coeff) < 1e-6 * abs(coeff)


# --- d = 2 grid support ---
# per-axis corner frequencies force point counts ~ L^2, so d = 2 grids stay
# small; (L=5.5, n=49) carries ~4e-7 of boundary and aliasing error per factor

@pytest.mark.filterwarnings("ignore:.*boundary mass.*")
def test_wong_d2_factorizes():
    p = ((1, 0), (0, 2))
    W = tw.hermite_wong_eval(p, 5.5, 49)
    w1 = tw.hermite_wong_eval(((1,), (0,)), 5.5, 49)
    w2 = tw.hermite_wong_eval(((0,), (2,)), 5.5, 49)
    want = np.einsum("ik,jl->ijkl", w1.values, w2.values)
    assert np.max(np.abs(W.values - want)) < 1e-12


@pytest.mark.filterwarnings("ignore:.*boundary mass.*")
def test_wigner_d2_of_product_inputs_factorizes():
    # exercises the generic d = 2 correlation path on non-separable storage
    box, n = 5.5, 49
    axis = np.linspace(-box, box, n)
    hs = tw.hermite_batch(2, axis)
    f2 = np.outer(hs[1], hs[0]) + 0.3 * np.outer(hs[0], hs[2])
    g2 = np.outer(hs[0], hs[1])
    f = tw.GridFunction(2, box, n, f2 + 0j)
    g = tw.GridFunction(2, box, n, g2 + 0j)
    W = tw.wigner(f, g, strict=False)
    def w1(a, b):
        fa = tw.GridFunction(1, box, n, hs[a] + 0j)
        gb = tw.GridFunction(1, box, n, hs[b] + 0j)
        return tw.wigner(fa, gb, strict=False).values
    want = np.einsum("ik,jl->ijkl", w1(1, 0), w1(0, 1)) \
        + 0.3 * np.einsum("ik,jl->ijkl", w1(0, 0), w1(2, 1))
    assert np.max(np.abs(W.values - want)) < 1e-12


@pytest.mark.filterwarnings("ignore:.*boundary mass.*")
def test_fsigma_d2_eigen_sign():
    W = tw.hermite_wong_eval(((1, 0), (0, 2)), 5.5, 49)
    out = tw.symplectic_fourier(W, strict=False)
    assert np.max(np.abs(out.values + W.values)) < 2e-6 * np.max(np.abs(W.values))


@pytest.mark.filterwarnings("ignore:.*boundary mass.*")
def test_kernel_map_d2():
    W = tw.hermite_wong_eval(((1, 0), (0, 2)), 5.5, 49)
    K = tw.kernel_map_A_grid(W, strict=False)
    axis = K.axis()
    hs = tw.hermite_batch(2, axis)
    want = np.einsum("i,j,k,l->ijkl", hs[1], hs[0], hs[0], hs[2])
    assert np.max(np.abs(K.values - want)) < 2e-6


D2_TRANSFORMS = {
    "symplectic_fourier": lambda a: tw.symplectic_fourier(a, strict=False),
    "kernel_map_A_grid": lambda a: tw.kernel_map_A_grid(a, strict=False),
    "inverse_kernel_map_grid": tw.inverse_kernel_map_grid,
}


@pytest.mark.filterwarnings("ignore:.*boundary mass.*")
@pytest.mark.parametrize("name", D2_TRANSFORMS)
def test_d2_transform_of_product_is_product_of_d1_transforms(name):
    # T(r1 (x) r2) = T(r1) (x) T(r2), axes (x1, x2, xi1, xi2); two different
    # generic factors, so a slab or axis-order slip shows
    box, n = 5.5, 33
    rng = np.random.default_rng(33)
    transform = D2_TRANSFORMS[name]
    r1, r2 = (tw.synthesize(tw.WongCoeffMatrix(1, 3, rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))),
                            box, n) for _ in range(2))
    r = tw.GridFunction(4, box, n, np.einsum("ik,jl->ijkl", r1.values, r2.values))
    want = np.einsum("ik,jl->ijkl", transform(r1).values, transform(r2).values)
    got = transform(r).values
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


# --- serialization ---

def test_grid_binary_round_trip(tmp_path):
    r = tw.hermite_wong_eval(((1,), (2,)), L, 64)
    path = tmp_path / "grid.twc"
    tw.write_grid(path, r)
    back = tw.read_grid(path)
    assert back.dims == 2 and back.box_half_width == L and back.points_per_axis == 64
    # storage is complex64: single-precision round trip
    assert np.max(np.abs(back.values - r.values)) < 1e-6
    sidecar = (str(path) + ".json")
    import json
    with open(sidecar) as fh:
        head = json.load(fh)
    assert head == {"dims": 2, "L": L, "points_per_axis": 64}


def test_grid_bad_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOPE" + b"\0" * 32)
    with pytest.raises(ValueError):
        tw.read_grid(path)
