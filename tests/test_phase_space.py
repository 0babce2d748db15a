import functools
import inspect
import multiprocessing
import os
import struct
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest

import twcalc as tw
from twcalc import phase_space as ps
from twcalc.errors import GridMismatchError, TruncationError
from twcalc.phase_space import check_boundary


L, N = 8.0, 256
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


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


@pytest.mark.parametrize("plan, args", [(ps._dft_kernel, (8.0, 33)), (ps._wigner_plan, (33,)),
                                        (ps._kernel_plan, (8.0, 33)), (ps._inverse_plan, (33,))],
                         ids=["dft_kernel", "wigner", "kernel_map", "inverse_kernel_map"])
def test_cached_constants_are_read_only(plan, args):
    # a write to a cached array would change every later call on the same grid
    arrays = plan(*args)
    arrays = arrays if isinstance(arrays, tuple) else (arrays,)
    before = [x.tobytes() for x in arrays]
    for x in arrays:
        with pytest.raises(ValueError, match="read-only"):
            x[...] = 0
    again = plan(*args)
    assert [x.tobytes() for x in (again if isinstance(again, tuple) else (again,))] == before


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


@pytest.mark.parametrize("dims", [2, 4])
def test_boundary_fraction_reads_every_face(dims):
    n = 16
    for ax in range(dims):
        for side in (0, n - 1):
            values = np.zeros((n,) * dims, dtype=complex)
            values[(n // 2,) * dims] = -4.0              # the peak, inside the box
            at = [n // 2] * dims
            at[ax] = side
            values[tuple(at)] = 1.0j                     # the only boundary mass, on one face
            assert tw.GridFunction(dims, L, n, values).boundary_fraction() == 0.25


def _gaussian(dims, n=17, box=5.0):
    axis = np.linspace(-box, box, n)
    return tw.GridFunction(dims, box, n, functools.reduce(np.multiply.outer, [np.exp(-axis * axis)] * dims) + 0j)


def _outcome(check, f, strict, threshold):
    """("raise", fraction, message), ("warn", message) or ("pass", None) of one boundary check."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            check(f, strict, threshold)
        except TruncationError as exc:
            return "raise", repr(exc.fraction), str(exc)
    return ("warn", str(caught[0].message)) if caught else ("pass", None)


def _whole_grid_check(f, strict, threshold):
    """The check as one whole-grid pass: boundary_fraction against the threshold."""
    frac = f.boundary_fraction()
    if frac > threshold:
        msg = f"input carries boundary mass {frac:.3e} (threshold {threshold:.1e}); enlarge the box"
        if strict:
            raise TruncationError(msg, fraction=frac)
        warnings.warn(msg)


@pytest.mark.parametrize("dims", [2, 4])
@pytest.mark.parametrize("edge,threshold", [(1e-9, 1e-8), (1.2e-8, 1e-8), (1e-7, 1e-8), (0.0, 1e-8), (1e-7, 1e-6)])
@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
def test_boundary_peak_outside_the_sample(dims, edge, threshold, scale):
    # the peak sits between the sampled nodes, far above every sample, so the
    # sample's lower bound cannot decide and the exact fraction must be taken
    n = 17
    values = np.zeros((n,) * dims, dtype=complex)
    values[(1,) * dims] = 1e-3            # no sample: the sample takes every fourth node from 0
    values[(n // 2 + 2,) * dims] = 1.0    # the peak, not sampled either
    values[(n // 2,) * dims] = 1e-3       # sampled
    values[(0,) + (n // 2,) * (dims - 1)] = edge
    f = tw.GridFunction(dims, 4.0, n, scale * values)
    for strict in (True, False):
        assert _outcome(check_boundary, f, strict, threshold) == _outcome(_whole_grid_check, f, strict, threshold)


@pytest.mark.parametrize("dims", [2, 4])
@pytest.mark.parametrize("scale", [1e-9, 1.0, 1e9])
def test_boundary_spike_on_one_face(dims, scale):
    f = _gaussian(dims)
    n = f.points_per_axis
    for ax in range(dims):
        for side in (0, n - 1):
            g = tw.GridFunction(dims, f.box_half_width, n, scale * f.values)
            at = [n // 2 + 1] * dims
            at[ax] = side
            g.values[tuple(at)] = scale * 2e-6j
            with pytest.raises(TruncationError) as exc:
                check_boundary(g, strict=True)
            assert exc.value.fraction == g.boundary_fraction()
            with pytest.warns(UserWarning, match=f"boundary mass {g.boundary_fraction():.3e}"):
                check_boundary(g, strict=False)
            check_boundary(g, strict=True, threshold=1e-5)   # under a looser threshold it passes


def test_boundary_all_zero_grid_passes():
    for dims in (2, 4):
        f = tw.GridFunction(dims, 4.0, 16, np.zeros((16,) * dims, dtype=complex))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            check_boundary(f, strict=True)
            check_boundary(f, strict=True, threshold=0.0)


def test_boundary_decided_by_faces_skips_the_whole_grid(monkeypatch):
    f = _gaussian(4)
    assert 0.0 < f.boundary_fraction() < 1e-8
    monkeypatch.setattr(tw.GridFunction, "boundary_fraction", lambda self: pytest.fail("whole-grid pass"))
    check_boundary(f, strict=True)


@pytest.mark.parametrize("dims", [2, 4])
@pytest.mark.parametrize("where", ["corner", "centre", "off-sample"])
@pytest.mark.parametrize("part", [1.0, 1.0j])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_boundary_of_non_finite_values_as_the_whole_grid_check(dims, where, part, value):
    # values are refused at construction, but a caller may write them in later
    f = _gaussian(dims)
    n = f.points_per_axis
    at = {"corner": (0,) * dims, "centre": (n // 2,) * dims, "off-sample": (n // 2 + 1,) * dims}[where]
    for edge in (0.0, 1e-7):                 # the boundary otherwise under or over the threshold
        g = tw.GridFunction(dims, f.box_half_width, n, f.values.copy())
        g.values[(0,) + (n // 2,) * (dims - 1)] += edge
        g.values[at] = value * part if part == 1.0 else complex(g.values[at].real, value)
        for strict in (True, False):
            assert _outcome(check_boundary, g, strict, 1e-8) == _outcome(_whole_grid_check, g, strict, 1e-8)


def test_grid_function_finiteness():
    n = 16
    big = np.full((n, n), 1e200 + 1e200j)                  # finite, though its squares overflow
    assert tw.GridFunction(2, L, n, big).values[0, 0] == 1e200 + 1e200j
    for at in ((0, 0), (n // 2, 3), (n - 1, n - 1)):
        for bad in (np.nan, np.inf, -np.inf, 1j * np.nan, 1j * np.inf, complex(1.0, -np.inf)):
            for fill in (1.0, 1e200):
                values = np.full((n, n), fill, dtype=complex)
                values[at] = bad
                with pytest.raises(ValueError, match="finite"):
                    tw.GridFunction(2, L, n, values)


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


@pytest.mark.parametrize("pair", [((1.5,), (0,)), ((0, 0, 0), (0, 0, 0))], ids=["non_integral", "d3"])
def test_wong_pair_rejected(pair):
    with pytest.raises(ValueError):
        tw.hermite_wong_eval(pair, L, 16)


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


# --- slab pool ---

def _d2_transforms(n):
    """Every transform whose d = 2 slabs run on the pool, by name, on inputs at n points."""
    rng = np.random.default_rng(n)
    box = 5.5
    C = tw.WongCoeffMatrix(2, 2, rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9)))
    a = tw.synthesize(C, box, n)
    f = tw.GridFunction(2, box, n, a.values[:, :, n // 2, n // 3].copy())
    g = tw.GridFunction(2, box, n, a.values[n // 3, :, :, n // 2].copy())
    out = {
        "wigner": lambda: tw.wigner(f, g, strict=False).values,
        "symplectic_fourier": lambda: tw.symplectic_fourier(a, strict=False).values,
        "kernel_map_A_grid": lambda: tw.kernel_map_A_grid(a, strict=False).values,
        "expand": lambda: tw.expand(a, 2, strict=False, tail_threshold=1.0).entries,
        "synthesize": lambda: tw.synthesize(C, box, n).values,      # 3 slabs in its first pair
        "apply_h_sigma_grid": lambda: tw.apply_h_sigma_grid(a, strict=False).values,
        "apply_h_bar_sigma_grid": lambda: tw.apply_h_sigma_grid(a, strict=False, conjugate=True).values,
    }
    if n % 2:
        out["inverse_kernel_map_grid"] = lambda: tw.inverse_kernel_map_grid(a).values
    return out


@pytest.fixture
def workers(monkeypatch):
    """Call it with a worker count, and d = 2 slabs run on that many threads from then on."""
    monkeypatch.setattr(ps, "_executor", None)             # the pools of this test are its own

    def drop_pool():
        if ps._executor is not None:
            ps._executor.shutdown()
            ps._executor = None                            # a pool of the new size starts on first use

    def set_workers(count):
        drop_pool()
        monkeypatch.setattr(ps, "_cpus", lambda: count)

    yield set_workers
    drop_pool()


@pytest.mark.filterwarnings("ignore:.*boundary mass.*")
@pytest.mark.parametrize("n", [17, 18])
def test_pooled_d2_transforms_equal_one_worker(n, workers):
    transforms = _d2_transforms(n)
    workers(1)
    want = {name: run() for name, run in transforms.items()}
    for count in (2, 4):                  # 4: more workers than synthesize's first pair has slabs
        workers(count)
        for name, run in transforms.items():
            got = run()
            assert got.dtype == want[name].dtype and got.shape == want[name].shape, name
            assert got.tobytes() == want[name].tobytes(), (name, count)
        assert ps._executor._max_workers == count - 1


@pytest.mark.filterwarnings("ignore:.*boundary mass.*")
def test_pool_without_blas_symbols_runs_gemm_slabs_inline(monkeypatch, workers):
    transforms = _d2_transforms(17)
    workers(1)
    want = {name: run() for name, run in transforms.items()}
    workers(2)
    monkeypatch.setattr(ps, "_openblas", lambda: None)
    used = []
    pool = ps._pool
    monkeypatch.setattr(ps, "_pool", lambda: used.append(1) or pool())
    for name, run in transforms.items():
        del used[:]
        assert run().tobytes() == want[name].tobytes(), name
        assert bool(used) == name.startswith("apply_h"), name      # only the stencil pools


@pytest.fixture
def blas_threads():
    """The getter of numpy's OpenBLAS thread count, which is 3 for the test and restored after."""
    blas = ps._openblas()
    if blas is None:
        pytest.skip("numpy's BLAS exposes no OpenBLAS thread symbols")
    get, put = blas
    before = get()
    put(3)                            # not 1, and not the count any earlier call may have left
    yield get
    put(before)


@pytest.mark.filterwarnings("ignore:.*boundary mass.*")
def test_blas_threads_held_at_one_in_the_pool_and_restored(workers, blas_threads):
    get = blas_threads
    workers(2)
    seen = []
    vals = np.ones((17,) * 4, dtype=complex)

    def pair_map(b):
        seen.append(get())
        return b * 2.0

    with ps._pool_scope(True):        # as every public d = 2 call runs its body
        ps._each_pair(vals, pair_map)
    assert seen and set(seen) == {1}
    assert get() == 3
    for name, run in _d2_transforms(17).items():
        run()
        assert get() == 3, name


@pytest.mark.filterwarnings("ignore:.*boundary mass.*")
def test_one_blas_thread_inside_every_d2_call(monkeypatch, workers, blas_threads):
    # the finiteness check of each n^4 output, and expand's norm, run inside the call at one thread
    get = blas_threads
    workers(2)
    n = 17
    transforms = _d2_transforms(n)
    transforms["hermite_wong_eval"] = lambda: tw.hermite_wong_eval(((1, 2), (0, 3)), 5.5, n).values
    seen = []
    post_init, norm = ps.GridFunction.__post_init__, ps.GridFunction.norm

    def recorded_post_init(self):
        if np.size(self.values) == n ** 4:
            seen.append(get())
        post_init(self)

    def recorded_norm(self):
        seen.append(get())
        return norm(self)

    monkeypatch.setattr(ps.GridFunction, "__post_init__", recorded_post_init)
    monkeypatch.setattr(ps.GridFunction, "norm", recorded_norm)
    for name, run in transforms.items():
        del seen[:]
        run()
        assert seen and set(seen) == {1}, (name, seen)
        assert get() == 3, name


@pytest.fixture
def blas_puts(monkeypatch, blas_threads):
    """The counts numpy's OpenBLAS thread setter is called with from then on, in order."""
    get, put = ps._openblas()
    puts = []

    def recorded(count):
        puts.append(count)
        put(count)

    monkeypatch.setattr(ps, "_openblas", lambda: (get, recorded))
    return puts


def test_blas_threads_restored_after_a_d2_call_raises(workers, blas_puts):
    workers(2)
    n = 17
    edge = np.zeros((n,) * 4, dtype=complex)
    edge[n // 2, n // 2, n // 2, n // 2] = 1.0
    edge[0, n // 2, n // 2, n // 2] = 1e-3               # boundary mass: the strict check raises
    with pytest.raises(TruncationError):
        tw.kernel_map_A_grid(tw.GridFunction(4, 5.5, n, edge), strict=True)
    assert blas_puts == [1, 3]
    assert ps._openblas()[0]() == 3
    assert not ps._POOLED.locked()


@pytest.mark.filterwarnings("ignore:.*boundary mass.*")
def test_nested_calls_hold_blas_once(workers, blas_puts):
    workers(2)
    tw.hermite_wong_eval(((1, 2), (0, 3)), 5.5, 17)      # its 1-D wigners run inside its hold
    assert blas_puts == [1, 3]
    transforms = _d2_transforms(17)
    del blas_puts[:]
    with ps._pool_scope(True):
        for run in transforms.values():
            run()
        assert blas_puts == [1]
    assert blas_puts == [1, 3]
    assert not ps._POOLED.locked()


def test_blas_threads_restored_after_a_pair_map_raises(workers, blas_threads):
    workers(2)
    calls = []

    def pair_map(b):
        calls.append(1)
        if len(calls) == 3:
            raise RuntimeError("slab failed")
        return b

    with pytest.raises(RuntimeError, match="slab failed"), ps._pool_scope(True):
        ps._each_pair(np.ones((17,) * 4, dtype=complex), pair_map)
    assert blas_threads() == 3
    assert not ps._POOLED.locked()
    assert len(calls) < 17            # the first pair's remaining slabs were dropped, not run


def test_a_second_caller_runs_inline(monkeypatch, workers, blas_threads):
    get = blas_threads
    workers(2)
    before = get()
    monkeypatch.setattr(ps, "_pool", lambda: pytest.fail("pool used while held"))
    seen = []

    def pair_map(b):
        seen.append(get())
        return b

    with ps._POOLED:                  # as if another thread held the pool
        ps._each_pair(np.ones((17,) * 4, dtype=complex), pair_map)
    assert set(seen) == {before}
    assert get() == before


def test_every_slab_runs_once_under_contention(workers):
    # more workers than cores take slabs off one shared list, switching threads as often as they can
    workers(8)
    counts = np.zeros(301, dtype=int)

    def work(i):
        counts[i] += 1                # each slab writes its own entry only

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            with ps._pool_scope(True):
                ps._on_slabs(work, [(i,) for i in range(counts.size)], blas=False)
    finally:
        sys.setswitchinterval(interval)
    assert (counts == 20).all()
    assert not ps._POOLED.locked()


def _double_in_pool():
    with ps._pool_scope(True):
        out = ps._each_pair(np.ones((17,) * 4, dtype=complex), lambda b: 2.0 * b)
    os._exit(0 if (out == 4.0).all() else 1)


def test_a_forked_child_starts_its_own_pool(workers):
    workers(2)
    with ps._pool_scope(True):
        ps._each_pair(np.ones((17,) * 4, dtype=complex), lambda b: b)
    assert ps._executor is not None
    child = multiprocessing.get_context("fork").Process(target=_double_in_pool)
    child.start()
    child.join(timeout=60)            # the parent's pool threads do not exist in the child
    if child.is_alive():
        child.kill()
        child.join()
    assert child.exitcode == 0


def test_d1_never_starts_the_pool(monkeypatch, workers, wong_cache):
    workers(2)
    monkeypatch.setattr(ps, "_pool", lambda: pytest.fail("pool started at d = 1"))
    puts = []                         # d = 1 GEMMs run at the caller's BLAS count
    monkeypatch.setattr(ps, "_openblas", lambda: (lambda: 3, puts.append))
    W = wong_cache(((1,), (2,)), 8.0, 129)
    tw.wigner(hermite_grid(1, n=129), hermite_grid(2, n=129))
    tw.symplectic_fourier(W)
    K = tw.kernel_map_A_grid(W)
    tw.inverse_kernel_map_grid(K)
    C = tw.expand(W, 4)
    tw.synthesize(C, 8.0, 129)
    tw.apply_h_sigma_grid(W)
    assert ps._executor is None
    assert puts == []


def test_import_leaves_the_pool_module_unloaded():
    code = "import sys, twcalc.cli; sys.exit('concurrent.futures' in sys.modules)"
    subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": SRC})


@pytest.mark.filterwarnings("ignore:.*boundary mass.*")
def test_slab_workers_call_no_public_function(monkeypatch, workers):
    # perfbench's span tracer keeps one span stack for every thread: a public
    # twcalc function called from a pool thread would corrupt it.  Every public
    # function of these modules, wherever it is bound, checks its thread.
    from twcalc import algebra, hermite, oscillators

    off_main = []
    wrappers = {}
    for mod in (hermite, ps, algebra, oscillators):
        for attr, fn in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                continue

            def checked(*args, __fn=fn, **kwargs):
                if threading.current_thread() is not threading.main_thread():
                    off_main.append(__fn.__qualname__)
                return __fn(*args, **kwargs)

            wrappers[fn] = checked
    for ns in (tw, hermite, ps, algebra, oscillators):
        for attr, obj in list(vars(ns).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                monkeypatch.setattr(ns, attr, wrappers[obj])
    assert {"wigner", "expand", "apply_h_sigma_grid", "check_boundary"} <= {f.__name__ for f in wrappers}
    workers(2)
    threads = set()                    # where private slab helpers ran: the pool did run
    for mod, attr in ((ps, "_batch_middle"), (oscillators, "_add_taps")):
        def recorded(*args, __fn=getattr(mod, attr)):
            threads.add(threading.current_thread().name.split("_")[0])
            return __fn(*args)
        monkeypatch.setattr(mod, attr, recorded)
    for name, run in _d2_transforms(17).items():
        run()
    assert off_main == []
    assert threads == {"MainThread", "twcalc-slab"}


# --- serialization ---

def test_grid_binary_round_trip(tmp_path):
    r = tw.hermite_wong_eval(((1,), (2,)), L, 64)
    path = tmp_path / "grid.twc"
    tw.write_grid(path, r)
    back = tw.read_grid(path)
    assert back.dims == 2 and back.box_half_width == L and back.points_per_axis == 64
    # storage is complex64: single-precision round trip
    assert np.max(np.abs(back.values - r.values)) < 1e-6
    assert list(tmp_path.iterdir()) == [path]


def test_failed_grid_write_leaves_no_file(tmp_path, full_disk):
    # write_grid writes one file, so a directory at the path + ".json" a sidecar would take does not fail it
    path = tmp_path / "grid.twc"
    (tmp_path / "grid.twc.json").mkdir()
    tw.write_grid(path, tw.hermite_wong_eval(((0,), (0,)), L, 16))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["grid.twc", "grid.twc.json"]
    path.unlink()
    full_disk()
    with pytest.raises(OSError, match="No space"):
        tw.write_grid(path, tw.hermite_wong_eval(((0,), (0,)), L, 16))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["grid.twc.json"]


@pytest.mark.parametrize("value", [1e39 + 0j, 1j * -1e39], ids=["real", "imag"])
def test_grid_beyond_complex64_refused_before_writing(tmp_path, value):
    path = tmp_path / "grid.twc"
    with warnings.catch_warnings(), pytest.raises(ValueError, match="overflow complex64"):
        warnings.simplefilter("error")      # the cast's overflow warning would fail the test
        tw.write_grid(path, tw.GridFunction(1, 8.0, 16, np.full(16, value)))
    assert list(tmp_path.iterdir()) == []


def test_grid_bad_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOPE" + b"\0" * 32)
    with pytest.raises(ValueError):
        tw.read_grid(path)


@pytest.mark.parametrize("corrupt", [
    lambda raw: raw[:6],
    lambda raw: raw[:-8],
    lambda raw: raw[:4] + struct.pack("<IdI", 2 ** 32 - 1, L, 2 ** 32 - 1) + raw[20:],
], ids=["short-header", "short-payload", "huge-header"])
def test_grid_file_with_a_bad_size_rejected(tmp_path, corrupt):
    path = tmp_path / "grid.twc"
    tw.write_grid(path, tw.hermite_wong_eval(((0,), (0,)), L, 64))
    path.write_bytes(corrupt(path.read_bytes()))
    with pytest.raises(ValueError, match="grid (header|payload)"):
        tw.read_grid(path)
