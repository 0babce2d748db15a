import os
import platform
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

import twcalc as tw
import twcalc.algebra as alg
import twcalc.phase_space as ps
from twcalc.algebra import _next_fast_len
from twcalc.errors import TruncationError

from conftest import l2_gap, sparse_coeffs

L = 8.0


def u1(pair, n_max=4):
    return tw.unit_entry(1, n_max, pair)


# --- unit entries ---

@pytest.mark.parametrize("d, n_max, pair", [(1, 4, ((3,), (1,))), (1, 4, (0, 4)),
                                             (2, 2, ((1, 0), (2, 1))), (2, 3, ((3, 3), (0, 2)))])
def test_unit_entry_sits_at_the_c_order_flat_index(d, n_max, pair):
    idx = tw.multi_indices(d, n_max)
    a1, a2 = [(a,) if np.isscalar(a) else a for a in pair]
    want = np.zeros(((n_max + 1) ** d,) * 2)
    want[idx.index(a1), idx.index(a2)] = 1.0
    np.testing.assert_array_equal(tw.unit_entry(d, n_max, pair).entries, want)


@pytest.mark.parametrize("d, pair", [(1, ((-1,), (0,))), (1, ((0,), (3,))), (2, ((0, 1), (3, 0))),
                                     (2, ((-1, 0), (0, 0))), (1, ((0, 0), (0, 0))), (2, ((0,), (0,))),
                                     (2, ((0, 0), (0,))), (1, ((1.5,), (0,)))])
def test_unit_entry_refuses_a_bad_index(d, pair):
    with pytest.raises(ValueError):
        tw.unit_entry(d, 2, pair)


# --- expansion and synthesis ---

def test_expand_picks_out_single_wong_function():
    a = tw.hermite_wong_eval(((1,), (2,)), L, 128)
    C = tw.expand(a, 4)
    want = u1(((1,), (2,))).entries
    assert np.max(np.abs(C.entries - want)) < 1e-8


def test_expand_of_ground_wigner():
    axis = np.linspace(-L, L, 128)
    h0 = tw.GridFunction(1, L, 128, tw.hermite_batch(0, axis)[0] + 0j)
    W = tw.wigner(h0, h0)
    C = tw.expand(W, 3)
    want = tw.unit_entry(1, 3, ((0,), (0,))).entries
    assert np.max(np.abs(C.entries - want)) < 1e-8


def test_expand_synthesize_round_trip(rng):
    Cin = rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7))
    a = tw.synthesize(tw.WongCoeffMatrix(1, 6, Cin), L, 128)
    back = tw.expand(a, 6)
    assert np.max(np.abs(back.entries - Cin)) < 1e-8


def test_expand_rejects_undersized_index_box(rng):
    Cin = rng.normal(size=(7, 7))
    a = tw.synthesize(tw.WongCoeffMatrix(1, 6, Cin + 0j), L, 128)
    with pytest.raises(TruncationError) as err:
        tw.expand(a, 2)
    assert err.value.fraction > 1e-8


def test_synthesize_matches_direct_eval():
    g = tw.synthesize(u1(((2,), (1,))), L, 129)
    direct = tw.hermite_wong_eval(((2,), (1,)), L, 129)
    assert np.max(np.abs(g.values - direct.values)) < 1e-12


def test_synthesize_even_grid_decimates_odd_refinement():
    g = tw.synthesize(u1(((1,), (2,))), L, 128)
    direct = tw.hermite_wong_eval(((1,), (2,)), L, 128)
    assert np.max(np.abs(g.values - direct.values)) < 1e-9


@pytest.mark.filterwarnings("ignore:.*boundary mass.*")
def test_d2_synthesize_and_expand_round_trip(rng):
    pair = ((1, 0), (0, 2))
    C = tw.unit_entry(2, 2, pair)
    g = tw.synthesize(C, 5.5, 49)
    direct = tw.hermite_wong_eval(pair, 5.5, 49)
    assert np.max(np.abs(g.values - direct.values)) < 1e-12
    back = tw.expand(g, 2, strict=False, tail_threshold=1e-5)
    assert np.max(np.abs(back.entries - C.entries)) < 1e-5


def _along_every_axis(vals, M):
    # M along every axis of vals: the whole-array Hermite contraction
    for _ in range(vals.ndim):
        vals = np.tensordot(vals, M, axes=(0, 1))
    return vals


# pair-by-pair expand/synthesize against the whole-kernel route, relative to
# the peak modulus; measured worst case 9e-16 at d = 1 (n = 72, 73, 128, 129)
# and d = 2 (n = 24, 25, 33, 48, 49), on either route of each pair
ROUTE_TOL = 1e-13


@pytest.mark.filterwarnings("ignore:.*boundary mass.*")
@pytest.mark.parametrize("d,box,n,n_max,tabled", [
    # (synthesize, expand) contract a pair with its table: never on one matrix (d = 1)
    pytest.param(1, L, 73, 6, (False, False), id="1-8.0-73"),
    pytest.param(1, L, 72, 6, (False, False), id="1-8.0-72"),
    pytest.param(2, 5.5, 25, 2, (True, True), id="2-5.5-25"),
    pytest.param(2, 5.5, 24, 2, (True, True), id="2-5.5-24"),
    pytest.param(2, 5.5, 49, 2, (True, True), id="2-5.5-49"),
    pytest.param(2, 5.5, 48, 2, (True, True), id="2-5.5-48"),
    pytest.param(2, 5.5, 25, 5, (False, True), id="2-5.5-25-n_max5"),   # k^2 > n
    pytest.param(2, 5.5, 17, 7, (False, False), id="2-5.5-17-n_max7"),  # k^2 > 3n
])
def test_expand_and_synthesize_match_the_whole_kernel_route(d, box, n, n_max, tabled, monkeypatch):
    by_table, tables = ps._by_table, []
    monkeypatch.setattr(ps, "_by_table", lambda T: tables.append(T.shape) or by_table(T))
    rng = np.random.default_rng(n)
    side = (n_max + 1) ** d
    C = tw.WongCoeffMatrix(d, n_max, rng.normal(size=(side, side)) + 1j * rng.normal(size=(side, side)))
    # synthesize: the n^{2d} kernel H^T C H on the odd work grid, one inverse kernel map, decimation
    work = n if n % 2 else 2 * n - 1
    if work ** (2 * d) > 2 ** 25:
        # that kernel would take 1.3 GB on the 95-point work grid of n = 48: there the
        # reference is the pair maps alone, which n = 24 checks against the whole kernel
        with monkeypatch.context() as m:
            m.setattr(alg, "_tabulated", lambda *args: False)
            want = alg.synthesize(C, box, n).values
    else:
        K = _along_every_axis(C.entries.reshape((n_max + 1,) * (2 * d)),
                              tw.hermite_batch(n_max, np.linspace(-box, box, work)).T)
        step = (slice(None, None, (work - 1) // (n - 1)),) * (2 * d)
        want = tw.inverse_kernel_map_grid(tw.GridFunction(2 * d, box, work, K)).values[step]
        del K
    a = tw.synthesize(C, box, n)
    assert np.max(np.abs(a.values - want)) <= ROUTE_TOL * np.max(np.abs(want))
    assert bool(tables) == tabled[0]
    del tables[:]
    # expand: the whole kernel, then the Hermite functions along every axis
    K = tw.kernel_map_A_grid(a, strict=False)
    want = _along_every_axis(K.values, tw.hermite_batch(n_max, K.axis())).reshape(side, side)
    want *= K.spacing ** (2 * d)
    del K
    got = tw.expand(a, n_max, strict=False, tail_threshold=1.0).entries
    assert np.max(np.abs(got - want)) <= ROUTE_TOL * np.max(np.abs(want))
    assert bool(tables) == tabled[1]


@pytest.mark.filterwarnings("ignore:.*boundary mass.*")
def test_d2_synthesize_even_grid_decimates_each_pair_exactly():
    # keeping every second node right after each pair gives the bits of mapping
    # the whole odd refinement and decimating once.  The second pair is contracted
    # with a table of the pair map on the k^2 unit matrices: that map, and so the
    # table, decimates bit for bit.  BLAS may round each 9-term sum of the
    # contraction differently on the two grids' shapes (OpenBLAS's zgemm does, by
    # output column), so the outputs agree to a few rounding errors of those sums;
    # the next test keeps whole-output bit equality where the pair map runs.
    rng = np.random.default_rng(24)
    C = tw.WongCoeffMatrix(2, 2, rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9)))
    n = 24
    fine = tw.synthesize(C, 5.5, 2 * n - 1).values[::2, ::2, ::2, ::2]
    got = tw.synthesize(C, 5.5, n).values
    stacks = np.concatenate([np.eye(9).reshape(9, 3, 3), C.entries.reshape(-1, 3, 3)])
    np.testing.assert_array_equal(alg._synthesize_pair_map(5.5, n, 2)(stacks),
                                  alg._synthesize_pair_map(5.5, 2 * n - 1, 2)(stacks)[:, ::2, ::2])
    assert np.max(np.abs(got - fine)) <= 4 * 9 * np.finfo(float).eps * np.max(np.abs(fine))


@pytest.mark.filterwarnings("ignore:.*boundary mass.*")
def test_d2_synthesize_even_grid_keeps_the_bits_on_the_pair_map_route():
    # at n_max = 11 (k^2 = 144 > n) both grids run the pair map on every pair
    rng = np.random.default_rng(16)
    C = tw.WongCoeffMatrix(2, 11, rng.normal(size=(144, 144)) + 1j * rng.normal(size=(144, 144)))
    n = 16
    fine = tw.synthesize(C, 5.5, 2 * n - 1).values[::2, ::2, ::2, ::2]
    np.testing.assert_array_equal(tw.synthesize(C, 5.5, n).values, fine)


@pytest.mark.filterwarnings("ignore:.*boundary mass.*")
def test_d2_synthesize_holds_no_n3_temporaries():
    # the second pair maps the k^2 unit matrices into a (k^2, n^2) table and
    # contracts every slab with it straight into the output: beside the n^4
    # output only O(k^2 n^2) is held, where each slab of the pair map held n^3
    n, k = 49, 3
    C = tw.unit_entry(2, k - 1, ((1, 0), (0, 2)))
    tw.synthesize(C, 5.5, n)                   # fills the grid's cached plans
    tracemalloc.start()
    try:
        tw.synthesize(C, 5.5, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - n ** 4 * 16 < 8 * k * k * n * n * 16


@pytest.mark.filterwarnings("ignore:.*boundary mass.*")
def test_d2_expand_never_holds_an_n4_array():
    # the pairs shrink to the index box one by one; only check_boundary's
    # real |a| temporary (half the input's size) is n^4 long
    a = tw.synthesize(tw.unit_entry(2, 2, ((1, 0), (0, 2))), 5.5, 33)
    n4_bytes = a.values.nbytes
    tracemalloc.start()
    try:
        tw.expand(a, 2, strict=False, tail_threshold=1e-5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n4_bytes


# --- kernel map in coefficient space ---

def test_kernel_relabel_is_identity_on_entries():
    C = u1(((0,), (0,)))
    K = tw.kernel_map_A_coeff(C)
    np.testing.assert_array_equal(K.entries, C.entries)
    assert K.norm() == C.norm()


def test_hermitian_entries_give_symmetric_kernel(rng):
    # C = C* exactly when the attached operator kernel obeys K(x,y) = conj(K(y,x))
    A = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    C = tw.WongCoeffMatrix(1, 4, 0.5 * (A + A.conj().T))
    K = tw.kernel_map_A_grid(tw.synthesize(C, L, 128))
    assert np.max(np.abs(K.values - K.values.conj().T)) < 1e-8


def test_kernel_relabel_consistent_with_grid(rng):
    C = tw.WongCoeffMatrix(1, 5, rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
    K_grid = tw.kernel_map_A_grid(tw.synthesize(C, L, 256))
    axis = K_grid.axis()
    hs = tw.hermite_batch(5, axis)
    K_coeff = np.einsum("ab,ax,by->xy", tw.kernel_map_A_coeff(C).entries, hs, hs)
    assert np.max(np.abs(K_grid.values - K_coeff)) < 1e-6


# --- twisted convolution, coefficient side ---

def test_product_rule_contraction():
    out = tw.twisted_convolution_coeff(u1(((0,), (1,))), u1(((1,), (3,))))
    np.testing.assert_allclose(out.entries, u1(((0,), (3,))).entries)


def test_product_rule_annihilation():
    out = tw.twisted_convolution_coeff(u1(((0,), (1,))), u1(((2,), (3,))))
    assert np.all(out.entries == 0)


def test_diagonal_ones_is_identity(rng):
    C = tw.WongCoeffMatrix(1, 4, rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))
    eye = tw.WongCoeffMatrix(1, 4, np.eye(5, dtype=complex))
    left = tw.twisted_convolution_coeff(eye, C)
    right = tw.twisted_convolution_coeff(C, eye)
    np.testing.assert_allclose(left.entries, C.entries)
    np.testing.assert_allclose(right.entries, C.entries)


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        tw.twisted_convolution_coeff(u1(((0,), (0,)), 4), u1(((0,), (0,)), 5))


def test_operator_norm_bound(rng):
    A = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    B = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    Ca = tw.WongCoeffMatrix(1, 5, A)
    Cb = tw.WongCoeffMatrix(1, 5, B)
    prod = tw.twisted_convolution_coeff(Ca, Cb)
    assert prod.norm() <= np.linalg.norm(A, 2) * np.linalg.norm(B) + 1e-12


# --- twisted convolution, grid oracle ---

def test_grid_convolution_matches_coefficient_rule(wong_cache):
    a = wong_cache(((0,), (1,)), L, 73)
    b = wong_cache(((1,), (3,)), L, 73)
    out = tw.twisted_convolution_grid(a, b)
    expect = wong_cache(((0,), (3,)), L, 73)
    assert l2_gap(out, expect) < 1e-5


def test_grid_convolution_annihilation_case(wong_cache):
    a = wong_cache(((0,), (1,)), L, 73)
    b = wong_cache(((2,), (3,)), L, 73)
    out = tw.twisted_convolution_grid(a, b)
    assert out.norm() < 1e-5


def test_grid_convolution_with_zero(wong_cache):
    a = wong_cache(((0,), (1,)), L, 73)
    zero = tw.GridFunction(2, L, 73, np.zeros((73, 73)))
    assert tw.twisted_convolution_grid(a, zero).norm() == 0.0


def test_grid_convolution_needs_odd_grid(wong_cache):
    a = tw.hermite_wong_eval(((0,), (0,)), L, 64)
    with pytest.raises(ValueError):
        tw.twisted_convolution_grid(a, a)


def _decaying(rng, L, n):
    # random complex samples under a Gaussian envelope, at most e^{-L^2/2} on the boundary
    x = np.linspace(-L, L, n)
    env = np.exp(-0.5 * (x[:, None] ** 2 + x[None, :] ** 2))
    return (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) * env


def _rows_per_block(monkeypatch, n, rows):
    # set the FFT budget to give `rows` output rows per block; None keeps the default
    if rows is not None:
        monkeypatch.setattr(alg, "_FFT_BLOCK", rows * n * _next_fast_len(3 * ((n - 1) // 2) + 1))


@pytest.mark.filterwarnings("ignore:.*boundary mass.*")
@pytest.mark.parametrize("rows", [None, 1, 3], ids=["default", "rows1", "rows3"])
@pytest.mark.parametrize("n", [17, 21])
def test_twisted_apply_matches_brute_force_sum(rng, n, rows, monkeypatch):
    _rows_per_block(monkeypatch, n, rows)
    # out[i,k] = c sum_{m,q} a[i-m+h, k-q+h] e^{2i (x_m x_k - x_i x_q)} b[m,q], term by term;
    # a has no decaying envelope, so its edge rows, the last each block reads, weigh fully
    a = tw.GridFunction(2, L, n, rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    b = _decaying(rng, L, n)
    x = np.linspace(-L, L, n)
    h = (n - 1) // 2
    r = np.arange(n)
    D = r[:, None] - r[None, :] + 2 * h                 # [i, m] -> row of the zero-padded a
    shifted = np.pad(a.values, h)[D[:, None, :, None], D[None, :, None, :]]   # [i, k, m, q]
    phase = np.exp(2j * (x[None, :, None, None] * x[None, None, :, None]
                         - x[:, None, None, None] * x[None, None, None, :]))
    dx = x[1] - x[0]
    want = (2 / np.pi) ** 0.5 * dx * dx * np.einsum("ikmq,ikmq,mq->ik", shifted, phase, b)
    got = tw.twisted_apply(a, b, strict=False)
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)
    dense = (tw.twisted_left_matrix(a, strict=False) @ b.reshape(-1)).reshape(n, n)
    assert np.linalg.norm(dense - want) <= 1e-13 * np.linalg.norm(want)


@pytest.mark.parametrize("rows", [None, 1, 3], ids=["default", "rows1", "rows3"])
def test_twisted_apply_stack_equals_slices(rng, rows, monkeypatch):
    n = 21
    _rows_per_block(monkeypatch, n, rows)
    a = tw.GridFunction(2, L, n, _decaying(rng, L, n))
    stack = np.stack([[_decaying(rng, L, n) for _ in range(3)] for _ in range(2)])
    got = tw.twisted_apply(a, stack)
    assert got.shape == stack.shape
    for j in range(2):
        for k in range(3):
            one = tw.twisted_apply(a, stack[j, k])
            assert np.max(np.abs(got[j, k] - one)) <= 1e-13 * np.max(np.abs(one))


def test_grid_convolution_on_a_101_point_grid(wong_cache):
    a = wong_cache(((0,), (1,)), L, 101)
    b = wong_cache(((1,), (3,)), L, 101)
    out = tw.twisted_convolution_grid(a, b)
    assert l2_gap(out, wong_cache(((0,), (3,)), L, 101)) < 1e-5


def _scipy_fft(x, n=None, axis=-1, out=None):
    # scipy.fft.fft has no out=; its result is written into out as numpy's is
    y = scipy.fft.fft(x, n, axis=axis)
    if out is None:
        return y
    out[...] = y
    return out


@pytest.mark.parametrize("n", [17, 21, 73, 85])
def test_twisted_apply_equals_the_scipy_fft_route_bitwise(rng, n, monkeypatch):
    a = tw.GridFunction(2, L, n, _decaying(rng, L, n))
    B = np.stack([_decaying(rng, L, n) for _ in range(2)])
    got = tw.twisted_apply(a, B)
    monkeypatch.setattr(np.fft, "fft", _scipy_fft)
    monkeypatch.setattr(np.fft, "ifft", scipy.fft.ifft)
    assert got.tobytes() == tw.twisted_apply(a, B).tobytes()


def test_twisted_apply_peaks_below_4_mb_at_n_73(rng):
    # 8-row blocks of about 1 MB of FFT rows; a single block of all 73 rows takes 15.5 MB
    n = 73
    a = tw.GridFunction(2, L, n, _decaying(rng, L, n))
    b = _decaying(rng, L, n)
    tracemalloc.start()
    try:
        tw.twisted_apply(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


# the minor page faults of the third twisted_apply at n = 73 in a fresh interpreter: there
# the first call's FFT buffer is mapped apart from the heap, and the second grows the heap
FAULTS = """
import resource
import numpy as np
import twcalc as tw
n, L = 73, 8.0
x = np.linspace(-L, L, n)
rng = np.random.default_rng(5)
env = np.exp(-0.5 * (x[:, None] ** 2 + x[None, :] ** 2))
a, b = ((rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) * env for _ in range(2))
a = tw.GridFunction(2, L, n, a)
tw.twisted_apply(a, b)
tw.twisted_apply(a, b)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
tw.twisted_apply(a, b)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not (sys.platform.startswith("linux") and platform.libc_ver()[0] == "glibc"),
                    reason="the fault count is glibc malloc's trim and mmap-threshold behaviour")
def test_twisted_apply_at_n_73_takes_few_page_faults():
    # one FFT buffer reused by every block: per-block temporaries of about 1 MB made the
    # glibc heap shrink and fault in again, about 1000 faults a call
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", FAULTS], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 50


@pytest.mark.parametrize("B", [np.full((73, 73), np.nan), np.full((73, 73), 1e308),
                               np.full((73, 73), "a"), np.full((73, 73), 1.0, dtype=object)],
                         ids=["nan", "overflow", "str", "object"])
def test_twisted_apply_rejects_a_non_finite_or_non_numeric_factor(B):
    a = tw.hermite_wong_eval(((0,), (0,)), L, 73)
    with np.errstate(all="raise"), pytest.raises(ValueError):
        tw.twisted_apply(a, B)


def test_next_fast_len_equals_scipy():
    assert [_next_fast_len(t) for t in range(1, 5001)] == \
        [scipy.fft.next_fast_len(t) for t in range(1, 5001)]


def test_twisted_apply_rejects_even_grid_and_d2():
    even = tw.hermite_wong_eval(((0,), (0,)), L, 64)
    with pytest.raises(ValueError, match="odd"):
        tw.twisted_apply(even, even.values)
    d2 = tw.GridFunction(4, L, 17, np.zeros((17,) * 4))
    with pytest.raises(ValueError, match="d = 1"):
        tw.twisted_apply(d2, np.zeros((17, 17)))
    odd = tw.hermite_wong_eval(((0,), (0,)), L, 17)
    with pytest.raises(ValueError, match="slices"):
        tw.twisted_apply(odd, np.zeros((17, 16)))


def test_composition_identity_against_kernel_quadrature(rng, wong_cache):
    # kernels of the product match the z-integral of composed kernels
    Ca = tw.WongCoeffMatrix(1, 3, rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    Cb = tw.WongCoeffMatrix(1, 3, rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    prod = tw.twisted_convolution_coeff(Ca, Cb)
    K_prod = tw.kernel_map_A_grid(tw.synthesize(prod, L, 128))
    Ka = tw.kernel_map_A_grid(tw.synthesize(Ca, L, 128))
    Kb = tw.kernel_map_A_grid(tw.synthesize(Cb, L, 128))
    composed = Ka.values @ Kb.values * Ka.spacing
    assert np.max(np.abs(K_prod.values - composed)) < 1e-5


# --- Weyl layer ---

def test_weyl_quantize_ground_symbol():
    M = tw.weyl_quantize(u1(((0,), (0,))))
    want = np.zeros((5, 5), dtype=complex)
    want[0, 0] = (2 * np.pi) ** -0.5
    np.testing.assert_allclose(M, want, atol=1e-15)


def test_weyl_quantize_sign_flip():
    M = tw.weyl_quantize(u1(((1,), (0,))))
    want = np.zeros((5, 5), dtype=complex)
    want[1, 0] = -((2 * np.pi) ** -0.5)
    np.testing.assert_allclose(M, want, atol=1e-15)


def test_weyl_homomorphism(rng):
    A = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    B = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    Ca = tw.WongCoeffMatrix(1, 5, A)
    Cb = tw.WongCoeffMatrix(1, 5, B)
    lhs = tw.weyl_quantize(tw.weyl_product(Ca, Cb))
    rhs = tw.weyl_quantize(Ca) @ tw.weyl_quantize(Cb)
    assert np.linalg.norm(lhs - rhs) <= 1e-10 * np.linalg.norm(rhs)


@settings(max_examples=60, deadline=None)
@given(d=st.sampled_from([1, 2]), n_max=st.integers(0, 4), seed=st.integers(0, 2 ** 32 - 1))
def test_weyl_product_associative(d, n_max, seed):
    rng = np.random.default_rng(seed)
    side = (n_max + 1) ** d
    mats = [tw.WongCoeffMatrix(d, n_max, rng.normal(size=(side, side)) + 1j * rng.normal(size=(side, side)))
            for _ in range(3)]
    left = tw.weyl_product(tw.weyl_product(mats[0], mats[1]), mats[2])
    right = tw.weyl_product(mats[0], tw.weyl_product(mats[1], mats[2]))
    assert np.linalg.norm(left.entries - right.entries) <= 1e-10 * right.norm()


def test_weyl_product_against_twisted_product(rng):
    # b built as (2pi)^{d/2} F_s(identity) makes # collapse to *s with a
    A = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    Ca = tw.WongCoeffMatrix(1, 4, A)
    signs = tw.fsigma_coeff(tw.WongCoeffMatrix(1, 4, np.eye(5, dtype=complex)))
    Cb = tw.WongCoeffMatrix(1, 4, (2 * np.pi) ** 0.5 * signs.entries)
    out = tw.weyl_product(Ca, Cb)
    np.testing.assert_allclose(out.entries, A, atol=1e-12)


def test_fsigma_coeff_matches_grid(wong_cache):
    C = u1(((1,), (3,)))
    flipped = tw.fsigma_coeff(C)
    grid = tw.symplectic_fourier(wong_cache(((1,), (3,))))
    back = tw.expand(grid, 4)
    assert np.max(np.abs(back.entries - flipped.entries)) < 1e-6


@settings(max_examples=30, deadline=None)
@given(a1=st.integers(0, 3), a2=st.integers(0, 3), b1=st.integers(0, 3), b2=st.integers(0, 3))
def test_product_rule_is_kronecker(a1, a2, b1, b2):
    out = tw.twisted_convolution_coeff(u1(((a1,), (a2,))), u1(((b1,), (b2,))))
    if a2 == b1:
        np.testing.assert_allclose(out.entries, u1(((a1,), (b2,))).entries)
    else:
        assert np.all(out.entries == 0)


# --- serialization ---

def test_wong_json_round_trip(rng):
    C = tw.WongCoeffMatrix(2, 2, rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9)))
    back = tw.wong_from_json(tw.wong_to_json(C))
    assert back.d == 2 and back.n_max == 2
    np.testing.assert_allclose(back.entries, C.entries)


def test_wong_json_sparsity():
    text = tw.wong_to_json(u1(((1,), (2,))))
    import json
    obj = json.loads(text)
    assert obj["entries"] == [[1, 2, 1.0, 0.0]]
    # d = 2: rows in C order of (a1, a2), integer indices, round-trip float repr
    C = np.zeros((4, 4), dtype=complex)
    C[3, 0] = 0.1 + 0.2 - 2.0j      # a1 = (1, 1), a2 = (0, 0)
    C[1, 2] = -1.0 / 3.0            # a1 = (0, 1), a2 = (1, 0)
    assert tw.wong_to_json(tw.WongCoeffMatrix(2, 1, C)) == (
        '{"d": 2, "entries": [[0, 1, 1, 0, -0.3333333333333333, 0.0], '
        '[1, 1, 0, 0, 0.30000000000000004, -2.0]], "n_max": 1}')


@settings(max_examples=60, deadline=None)
@given(data=st.data(), d=st.sampled_from([1, 2]), n_max=st.integers(0, 5))
def test_wong_json_round_trip_property(data, d, n_max):
    side = (n_max + 1) ** d
    C = tw.WongCoeffMatrix(d, n_max, data.draw(sparse_coeffs((side, side))))
    text = tw.wong_to_json(C)
    back = tw.wong_from_json(text)
    assert (back.d, back.n_max) == (d, n_max)
    np.testing.assert_array_equal(back.entries, C.entries)
    assert tw.wong_to_json(back) == text
