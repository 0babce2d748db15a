"""Grid realizations of the phase-space transforms.

Functions here sample phase space R^{2d} on a uniform box grid, endpoints
included, axes ordered (x_1..x_d, xi_1..xi_d).  They are the quadrature
oracles against which the exact coefficient-space algebra is validated, so
sign conventions are locked:

    W_{f,g}(x,xi)   = (2pi)^{-d/2} Int f(x - y/2) conj(g(x + y/2)) e^{+i<y,xi>} dy
    (F_s a)(X)      = pi^{-d}      Int a(Y) e^{2i sigma(X,Y)} dY
    (A a)(x,y)      = (2pi)^{-d/2} Int a((y-x)/2, xi) e^{-i<x+y,xi>} dxi

with sigma(X,Y) = <y,xi> - <x,eta>.  Flipping any one sign breaks the
joint identities (eigen-signs of F_s, the product rule under A), which the
test suite pins.

All integrals are plain Riemann sums on the box; admissible inputs decay
below the boundary threshold at |x| = L, so the sums converge spectrally.

At d = 2 each grid transform (wigner, hermite_wong_eval,
symplectic_fourier, the kernel map and its inverse here, expand and
synthesize in ``algebra``, apply_h_sigma_grid in ``oscillators``) runs its
body in one ``_pool_scope``: from entry to return its slabs may run on the
slab pool and numpy's OpenBLAS runs one thread, so no idle BLAS worker
spins beside the slab workers.  d = 1 calls never touch the pool or the
BLAS count.
"""

from __future__ import annotations

import os
import threading
import warnings
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import GridMismatchError, TruncationError
from .hermite import hermite_batch

BOUNDARY_THRESHOLD = 1e-8
MAX_WONG_INDEX = 32


@dataclass
class GridFunction:
    """Complex samples on the uniform grid [-L, L]^dims, endpoints included."""

    dims: int
    box_half_width: float
    points_per_axis: int
    values: np.ndarray

    def __post_init__(self):
        if self.points_per_axis < 16:
            raise ValueError("points_per_axis must be >= 16")
        if not (np.isfinite(self.box_half_width) and self.box_half_width > 0):
            raise ValueError(f"box_half_width must be finite and > 0, got {self.box_half_width!r}")
        self.values = np.asarray(self.values, dtype=complex)
        expected = (self.points_per_axis,) * self.dims
        if self.values.shape != expected:
            raise ValueError(f"values shape {self.values.shape} != {expected}")
        # one BLAS pass accepts almost every array; the sum is not finite when an
        # entry is not, or when finite squares overflow, so only then look entry by entry
        if not np.isfinite(np.vdot(self.values, self.values)) and not np.all(np.isfinite(self.values)):
            raise ValueError("values must be finite")

    def axis(self) -> np.ndarray:
        return np.linspace(-self.box_half_width, self.box_half_width, self.points_per_axis)

    @property
    def spacing(self) -> float:
        return 2.0 * self.box_half_width / (self.points_per_axis - 1)

    @property
    def cell(self) -> float:
        """Volume element of one grid cell."""
        return self.spacing ** self.dims

    def norm(self) -> float:
        return float(np.sqrt(np.vdot(self.values, self.values).real * self.cell))

    def inner(self, other: "GridFunction") -> complex:
        require_same_grid(self, other)
        return complex(np.sum(self.values * np.conj(other.values)) * self.cell)

    def boundary_fraction(self) -> float:
        """Largest |value| on the box boundary relative to the overall max."""
        peak = float(np.max(np.abs(self.values)))
        if peak == 0.0:
            return 0.0
        return _face_max(self.values) / peak


def _face_max(values: np.ndarray) -> float:
    """Largest |value| on the 2 ndim faces of the box."""
    return max(float(np.max(np.abs(np.moveaxis(values, ax, 0)[side])))
               for ax in range(values.ndim) for side in (0, -1))


def require_same_grid(a: GridFunction, b: GridFunction):
    if (a.dims, a.box_half_width, a.points_per_axis) != (b.dims, b.box_half_width, b.points_per_axis):
        raise GridMismatchError(
            f"grids differ: ({a.dims}, {a.box_half_width}, {a.points_per_axis}) vs "
            f"({b.dims}, {b.box_half_width}, {b.points_per_axis})"
        )


def check_boundary(f: GridFunction, strict: bool, threshold: float = BOUNDARY_THRESHOLD, what: str = "input"):
    """Strict mode errors on boundary mass; permissive mode warns.

    The threshold is relative and intentionally looser than the decay the
    contracts assume, so that order-32 Hermite content on the default box
    passes while genuinely truncated inputs do not.  The faces alone decide
    most inputs: a boundary that is zero, or small beside the peak of every
    fourth sample per axis (a lower bound on the peak), passes without a
    pass over the whole grid.  Only the rest get the exact
    ``boundary_fraction``, so a warning or ``TruncationError.fraction``
    carries its exact value.
    """
    worst = _face_max(f.values)
    if worst == 0.0:
        return
    lower = float(np.max(np.abs(f.values[(slice(None, None, 4),) * f.dims])))
    if lower > 0.0 and worst / lower <= threshold:
        return
    frac = f.boundary_fraction()
    if frac > threshold:
        msg = f"{what} carries boundary mass {frac:.3e} (threshold {threshold:.1e}); enlarge the box"
        if strict:
            raise TruncationError(msg, fraction=frac)
        warnings.warn(msg, stacklevel=3)


def _read_only(*arrays: np.ndarray):
    """The arrays, made read-only: cached constants are shared by every later call."""
    for x in arrays:
        x.flags.writeable = False
    return arrays


@lru_cache(maxsize=8)
def _dft_kernel(L: float, n: int) -> np.ndarray:
    """E[m, k] = exp(-2i x_m x_k) on the axis grid; symmetric and read-only."""
    x = np.linspace(-L, L, n)
    return _read_only(np.exp(-2j * np.outer(x, x)))[0]


@lru_cache(maxsize=8)
def _wigner_plan(n: int):
    """idx, pc and off of ``wigner``'s pair map on n points, read-only."""
    idx = np.arange(n)
    pos = 2 * idx[:, None] - idx[None, :]
    return _read_only(idx, np.clip(pos, 0, n - 1), (pos < 0) | (pos >= n))


@lru_cache(maxsize=8)
def _kernel_plan(L: float, n: int):
    """S_odd, P_even, P_odd, at_R and at_c of ``_kernel_pair_map`` on the (L, n) grid, read-only."""
    dx = 2.0 * L / (n - 1)                                   # as GridFunction.spacing
    axis = np.linspace(-L, L, n)
    u_odd = np.linspace(-L, L, 2 * n - 1)[1::2]
    S_odd = np.sinc((u_odd[:, None] - axis[None, :]) / dx)
    # n columns per parity; the last one, v = 2L + dx, only pads the shorter parity
    v = -2 * L + dx * np.arange(2 * n)
    P = (2.0 * np.pi) ** -0.5 * dx * np.exp(1j * np.outer(axis, v))
    P_even = np.ascontiguousarray(P[:, (n - 1) % 2::2])
    P_odd = np.ascontiguousarray(P[:, n % 2::2])
    # Q[R, t, c] holds [Q_even; Q_odd]: K[t, i, j] sits at R = r // 2 + n (r % 2), c = s // 2
    i = np.arange(n)
    r = i[None, :] - i[:, None] + (n - 1)
    at_R, at_c = r // 2 + n * (r % 2), (2 * (n - 1) - (i[:, None] + i[None, :])) // 2
    return _read_only(S_odd, P_even, P_odd, at_R, at_c)


@lru_cache(maxsize=8)
def _inverse_plan(n: int):
    """lo, hi and off of ``_inverse_pair_map`` on n points, read-only."""
    h = (n - 1) // 2
    i = np.arange(n)
    lo = (i[None, :] - i[:, None]) + h      # index of w - x   [i, m]
    hi = (i[None, :] + i[:, None]) - h      # index of w + x   [i, m]
    off = (lo < 0) | (lo >= n) | (hi < 0) | (hi >= n)
    return _read_only(np.clip(lo, 0, n - 1), np.clip(hi, 0, n - 1), off)


def _pair_slabs(j: int, *arrays: np.ndarray):
    """Views (t, p, q) of 2d-axis arrays with the axis pair (j, d + j) last.

    One tuple per slab, an index of the batch axes bar the last: the whole
    array as one stack of t = 1 matrix at d = 1, n stacks of t = n matrices
    at d = 2.  The arrays share their batch axes; their pair axes may
    differ in size.  Slabs are disjoint.
    """
    d = arrays[0].ndim // 2
    moved = [np.moveaxis(x[None], (1 + j, 1 + d + j), (-2, -1)) for x in arrays]
    for b in np.ndindex(moved[0].shape[:-3]):
        yield tuple(m[b] for m in moved)


_POOLED = threading.Lock()          # held by the one d = 2 call whose slabs run on the pool
_executor = None                    # the slab pool, created on first use
_held = threading.local()           # .gemm on the thread holding _POOLED: may GEMM slabs pool
_NO_SCOPE = nullcontext()           # the _pool_scope of every d = 1 call


def _cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:          # no affinity mask on this platform
        return os.cpu_count() or 1


@lru_cache(maxsize=1)
def _openblas():
    """(get, set) of the thread count of numpy's OpenBLAS, or None if not found.

    Found through ctypes in the OpenBLAS that numpy's wheel bundles, by the
    symbols its builds export.
    """
    import ctypes
    import glob

    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "*openblas*.so*"))):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas_", "64_"), ("scipy_openblas_", ""),
                               ("openblas_", "64_"), ("openblas_", "")):
            get = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


def _pool():
    """The slab pool: one thread per CPU but the caller's."""
    global _executor
    if _executor is None:
        from concurrent.futures import ThreadPoolExecutor

        _executor = ThreadPoolExecutor(max(1, _cpus() - 1), thread_name_prefix="twcalc-slab")
    return _executor


def _forget_pool():
    global _executor
    _executor = None                # a forked child has none of the parent's threads


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _pool_scope(d2: bool):
    """Hold the slab pool, and numpy's OpenBLAS at one thread, for one public d = 2 call.

    Each grid transform (see the module docstring) runs its body in this
    scope, so the hold covers its input checks, every slab, the finiteness
    check of its output and the GEMMs of nested calls.  It engages only
    for a d = 2 call on more than one CPU while no other call holds the
    pool; OpenBLAS is then set to one thread where its thread symbols are
    found, and its count restored once, on return or raise.  A nested
    call, a d = 1 call and a second concurrent caller change neither the
    pool nor the count, so a d = 1 call outside a d = 2 call runs its
    GEMMs (and gets its bits) at the caller's count, whatever ran before.
    A d = 1 call gets a shared no-op scope: a generator scope per call
    costs it several microseconds.
    """
    return _held_scope() if d2 else _NO_SCOPE


@contextmanager
def _held_scope():
    """``_pool_scope`` of a d = 2 call."""
    if _cpus() < 2 or not _POOLED.acquire(blocking=False):   # a nested call finds it held
        yield
        return
    blas = _openblas()
    threads = None
    try:
        if blas is not None:
            threads = blas[0]()
            blas[1](1)
        _held.gemm = blas is not None
        yield
    finally:
        _held.gemm = None
        if threads is not None:
            blas[1](threads)
        _POOLED.release()


def _on_slabs(work, slabs, blas: bool = True):
    """Call ``work(*slab)`` once for every slab, on up to one thread per CPU.

    Inside the ``_pool_scope`` held by the calling thread, it and
    ``min(CPUs, slabs) - 1`` threads of one shared pool take slabs until
    none is left.  One slab, one CPU, a call outside that scope (a second
    concurrent caller among them) and ``blas`` work (work that calls GEMM)
    in a scope that could not hold OpenBLAS at one thread run inline.
    Each slab does the same arithmetic on any thread, so the result does
    not depend on the worker count.  ``work`` must write only its own slab
    and call no public twcalc function.
    """
    slabs = list(slabs)
    workers = min(_cpus(), len(slabs))
    if workers < 2 or getattr(_held, "gemm", None) is None or (blas and not _held.gemm):
        for slab in slabs:
            work(*slab)
        return
    pending = slabs[::-1]                       # list.pop is atomic: each slab is taken once

    def drain():
        while True:
            try:
                slab = pending.pop()
            except IndexError:
                return
            try:
                work(*slab)
            except BaseException:
                pending.clear()                 # the others stop after their current slab
                raise

    futures = [_pool().submit(drain) for _ in range(workers - 1)]
    try:
        drain()
    finally:
        for fut in futures:
            fut.exception()                     # waits
    for fut in futures:
        fut.result()


def _each_pair(vals: np.ndarray, pair_map, size: int | None = None, table=None) -> np.ndarray:
    """Apply a one-pair map along every axis pair (j, d + j) of a 2d-axis array.

    ``pair_map`` takes a stack [t, p, q] of t matrices over the pair and
    returns the mapped stack [t, i, j], each pair axis now ``size`` points
    long (default: unchanged).  All grid transforms factor this way because
    the symplectic form is a sum over the pairs (x_j, xi_j).  The map runs
    on each slab and its result is written into the output slab; at d = 2,
    inside the caller's ``_pool_scope``, the n slabs of a pair run on one
    thread per CPU (``_on_slabs``), with the same bits as one at a time.
    A map that keeps the size transforms later pairs in place, so at d = 2
    it holds O(n^3) per worker beside the n^4 input and output.  Pair maps
    contract a whole slab per GEMM (see ``_batch_middle``), and must write
    nothing shared.

    A map that shrinks or grows the pairs (expand, synthesize) is linear
    between k x k and n x n matrices.  ``table(m)``, called once per pair
    with the pair's matrix count m, returns None to keep ``pair_map`` there,
    or the map's table T[p, q, i, j], out[i, j] = sum T[p, q, i, j] in[p, q],
    which ``_by_table`` contracts every slab with instead (see
    ``_tabulated`` for when that is cheaper).
    """
    def work(src, dst):
        dst[...] = pair_map(src)

    d = vals.ndim // 2
    for j in range(d):
        shape = list(vals.shape)
        matrices = vals.size // (shape[j] * shape[d + j])
        if size is not None:
            shape[j] = shape[d + j] = size
        out = vals if j and vals.shape == tuple(shape) else np.empty(shape, dtype=complex)
        T = None if table is None else table(matrices)
        _on_slabs(work if T is None else _by_table(T), _pair_slabs(j, vals, out))
        vals = out
    return vals


def _tabulated(matrices: int, k: int, n: int, direct: int) -> bool:
    """Whether a linear pair map between k x k and n x n matrices is cheaper as its table.

    ``direct`` is the map's multiply-adds per matrix.  Its (k^2, n^2) table
    takes about k^2 maps to build and k^2 n^2 multiply-adds per matrix to
    apply, so the table pays only on many matrices with k^2 well below n
    (the n^2 matrices of one pair at d = 2); one matrix (every d = 1 call)
    or a large index box keeps the map.
    """
    return k * k * (direct + matrices * n * n) < matrices * direct


def _by_table(T: np.ndarray):
    """Slab work mapping a stack [t, p, q] to [t, i, j] through a pair map's table T[p, q, i, j].

    A shrinking table runs a GEMM per input row p, on the strided input
    slab as it lies, and sums the k^2 n-sized products over p; a growing
    one runs a GEMM per output row i straight into the output slab.
    Either way a slab holds O(k^2 n^2) beside its views.
    """
    p, q, i, j = T.shape
    if i * j <= p * q:
        Tp = np.ascontiguousarray(T.reshape(p, q, i * j).transpose(0, 2, 1))      # [p, ij, q]

        def work(src, dst):
            dst[...] = np.matmul(Tp, src.transpose(1, 2, 0)).sum(axis=0).T.reshape(dst.shape)
    else:
        Ti = np.ascontiguousarray(T.reshape(p * q, i, j).transpose(1, 0, 2))      # [i, pq, j]

        def work(src, dst):
            np.matmul(src.reshape(len(src), p * q), Ti, out=dst.transpose(1, 0, 2))
    return work


def _batch_middle(b: np.ndarray) -> np.ndarray:
    """Copy a stack [t, p, q] into C order [p, t, q].

    With the batch in the middle a contraction over either pair axis is one
    GEMM over the whole stack, ``M @ b.reshape(p, t * q)`` or
    ``b.reshape(p * t, q) @ M``, not t small ones: at n = 49 that runs at
    about 3x the rate of numpy's per-matrix batched ``matmul``.
    """
    return np.ascontiguousarray(b.transpose(1, 0, 2))


def wigner(f: GridFunction, g: GridFunction, strict: bool = True) -> GridFunction:
    """Cross-Wigner distribution of f and g, on the tensor-squared grid.

    The pair map acts on F(u, v) = f(u) conj(g(v)).  Per x-slice the
    y-integral is taken over the lattice y = 2(x_m - x_i), where both
    arguments x - y/2 and x + y/2 of F land exactly on sample points, and
    the oscillatory sum is one dense DFT-style matrix product.
    """
    with _pool_scope(f.dims == 2):
        require_same_grid(f, g)
        if f.dims not in (1, 2):
            raise ValueError("wigner supports d in {1, 2}")
        check_boundary(f, strict, what="wigner input f")
        check_boundary(g, strict, what="wigner input g")
        n = f.points_per_axis
        E = _dft_kernel(f.box_half_width, n)
        const = (2.0 * np.pi) ** -0.5 * (2.0 * f.spacing)
        idx, pc, off = _wigner_plan(n)

        def pair_map(F):                                     # [t, u, v] -> [t, x, xi]
            corr = F[:, idx, pc]                             # F(x_m, x_{2i-m}) at [t, i, m]
            corr[:, off] = 0.0
            W = (corr.reshape(-1, n) @ E).reshape(corr.shape)
            W *= const
            W *= np.conj(E)
            return W

        F = np.multiply.outer(f.values, np.conj(g.values))
        return GridFunction(2 * f.dims, f.box_half_width, n, _each_pair(F, pair_map))


def hermite_wong_eval(pair, box_half_width: float, points_per_axis: int) -> GridFunction:
    """The Hermite-Wong basis function (-1)^{|a1|} W_{h_a1, h_a2} on the grid.

    ``pair`` is ((a1...), (a2...)) of equal dimension d in {1, 2}.  The
    value is the outer product over the axis pairs (x_j, xi_j) of the 1-D
    functions (-1)^{a1_j} W_{h_a1_j, h_a2_j}, a route independent of the
    d-dimensional ``wigner``.
    """
    a1, a2 = normalize_pair(pair)
    if len(a1) > 2 or max(max(a1), max(a2)) > MAX_WONG_INDEX:
        raise ValueError(f"d in {{1, 2}} and indices up to {MAX_WONG_INDEX} are supported, got {pair!r}")
    with _pool_scope(len(a1) == 2):                         # the 1-D wigners' GEMMs too
        axis = np.linspace(-box_half_width, box_half_width, points_per_axis)
        hs = hermite_batch(max(max(a1), max(a2)), axis)
        parts = []
        for k1, k2 in zip(a1, a2):
            f = GridFunction(1, box_half_width, points_per_axis, hs[k1] + 0j)
            g = GridFunction(1, box_half_width, points_per_axis, hs[k2] + 0j)
            parts.append(wigner(f, g, strict=False).values * (-1) ** k1)
        # at d = 2 the axes (x_1, xi_1) and (x_2, xi_2) interleave to (x_1, x_2, xi_1, xi_2)
        vals = parts[0] if len(parts) == 1 else parts[0][:, None, :, None] * parts[1][None, :, None, :]
        return GridFunction(2 * len(a1), box_half_width, points_per_axis, vals)


def normalize_pair(pair):
    """(alpha1, alpha2) as tuples of Python ints, a scalar component as a 1-tuple."""
    a1, a2 = (tuple(np.atleast_1d(a).tolist()) for a in pair)
    if len(a1) != len(a2):
        raise ValueError("pair components must have equal dimension")
    if any(v != int(v) or v < 0 for v in a1 + a2):
        raise ValueError(f"indices must be non-negative integers, got {pair!r}")
    return tuple(map(int, a1)), tuple(map(int, a2))


def symplectic_fourier(a: GridFunction, strict: bool = True) -> GridFunction:
    """Symplectic Fourier transform, an involution with eigenvalues +-1.

    (F_s a)(X) = pi^{-d} Int a(Y) e^{2i sigma(X,Y)} dY, realized as dense
    oscillatory quadrature; the grid frequencies 2 x_m x_k are not FFT
    aligned on the inclusive-endpoint box, so the kernel is applied as two
    matrix products per axis pair.
    """
    with _pool_scope(a.dims == 4):
        if a.dims not in (2, 4):
            raise ValueError("symplectic_fourier expects a phase-space function (dims 2 or 4)")
        check_boundary(a, strict, what="symplectic_fourier input")
        dx = a.spacing
        E = _dft_kernel(a.box_half_width, a.points_per_axis)
        Ec = np.conj(E)

        def pair_map(b):                                     # [t, y, eta] -> [t, x, xi]
            t, p, q = b.shape
            Z = _batch_middle(b).reshape(-1, q) @ E          # eta -> x at [y, t, x]
            out = (Ec @ Z.reshape(p, -1)).reshape(p, t, q)   # y -> xi at [xi, t, x]
            out *= dx * dx / np.pi
            return out.transpose(1, 2, 0)

        return GridFunction(a.dims, a.box_half_width, a.points_per_axis, _each_pair(a.values, pair_map))


def _kernel_pair_map(a: GridFunction, strict: bool, stacks):
    """The pair map [t, x, xi] -> [t, x, y] of ``kernel_map_A_grid``, after its checks.

    ``stacks`` holds the stack sizes t of the slabs it may be given.

    K(x, y) = (2pi)^{-1/2} dx sum_k a((y-x)/2, xi_k) e^{-i (x+y) xi_k}.
    The first argument of a is interpolated onto the half-step grid
    u_r = -L + r dx/2 by the sinc matrix S, and T = S b is contracted with
    P[k, s] = e^{i xi_k v_s} on the doubled box v_s = -2L + s dx, so that
    K[i, j] is Q = T P at r = j - i + n - 1, s = 2(n-1) - i - j.  Even r are
    grid nodes, where S is the identity, and s has the parity of r + n - 1,
    so the map splits by the parity of r: Q_even = b P_even and
    Q_odd = S_odd b P_odd, about 3n^3 multiply-adds per matrix, not the
    6n^3 of the full (2n-1)^2 Q, most of which falls outside the diamond
    of (r, s) that K reads.
    """
    if a.dims not in (2, 4):
        raise ValueError("kernel_map_A_grid expects a phase-space function (dims 2 or 4)")
    check_boundary(a, strict, what="kernel map input")
    n = a.points_per_axis
    S_odd, P_even, P_odd, at_R, at_c = _kernel_plan(a.box_half_width, n)
    # t -> flat indices [t, i, j] into Q, for every stack size t of a slab,
    # built here: the pair map runs on the slab pool and writes nothing shared
    flat_at = {t: at_R * (t * n) + at_c + n * np.arange(t)[:, None, None] for t in stacks}

    def pair_map(b):                                         # [t, x, xi] -> [t, x, y]
        t = b.shape[0]
        b = _batch_middle(b)
        Q = np.empty((2 * n, t, n), dtype=complex)
        np.matmul(b.reshape(-1, n), P_even, out=Q[:n].reshape(-1, n))
        T_odd = (S_odd @ b.reshape(n, -1)).reshape(-1, n)
        # freed before the gather, whose n^3 result can then take their memory:
        # else a fresh heap maps and faults a new block per slab
        del b
        np.matmul(T_odd, P_odd, out=Q[n:2 * n - 1].reshape(-1, n))
        del T_odd
        return Q.reshape(-1)[flat_at[t]]

    return pair_map


def _kernel_pair_table(L: float, n: int, H: np.ndarray) -> np.ndarray:
    """The table T[x, xi, a1, a2] of b -> H K H^T, K the kernel pair map of b on the (L, n) grid.

    The map's transpose, in O(k^2 n^3) for H of shape (k, n):
    sum_ij H[a1, i] H[a2, j] K[i, j] is sum_Rc G[R, c] Q[R, c], with G the
    products H[a1, i] H[a2, j] scattered to the places (at_R, at_c) of Q
    that K reads (one (i, j) per place), so with Q = [b P_even; S_odd b P_odd]
    T = G_even P_even^T + S_odd^T G_odd P_odd^T.
    """
    S_odd, P_even, P_odd, at_R, at_c = _kernel_plan(L, n)
    k = len(H)
    G = np.zeros((k, k, 2 * n, n))
    G[:, :, at_R, at_c] = H[:, None, :, None] * H[None, :, None, :]
    T = G[:, :, :n] @ P_even.T + S_odd.T @ G[:, :, n:2 * n - 1] @ P_odd.T     # [a1, a2, x, xi]
    return T.transpose(2, 3, 0, 1)


def kernel_map_A_grid(a: GridFunction, strict: bool = True) -> GridFunction:
    """Kernel K(x,y) of the operator attached to the phase-space function a.

    Per axis pair: the partial inverse Fourier transform in the frequency
    variable followed by the affine pullback (x,y) -> ((y-x)/2, -(x+y)).
    The intermediate is tabulated on the half-step first axis and on the
    doubled box in the second, so the pullback is an exact node lookup on
    the output grid.  Split by the parity of the half-step row, a pair
    costs about 3n^3 complex multiply-adds per matrix, 6n^5 for all of d = 2
    (see ``_kernel_pair_map``); even and odd n are both served.
    """
    with _pool_scope(a.dims == 4):
        stacks = (a.points_per_axis ** (a.dims // 2 - 1),)   # 1 at d = 1, n at d = 2
        return GridFunction(a.dims, a.box_half_width, a.points_per_axis,
                            _each_pair(a.values, _kernel_pair_map(a, strict, stacks)))


def _inverse_pair_map(box_half_width: float, n: int):
    """The pair map [t, x, y] -> [t, x, xi] of ``inverse_kernel_map_grid``; n odd."""
    if n % 2 == 0:
        raise ValueError("inverse kernel map needs an odd points_per_axis")
    lo, hi, off = _inverse_plan(n)
    Ec = np.conj(_dft_kernel(box_half_width, n))
    dx = np.linspace(-box_half_width, box_half_width, n, retstep=True)[1]   # NaN at n = 1, not an error
    const = (2.0 * np.pi) ** -0.5 * (2.0 * dx)

    def pair_map(k):                                         # [t, x, y] -> [t, x, xi]
        k = k[:, lo, hi]                                     # K(w - x, w + x) at [t, i, m]
        k[:, off] = 0.0
        out = (k.reshape(-1, n) @ Ec).reshape(k.shape)
        out *= const
        return out

    return pair_map


def inverse_kernel_map_grid(K: GridFunction) -> GridFunction:
    """Inverse of the kernel map: phase-space function of a kernel K(x,y).

    a(x,xi) = (2pi)^{-d/2} 2^d Int K(w-x, w+x) e^{2i<w,xi>} dw.  The lattice
    w = x_m makes both kernel arguments exact sample points when the point
    count is odd; even grids are refused rather than silently interpolated.
    """
    with _pool_scope(K.dims == 4):
        if K.dims not in (2, 4):
            raise ValueError("inverse_kernel_map_grid expects dims 2 or 4")
        pair_map = _inverse_pair_map(K.box_half_width, K.points_per_axis)
        return GridFunction(K.dims, K.box_half_width, K.points_per_axis, _each_pair(K.values, pair_map))
