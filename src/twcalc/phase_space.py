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
"""

from __future__ import annotations

import json
import struct
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import GridMismatchError, TruncationError
from .hermite import hermite_batch

DEFAULT_BOX = 8.0
DEFAULT_POINTS = 256
BOUNDARY_THRESHOLD = 1e-8
MAX_WONG_INDEX = 32

MAGIC = b"TWCG"


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
        self.values = np.asarray(self.values, dtype=complex)
        expected = (self.points_per_axis,) * self.dims
        if self.values.shape != expected:
            raise ValueError(f"values shape {self.values.shape} != {expected}")
        if not np.all(np.isfinite(self.values)):
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
        worst = 0.0
        for ax in range(self.dims):
            for side in (0, -1):
                sl = [slice(None)] * self.dims
                sl[ax] = side
                worst = max(worst, float(np.max(np.abs(self.values[tuple(sl)]))))
        return worst / peak

    def copy(self) -> "GridFunction":
        return GridFunction(self.dims, self.box_half_width, self.points_per_axis, self.values.copy())


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
    passes while genuinely truncated inputs do not.
    """
    frac = f.boundary_fraction()
    if frac > threshold:
        msg = f"{what} carries boundary mass {frac:.3e} (threshold {threshold:.1e}); enlarge the box"
        if strict:
            raise TruncationError(msg, fraction=frac)
        warnings.warn(msg, stacklevel=3)


@lru_cache(maxsize=8)
def _dft_kernel(L: float, n: int) -> np.ndarray:
    """E[m, k] = exp(-2i x_m x_k) on the axis grid; symmetric."""
    x = np.linspace(-L, L, n)
    return np.exp(-2j * np.outer(x, x))


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


def _each_pair(vals: np.ndarray, pair_map, size: int | None = None) -> np.ndarray:
    """Apply a one-pair map along every axis pair (j, d + j) of a 2d-axis array.

    ``pair_map`` takes a stack [t, p, q] of t matrices over the pair and
    returns the mapped stack [t, i, j], each pair axis now ``size`` points
    long (default: unchanged).  All grid transforms factor this way because
    the symplectic form is a sum over the pairs (x_j, xi_j).  The map runs
    slab by slab and its result is written into the output slab.  A map
    that keeps the size transforms later pairs in place, so at d = 2 it
    holds O(n^3) beside the n^4 input and output; one that shrinks the
    pairs (expand) never holds an n^4 array, and one that grows them
    (synthesize) runs its first pair on the few matrices of its small input.
    Pair maps contract a whole slab per GEMM (see ``_batch_middle``).
    """
    d = vals.ndim // 2
    for j in range(d):
        shape = list(vals.shape)
        if size is not None:
            shape[j] = shape[d + j] = size
        out = vals if j and vals.shape == tuple(shape) else np.empty(shape, dtype=complex)
        for src, dst in _pair_slabs(j, vals, out):
            dst[...] = pair_map(src)
        vals = out
    return vals


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
    require_same_grid(f, g)
    if f.dims not in (1, 2):
        raise ValueError("wigner supports d in {1, 2}")
    check_boundary(f, strict, what="wigner input f")
    check_boundary(g, strict, what="wigner input g")
    n = f.points_per_axis
    E = _dft_kernel(f.box_half_width, n)
    const = (2.0 * np.pi) ** -0.5 * (2.0 * f.spacing)
    idx = np.arange(n)
    pos = 2 * idx[:, None] - idx[None, :]
    ok = (pos >= 0) & (pos < n)
    pc = np.clip(pos, 0, n - 1)

    def pair_map(F):                                         # [t, u, v] -> [t, x, xi]
        corr = F[:, idx, pc]                                 # F(x_m, x_{2i-m}) at [t, i, m]
        corr[:, ~ok] = 0.0
        W = (corr.reshape(-1, n) @ E).reshape(corr.shape)
        W *= const
        W *= np.conj(E)
        return W

    F = np.multiply.outer(f.values, np.conj(g.values))
    return GridFunction(2 * f.dims, f.box_half_width, n, _each_pair(F, pair_map))


def hermite_wong_eval(pair, box_half_width: float = DEFAULT_BOX,
                      points_per_axis: int = DEFAULT_POINTS) -> GridFunction:
    """The Hermite-Wong basis function (-1)^{|a1|} W_{h_a1, h_a2} on the grid.

    ``pair`` is ((a1...), (a2...)) of equal dimension d in {1, 2}.  The
    value is the outer product over the axis pairs (x_j, xi_j) of the 1-D
    functions (-1)^{a1_j} W_{h_a1_j, h_a2_j}, a route independent of the
    d-dimensional ``wigner``.
    """
    a1, a2 = normalize_pair(pair)
    if max(max(a1), max(a2)) > MAX_WONG_INDEX:
        raise ValueError(f"indices above {MAX_WONG_INDEX} are not supported")
    axis = np.linspace(-box_half_width, box_half_width, points_per_axis)
    hs = hermite_batch(max(max(a1), max(a2)), axis)
    parts = []
    for k1, k2 in zip(a1, a2):
        f = GridFunction(1, box_half_width, points_per_axis, hs[k1] + 0j)
        g = GridFunction(1, box_half_width, points_per_axis, hs[k2] + 0j)
        parts.append(wigner(f, g, strict=False).values * (-1) ** k1)
    vals = parts[0]
    for j, w in enumerate(parts[1:], 1):
        # axes (x_1..x_j, xi_1..xi_j) gain x_{j+1} after x_j and xi_{j+1} last
        n = w.shape[0]
        vals = np.expand_dims(vals, j)[..., None] * w.reshape((1,) * j + (n,) + (1,) * j + (n,))
    return GridFunction(2 * len(a1), box_half_width, points_per_axis, vals)


def normalize_pair(pair):
    a1, a2 = pair
    a1 = (a1,) if np.isscalar(a1) else tuple(int(v) for v in a1)
    a2 = (a2,) if np.isscalar(a2) else tuple(int(v) for v in a2)
    if len(a1) != len(a2):
        raise ValueError("pair components must have equal dimension")
    if min(min(a1), min(a2)) < 0:
        raise ValueError("indices must be non-negative")
    return a1, a2


def symplectic_fourier(a: GridFunction, strict: bool = True) -> GridFunction:
    """Symplectic Fourier transform, an involution with eigenvalues +-1.

    (F_s a)(X) = pi^{-d} Int a(Y) e^{2i sigma(X,Y)} dY, realized as dense
    oscillatory quadrature; the grid frequencies 2 x_m x_k are not FFT
    aligned on the inclusive-endpoint box, so the kernel is applied as two
    matrix products per axis pair.
    """
    if a.dims not in (2, 4):
        raise ValueError("symplectic_fourier expects a phase-space function (dims 2 or 4)")
    check_boundary(a, strict, what="symplectic_fourier input")
    dx = a.spacing
    E = _dft_kernel(a.box_half_width, a.points_per_axis)
    Ec = np.conj(E)

    def pair_map(b):                                         # [t, y, eta] -> [t, x, xi]
        t, p, q = b.shape
        Z = _batch_middle(b).reshape(-1, q) @ E              # eta -> x at [y, t, x]
        out = (Ec @ Z.reshape(p, -1)).reshape(p, t, q)       # y -> xi at [xi, t, x]
        out *= dx * dx / np.pi
        return out.transpose(1, 2, 0)

    return GridFunction(a.dims, a.box_half_width, a.points_per_axis, _each_pair(a.values, pair_map))


def _kernel_pair_map(a: GridFunction, strict: bool):
    """The pair map [t, x, xi] -> [t, x, y] of ``kernel_map_A_grid``, after its checks.

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
    L = a.box_half_width
    dx = a.spacing
    axis = a.axis()
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
    flat_at = {}                                             # t -> flat indices [t, i, j] into Q

    def pair_map(b):                                         # [t, x, xi] -> [t, x, y]
        t = b.shape[0]
        if t not in flat_at:
            flat_at[t] = at_R * (t * n) + at_c + n * np.arange(t)[:, None, None]
        b = _batch_middle(b)
        Q = np.empty((2 * n, t, n), dtype=complex)
        np.matmul(b.reshape(-1, n), P_even, out=Q[:n].reshape(-1, n))
        T_odd = (S_odd @ b.reshape(n, -1)).reshape(-1, n)
        np.matmul(T_odd, P_odd, out=Q[n:2 * n - 1].reshape(-1, n))
        return Q.reshape(-1)[flat_at[t]]

    return pair_map


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
    return GridFunction(a.dims, a.box_half_width, a.points_per_axis,
                        _each_pair(a.values, _kernel_pair_map(a, strict)))


def _inverse_pair_map(box_half_width: float, n: int):
    """The pair map [t, x, y] -> [t, x, xi] of ``inverse_kernel_map_grid``; n odd."""
    if n % 2 == 0:
        raise ValueError("inverse kernel map needs an odd points_per_axis")
    Ec = np.conj(_dft_kernel(box_half_width, n))
    dx = np.linspace(-box_half_width, box_half_width, n, retstep=True)[1]   # NaN at n = 1, not an error
    const = (2.0 * np.pi) ** -0.5 * (2.0 * dx)
    h = (n - 1) // 2
    i = np.arange(n)
    lo = (i[None, :] - i[:, None]) + h      # index of w - x   [i, m]
    hi = (i[None, :] + i[:, None]) - h      # index of w + x   [i, m]
    ok = (lo >= 0) & (lo < n) & (hi >= 0) & (hi < n)
    lo, hi = np.clip(lo, 0, n - 1), np.clip(hi, 0, n - 1)

    def pair_map(k):                                         # [t, x, y] -> [t, x, xi]
        k = k[:, lo, hi]                                     # K(w - x, w + x) at [t, i, m]
        k[:, ~ok] = 0.0
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
    if K.dims not in (2, 4):
        raise ValueError("inverse_kernel_map_grid expects dims 2 or 4")
    pair_map = _inverse_pair_map(K.box_half_width, K.points_per_axis)
    return GridFunction(K.dims, K.box_half_width, K.points_per_axis, _each_pair(K.values, pair_map))


def write_grid(path, f: GridFunction):
    """Binary layout: magic, dims u32, L f64, points u32, then complex64 row-major.

    A JSON sidecar at ``path + '.json'`` repeats the header for tooling.
    """
    header = MAGIC + struct.pack("<IdI", f.dims, f.box_half_width, f.points_per_axis)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(f.values.astype(np.complex64)).tobytes())
    with open(str(path) + ".json", "w") as fh:
        json.dump({"dims": f.dims, "L": f.box_half_width, "points_per_axis": f.points_per_axis}, fh)


def read_grid(path) -> GridFunction:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != MAGIC:
            raise ValueError(f"not a grid file: bad magic {magic!r}")
        dims, L, n = struct.unpack("<IdI", fh.read(16))
        raw = np.frombuffer(fh.read(), dtype=np.complex64)
    values = raw.reshape((n,) * dims).astype(complex)
    return GridFunction(dims, L, n, values)
