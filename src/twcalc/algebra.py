"""Coefficient-space algebra of the twisted product.

A phase-space element a = sum c_{a1,a2} rho_{a1,a2} is stored as the matrix
C[a1, a2] over the per-coordinate index cutoff.  The same matrix, read in
the Hermite basis, is the kernel of the operator attached to a; under that
identification the twisted convolution is plain matrix multiplication and
never raises indices, so products at a fixed cutoff are exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import TruncationError
from .formats import matrix_from_json, matrix_json, read_matrix, write_matrix
from .hermite import hermite_batch, index_totals
from .phase_space import (
    GridFunction,
    _dft_kernel,
    _each_pair,
    _inverse_pair_map,
    _kernel_pair_map,
    check_boundary,
    normalize_pair,
    require_same_grid,
)

TAIL_THRESHOLD = 1e-8
# complex elements per FFT block of twisted_apply (1 MB); the rows per block
# depend on n and nfft only, so the rounding is the same on every machine
_FFT_BLOCK = 1 << 16


@dataclass
class WongCoeffMatrix:
    """Coefficients of a in the Hermite-Wong basis, indexed (alpha1, alpha2).

    ``entries`` is square of side (n_max + 1)^d, rows alpha1 (output index
    of the attached operator), columns alpha2 (input index), multi-indices
    flattened in C order.  The Frobenius norm is the L2 norm of a, and the
    matrix is Hermitian exactly when the attached operator is self-adjoint.
    """

    d: int
    n_max: int
    entries: np.ndarray

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=complex)
        side = (self.n_max + 1) ** self.d
        if self.entries.shape != (side, side):
            raise ValueError(f"entries shape {self.entries.shape} != {(side, side)}")
        if not np.all(np.isfinite(self.entries)):
            raise ValueError("entries must be finite")

    def norm(self) -> float:
        return float(np.linalg.norm(self.entries))

    def copy(self) -> "WongCoeffMatrix":
        return WongCoeffMatrix(self.d, self.n_max, self.entries.copy())


def unit_entry(d: int, n_max: int, pair) -> WongCoeffMatrix:
    """Matrix with a single unit coefficient at (alpha1, alpha2); any other index raises ValueError."""
    a1, a2 = normalize_pair(pair)
    shape = (n_max + 1,) * d
    entries = np.zeros(((n_max + 1) ** d,) * 2, dtype=complex)
    entries[np.ravel_multi_index(a1, shape), np.ravel_multi_index(a2, shape)] = 1.0
    return WongCoeffMatrix(d, n_max, entries)


def expand(a: GridFunction, n_max: int, strict: bool = True,
           tail_threshold: float = TAIL_THRESHOLD) -> WongCoeffMatrix:
    """Hermite-Wong coefficients <a, rho_{a1,a2}> by phase-space quadrature.

    Since the kernel map is unitary, the pairing is taken against the
    Hermite tensor basis on the kernel side, which avoids materializing the
    full rho stack.  Pair by pair: the kernel map's pair map, then
    H K H^T with H[a, x] = h_a(x) dx, which shrinks the pair to the index
    box.  At d = 2 the first pair costs about 3n^5 complex multiply-adds on
    n^2 matrices and the second runs on only (n_max + 1)^2 of them; the n^4
    kernel is never built.  Errors out when more than ``tail_threshold`` of
    the squared mass lies outside the index box.
    """
    d = a.dims // 2
    kernel = _kernel_pair_map(a, strict)
    H = hermite_batch(n_max, a.axis()) * a.spacing     # one quadrature weight per contracted axis
    k = n_max + 1

    def pair_map(b):                                   # [t, x, xi] -> [t, a1, a2]
        K = kernel(b)
        t, n, _ = K.shape
        KH = (K.reshape(-1, n) @ H.T).reshape(t, n, k)               # [t, x, a2]
        return (KH.transpose(0, 2, 1).reshape(-1, n) @ H.T).reshape(t, k, k).transpose(0, 2, 1)

    side = k ** d
    out = WongCoeffMatrix(d, n_max, _each_pair(a.values, pair_map, k).reshape(side, side))
    total = a.norm() ** 2
    if total > 0:
        tail = max(0.0, total - out.norm() ** 2) / total
        if tail > tail_threshold:
            raise TruncationError(
                f"index box n_max={n_max} captures too little of the input: "
                f"tail fraction {tail:.3e}", fraction=tail)
    return out


def synthesize(C: WongCoeffMatrix, box_half_width: float, points_per_axis: int) -> GridFunction:
    """Pointwise sum of c_{a1,a2} rho_{a1,a2} on the phase-space grid.

    Pair by pair: the kernel H^T c H on an odd grid, with H[a, x] = h_a(x),
    then the inverse kernel map's pair map, which is exact there.  An even
    point count n is served without interpolation: the pair runs on the
    odd refinement 2n - 1 and keeps every second node, right after its map,
    so d = 2 never holds the (2n - 1)^4 grid.  At d = 2 the first pair runs
    on (n_max + 1)^2 matrices and the second on n^2, about n^5 complex
    multiply-adds in all.
    """
    n = points_per_axis
    work_n, step = (n, 1) if n % 2 == 1 else (2 * n - 1, 2)
    H = hermite_batch(C.n_max, np.linspace(-box_half_width, box_half_width, work_n))
    inverse = _inverse_pair_map(box_half_width, work_n)
    k = C.n_max + 1

    def pair_map(c):                                   # [t, a1, a2] -> [t, x, xi]
        t = c.shape[0]
        cH = (c.reshape(-1, k) @ H).reshape(t, k, work_n)            # [t, a1, y]
        K = (cH.transpose(0, 2, 1).reshape(-1, k) @ H).reshape(t, work_n, work_n)
        return inverse(K.transpose(0, 2, 1))[:, ::step, ::step]

    C_axes = C.entries.reshape((k,) * (2 * C.d))       # (alpha1, alpha2) axes
    return GridFunction(2 * C.d, box_half_width, n, _each_pair(C_axes, pair_map, n))


def kernel_map_A_coeff(C: WongCoeffMatrix) -> WongCoeffMatrix:
    """Relabel rho_{a1,a2} -> h_{a1} (x) h_{a2}: the identity on entries.

    The result is to be read as Hermite coefficients of the kernel of the
    attached operator; the norm is preserved exactly.
    """
    return C.copy()


def twisted_convolution_coeff(Ca: WongCoeffMatrix, Cb: WongCoeffMatrix) -> WongCoeffMatrix:
    """Twisted convolution as operator composition: the matrix product.

    rho_{a1,a2} *s rho_{b1,b2} = delta_{a2,b1} rho_{a1,b2}; no truncation
    error arises at a fixed cutoff because indices are never raised.
    """
    if (Ca.d, Ca.n_max) != (Cb.d, Cb.n_max):
        raise ValueError("operands must share d and n_max")
    return WongCoeffMatrix(Ca.d, Ca.n_max, Ca.entries @ Cb.entries)


def twisted_apply(a: GridFunction, B: np.ndarray, strict: bool = True) -> np.ndarray:
    """psi -> a *s psi on every (n, n) slice of B, by quadrature of the integral.

    out[i,k] = c sum_{m,n} a[i-m+h, k-n+h] e^{2i x_m x_k} e^{-2i x_i x_n} B[m,n]
    with h = (n-1)/2 and c = (2/pi)^{1/2} dx^2; d = 1 and odd n only, so that
    the shifted samples a(X - Y) fall on grid nodes.  Matrix-free: with
    p = i-m+h and q = k-n+h (so x_p = x_i - x_m, x_q = x_k - x_n) the phase
    splits as e^{-2i x_i x_k} e^{-2i x_p x_q + 4i x_i x_q} e^{2i x_m x_n}, an
    output factor, a factor on a's samples that depends on the output row i,
    and a factor on B's samples.  Each output row is then a sum over p of
    linear convolutions along the second axis, done as one contraction over
    p per frequency: O(n^3 log n) time for the factor, O(n^3) per slice.
    Blocks of output rows share one buffer of about 1 MB of FFT rows, which
    is gathered into, phased and transformed in place, plus O(n nfft) per
    slice; the rows m whose shifted samples of a fall off the grid for the
    whole block are skipped, as their terms are exact zeros.
    A second factor that is not numeric or holds a non-finite value, and a
    non-finite result, raise ValueError.
    """
    if a.dims != 2:
        raise ValueError("grid twisted convolution is implemented for d = 1 only")
    n = a.points_per_axis
    if n % 2 == 0:
        raise ValueError("grid twisted convolution needs an odd points_per_axis")
    B = np.asarray(B)
    if B.shape[-2:] != (n, n):
        raise ValueError(f"slices of shape {B.shape[-2:]} do not match the ({n}, {n}) grid")
    if B.dtype.kind not in "iufc":
        raise ValueError(f"second factor of dtype {B.dtype} is not numeric")
    if not np.isfinite(B).all():
        raise ValueError("second factor must be finite")
    check_boundary(a, strict, what="twisted convolution factor")
    h = (n - 1) // 2
    # only outputs h..3h of each length-(2n-1) linear convolution are kept, so
    # circular wrap-around is harmless from nfft > 3h on
    nfft = _next_fast_len(3 * h + 1)
    E = _dft_kernel(a.box_half_width, n)
    Bs = B.reshape(-1, n, n)
    # a[p, q] e^{-2i x_p x_q} at row p + h between h zero rows on each side,
    # so row i + 2h - m holds p = i + h - m, or zeros where p is off the grid
    ap = np.zeros((2 * n - 1, n), dtype=complex)
    ap[h:h + n] = a.values * E
    out = np.empty(Bs.shape, dtype=complex)
    blk = max(1, _FFT_BLOCK // (n * nfft))
    # an overflow shows as a non-finite result, which raises below
    with np.errstate(over="ignore", invalid="ignore"):
        Bh = np.fft.fft(Bs * np.conj(E), nfft, axis=-1).transpose(2, 1, 0)  # [f, m, s]
        # one FFT buffer [i, m, f] for every block, filled and transformed in place,
        # so the heap is not grown and trimmed block by block; columns n: are padding
        buf = np.zeros((min(blk, n), min(n, blk + 2 * h), nfft), dtype=complex)
        for i0 in range(0, n, blk):
            i1 = min(n, i0 + blk)
            m0, m1 = max(0, i0 - h), min(n, i0 + blk + h)      # rows m with p on the grid
            Th = buf[:i1 - i0, :m1 - m0]                                    # [i, m, f]
            Th[..., n:] = 0.0
            T = Th[..., :n]                                                 # [i, m, q]
            for j, r in enumerate(range(i0 + 2 * h - m1 + 1, i1 + 2 * h - m1 + 1)):
                T[j] = ap[r:r + m1 - m0][::-1]                 # row i + 2h - m at m = m0, m0 + 1, ...
            T *= np.conj(E[i0:i1, None]) ** 2
            np.fft.fft(Th, axis=-1, out=Th)
            conv = np.fft.ifft(Th.transpose(2, 0, 1) @ Bh[:, m0:m1], axis=0)[h:h + n]   # [k, i, s]
            out[:, i0:i1] = conv.transpose(2, 1, 0) * E[i0:i1]
        out *= (2.0 / np.pi) ** 0.5 * a.spacing ** 2
    if not np.isfinite(out).all():
        raise ValueError("twisted convolution overflowed: the result is not finite")
    return out.reshape(B.shape)


def _next_fast_len(target: int) -> int:
    """Smallest 11-smooth length >= target, as scipy.fft.next_fast_len picks for complex FFTs."""
    n = target
    while True:
        m = n
        for p in (2, 3, 5, 7, 11):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


def twisted_left_matrix(a: GridFunction, strict: bool = True) -> np.ndarray:
    """Dense operator psi -> a *s psi on the grid, shape (n^2, n^2).

    Small-n cross-check only: O(n^4) time and storage, with a few n^4
    buffers alive while the n^2 columns are computed.  Column j is
    ``twisted_apply`` of the j-th unit grid function.
    """
    n = a.points_per_axis
    cols = twisted_apply(a, np.eye(n * n).reshape(n * n, n, n), strict=strict)
    return cols.reshape(n * n, n * n).T


def twisted_convolution_grid(a: GridFunction, b: GridFunction, strict: bool = True) -> GridFunction:
    """Direct quadrature of the defining twisted-convolution integral.

    (a *s b)(X) = (2/pi)^{d/2} Int a(X - Y) b(Y) e^{2i sigma(X,Y)} dY,
    evaluated at every output node by ``twisted_apply``: odd grids, d = 1,
    any size.  This is the independent oracle for the coefficient product.
    """
    require_same_grid(a, b)
    check_boundary(b, strict, what="twisted convolution factor")
    out = twisted_apply(a, b.values, strict=strict)
    return GridFunction(a.dims, a.box_half_width, a.points_per_axis, out)


def fsigma_coeff(C: WongCoeffMatrix) -> WongCoeffMatrix:
    """Symplectic Fourier transform in coefficient space: the diagonal sign map.

    rho_{a1,a2} is an eigenfunction with eigenvalue (-1)^{|a1|}, so rows
    flip sign by parity of alpha1; exact, never the FFT.
    """
    signs = (-1.0) ** index_totals(C.d, C.n_max)
    return WongCoeffMatrix(C.d, C.n_max, signs[:, None] * C.entries)


def weyl_quantize(C: WongCoeffMatrix) -> np.ndarray:
    """Matrix of the Weyl operator of the symbol a in the Hermite basis.

    Op(a) = (2pi)^{-d/2} A(F_s a); the result M satisfies
    Op(a) h_beta = sum_gamma M[gamma, beta] h_gamma.
    """
    return (2.0 * np.pi) ** (-C.d / 2.0) * fsigma_coeff(C).entries


def weyl_product(Ca: WongCoeffMatrix, Cb: WongCoeffMatrix) -> WongCoeffMatrix:
    """The symbol product # with Op(a # b) = Op(a) Op(b).

    a # b = (2pi)^{-d/2} a *s (F_s b), all three steps exact in coefficient
    space.  The prefactor is pinned by the quantization homomorphism.
    """
    if (Ca.d, Ca.n_max) != (Cb.d, Cb.n_max):
        raise ValueError("operands must share d and n_max")
    scaled = (2.0 * np.pi) ** (-Ca.d / 2.0)
    return WongCoeffMatrix(Ca.d, Ca.n_max, scaled * Ca.entries @ fsigma_coeff(Cb).entries)


def wong_to_json(C: WongCoeffMatrix, meta: dict | None = None) -> str:
    """JSON form {"d", "n_max", "entries": [[a1..., a2..., re, im], ...]}, zeros omitted.

    The text write_wong streams, joined into one str.
    """
    return "".join(matrix_json(C.d, C.n_max, C.entries, meta))


def wong_from_json(text: str) -> WongCoeffMatrix:
    """Parse the wong_to_json form; malformed input raises ValueError."""
    return WongCoeffMatrix(*matrix_from_json(text))


def read_wong(path) -> WongCoeffMatrix:
    """The matrix in the wong_to_json file at path, read in windows; malformed input raises ValueError."""
    return WongCoeffMatrix(*read_matrix(path))


def write_wong(path, C: WongCoeffMatrix, meta: dict | None = None, others=()):
    """Write wong_to_json(C, meta) and a newline to path piece by piece, and others' (path, pieces).

    C is checked before any file is opened, and a failed write leaves every
    path as it was (formats.write_files).
    """
    write_matrix(path, C.d, C.n_max, C.entries, meta, others)
