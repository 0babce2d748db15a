"""Hermite functions, Gauss-Hermite quadrature and coefficient vectors.

The basis used everywhere in this package is the L2-normalized Hermite
function

    h_k(x) = pi^{-1/4} (2^k k!)^{-1/2} H_k(x) e^{-x^2/2},

with H_k the physicists' Hermite polynomial; in d variables h_alpha is the
tensor product over the components of the multi-index alpha.  The harmonic
oscillator H = |x|^2 - Laplace is diagonal in this basis with eigenvalue
2|alpha| + d.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import ResolutionError

MAX_QUADRATURE_POINTS = 512


def multi_indices(d: int, n_max: int) -> list[tuple[int, ...]]:
    """All multi-indices alpha with 0 <= alpha_j <= n_max, in C order."""
    return list(product(range(n_max + 1), repeat=d))


def index_totals(d: int, n_max: int) -> np.ndarray:
    """Array of |alpha| over multi_indices(d, n_max), C order."""
    return np.indices((n_max + 1,) * d).sum(axis=0).reshape(-1)


def _along_each_axis(M: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Apply the matrix M along every axis of vals.

    out[a_1, .., a_k] = sum_i M[a_1, i_1] .. M[a_k, i_k] vals[i_1, .., i_k].
    Each step contracts the leading axis and appends the new one, so after
    vals.ndim steps the axes are back in their original order.
    """
    for _ in range(vals.ndim):
        vals = np.tensordot(vals, M, axes=(0, 1))
    return vals


def hermite_batch(n_max: int, x) -> np.ndarray:
    """Evaluate h_0 .. h_{n_max} at the points ``x``.

    Uses the stable three-term recurrence

        h_{k+1}(x) = x sqrt(2/(k+1)) h_k(x) - sqrt(k/(k+1)) h_{k-1}(x),

    never the Rodrigues form, which cancels catastrophically for k >~ 10.

    Returns an array of shape ``(n_max + 1,) + x.shape``.
    """
    if n_max < 0:
        raise ValueError(f"order must be >= 0, got {n_max}")
    x = np.asarray(x, dtype=float)
    out = np.zeros((n_max + 1,) + x.shape)
    out[0] = np.pi ** -0.25 * np.exp(-x * x / 2.0)
    if n_max >= 1:
        out[1] = np.sqrt(2.0) * x * out[0]
    for k in range(1, n_max):
        out[k + 1] = np.sqrt(2.0 / (k + 1)) * x * out[k] - np.sqrt(k / (k + 1.0)) * out[k - 1]
    return out


@dataclass
class QuadratureRule:
    """Gauss-Hermite rule against the weight e^{-x^2}.

    ``weights_compensated`` are w_i e^{x_i^2}, evaluated in the stable closed
    form 1/(n h_{n-1}(x_i)^2) so that neither factor over- or underflows;
    they integrate plain samples of functions (no weight attached).
    """

    nodes: np.ndarray
    weights: np.ndarray
    weights_compensated: np.ndarray
    exact_degree: int


def gauss_hermite_rule(n: int) -> QuadratureRule:
    """The n-point Gauss-Hermite rule, by Golub-Welsch.

    Eigenvalues of the symmetric tridiagonal Jacobi matrix give the nodes;
    the squared first eigenvector components give the weights.  Exact for
    polynomials of degree <= 2n - 1 against e^{-x^2}.
    """
    if not 1 <= n <= MAX_QUADRATURE_POINTS:
        raise ValueError(f"node count must be in [1, {MAX_QUADRATURE_POINTS}], got {n}")
    from scipy.linalg import eigh_tridiagonal   # the package's only scipy import

    if n == 1:
        nodes = np.zeros(1)
        weights = np.array([np.sqrt(np.pi)])
        comp = weights.copy()
    else:
        off = np.sqrt(np.arange(1, n) / 2.0)
        nodes, vecs = eigh_tridiagonal(np.zeros(n), off)
        weights = np.sqrt(np.pi) * vecs[0] ** 2
        comp = 1.0 / (n * hermite_batch(n - 1, nodes)[n - 1] ** 2)
    return QuadratureRule(nodes, weights, comp, 2 * n - 1)


@dataclass
class HermiteCoeffVector:
    """f = sum c_alpha h_alpha truncated to alpha_j <= n_max per coordinate.

    ``coeffs`` has shape (n_max + 1,) * d.  By orthonormality the L2 norm of
    f is the Euclidean norm of the coefficients.
    """

    d: int
    n_max: int
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=complex)
        expected = (self.n_max + 1,) * self.d
        if self.coeffs.shape != expected:
            raise ValueError(f"coeffs shape {self.coeffs.shape} != {expected}")
        if not np.all(np.isfinite(self.coeffs)):
            raise ValueError("coeffs must be finite")

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))


def apply_H_coeff(f: HermiteCoeffVector) -> HermiteCoeffVector:
    """Apply the harmonic oscillator |x|^2 - Laplace in coefficient space.

    Exact up to one multiply per entry: c_alpha -> (2|alpha| + d) c_alpha.
    """
    scale = oscillator_eigenvalues(f.d, f.n_max).reshape(f.coeffs.shape)
    return HermiteCoeffVector(f.d, f.n_max, f.coeffs * scale)


def oscillator_eigenvalues(d: int, n_max: int) -> np.ndarray:
    """Vector of 2|alpha| + d over multi_indices(d, n_max), C order."""
    return (2 * index_totals(d, n_max) + d).astype(float)


def default_node_count(n_max: int) -> int:
    # products of two basis functions have degree <= 2 n_max; the 4x margin
    # covers grid-originated inputs that are merely close to the span
    return min(4 * (n_max + 1), MAX_QUADRATURE_POINTS)


def project_to_hermite(f, n_max: int) -> HermiteCoeffVector:
    """Hermite coefficients <f, h_alpha> by tensor Gauss-Hermite quadrature.

    ``f`` is a GridFunction over R^d (d in {1, 2}) sampled on a uniform
    box grid; samples are sinc-interpolated onto the quadrature nodes (the
    grid is assumed adequate for degree 2 n_max, else ResolutionError).
    The e^{+x^2} weight compensation is folded into the rule, so the result
    is exact for f in the Hermite span up to rule exactness.
    """
    from .phase_space import GridFunction

    if not isinstance(f, GridFunction):
        raise TypeError("project_to_hermite expects a GridFunction")
    if f.dims not in (1, 2):
        raise ValueError("only d in {1, 2} is supported")
    axis = f.axis()
    dx = axis[1] - axis[0]
    required = required_points_for(n_max, f.box_half_width)
    if f.points_per_axis < required:
        raise ResolutionError(
            f"{f.points_per_axis} points per axis cannot resolve h_{n_max}; "
            f"need at least {required}",
            required_points=required,
        )
    rule = gauss_hermite_rule(default_node_count(n_max))
    # nodes beyond the sampled box take the value 0; admissible inputs decay there
    S = np.sinc((rule.nodes[:, None] - axis[None, :]) / dx)
    S[np.abs(rule.nodes) > f.box_half_width] = 0.0
    hs = hermite_batch(n_max, rule.nodes)
    proj = hs * rule.weights_compensated  # rows integrate against h_k
    coeffs = _along_each_axis(proj, _along_each_axis(S, f.values))
    return HermiteCoeffVector(f.dims, n_max, coeffs)


def required_points_for(n_max: int, box_half_width: float) -> int:
    # Nyquist for the fastest admissible mode, sqrt(2 n_max + 1) rad/unit
    return int(np.ceil(2 * box_half_width * np.sqrt(2 * n_max + 1) / np.pi)) + 1


def synthesize_hermite(f: HermiteCoeffVector, box_half_width: float, points_per_axis: int):
    """Sample sum c_alpha h_alpha on a uniform box grid; inverse of projection."""
    from .phase_space import GridFunction

    axis = np.linspace(-box_half_width, box_half_width, points_per_axis)
    values = _along_each_axis(hermite_batch(f.n_max, axis).T, f.coeffs)
    return GridFunction(f.d, box_half_width, points_per_axis, values)


# bytes of the longest repr of a finite double's magnitude: 2.2250738585072014e-308
_MAGNITUDE_WIDTH = 23
_ROW_BLOCK = 65536                 # rows per byte buffer and magnitudes per repr batch
_SIGN_BIT = np.uint64(1 << 63)
_ROWS = object()                   # marks where _json_object splices the rows text


def _coeff_rows_json(T: np.ndarray) -> list[str]:
    """Pieces of the JSON text of the nonzero entries of T as [index..., re, im] rows.

    Rows run in C order.  Joined, the pieces are byte for byte json.dumps of
    the rows with Python int indices and float parts.  float.__repr__ runs
    once per distinct magnitude; a sign is a "-" byte in front of it, since
    repr(-x) == "-" + repr(x) for every finite double.  Each row is a
    fixed-width byte record whose NUL padding is dropped.  Zero entries are
    omitted; a non-finite entry raises ValueError before anything is
    formatted.
    """
    nz = np.nonzero(T)
    v = T[nz]
    if not np.isfinite(v).all():
        raise ValueError("coefficients must be finite to be written as JSON")
    if v.size == 0:
        return ["[]"]
    parts = np.stack([v.real, v.imag], axis=1)
    bits = parts.view(np.uint64)
    negative = (bits & _SIGN_BIT).astype(bool)
    uniq, inverse = np.unique((bits & ~_SIGN_BIT).ravel(), return_inverse=True)
    inverse = inverse.reshape(parts.shape)      # explicit: numpy 1.x and 2.x disagree on its shape
    mags = uniq.view(np.float64)
    table = np.empty(uniq.size, dtype=f"S{_MAGNITUDE_WIDTH}")
    for start in range(0, uniq.size, _ROW_BLOCK):
        table[start:start + _ROW_BLOCK] = list(map(float.__repr__, mags[start:start + _ROW_BLOCK].tolist()))
    table = table.view(np.uint8).reshape(uniq.size, _MAGNITUDE_WIDTH)
    top = max(T.shape) - 1
    tokens = np.array([f"{i}, " for i in range(top + 1)], dtype=f"S{len(str(top)) + 2}")
    tokens = tokens.view(np.uint8).reshape(top + 1, -1)

    # "[" index tokens, then sign byte, magnitude and separator for re and im
    width = 1 + len(nz) * tokens.shape[1] + 2 * (1 + _MAGNITUDE_WIDTH) + len(", ") + len("], ")
    chunks = []
    for start in range(0, v.size, _ROW_BLOCK):
        at = slice(start, start + _ROW_BLOCK)
        buf = np.zeros((min(_ROW_BLOCK, v.size - start), width), dtype=np.uint8)
        buf[:, 0] = ord("[")
        col = 1
        for axis in nz:
            buf[:, col:col + tokens.shape[1]] = np.take(tokens, axis[at], axis=0)
            col += tokens.shape[1]
        for part, sep in ((0, b", "), (1, b"], ")):
            buf[:, col] = negative[at, part] * ord("-")
            buf[:, col + 1:col + 1 + _MAGNITUDE_WIDTH] = np.take(table, inverse[at, part], axis=0)
            col += 1 + _MAGNITUDE_WIDTH
            buf[:, col:col + len(sep)] = np.frombuffer(sep, np.uint8)
            col += len(sep)
        chunks.append(buf[buf != 0].tobytes().decode("ascii"))     # NUL padding dropped
    chunks[-1] = chunks[-1][:-2]
    return ["[", *chunks, "]"]


def _coeff_tensor(text: str, key: str, rank: int) -> tuple[int, int, np.ndarray]:
    """Parse {"d", "n_max", key: rows} into (d, n_max, T).

    T has shape (n_max + 1,) * (rank * d) and rows are [index..., re, im].
    d in {1, 2} and n_max >= 0 must be JSON integers, every row rank * d + 2
    numbers and every index an integer in 0..n_max; anything else raises
    ValueError.  The checks run on the whole array at once.
    """
    obj = json.loads(text)
    try:
        d, n_max, rows = obj["d"], obj["n_max"], obj[key]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"coefficient JSON needs integers d, n_max and a list {key}: {exc!r}") from None
    if type(d) is not int or type(n_max) is not int or d not in (1, 2) or n_max < 0 \
            or type(rows) is not list:
        raise ValueError(f"coefficient JSON has d={d!r}, n_max={n_max!r} and a {type(rows).__name__} "
                         f"{key}; need integers d in {{1, 2}}, n_max >= 0 and a list")
    k = rank * d
    try:
        arr = np.array(rows) if rows else np.empty((0, k + 2))
        if arr.ndim != 2 or arr.shape[1] != k + 2 or arr.dtype.kind not in "if":
            raise ValueError
        # numpy casts a bool among numbers to 0/1; the per-value scan runs only if JSON has one
        if ("true" in text or "false" in text) and any(type(v) is bool for row in rows for v in row):
            raise ValueError
    except ValueError:
        raise ValueError(f"{key} must be a list of rows of {k + 2} numbers") from None
    del obj, rows                   # the parsed rows dominate peak memory; free them before T
    idx = arr[:, :k]
    bad = ~np.all((idx >= 0) & (idx <= n_max) & (idx == np.floor(idx)), axis=1)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"{key}[{i}] = {arr[i].tolist()} has an index that is not an integer in 0..{n_max}")
    T = np.zeros((n_max + 1,) * k, dtype=complex)
    at = tuple(idx.astype(np.intp).T)
    T.real[at] = arr[:, k]          # part by part, so signed zeros survive
    T.imag[at] = arr[:, k + 1]
    return d, n_max, T


def _json_object(obj: dict, rows: list[str], sort_keys: bool = False) -> str:
    """json.dumps(obj, sort_keys=sort_keys), the value _ROWS written as the joined rows pieces.

    The output is built by one join, so the rows text is copied only once.
    """
    items = sorted(obj.items()) if sort_keys else obj.items()
    pieces = []
    for key, value in items:
        if value is _ROWS:
            pieces += [", ", json.dumps(key), ": ", *rows]
        else:
            pieces += [", ", json.dumps({key: value}, sort_keys=sort_keys)[1:-1]]
    return "".join(["{", *pieces[1:], "}"])


def coeff_vector_to_json(f: HermiteCoeffVector) -> str:
    """JSON form {"d", "n_max", "coeffs": [[index..., re, im], ...]}, zeros omitted."""
    return _json_object({"d": f.d, "n_max": f.n_max, "coeffs": _ROWS}, _coeff_rows_json(f.coeffs))


def coeff_vector_from_json(text: str) -> HermiteCoeffVector:
    """Parse the coeff_vector_to_json form; malformed input raises ValueError."""
    return HermiteCoeffVector(*_coeff_tensor(text, "coeffs", 1))
