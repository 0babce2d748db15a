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
import re
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
_ROWS = object()                   # marks where _json_object splices the rows text


def _coeff_rows_json(T: np.ndarray) -> list[str]:
    """Pieces of the JSON text of the nonzero entries of T as [index..., re, im] rows.

    Rows run in C order.  Joined, the pieces are byte for byte json.dumps of
    the rows with Python int indices and float parts.  float.__repr__ runs
    once per distinct magnitude; a sign is a "-" byte in front of it, since
    repr(-x) == "-" + repr(x) for every finite double.  Each row is a
    fixed-width byte record whose NUL padding is dropped.  Zero entries are
    omitted; a non-finite entry raises ValueError before anything is
    formatted.  Through the row loop the only arrays over all nonzero
    entries are their flat indices, sign bits and magnitude numbers (in the
    narrowest unsigned type that holds them): index tuples are unraveled per
    block and the values are freed before the loop, so the peak is about the
    pieces plus the magnitude table.
    """
    entries = T.reshape(-1)
    flat = np.flatnonzero(entries)
    v = entries[flat]
    if not np.isfinite(v).all():
        raise ValueError("coefficients must be finite to be written as JSON")
    if v.size == 0:
        return ["[]"]
    parts = np.stack([v.real, v.imag], axis=1)
    del v
    negative = np.signbit(parts)
    uniq, inverse = np.unique(np.abs(parts, out=parts).view(np.uint64), return_inverse=True)
    del parts
    inverse = inverse.reshape(-1, 2).astype(np.min_scalar_type(uniq.size - 1))
    mags = uniq.view(np.float64)
    table = np.empty(uniq.size, dtype=f"S{_MAGNITUDE_WIDTH}")
    for start in range(0, uniq.size, _ROW_BLOCK):
        table[start:start + _ROW_BLOCK] = list(map(float.__repr__, mags[start:start + _ROW_BLOCK].tolist()))
    del uniq, mags
    table = table.view(np.uint8).reshape(-1, _MAGNITUDE_WIDTH)
    top = max(T.shape) - 1
    tokens = np.array([f"{i}, " for i in range(top + 1)], dtype=f"S{len(str(top)) + 2}")
    tokens = tokens.view(np.uint8).reshape(top + 1, -1)

    # "[" index tokens, then sign byte, magnitude and separator for re and im
    width = 1 + T.ndim * tokens.shape[1] + 2 * (1 + _MAGNITUDE_WIDTH) + len(", ") + len("], ")
    chunks = []
    for start in range(0, flat.size, _ROW_BLOCK):
        at = slice(start, start + _ROW_BLOCK)
        buf = np.zeros((min(_ROW_BLOCK, flat.size - start), width), dtype=np.uint8)
        buf[:, 0] = ord("[")
        col = 1
        for axis in np.unravel_index(flat[at], T.shape):
            buf[:, col:col + tokens.shape[1]] = np.take(tokens, axis, axis=0)
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


_TEXT_BLOCK = 1 << 21              # characters of rows text per json.loads in _coeff_tensor
_DECODER = json.JSONDecoder()
_WS = json.decoder.WHITESPACE      # the pattern json.decoder skips whitespace with
_LAST_ROW_END = re.compile(r"\][ \t\n\r]*\]")
_ROW_GAP = re.compile(r"\][ \t\n\r]*,[ \t\n\r]*\[")


class _RowBlocks(list):
    """A rows array read block by block: 2-D int or float arrays, in row order."""


def _row_array(rows, text: str) -> np.ndarray:
    """np.array of parsed rows; ValueError unless they are 2-D, numeric and without bools."""
    arr = np.array(rows)
    if arr.ndim != 2 or arr.dtype.kind not in "if":
        raise ValueError
    # numpy casts a bool among numbers to 0/1; the per-value scan runs only if the JSON text has one
    if ("true" in text or "false" in text) and any(type(v) is bool for row in rows for v in row):
        raise ValueError
    return arr


def _read_rows(text: str, start: int):
    """(value, end) of the JSON array at text[start], as _DECODER.raw_decode reads it.

    Flat rows of numbers come back as _RowBlocks: the text is cut at row gaps
    into blocks of about _TEXT_BLOCK characters, and each block is parsed by
    json.loads and np.array, so the rows never exist as one list of lists.
    The blocks join to text[start:end], so if every block is flat rows their
    concatenation is the array json reads.  Anything else (no rows, nested
    arrays, strings, bools, ragged rows, an int numpy keeps as an object)
    is materialized by raw_decode and judged by the caller's checks.
    """
    at = _WS.match(text, start + 1).end()
    last = text.startswith("[", at) and _LAST_ROW_END.search(text, at)
    if last:
        blocks = _RowBlocks()
        while at <= last.start():
            gap = _ROW_GAP.search(text, at + _TEXT_BLOCK, last.start())
            chunk = text[at:gap.start() + 1 if gap else last.start() + 1]
            try:
                arr = _row_array(json.loads("[" + chunk + "]"), chunk)
            except ValueError:
                break
            blocks.append(arr)
            at = gap.end() - 1 if gap else last.end()
        else:
            return blocks, last.end()
    return _DECODER.raw_decode(text, start)


def _walk_object(text: str, key: str) -> dict | None:
    """The top-level JSON object of text as json.loads builds it, key's array read by _read_rows.

    Keys are read with scanstring and other values with raw_decode, and a
    duplicate key keeps its last value, as in json.  None when text is not a
    non-empty object or a separator is not where one belongs, so json.loads
    can give its own error or object; a malformed string or value raises
    json's error.
    """
    end = _WS.match(text, 0).end()
    if not text.startswith("{", end):
        return None
    obj = {}
    end = _WS.match(text, end + 1).end()
    while True:
        if not text.startswith('"', end):
            return None
        name, end = json.decoder.scanstring(text, end + 1)
        end = _WS.match(text, end).end()
        if not text.startswith(":", end):
            return None
        end = _WS.match(text, end + 1).end()
        read = _read_rows if name == key and text.startswith("[", end) else _DECODER.raw_decode
        obj[name], end = read(text, end)
        end = _WS.match(text, end).end()
        if text.startswith("}", end):
            break
        if not text.startswith(",", end):
            return None
        end = _WS.match(text, end + 1).end()
    return obj if _WS.match(text, end + 1).end() == len(text) else None


def _coeff_tensor(text: str, key: str, rank: int) -> tuple[int, int, np.ndarray]:
    """Parse {"d", "n_max", key: rows} into (d, n_max, T).

    T has shape (n_max + 1,) * (rank * d) and rows are [index..., re, im].
    d in {1, 2} and n_max >= 0 must be JSON integers, every row rank * d + 2
    numbers and every index an integer in 0..n_max; anything else raises
    ValueError.  json is the only tokenizer: _walk_object reads the top
    level and the rows are parsed by json.loads in blocks of about
    _TEXT_BLOCK characters, each checked and then scattered into T as an
    array, so the peak above the text is about the row arrays and T, never a
    list of all the row lists.  Input json.loads refuses raises its error.
    """
    try:
        obj = _walk_object(text, key)
    except json.JSONDecodeError:
        obj = None
    if obj is None:
        obj = json.loads(text)
    try:
        d, n_max, rows = obj["d"], obj["n_max"], obj[key]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"coefficient JSON needs integers d, n_max and a list {key}: {exc!r}") from None
    if type(d) is not int or type(n_max) is not int or d not in (1, 2) or n_max < 0 \
            or not isinstance(rows, list):
        raise ValueError(f"coefficient JSON has d={d!r}, n_max={n_max!r} and a "
                         f"{'list' if isinstance(rows, list) else type(rows).__name__} "
                         f"{key}; need integers d in {{1, 2}}, n_max >= 0 and a list")
    k = rank * d
    try:
        blocks = rows if type(rows) is _RowBlocks else [_row_array(rows, text)] if rows else []
        if any(arr.shape[1] != k + 2 for arr in blocks):
            raise ValueError
    except ValueError:
        raise ValueError(f"{key} must be a list of rows of {k + 2} numbers") from None
    del obj, rows                   # a materialized list of rows dominates peak memory; free it before T
    first = 0
    for arr in blocks:
        idx = arr[:, :k]
        bad = ~np.all((idx >= 0) & (idx <= n_max) & (idx == np.floor(idx)), axis=1)
        if bad.any():
            i = int(np.argmax(bad))
            # as one array of all the rows would show it: float if any block is
            row = arr[i].astype(float if any(b.dtype.kind == "f" for b in blocks) else int).tolist()
            raise ValueError(f"{key}[{first + i}] = {row} has an index that is not an integer in 0..{n_max}")
        first += len(arr)
    T = np.zeros((n_max + 1,) * k, dtype=complex)
    for arr in blocks:
        at = tuple(arr[:, :k].astype(np.intp).T)
        T.real[at] = arr[:, k]      # part by part, so signed zeros survive
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
