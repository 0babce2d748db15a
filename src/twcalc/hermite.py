"""Hermite functions, Gauss-Hermite quadrature and Hermite expansions.

The basis used everywhere in this package is the L2-normalized Hermite
function

    h_k(x) = pi^{-1/4} (2^k k!)^{-1/2} H_k(x) e^{-x^2/2},

with H_k the physicists' Hermite polynomial; in d variables h_alpha is the
tensor product over the components of the multi-index alpha.  The harmonic
oscillator H = |x|^2 - Laplace is diagonal in this basis with eigenvalue
2|alpha| + d.
"""

from __future__ import annotations

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

    Eigenvalues of the symmetric tridiagonal Jacobi matrix, by numpy's dense
    eigh, give the nodes; the squared first eigenvector components give the
    weights.  Exact for polynomials of degree <= 2n - 1 against e^{-x^2}.
    """
    if not 1 <= n <= MAX_QUADRATURE_POINTS:
        raise ValueError(f"node count must be in [1, {MAX_QUADRATURE_POINTS}], got {n}")
    if n == 1:
        nodes = np.zeros(1)
        weights = np.array([np.sqrt(np.pi)])
        comp = weights.copy()
    else:
        off = np.sqrt(np.arange(1, n) / 2.0)
        nodes, vecs = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
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
