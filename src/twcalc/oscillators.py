"""The symplectic oscillator pair and its ladder factorization.

H_sig = (|X|^2 - Delta/4) + <xi, D_x> - <x, D_xi> with D = -i d/dx, its
conjugate H_bar flips the rotation sign, and T = H_sig o H_bar.  All three
are diagonal in the Hermite-Wong basis:

    H_sig rho_{a1,a2} = (2|a1| + d) rho,   H_bar rho = (2|a2| + d) rho,

so the coefficient realizations are exact entrywise scalings.  The grid
realization (4th-order finite differences) exists only to cross-validate
those eigenvalues, and the ladder factorization is a structural self-test.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import TruncationWarning
from .algebra import WongCoeffMatrix, kernel_map_A_coeff
from .hermite import oscillator_eigenvalues
from .phase_space import GridFunction, _pair_slabs, check_boundary

LADDER_FAMILIES = ("Z1", "Z1_tilde", "Z2", "Z2_tilde")


@dataclass
class LadderKind:
    """One of the four ladder families, acting along a coordinate axis."""

    family: str
    axis: int = 0

    def __post_init__(self):
        if self.family not in LADDER_FAMILIES:
            raise ValueError(f"family must be one of {LADDER_FAMILIES}")
        if self.axis < 0:
            raise ValueError("axis must be >= 0")


def _eigs(C: WongCoeffMatrix) -> np.ndarray:
    return oscillator_eigenvalues(C.d, C.n_max)


def apply_h_sigma_coeff(C: WongCoeffMatrix) -> WongCoeffMatrix:
    """Scale c_{a1,a2} by (2|a1| + d); exact."""
    return WongCoeffMatrix(C.d, C.n_max, _eigs(C)[:, None] * C.entries)


def apply_h_bar_sigma_coeff(C: WongCoeffMatrix) -> WongCoeffMatrix:
    """Scale c_{a1,a2} by (2|a2| + d); exact."""
    return WongCoeffMatrix(C.d, C.n_max, C.entries * _eigs(C)[None, :])


def t_sigma_log_scale(C: WongCoeffMatrix, N: int) -> np.ndarray:
    """log of the T^N eigenvalue factor per entry; the scaling is positive."""
    lg = np.log(_eigs(C))
    return N * (lg[:, None] + lg[None, :])


def apply_t_sigma_coeff(C: WongCoeffMatrix, N: int) -> WongCoeffMatrix:
    """Scale by ((2|a1| + d)(2|a2| + d))^N, accumulated in the log domain.

    Raises OverflowError when the linear-domain result cannot be
    represented; use apply_t_sigma_log for the log-magnitude entries.
    """
    if N < 0:
        raise ValueError("power must be >= 0")
    if N == 0:
        return C.copy()
    logs = t_sigma_log_scale(C, N)
    with np.errstate(divide="ignore"):
        peak = np.max(logs + np.log(np.maximum(np.abs(C.entries), 1e-300)))
    if peak > 700.0:
        raise OverflowError(
            "T^N scaling overflows the linear domain; use apply_t_sigma_log")
    return WongCoeffMatrix(C.d, C.n_max, C.entries * np.exp(logs))


def apply_t_sigma_log(C: WongCoeffMatrix, N: int) -> np.ndarray:
    """log |entries of T^N a|; -inf where the entry vanishes.

    The scaling factors are positive reals, so phases are those of C.
    """
    with np.errstate(divide="ignore"):
        return np.log(np.abs(C.entries)) + t_sigma_log_scale(C, N)


def apply_ladder(C: WongCoeffMatrix, kind: LadderKind) -> WongCoeffMatrix:
    """One ladder step with the square-root factors and signs

        Z1:       c_{a1, a2} -> +sqrt(2 a2_j) c at (a1, a2 - e_j)
        Z1_tilde: c_{a1, a2} -> -sqrt(2 a2_j + 2) c at (a1, a2 + e_j)
        Z2:       c_{a1, a2} -> -sqrt(2 a1_j) c at (a1 - e_j, a2)
        Z2_tilde: c_{a1, a2} -> +sqrt(2 a1_j + 2) c at (a1 + e_j, a2)

    Lowering annihilates at index zero.  Raising past n_max drops the term
    and emits a TruncationWarning; callers needing exactness pre-pad n_max.
    """
    if kind.axis >= C.d:
        raise ValueError(f"axis {kind.axis} out of range for d={C.d}")
    m = C.n_max + 1
    slot = kind.axis if kind.family in ("Z2", "Z2_tilde") else C.d + kind.axis
    # the stepped index first; out keeps T's memory order, so moving it back is C order
    T = np.moveaxis(C.entries.reshape((m,) * 2 * C.d), slot, 0)
    k = np.arange(m, dtype=float).reshape((m,) + (1,) * (2 * C.d - 1))
    out = np.zeros_like(T)
    if kind.family in ("Z1", "Z2"):
        # entry at index k contributes to index k - 1 with weight sqrt(2k)
        out[:-1] = T[1:] * np.sqrt(2 * k[1:])
    else:
        # entry at index k contributes to index k + 1 with weight sqrt(2k + 2)
        out[1:] = T[:-1] * np.sqrt(2 * k[:-1] + 2)
        if np.any(T[-1] != 0):
            warnings.warn(
                f"raising past n_max={C.n_max} dropped coefficients "
                f"(mass {float(np.sum(np.abs(T[-1]) ** 2)):.3e})",
                TruncationWarning, stacklevel=2)
    if kind.family in ("Z2", "Z1_tilde"):
        out = -out
    side = m ** C.d
    return WongCoeffMatrix(C.d, C.n_max, np.moveaxis(out, 0, slot).reshape(side, side))


def h_sigma_from_ladders(C: WongCoeffMatrix) -> WongCoeffMatrix:
    """H_sig assembled as -(1/2) sum_j (Z2_j Z2t_j + Z2t_j Z2_j).

    Structural self-test for apply_h_sigma_coeff: the two must agree to
    machine precision.  Internally padded one index so the raising steps
    never truncate.
    """
    return _from_ladders(C, "Z2", "Z2_tilde")


def h_bar_sigma_from_ladders(C: WongCoeffMatrix) -> WongCoeffMatrix:
    """Mirror factorization of H_bar through the Z1 family."""
    return _from_ladders(C, "Z1", "Z1_tilde")


def _from_ladders(C: WongCoeffMatrix, lower: str, raise_: str) -> WongCoeffMatrix:
    m = C.n_max + 1
    padded = np.pad(C.entries.reshape((m,) * 2 * C.d), (0, 1))
    padded = WongCoeffMatrix(C.d, m, padded.reshape((m + 1) ** C.d, -1))
    acc = np.zeros_like(padded.entries)
    for j in range(C.d):
        lo = LadderKind(lower, j)
        hi = LadderKind(raise_, j)
        first = apply_ladder(apply_ladder(padded, hi), lo)
        second = apply_ladder(apply_ladder(padded, lo), hi)
        acc += first.entries + second.entries
    out = (-0.5 * acc).reshape((m + 1,) * 2 * C.d)[(slice(0, m),) * 2 * C.d]
    return WongCoeffMatrix(C.d, C.n_max, out.reshape(m ** C.d, -1).copy())


# 4th-order central differences: the centre weight in h^2 v'', and per
# neighbour (k, weight of v[i + k] in h^2 v'', weight in h v')
_CENTRE = -30 / 12
_TAPS = ((-2, -1 / 12, 1 / 12), (-1, 16 / 12, -8 / 12), (1, 16 / 12, 8 / 12), (2, -1 / 12, -1 / 12))


def _add_taps(out: np.ndarray, v: np.ndarray, axis: int, taps, tmp: np.ndarray):
    """out += w * v[i + k] along ``axis`` for each (k, w), zero beyond the boundary.

    Each weight broadcasts against v and is constant along ``axis``;
    ``tmp`` is scratch of v's shape.
    """
    n, lead = v.shape[axis], (slice(None),) * (axis % v.ndim)
    for k, w in taps:
        dst = lead + (slice(max(-k, 0), n - max(k, 0)),)
        src = lead + (slice(max(k, 0), n - max(-k, 0)),)
        np.multiply(v[src], w, out=tmp[dst])
        out[dst] += tmp[dst]


def apply_h_sigma_grid(a: GridFunction, strict: bool = True, conjugate: bool = False) -> GridFunction:
    """Finite-difference realization of H_sig (or H_bar) on the grid.

    Oracle only: validates the coefficient eigenvalues.  D = -i d/dx, so
    the rotation term is -i xi d_x + i x d_xi (sign flipped for H_bar).
    Per axis pair (x_j, xi_j): (x_j^2 + xi_j^2) v plus, per axis, a 5-point
    stencil folding -1/4 d^2 with the rotation term, whose factor is
    constant along that axis; added in place, one slab at a time.
    """
    if a.dims not in (2, 4):
        raise ValueError("expects a phase-space function")
    check_boundary(a, strict, threshold=1e-6, what="oscillator input")
    h, x = a.spacing, a.axis()
    lap = -0.25 / (h * h)
    rot = (-1j if conjugate else 1j) * x / h
    centre = (x * x)[:, None] + x * x + 2 * lap * _CENTRE
    along_x = [(k, lap * d2 - d1 * rot) for k, d2, d1 in _TAPS]             # -i xi_j d_xj
    along_xi = [(k, lap * d2 + d1 * rot[:, None]) for k, d2, d1 in _TAPS]   # +i x_j d_xij
    out = np.zeros_like(a.values)
    for j in range(a.dims // 2):
        for v, acc in _pair_slabs(j, a.values, out):
            tmp = np.multiply(v, centre)
            acc += tmp
            _add_taps(acc, v, -2, along_x, tmp)
            _add_taps(acc, v, -1, along_xi, tmp)
    return GridFunction(a.dims, a.box_half_width, a.points_per_axis, out)


def intertwine_residual(C: WongCoeffMatrix, n1: int, n2: int) -> float:
    """Relative gap between the two routes of the intertwining identity.

    Left: scale in Hermite-Wong coefficients, then relabel through the
    kernel map.  Right: relabel first, then apply the partial oscillators
    slotwise.  Both are exact diagonal scalings, so the residual is at
    rounding level.
    """
    def scaled(M):
        for _ in range(n1):
            M = apply_h_sigma_coeff(M)
        for _ in range(n2):
            M = apply_h_bar_sigma_coeff(M)
        return M

    left = kernel_map_A_coeff(scaled(C))
    right = scaled(kernel_map_A_coeff(C))   # rows, columns scale as |x|^2 - Delta_x, |y|^2 - Delta_y
    denom = right.norm()
    if denom == 0.0:
        return 0.0
    return float(np.linalg.norm(left.entries - right.entries) / denom)
