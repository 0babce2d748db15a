"""Positivity tests, planted-regularity generators, and decay/growth fits.

A twisted element is positive semi-definite exactly when its coefficient
matrix is PSD, so Gram constructions C = sum_k v_k v_k* are the canonical
positive examples.  Regularity (the order s of the coefficient-decay class
|c_alpha| <~ exp(-r |alpha|^{1/(2s)})) is estimated two independent ways:

  * decay: envelope regression of log(-log |c_alpha|) on log |alpha| over
    dyadic index shells;
  * growth: the origin values of T^N a, which for Gram elements obey
    (pi/2)^{d/2} (T^N a)(0,0) = sum_k ||H^N f_k||^2 and scale like
    h^{2N} (N!)^{4s}.

Everything involving (N!)^{4s} stays in the log domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import WongCoeffMatrix, fsigma_coeff, synthesize, twisted_apply, weyl_quantize
from .hermite import index_totals, oscillator_eigenvalues
from .phase_space import GridFunction, require_same_grid

PSD_TOL = 1e-10
# largest rms residual of a decay fit that classify_decay reports as a clean fit
_DECAY_RESIDUAL_OK = 0.35
# Largest Frobenius norm is_positive_twisted accepts.  Above about 1e154 the
# norms overflow and the Hermitian defect reads nan or 0; above about 7e145
# LAPACK's zheevd rescales the matrix, and with eigenvectors that path has
# corrupted the heap (numpy 2.4's OpenBLAS 0.3.31).
_MAX_NORM = 2.0 ** 480
# power iterations behind the Rayleigh-quotient lower bound on ||Hpart||_2
_POWER_STEPS = 8


@dataclass
class PositivityResult:
    """Outcome of is_positive_twisted.

    ``min_eigenvalue`` is the smallest eigenvalue of the Hermitian part.
    When a shifted Cholesky factorization decided the matrix is PSD it is
    computed by ``eigvalsh`` on first read, from a reference to the
    caller's entries (not a copy).
    """

    is_positive: bool
    _min_eigenvalue: float | None
    hermitian_defect: float
    witness: np.ndarray | None = None
    _entries: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def min_eigenvalue(self) -> float:
        if self._min_eigenvalue is None:
            self._min_eigenvalue = float(np.linalg.eigvalsh(_hermitian_part(self._entries))[0])
            self._entries = None
        return self._min_eigenvalue

    def __bool__(self):
        return self.is_positive


@dataclass
class DecayFit:
    s_hat: float
    r_hat: float
    flavor: str            # "roumieu", "beurling", or "indeterminate"
    residual: float
    n_points: int
    variant: str = "sum"   # which envelope weight won: "sum" or "product"
    note: str = ""


@dataclass
class GrowthSequence:
    values_log: np.ndarray
    log_h: float
    s_hat: float
    residual: float
    n_fit: int


def is_positive_twisted(C: WongCoeffMatrix, tol: float = PSD_TOL) -> PositivityResult:
    """PSD test for the twisted element through its coefficient matrix.

    Positivity of a with respect to the twisted convolution is equivalent
    to positivity of the attached operator, i.e. of the matrix at this
    truncation.  Checks Hermitian symmetry to tol * ||C|| and the minimum
    eigenvalue against -tol * ||C||; a failing matrix yields an eigenvector
    witness from which a grid test function with negative pairing can be
    synthesized (see witness_function).  A Cholesky factorization of the
    shifted Hermitian part decides the PSD case; only a matrix it does not
    clear pays for the eigendecomposition.  A matrix whose Frobenius norm is
    not below 2^480 (about 3e144) raises ValueError.
    """
    A = C.entries
    if A.shape[0] != A.shape[1]:
        raise ValueError("coefficient matrix must be square")
    if not A.any():
        return PositivityResult(True, 0.0, 0.0)
    with np.errstate(over="ignore"):       # an overflow reads inf and is refused
        norm = np.linalg.norm(A)
    if not norm < _MAX_NORM:
        raise ValueError(f"coefficient matrix norm {norm:.3g} is not below 2^480")
    H = np.conj(A.T, order="C")     # A^H; the Hermitian part once A is added
    herm_defect = float(np.linalg.norm(A - H) / norm)
    H += A
    H *= 0.5
    if herm_defect <= tol and _shifted_cholesky_succeeds(H, tol):
        return PositivityResult(True, None, herm_defect, _entries=A)
    w, V = np.linalg.eigh(H)
    lo = float(w[0])
    # ||Hpart||_2 stands in for ||C||_2: it is only read once herm_defect <= tol,
    # and then the two differ by at most tol * ||C||_F / 2
    scale = max(-lo, float(w[-1]))
    if herm_defect > tol or lo < -tol * scale:
        return PositivityResult(False, lo, herm_defect, V[:, 0])
    return PositivityResult(True, lo, herm_defect)


def _hermitian_part(A: np.ndarray) -> np.ndarray:
    """0.5 * (A + A^H), built in one buffer."""
    H = np.conj(A.T, order="C")
    H += A
    H *= 0.5
    return H


def _shifted_cholesky_succeeds(H: np.ndarray, tol: float) -> bool:
    """Whether H + tol * s I has a Cholesky factor, s a lower bound on ||H||_2.

    s is the Rayleigh quotient |x* H x| of a unit vector after a fixed number
    of power iterations, so s <= ||H||_2 and success implies the eigh rule
    min eig(H) >= -tol * ||H||_2 (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., ch. 10).  Failure decides nothing.  H is left as
    it came: the shifted diagonal is put back after the factorization.
    """
    x = np.abs(np.diagonal(H)) + 1.0
    x = x / np.linalg.norm(x)
    for _ in range(_POWER_STEPS):
        y = H @ x
        norm = np.linalg.norm(y)
        if not 0.0 < norm < np.inf:
            return False
        x = y / norm
    s_lo = abs(np.vdot(x, H @ x))
    if not 0.0 < s_lo < np.inf:
        return False
    diag = np.diagonal(H).copy()
    np.fill_diagonal(H, diag + tol * s_lo)
    try:
        # zpotrf('U') on H.T = conj(H), the call scipy.linalg.cholesky(H.T) makes,
        # so factor and decision match scipy's bit for bit
        np.linalg.cholesky(H.T, upper=True)
    except np.linalg.LinAlgError:
        return False
    finally:
        np.fill_diagonal(H, diag)
    return True


def witness_function(C: WongCoeffMatrix, witness: np.ndarray,
                     box_half_width: float, points_per_axis: int) -> GridFunction:
    """Test function psi = sum_g witness[g] rho_{g, 0} carrying the witness.

    For psi of this form, (a *s psi, psi) = <C w, w>, so a negative
    eigendirection shows up as a negative grid pairing.
    """
    side = C.entries.shape[0]
    W = np.zeros((side, side), dtype=complex)
    W[:, 0] = witness
    return synthesize(WongCoeffMatrix(C.d, C.n_max, W), box_half_width, points_per_axis)


def twisted_pairing(a: GridFunction, psi: GridFunction) -> complex:
    """(a *s psi, psi) by grid quadrature; the positivity functional."""
    require_same_grid(a, psi)
    conv = twisted_apply(a, psi.values, strict=False)
    return complex(np.vdot(psi.values, conv) * psi.cell)


def default_planted_rate(planted_s: float, n_max: int, n_powers: int) -> float:
    """Decay rate placing the T^N saddle index at half the cutoff.

    The dominant index in (T^N a)(0,0) sits near (2 s N / r)^{2s}; choosing
    r so that this stays inside the truncation at the largest power keeps
    the growth fit unbiased.  Needs finite planted_s > 0, n_max >= 1 and
    n_powers >= 1; anything else raises ValueError.
    """
    if not (np.isfinite(planted_s) and planted_s > 0) or n_max < 1 or n_powers < 1:
        raise ValueError(f"need finite planted_s > 0, n_max >= 1 and n_powers >= 1, got "
                         f"planted_s={planted_s!r}, n_max={n_max!r}, n_powers={n_powers!r}")
    return 2.0 * planted_s * n_powers / (0.5 * n_max) ** (1.0 / (2 * planted_s))


def random_positive_element(rank: int, planted_s: float, planted_r: float,
                            seed: int, d: int = 1, n_max: int = 48,
                            flavor: str = "roumieu"):
    """Gram matrix C = sum_k v_k v_k* with planted coefficient decay.

    Each generating vector has |v[alpha]| = exp(-r |alpha|^{1/(2s)}) and
    unit-modulus phases drawn deterministically from the seed.  Beurling
    flavor lets the rate grow logarithmically with the index, which puts
    the element in the class for every fixed rate.
    """
    if rank < 1:
        raise ValueError("rank must be >= 1")
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max!r}")
    if not (np.isfinite(planted_s) and planted_s > 0):
        raise ValueError(f"planted_s must be finite and > 0, got {planted_s!r}")
    if not (np.isfinite(planted_r) and planted_r >= 0):
        raise ValueError(f"planted_r must be finite and >= 0, got {planted_r!r}")
    rng = np.random.default_rng(seed)
    totals = index_totals(d, n_max).astype(float)
    rate = np.full_like(totals, planted_r)
    if flavor == "beurling":
        rate = planted_r * np.log(np.e + totals)
    elif flavor != "roumieu":
        raise ValueError("flavor must be 'roumieu' or 'beurling'")
    mags = np.exp(-rate * totals ** (1.0 / (2 * planted_s)))
    phases = np.exp(2j * np.pi * rng.random((rank, totals.size)))
    vectors = mags[None, :] * phases
    C = np.einsum("ka,kb->ab", vectors, vectors.conj())
    return WongCoeffMatrix(d, n_max, C), vectors


def _logsumexp(a: np.ndarray, b) -> tuple[np.ndarray, np.ndarray]:
    """(log|sum b e^a|, sign of the sum) along the last axis, for finite a; b broadcasts.

    Shifting by the row maximum keeps each exp in (0, 1], so nothing overflows
    and the error is a few eps times the sum's condition number plus one rounding
    of the result (Blanchard, Higham & Higham, IMA J. Numer. Anal. 41(4), 2021).
    A sum that cancels to zero gives (-inf, 0).
    """
    a_max = np.max(a, axis=-1, keepdims=True)
    s = np.sum(b * np.exp(a - a_max), axis=-1)
    with np.errstate(divide="ignore"):
        return np.log(np.abs(s)) + a_max[..., 0], np.sign(s)


def t_sigma_origin_log(C: WongCoeffMatrix, N: int):
    """(sign, log|value|) of (T^N a)(0,0), exactly in coefficient space.

    rho_{a,b}(0,0) = (2/pi)^{d/2} delta_{a,b}, so only the diagonal
    contributes:  (T^N a)(0,0) = (2/pi)^{d/2} sum_a c_{aa} lam_a^{2N}.
    Complex diagonals are projected to their real part (the imaginary part
    of a PSD diagonal is zero).
    """
    if N < 0:
        raise ValueError("power must be >= 0")
    signs, logs = _origin_logs(C, np.array([N]))
    return float(signs[0]), float(logs[0])


def _origin_logs(C: WongCoeffMatrix, powers: np.ndarray):
    """(signs, log|values|) of (T^N a)(0,0) for each N in powers, in one logsumexp.

    Row N holds log|c_aa| + 2N log lam_a over the nonzero diagonal; a zero
    diagonal gives sign 0 and log -inf for every N.
    """
    lam = oscillator_eigenvalues(C.d, C.n_max)
    diag = np.real(np.diag(C.entries))
    keep = diag != 0
    if not np.any(keep):
        return np.zeros(len(powers)), np.full(len(powers), -np.inf)
    logs = np.log(np.abs(diag[keep]))[None, :] + (2.0 * powers)[:, None] * np.log(lam[keep])[None, :]
    total, sign = _logsumexp(logs, np.sign(diag[keep]))
    return sign, 0.5 * C.d * np.log(2.0 / np.pi) + total


def t_sigma_origin(C: WongCoeffMatrix, N: int) -> float:
    """Linear-domain value of (T^N a)(0,0); overflow raises OverflowError."""
    sign, lg = t_sigma_origin_log(C, N)
    if lg > 700.0:
        raise OverflowError("origin value overflows; use t_sigma_origin_log")
    return float(sign * np.exp(lg))


def trace_identity_check(vectors: np.ndarray, N: int, d: int, n_max: int):
    """Both sides of sum_k ||H^N f_k||^2 = (pi/2)^{d/2} (T^N a)(0,0).

    ``vectors`` are the Gram generators, one per row, over the
    (n_max + 1)^d multi-indices.  Returns (log lhs, log rhs, gap) with gap
    the absolute log difference, which is the relative gap for values this
    close; equal sides give gap 0, also when both are log 0 = -inf.
    """
    vectors = np.atleast_2d(np.asarray(vectors, dtype=complex))
    if vectors.size == 0:
        raise ValueError("need at least one generating vector")
    lam = oscillator_eigenvalues(d, n_max)
    with np.errstate(divide="ignore"):
        terms = 2.0 * np.log(np.abs(vectors)) + 2.0 * N * np.log(lam)[None, :]
    terms = terms[np.isfinite(terms)]
    lhs = _logsumexp(terms, 1.0)[0] if terms.size else -np.inf
    C = WongCoeffMatrix(d, n_max, np.einsum("ka,kb->ab", vectors, vectors.conj()))
    sign, rhs_log = t_sigma_origin_log(C, N)
    rhs = 0.5 * d * np.log(np.pi / 2.0) + rhs_log
    gap = 0.0 if lhs == rhs else abs(lhs - rhs)
    return float(lhs), float(rhs), float(gap)


def _envelope_points(weights: np.ndarray, mags: np.ndarray):
    """Per-dyadic-shell envelope maxima: arrays (log weight, log(-log |c|)).

    Shell j holds 2^j <= w < 2^(j+1) and is read exactly off the binary
    exponent; it is bin j + 1 here, and bin 0 collects the weights below 1,
    which belong to no shell.  A tie for a shell's maximum goes to the first
    entry.
    """
    bins = np.maximum(np.frexp(weights)[1], 0)
    gmax = np.full(bins.max(initial=0) + 1, -np.inf)
    np.maximum.at(gmax, bins, mags)
    hits = np.flatnonzero(mags == gmax[bins])
    found, first = np.unique(bins[hits], return_index=True)
    at = hits[first[found > 0]]
    c = mags[at]
    ok = (0.0 < c) & (c < 1.0)
    return np.log(weights[at][ok]), np.log(-np.log(c[ok]))


def classify_decay(C: WongCoeffMatrix) -> DecayFit:
    """Estimate the decay order s from the coefficient envelope.

    Fits log(-log |c_alpha|) against log of two index weights, the total
    |alpha1| + |alpha2| (slope 1/(2s)) and the product <alpha1><alpha2>
    (slope 1/(4s)), over dyadic-shell maxima, and reports the variant with
    the smaller residual, the total on a tie.  Needs >= 12 usable
    coefficients across >= 3 shells, else the fit is indeterminate.  A
    single truncation cannot distinguish Beurling from Roumieu decay, so a
    clean fit is reported as the Roumieu-type rate that realizes it.
    """
    totals = index_totals(C.d, C.n_max).astype(float)
    japp = np.sqrt(1.0 + totals ** 2)
    mags = np.abs(C.entries)
    sum_w = totals[:, None] + totals[None, :]
    usable = (mags > 1e-300) & (sum_w >= 1)
    n_usable = int(np.count_nonzero(usable))
    if n_usable < 12:
        return DecayFit(0.0, 0.0, "indeterminate", 0.0, n_usable,
                        note="fewer than 12 usable coefficients")
    # an unusable entry counts as 0, which no shell holding a usable entry
    # picks and no envelope point keeps
    mags = np.where(usable, mags, 0.0).ravel()
    fits = []
    for weights, slope_to_s, variant in ((sum_w, 2.0, "sum"),
                                         (japp[:, None] * japp[None, :], 4.0, "product")):
        X, Y = _envelope_points(weights.ravel(), mags)
        if X.size >= 3:
            A = np.stack([np.ones_like(X), X], axis=1)
            coef, *_ = np.linalg.lstsq(A, Y, rcond=None)
            rms = float(np.sqrt(np.mean((A @ coef - Y) ** 2)))
            fits.append((rms, coef, X.size, slope_to_s, variant))
    if not fits:
        return DecayFit(0.0, 0.0, "indeterminate", 0.0, n_usable,
                        note="fewer than 3 dyadic shells")
    rms, coef, npts, slope_to_s, variant = min(fits, key=lambda fit: fit[0])
    slope = coef[1]
    if slope <= 0:
        return DecayFit(0.0, 0.0, "indeterminate", rms, npts, variant,
                        note="non-decaying envelope")
    s_hat = 1.0 / (slope_to_s * slope)
    r_hat = float(np.exp(coef[0]))
    flavor = "roumieu" if rms <= _DECAY_RESIDUAL_OK else "indeterminate"
    note = "" if flavor == "indeterminate" else \
        "beurling membership is not decidable from one truncation"
    return DecayFit(float(s_hat), r_hat, flavor, rms, npts, variant, note)


def growth_sequence(C: WongCoeffMatrix, n_powers: int) -> GrowthSequence:
    """log g_N = log (T^N a)(0,0) for N = 0..n_powers and the fitted (log h, s).

    The origin values are exact in coefficient space.  For PSD C they are
    also the sup norms: a is a sum of displaced-parity expectations, so
    |T^N a(X)| <= (T^N a)(0,0) everywhere.  The fit regresses log g_N on
    [1, 2N, 4 log N!], so s is the factorial-growth exponent.
    """
    if n_powers < 4:
        raise ValueError("need n_powers >= 4 to fit")
    Ns = np.arange(n_powers + 1, dtype=float)
    signs, logs = _origin_logs(C, Ns)
    logs = np.where(signs > 0, logs, np.where(signs == 0, -np.inf, np.nan))
    keep = np.isfinite(logs)
    if np.count_nonzero(keep) < 4:
        return GrowthSequence(logs, -np.inf, 0.0, 0.0, int(np.count_nonzero(keep)))
    log_fact = np.array([math.lgamma(N + 1.0) for N in Ns])
    A = np.stack([np.ones_like(Ns), 2 * Ns, 4 * log_fact], axis=1)[keep]
    y = logs[keep]
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    rms = float(np.sqrt(np.mean((A @ coef - y) ** 2)))
    return GrowthSequence(logs, float(coef[1]), float(coef[2]), rms, int(keep.sum()))


def verify_regularity_theorem(planted_s: float, rank: int, seed: int, n_powers: int,
                              d: int = 1, n_max: int = 48, planted_r: float | None = None,
                              s_tol: float = 0.15) -> dict:
    """End-to-end check: positive element with planted order s is recovered.

    Generates a Gram element with planted decay, confirms positivity,
    computes the growth sequence and the coefficient-decay fit, and passes
    when both estimates agree with the planted order within s_tol.
    """
    if planted_r is None:
        planted_r = default_planted_rate(planted_s, n_max, n_powers)
    C, _ = random_positive_element(rank, planted_s, planted_r, seed, d, n_max)
    return {**verify_matrix_report(C, n_powers, planted_s, seed, s_tol), "rank": rank, "planted_r": planted_r}


def _check_fit_args(n_powers: int, s_tol: float):
    """Refuse a non-finite or negative s_tol and fewer than 4 powers, whatever the matrix."""
    if not (np.isfinite(s_tol) and s_tol >= 0):
        raise ValueError(f"s_tol must be finite and >= 0, got {s_tol!r}")
    if n_powers < 4:
        raise ValueError("need n_powers >= 4 to fit")


def _not_psd_report(pos: PositivityResult, reason: str) -> dict:
    """Report fields of a failed PSD test; the witness as [re, im] pairs."""
    return {
        "pass": False,
        "reason": reason,
        "min_eigenvalue": pos.min_eigenvalue,
        "witness": [[v.real, v.imag] for v in pos.witness],
    }


def verify_matrix_report(C: WongCoeffMatrix, n_powers: int, planted_s: float | None = None,
                         seed: int | None = None, s_tol: float = 0.15) -> dict:
    """Theorem pipeline on a provided matrix (CLI verify with an input file).

    The PSD test, then the growth and decay fits, held to planted_s or, without one, to each other.
    """
    _check_fit_args(n_powers, s_tol)
    return _matrix_report(C, is_positive_twisted(C), n_powers, planted_s, seed, s_tol)


def _matrix_report(C: WongCoeffMatrix, pos: PositivityResult, n_powers: int,
                   planted_s: float | None, seed: int | None, s_tol: float) -> dict:
    """verify_matrix_report once the PSD test of C has given pos."""
    report = {
        "planted_s": planted_s,
        "seed": seed,
        "n_max": C.n_max,
        "N_max": n_powers,
        "positive": bool(pos),
    }
    if not pos:
        report.update(_not_psd_report(pos, "input is not positive semi-definite"))
        return report
    growth = growth_sequence(C, n_powers)
    decay = classify_decay(C)
    degenerate = growth.n_fit < 4 or decay.flavor == "indeterminate"
    report.update({
        "fitted_s_growth": growth.s_hat,
        "fitted_s_decay": decay.s_hat,
        "log_h": growth.log_h,
        "residuals": {"growth": growth.residual, "decay": decay.residual},
        "growth_log_values": [float(v) for v in growth.values_log],
        "degenerate": bool(degenerate),
    })
    if degenerate:
        # positive with (near-)finite expansion: the order-0 class; only a
        # nonzero planted target makes this a failure
        report["pass"] = planted_s is None or planted_s == 0.0
        report["reason"] = "finite or near-finite expansion; order-0 class"
        return report
    if planted_s is None:
        ok = abs(growth.s_hat - decay.s_hat) <= s_tol
        report["reason"] = "no planted order; growth and decay fits compared to each other"
    else:
        ok = abs(growth.s_hat - planted_s) <= s_tol and abs(decay.s_hat - planted_s) <= s_tol
    report["pass"] = bool(ok)
    return report


def verify_weyl_positive(C_symbol: WongCoeffMatrix, n_powers: int,
                         planted_s: float | None = None, s_tol: float = 0.15) -> dict:
    """Positivity of the Weyl operator of a symbol, then the growth pipeline.

    Op(a) >= 0 together with controlled origin growth of T^N (F_s a) puts
    the symbol in the decay class; realized by testing the quantized matrix
    for PSD and running the theorem harness on F_s a.  The quantized
    matrix is (2 pi)^{-d/2} F_s a, so its PSD test decides F_s a too and
    runs once.
    """
    _check_fit_args(n_powers, s_tol)
    pos = is_positive_twisted(WongCoeffMatrix(C_symbol.d, C_symbol.n_max, weyl_quantize(C_symbol)))
    if not pos:
        return _not_psd_report(pos, "Weyl operator is not positive semi-definite")
    return {**_matrix_report(fsigma_coeff(C_symbol), pos, n_powers, planted_s, None, s_tol),
            "weyl_operator_psd": True}
