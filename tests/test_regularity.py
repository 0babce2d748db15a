import math
import warnings

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import twcalc as tw
from twcalc.hermite import index_totals, oscillator_eigenvalues
from twcalc.regularity import (
    PSD_TOL,
    _envelope_points,
    _hermitian_part,
    _logsumexp,
    _shifted_cholesky_succeeds,
    default_planted_rate,
    verify_matrix_report,
)

SQ2PI = np.sqrt(2 / np.pi)


# --- positivity ---

def test_rank_one_gram_is_positive(rng):
    v = rng.normal(size=6) + 1j * rng.normal(size=6)
    C = tw.WongCoeffMatrix(1, 5, np.outer(v, v.conj()))
    res = tw.is_positive_twisted(C)
    assert res.is_positive
    assert res.min_eigenvalue >= -1e-12 * np.linalg.norm(C.entries, 2)


def test_indefinite_diagonal_rejected_with_witness():
    C = tw.WongCoeffMatrix(1, 1, np.diag([1.0, -1.0]).astype(complex))
    res = tw.is_positive_twisted(C)
    assert not res.is_positive
    assert res.min_eigenvalue == pytest.approx(-1.0)
    np.testing.assert_allclose(np.abs(res.witness), [0.0, 1.0], atol=1e-12)


def test_non_hermitian_rejected():
    M = np.zeros((3, 3), dtype=complex)
    M[0, 1] = 1.0
    res = tw.is_positive_twisted(tw.WongCoeffMatrix(1, 2, M))
    assert not res.is_positive and res.hermitian_defect > 0.1


def test_psd_decision_at_the_threshold():
    # tol = 1e-10 of the spectral norm
    def positive(M):
        return tw.is_positive_twisted(tw.WongCoeffMatrix(1, 1, M)).is_positive

    for norm in (1.0, 1e6):
        assert positive(norm * np.diag([1.0, -0.5e-10]))
        assert not positive(norm * np.diag([1.0, -2e-10]))
    # [[1, e], [0, 1]] has Hermitian defect e and eigenvalues 1 +- e/2
    assert positive(np.array([[1.0, 0.5e-10], [0.0, 1.0]]))
    assert not positive(np.array([[1.0, 1.5e-10], [0.0, 1.0]]))


def random_unitary(rng, side):
    Q, R = np.linalg.qr(rng.normal(size=(side, side)) + 1j * rng.normal(size=(side, side)))
    return Q * (np.diagonal(R) / np.abs(np.diagonal(R)))


def eigh_rule(C, tol=PSD_TOL):
    """The PSD rule, applied in full: defect <= tol and min eig >= -tol ||Hpart||_2."""
    A = C.entries
    w = np.linalg.eigvalsh(0.5 * (A + A.conj().T))
    defect = np.linalg.norm(A - A.conj().T) / np.linalg.norm(A)
    return bool(defect <= tol and w[0] >= -tol * max(-w[0], w[-1]))


# lam_min = factor * tol * max|lam|: each case sits at least a factor 2 from the threshold
@settings(max_examples=80, deadline=None)
@given(side=st.integers(2, 12), seed=st.integers(0, 2 ** 32 - 1),
       factor=st.sampled_from([0.0, 0.5, -0.5, 2.0, -2.0, 4.0, -4.0]), log_scale=st.floats(-6.0, 6.0))
def test_psd_decision_matches_the_eigh_rule_near_the_threshold(side, seed, factor, log_scale):
    rng = np.random.default_rng(seed)
    scale = 10.0 ** log_scale
    lam = scale * rng.uniform(0.1, 1.0, size=side)
    lam[0], lam[-1] = scale, factor * PSD_TOL * scale
    U = random_unitary(rng, side)
    C = tw.WongCoeffMatrix(1, side - 1, (U * lam) @ U.conj().T)
    decision = tw.is_positive_twisted(C).is_positive
    assert decision == eigh_rule(C) == (factor >= -1.0)
    V = random_unitary(rng, side)
    turned = tw.WongCoeffMatrix(1, side - 1, V @ C.entries @ V.conj().T)
    assert tw.is_positive_twisted(turned).is_positive == decision


def test_positive_decision_runs_no_eigh(monkeypatch):
    C, _ = tw.random_positive_element(3, 0.5, default_planted_rate(0.5, 8, 40), seed=3, d=2, n_max=8)
    want = float(np.linalg.eigvalsh(0.5 * (C.entries + C.entries.conj().T))[0])
    eigvalsh, calls = np.linalg.eigvalsh, []

    def counted(M):
        calls.append(M.shape)
        return eigvalsh(M)

    def refuse(*args, **kwargs):
        raise AssertionError("eigh called on a PSD input")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    res = tw.is_positive_twisted(C)
    assert res.is_positive and calls == []
    assert res.min_eigenvalue == want and res.min_eigenvalue == want
    assert calls == [C.entries.shape]


def scipy_cholesky(a, upper=False):
    """The factorization the PSD check made with scipy: LAPACK on a Fortran copy."""
    return scipy.linalg.cholesky(np.array(a, order="F"), lower=not upper, overwrite_a=True,
                                 check_finite=False)


# lam_min = factor * tol * lam_max with factors across the shifted Cholesky's threshold
@pytest.mark.parametrize("seed", range(12))
def test_cholesky_decision_equals_the_scipy_decision(seed, monkeypatch):
    rng = np.random.default_rng(seed)
    side = int(rng.integers(2, 60))
    decisions = []
    for factor in np.linspace(-1.3, -0.7, 13):
        lam = rng.uniform(0.1, 1.0, size=side)
        lam[0], lam[-1] = 1.0, factor * PSD_TOL
        U = random_unitary(rng, side)
        H = _hermitian_part((U * lam) @ U.conj().T)
        ours = _shifted_cholesky_succeeds(H, PSD_TOL)
        with monkeypatch.context() as m:
            m.setattr(np.linalg, "cholesky", scipy_cholesky)
            theirs = _shifted_cholesky_succeeds(H, PSD_TOL)
        assert ours == theirs
        decisions.append(ours)
    assert any(decisions) and not all(decisions)


def test_cholesky_factor_equals_scipy_bitwise(rng):
    V = rng.normal(size=(40, 40)) + 1j * rng.normal(size=(40, 40))
    H = _hermitian_part(V @ V.conj().T)
    assert np.linalg.cholesky(H.T, upper=True).tobytes() == scipy_cholesky(H.T, upper=True).tobytes()


def test_shifted_cholesky_leaves_its_input_as_it_came(rng):
    V = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    for H in (_hermitian_part(V @ V.conj().T), np.diag([1.0, -1.0]).astype(complex)):
        before = H.copy()
        _shifted_cholesky_succeeds(H, PSD_TOL)
        assert H.tobytes() == before.tobytes()


# not Hermitian: at 1e200 the norms overflow and the defect read nan, so the
# matrix passed as positive; past ~7e145 LAPACK's eigensolver corrupted the heap
@pytest.mark.parametrize("scale", [1e150, 1e200, 1e308])
def test_norm_above_the_bound_is_refused(scale):
    A = scale * np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
    with pytest.raises(ValueError, match="2\\^480"):
        tw.is_positive_twisted(tw.WongCoeffMatrix(1, 1, A))


def test_norm_just_below_the_bound_is_decided():
    scale = 2.0 ** 470
    A = scale * np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
    assert not tw.is_positive_twisted(tw.WongCoeffMatrix(1, 1, A)).is_positive
    assert tw.is_positive_twisted(tw.WongCoeffMatrix(1, 2, scale * np.eye(3, dtype=complex))).is_positive


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_non_finite_coefficients_rejected(bad):
    # a non-finite entry used to pass positivity (inf) or crash eigh (nan)
    with pytest.raises(ValueError, match="finite"):
        tw.WongCoeffMatrix(1, 2, np.diag([1.0, bad, 1.0]))


def test_witness_pairing_is_negative_on_grid():
    C = tw.WongCoeffMatrix(1, 1, np.diag([1.0, -1.0]).astype(complex))
    res = tw.is_positive_twisted(C)
    psi = tw.witness_function(C, res.witness, 8.0, 73)
    a = tw.synthesize(C, 8.0, 73)
    pairing = tw.twisted_pairing(a, psi)
    assert pairing.real < -0.5 and abs(pairing.imag) < 1e-6


def test_positive_element_grid_pairings(rng):
    C, _ = tw.random_positive_element(3, 0.5, 1.0, seed=5, n_max=6)
    a = tw.synthesize(C, 8.0, 73)
    for _ in range(5):
        W = rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7))
        psi = tw.synthesize(tw.WongCoeffMatrix(1, 6, W / np.linalg.norm(W)), 8.0, 73)
        pairing = tw.twisted_pairing(a, psi)
        assert pairing.real >= -1e-6
        assert abs(pairing.imag) < 1e-6


# --- generator ---

def test_rank_one_at_index_zero():
    C, vecs = tw.random_positive_element(1, 0.5, 1e9, seed=0, n_max=4)
    # decay so fast that only index 0 survives at double precision
    want = np.zeros((5, 5), dtype=complex)
    want[0, 0] = 1.0
    np.testing.assert_allclose(C.entries, want, atol=1e-300)


def test_gram_output_is_positive():
    for seed in range(4):
        C, _ = tw.random_positive_element(3, 0.5, 1.0, seed=seed, n_max=12)
        assert tw.is_positive_twisted(C, tol=1e-12).is_positive


def test_planted_envelope_decay():
    rank = 3
    C, _ = tw.random_positive_element(rank, 0.5, 1.0, seed=9, n_max=12)
    diag = np.real(np.diag(C.entries))
    k = np.arange(13.0)
    envelope = np.exp(-2.0 * k)
    ratio = diag / envelope
    assert np.all(ratio <= rank + 1e-9) and np.all(ratio >= 1.0 / 3 - 1e-9)


def test_generator_determinism():
    C1, v1 = tw.random_positive_element(2, 0.4, 1.5, seed=123, n_max=8)
    C2, v2 = tw.random_positive_element(2, 0.4, 1.5, seed=123, n_max=8)
    np.testing.assert_array_equal(C1.entries, C2.entries)
    np.testing.assert_array_equal(v1, v2)


def test_generator_validates_arguments():
    with pytest.raises(ValueError):
        tw.random_positive_element(0, 0.5, 1.0, seed=0)
    with pytest.raises(ValueError):
        tw.random_positive_element(1, -0.5, 1.0, seed=0)
    with pytest.raises(ValueError):
        tw.random_positive_element(1, 0.5, 1.0, seed=0, flavor="gevrey")


# --- origin values of T^N ---

def test_origin_ground_state_any_power():
    C = tw.unit_entry(1, 4, ((0,), (0,)))
    for N in (0, 1, 17):
        assert tw.t_sigma_origin(C, N) == pytest.approx(SQ2PI)


def test_origin_off_diagonal_vanishes():
    C = tw.unit_entry(1, 4, ((2,), (1,)))
    for N in range(5):
        assert tw.t_sigma_origin(C, N) == 0.0


def test_origin_diagonal_sum():
    C = tw.WongCoeffMatrix(1, 2, np.eye(3, dtype=complex))
    # eigenvalues 1, 3, 5 squared once
    assert tw.t_sigma_origin(C, 1) == pytest.approx(35 * SQ2PI)


def test_origin_against_grid_synthesis():
    C, _ = tw.random_positive_element(2, 0.6, 1.2, seed=3, n_max=5)
    for N in (0, 1, 2):
        scaled = tw.apply_t_sigma_coeff(C, N)
        g = tw.synthesize(scaled, 8.0, 129)
        centered = g.values[64, 64].real
        assert centered == pytest.approx(tw.t_sigma_origin(C, N), rel=1e-8)


def test_origin_anchor_wong_values_by_quadrature():
    # rho_{a,b}(0,0) = sqrt(2/pi) delta_{ab}: the constant the whole origin
    # formula rests on, confirmed against grid quadrature
    for a in range(3):
        for b in range(3):
            r = tw.hermite_wong_eval(((a,), (b,)), 8.0, 257)
            want = SQ2PI if a == b else 0.0
            assert abs(r.values[128, 128] - want) < 1e-6


# --- trace identity ---

def test_trace_identity_ground_state():
    v = np.zeros(7, dtype=complex)
    v[0] = 1.0
    lhs, rhs, gap = tw.trace_identity_check(v, 3, d=1, n_max=6)
    assert np.exp(lhs) == pytest.approx(1.0)
    assert np.exp(rhs) == pytest.approx(1.0)
    assert gap <= 1e-12


def test_trace_identity_h3_squared():
    v = np.zeros(7, dtype=complex)
    v[3] = 1.0
    lhs, rhs, gap = tw.trace_identity_check(v, 2, d=1, n_max=6)
    assert np.exp(lhs) == pytest.approx(7.0 ** 4)
    assert gap <= 1e-12


def test_trace_identity_random_ranks(rng):
    for rank in (1, 3, 5):
        V = rng.normal(size=(rank, 9)) + 1j * rng.normal(size=(rank, 9))
        for N in (0, 2, 6):
            lhs, rhs, gap = tw.trace_identity_check(V, N, d=1, n_max=8)
            assert gap <= 1e-12


# --- one-pass rewrites pinned to the loops they replaced ---

def growth_by_power(C, n_powers):
    """log (T^N a)(0,0) for N = 0..n_powers, one logsumexp per N."""
    lam = oscillator_eigenvalues(C.d, C.n_max)
    diag = np.real(np.diag(C.entries))
    base = 0.5 * C.d * np.log(2.0 / np.pi)
    logs = np.empty(n_powers + 1)
    for N in range(n_powers + 1):
        with np.errstate(divide="ignore"):
            terms = np.log(np.abs(diag)) + 2.0 * N * np.log(lam)
        keep = np.isfinite(terms)
        if not np.any(keep):
            logs[N] = -np.inf
            continue
        total, sign = _logsumexp(terms[keep], np.sign(diag)[keep])
        logs[N] = float(base + total) if sign > 0 else (-np.inf if sign == 0 else np.nan)
    return logs


def envelope_by_shell(weights, mags):
    """Per-dyadic-shell maxima, one masked scan of every entry per shell."""
    X, Y = [], []
    j = 0
    while weights.size and 2 ** j <= weights.max():
        mask = (weights >= 2 ** j) & (weights < 2 ** (j + 1))
        if np.any(mask):
            at = int(np.argmax(np.where(mask, mags, -np.inf)))
            if 0.0 < mags[at] < 1.0:
                X.append(np.log(weights[at]))
                Y.append(np.log(-np.log(mags[at])))
        j += 1
    return np.array(X), np.array(Y)


@pytest.mark.parametrize("holes", [0.0, 0.5], ids=["dense", "half-zeroed"])
@pytest.mark.parametrize("s", [0.3, 0.5, 1.0])
@pytest.mark.parametrize("d, n_max", [(1, 48), (2, 16)], ids=["d1", "d2"])
def test_one_pass_growth_and_envelope_equal_the_loops_bitwise(d, n_max, s, holes):
    C, _ = tw.random_positive_element(3, s, default_planted_rate(s, n_max, 40), seed=5, d=d, n_max=n_max)
    zeroed = np.random.default_rng(5).random(C.entries.shape) < holes
    C = tw.WongCoeffMatrix(d, n_max, np.where(zeroed, 0.0, C.entries))
    np.testing.assert_array_equal(tw.growth_sequence(C, 40).values_log, growth_by_power(C, 40))
    totals = index_totals(d, n_max).astype(float)
    japp = np.sqrt(1.0 + totals ** 2)
    mags = np.abs(C.entries)
    usable = (mags > 1e-300) & (totals[:, None] + totals[None, :] >= 1)
    for weights in (totals[:, None] + totals[None, :], japp[:, None] * japp[None, :]):
        # as classify_decay calls it: every entry, the unusable ones as magnitude 0
        got = _envelope_points(weights.ravel(), np.where(usable, mags, 0.0).ravel())
        want = envelope_by_shell(weights[usable], mags[usable])
        assert len(got[0]) >= 3
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)


def test_envelope_tie_goes_to_the_first_entry():
    # weights 3 and 2 share shell [2, 4) with equal magnitudes: the first entry, weight 3, wins
    weights, mags = np.array([1.0, 3.0, 2.0, 5.0, 0.5]), np.array([0.5, 0.1, 0.1, 0.2, 0.9])
    X, Y = _envelope_points(weights, mags)
    np.testing.assert_array_equal(X, np.log([1.0, 3.0, 5.0]))
    np.testing.assert_array_equal(Y, np.log(-np.log([0.5, 0.1, 0.2])))
    for g, w in zip((X, Y), envelope_by_shell(weights, mags)):
        np.testing.assert_array_equal(g, w)


# --- the fits' log-sum-exp and log N!, against mpmath at 50 digits ---

EPS = np.finfo(float).eps


def _exact_logsumexp(a, b):
    """(log|sum b e^a|, its sign, sum e^a / |sum b e^a|) at 50 digits; (None, 0, inf) if it cancels."""
    with mpmath.workdps(50):
        total = mpmath.fsum(float(w) * mpmath.exp(float(x)) for x, w in zip(a, b))
        if total == 0:
            return None, 0.0, math.inf
        kappa = mpmath.fsum(mpmath.exp(float(x)) for x in a) / abs(total)
        return mpmath.log(abs(total)), math.copysign(1.0, total), float(kappa)


# few distinct values, so ties at the maximum and sums that cancel are common
_LSE_VALUES = st.one_of(st.sampled_from([-3.0, 0.0, 0.5, 2.0, 700.0]), st.floats(-800.0, 800.0))


@settings(max_examples=400, deadline=None)
@given(data=st.data(), rows=st.sampled_from([None, 1, 2, 4]), cols=st.integers(1, 8),
       weights=st.sampled_from(["unit", "row", "full"]))
def test_logsumexp_matches_mpmath(data, rows, cols, weights):
    shape = (cols,) if rows is None else (rows, cols)
    a = data.draw(hnp.arrays(float, shape, elements=_LSE_VALUES))
    if weights == "unit":
        b = np.ones(shape)      # as trace_identity_check calls it
    else:
        # +-1 weights along the last axis, as _origin_logs calls it; a row of weights broadcasts
        b = data.draw(hnp.arrays(float, shape if weights == "full" else (cols,),
                                 elements=st.sampled_from([-1.0, 1.0])))
    got, sign = _logsumexp(a, 1.0 if weights == "unit" else b)
    assert np.shape(got) == np.shape(sign) == shape[:-1]
    for g, s, row, w in zip(np.ravel(got), np.ravel(sign), a.reshape(-1, cols),
                            np.broadcast_to(b, shape).reshape(-1, cols)):
        want, want_sign, kappa = _exact_logsumexp(row, w)
        if 4 * EPS * kappa < 1:
            # The shifted sum of up to 8 terms is within 4 eps times its condition number
            # kappa (1 for +1 weights), so the sign is exact; y = max + log|sum| adds one
            # rounding of y.  The error is absolute near y = 0, not a few ulp of y:
            # a = [0, -40] reads 0 against 4.2e-18, and [0, -3, -3, -3, -3, -3, -3] is 2.2 eps off
            assert s == want_sign, (row, w)
            assert abs(g - want) <= 0.5 * math.ulp(float(want)) + 4 * EPS * kappa, (row, w)


def test_logsumexp_edge_cases():
    cases = [([1.0, 1.0], [1.0, -1.0]),                     # cancels to zero
             ([3.0, 3.0, 1.0, 1.0], [1.0, -1.0, -1.0, 1.0]),  # every pair cancels
             ([2.0, 2.0, 1.0], [1.0, 1.0, 1.0]),            # tie at the maximum
             ([2.0, 2.0, 1.0], [1.0, -1.0, 1.0]),           # tie at the maximum that cancels
             ([0.0, 1.0], [1.0, -1.0])]                     # negative sum
    for a, b in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")      # log 0 of a cancelled sum included
            got, sign = _logsumexp(np.array(a), np.array(b))
        want, want_sign, _ = _exact_logsumexp(a, b)
        if want is None:
            assert (got, sign) == (-np.inf, 0.0), (a, b)
        else:
            assert sign == want_sign and abs(got - want) <= 2 * math.ulp(float(want)), (a, b)


def test_log_factorial_matches_mpmath():
    # growth_sequence's 4 log N! column, as it calls math.lgamma: at most 3 doubles from the
    # correctly rounded log N!.  The worst case with glibc is lgamma(3.0), 3 doubles below
    # log 2 (3.21 ulp of the exact value)
    with mpmath.workdps(50):
        want = np.array([float(mpmath.loggamma(N + 1)) for N in range(5001)])
    got = np.array([math.lgamma(N + 1.0) for N in np.arange(5001, dtype=float)])
    assert np.all(got >= 0) and np.all(want >= 0)
    steps = np.abs(got.view(np.int64) - want.view(np.int64))
    assert steps.max() <= 3


def test_trace_identity_without_a_nonzero_coefficient():
    with np.errstate(all="raise"):          # no -inf - -inf on the way to the gap
        lhs, rhs, gap = tw.trace_identity_check(np.zeros((2, 5)), 3, d=1, n_max=4)
    assert lhs == -np.inf and rhs == -np.inf
    assert gap == 0.0


def _origin_case(case, d=2, n_max=6):
    """(C, Gram generators or None) for the origin-value warning test."""
    side = (n_max + 1) ** d
    if case == "planted":
        return tw.random_positive_element(3, 0.5, default_planted_rate(0.5, n_max, 12), seed=2, d=d, n_max=n_max)
    if case == "single-entry":
        vectors = np.zeros((1, side), dtype=complex)
        vectors[0, 5] = 0.3 - 0.4j
        return tw.WongCoeffMatrix(d, n_max, np.outer(vectors[0], vectors[0].conj())), vectors
    if case == "zero-diagonal":
        entries = np.zeros((side, side), dtype=complex)
        entries[0, 1] = entries[1, 0] = 1.0
        return tw.WongCoeffMatrix(d, n_max, entries), np.zeros((2, side))
    signs = np.where(np.arange(side) % 3 == 0, -1.0, 1.0)
    return tw.WongCoeffMatrix(d, n_max, np.diag(signs * np.exp(-np.arange(side) / 4.0)).astype(complex)), None


@pytest.mark.parametrize("case", ["planted", "single-entry", "zero-diagonal", "signed-diagonal"])
def test_origin_values_raise_no_runtime_warning(case):
    C, vectors = _origin_case(case)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tw.growth_sequence(C, 12)
        for N in (0, 3, 12):
            tw.t_sigma_origin_log(C, N)
        if vectors is not None:
            for N in (0, 7):
                tw.trace_identity_check(vectors, N, C.d, C.n_max)


# --- decay classification ---

def test_classifier_recovers_exact_envelope():
    for s in (0.5, 1.0):
        n_max = 48
        k = np.arange(n_max + 1.0)
        diag = np.exp(-2.0 * k ** (1.0 / (2 * s)))
        C = tw.WongCoeffMatrix(1, n_max, np.diag(diag).astype(complex))
        fit = tw.classify_decay(C)
        assert fit.flavor == "roumieu"
        assert abs(fit.s_hat - s) <= 0.05


def test_classifier_single_coefficient_indeterminate():
    fit = tw.classify_decay(tw.unit_entry(1, 8, ((1,), (1,))))
    assert fit.flavor == "indeterminate"


def test_classifier_noisy_gram():
    for s, seed in [(0.5, 0), (1.0, 1), (0.3, 2)]:
        r = default_planted_rate(s, 48, 40)
        C, _ = tw.random_positive_element(3, s, r, seed=seed, n_max=48)
        fit = tw.classify_decay(C)
        assert abs(fit.s_hat - s) <= 0.15


# --- growth sequences ---

def test_growth_constant_for_ground_state():
    C = tw.unit_entry(1, 6, ((0,), (0,)))
    seq = tw.growth_sequence(C, 10)
    np.testing.assert_allclose(seq.values_log, np.log(SQ2PI), atol=1e-12)
    assert abs(seq.s_hat) < 1e-9


def test_growth_off_diagonal_is_zero():
    C = tw.unit_entry(1, 6, ((2,), (1,)))
    seq = tw.growth_sequence(C, 6)
    assert np.all(np.isneginf(seq.values_log))


def test_growth_monotone_for_positive_elements():
    C, _ = tw.random_positive_element(3, 0.5, 1.0, seed=11, n_max=16)
    seq = tw.growth_sequence(C, 12)
    assert np.all(np.diff(seq.values_log) >= -1e-12)


def test_origin_dominance_for_positive_elements():
    # PSD diagonals are non-negative, so every origin value is >= 0
    for seed in range(3):
        C, _ = tw.random_positive_element(2, 0.7, 1.3, seed=seed, n_max=10)
        for N in range(7):
            assert tw.t_sigma_origin(C, N) >= 0.0


# --- the origin controls T^N a everywhere ---

# odd point counts put the origin on a node, so a gap can only come from the
# grid synthesis error.  Measured on the cases below: largest gap 9e-16, largest
# |gap| 1.1e-7 (d=1, s=1.0, N=12); a non-PSD input breaks the check by > 1.
DOMINANCE_TOL = 1e-6
DOMINANCE_GRIDS = [(1, 24, 8.0, 129, 12), (2, 8, 6.0, 33, 4)]   # d, n_max, L, n, N_max


def dominance_gaps(C, n_powers, box_half_width, points_per_axis):
    """log max_X |T^N a(X)| on the grid minus log |(T^N a)(0,0)|, for N = 0..n_powers."""
    gaps = []
    for N in range(n_powers + 1):
        g = tw.synthesize(tw.apply_t_sigma_coeff(C, N), box_half_width, points_per_axis)
        _, origin_log = tw.t_sigma_origin_log(C, N)
        gaps.append(np.log(np.max(np.abs(g.values))) - origin_log)
    return np.array(gaps)


@pytest.mark.parametrize("s", [0.3, 0.5, 1.0])
@pytest.mark.parametrize("d, n_max, L, n, n_powers", DOMINANCE_GRIDS, ids=["d1", "d2"])
def test_origin_dominates_planted_elements_everywhere(s, d, n_max, L, n, n_powers):
    r = default_planted_rate(s, n_max, n_powers)
    C, _ = tw.random_positive_element(3, s, r, seed=7, d=d, n_max=n_max)
    assert dominance_gaps(C, n_powers, L, n).max() <= DOMINANCE_TOL


def test_origin_dominates_ground_state_everywhere():
    # |rho_00| peaks at the origin, so the grid sup equals the origin value
    C = tw.unit_entry(1, 4, ((0,), (0,)))
    assert np.abs(dominance_gaps(C, 12, 8.0, 129)).max() <= DOMINANCE_TOL


@pytest.mark.parametrize("d, n_max, L, n, n_powers", DOMINANCE_GRIDS, ids=["d1", "d2"])
def test_non_psd_input_breaks_origin_dominance(d, n_max, L, n, n_powers):
    rng = np.random.default_rng(1)
    side = (n_max + 1) ** d
    A = rng.normal(size=(side, side)) + 1j * rng.normal(size=(side, side))
    C = tw.WongCoeffMatrix(d, n_max, (A + A.conj().T) / 2)
    assert not tw.is_positive_twisted(C).is_positive
    assert dominance_gaps(C, n_powers, L, n).max() > 1.0


def test_growth_recovers_planted_order():
    r = default_planted_rate(0.5, 48, 40)
    C, _ = tw.random_positive_element(3, 0.5, r, seed=21, n_max=48)
    seq = tw.growth_sequence(C, 40)
    assert abs(seq.s_hat - 0.5) <= 0.15


# --- end-to-end harnesses ---

@pytest.mark.parametrize("s", [0.3, 0.5, 1.0])
def test_verify_regularity_theorem_passes(s):
    report = tw.verify_regularity_theorem(s, rank=3, seed=7, n_powers=40)
    assert report["pass"], report
    assert abs(report["fitted_s_growth"] - s) <= 0.15
    assert abs(report["fitted_s_decay"] - s) <= 0.15


def test_verify_degenerate_rank_one_at_zero():
    report = tw.verify_regularity_theorem(0.5, rank=1, seed=0,
                                          n_powers=8, planted_r=1e9, n_max=8)
    assert report["degenerate"]


def test_verify_refuses_negated_matrix():
    C, _ = tw.random_positive_element(2, 0.5, 1.0, seed=4, n_max=8)
    report = verify_matrix_report(tw.WongCoeffMatrix(1, 8, -C.entries), 8)
    assert not report["pass"]
    assert report["witness"] is not None


def test_verify_weyl_positive_constant_growth():
    # symbol whose F_s image is the ground Wong function
    ground = tw.unit_entry(1, 6, ((0,), (0,)))
    symbol = tw.fsigma_coeff(ground)
    report = tw.verify_weyl_positive(symbol, 8)
    assert report["weyl_operator_psd"]
    assert report["degenerate"]  # single coefficient: order-0 class


def test_verify_weyl_positive_rejects_indefinite():
    C = tw.WongCoeffMatrix(1, 1, np.diag([1.0, -1.0]).astype(complex))
    symbol = tw.fsigma_coeff(C)
    report = tw.verify_weyl_positive(symbol, 6)
    assert not report["pass"] and report["witness"] is not None


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["psd", "indefinite"])
def test_too_few_powers_raise_before_the_psd_test(sign):
    C = tw.WongCoeffMatrix(1, 1, np.diag([1.0, sign]).astype(complex))
    with pytest.raises(ValueError, match="n_powers >= 4"):
        tw.verify_weyl_positive(tw.fsigma_coeff(C), 3)
    with pytest.raises(ValueError, match="n_powers >= 4"):
        verify_matrix_report(C, 3)


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["psd", "indefinite"])
@pytest.mark.parametrize("n_powers, s_tol", [(40, -1.0), (3, 0.15)], ids=["s_tol", "n_powers"])
def test_weyl_fit_arguments_raise_whatever_the_symbol(sign, n_powers, s_tol):
    G, _ = tw.random_positive_element(2, 0.5, 1.0, 1, 1, 8)
    symbol = tw.fsigma_coeff(tw.WongCoeffMatrix(1, 8, sign * G.entries))
    with pytest.raises(ValueError):
        tw.verify_weyl_positive(symbol, n_powers, s_tol=s_tol)


def _weyl_report_two_psd_tests(C_symbol, n_powers, planted_s=None, s_tol=0.15):
    """Oracle: verify_weyl_positive as it was, testing the quantized matrix and then F_s a."""
    from twcalc.regularity import _not_psd_report, is_positive_twisted
    M = tw.weyl_quantize(C_symbol)
    op = tw.WongCoeffMatrix(C_symbol.d, C_symbol.n_max, M)
    pos = is_positive_twisted(op)
    if not pos:
        return _not_psd_report(pos, "Weyl operator is not positive semi-definite")
    return {**verify_matrix_report(tw.fsigma_coeff(C_symbol), n_powers, planted_s, None, s_tol),
            "weyl_operator_psd": True}


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["psd", "indefinite"])
def test_weyl_report_equals_two_test_report_with_one_psd_test(monkeypatch, sign):
    r = default_planted_rate(0.5, 8, 20)
    G, _ = tw.random_positive_element(3, 0.5, r, seed=5, d=2, n_max=8)
    symbol = tw.fsigma_coeff(tw.WongCoeffMatrix(2, 8, sign * G.entries))
    expected = _weyl_report_two_psd_tests(symbol, 20, planted_s=0.5)
    calls = []

    def counted(C, *args):
        calls.append(C)
        return tw.is_positive_twisted(C, *args)

    monkeypatch.setattr("twcalc.regularity.is_positive_twisted", counted)
    assert tw.verify_weyl_positive(symbol, 20, planted_s=0.5) == expected
    assert len(calls) == 1
    assert expected["pass"] is (sign > 0)


def test_verify_regularity_theorem_d2():
    report = tw.verify_regularity_theorem(0.5, rank=3, seed=2, n_powers=20, d=2, n_max=16)
    assert report["pass"]
    assert abs(report["fitted_s_growth"] - 0.5) <= 0.15


def test_verify_weyl_positive_recovers_planted_order():
    r = default_planted_rate(0.5, 48, 40)
    C, _ = tw.random_positive_element(3, 0.5, r, seed=13, n_max=48)
    symbol = tw.fsigma_coeff(C)
    report = tw.verify_weyl_positive(symbol, 40, planted_s=0.5)
    assert report["pass"]
    assert abs(report["fitted_s_growth"] - 0.5) <= 0.15
