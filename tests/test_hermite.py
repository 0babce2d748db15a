import json
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal

import twcalc as tw
from twcalc.errors import ResolutionError
from twcalc.hermite import (
    apply_H_coeff,
    default_node_count,
    multi_indices,
    oscillator_eigenvalues,
)

from conftest import sparse_coeffs

# independent oracle: the Rodrigues formula with the derivative carried out
# symbolically on polynomial coefficients, evaluated at 50 digits
def rodrigues_hermite(k, x, dps=50):
    with mp.workdps(dps):
        coeffs = [mp.mpf(1)]
        for _ in range(k):
            prime = [coeffs[i] * i for i in range(1, len(coeffs))]
            shifted = [mp.mpf(0)] + [-2 * c for c in coeffs]
            new = [mp.mpf(0)] * max(len(prime), len(shifted))
            for i, c in enumerate(prime):
                new[i] += c
            for i, c in enumerate(shifted):
                new[i] += c
            coeffs = new
        xm = mp.mpf(x)
        poly = sum(c * xm ** i for i, c in enumerate(coeffs))
        val = mp.pi ** mp.mpf("-0.25") * (-1) ** k / mp.sqrt(2 ** k * mp.factorial(k)) \
            * poly * mp.exp(-xm * xm / 2)
        return float(val)


def test_ground_state_at_origin():
    assert tw.hermite_batch(0, 0.0)[0] == pytest.approx(np.pi ** -0.25, abs=1e-12)


def test_first_excited_is_odd():
    assert tw.hermite_batch(1, 0.0)[1] == 0.0


def test_order_five_matches_high_precision_rodrigues():
    # frozen from the 50-digit oracle above
    assert tw.hermite_batch(5, 1.3)[5] == pytest.approx(-0.3993914628137508, rel=1e-12)
    assert tw.hermite_batch(5, 1.3)[5] == pytest.approx(rodrigues_hermite(5, 1.3), rel=1e-12)


def test_negative_order_rejected():
    with pytest.raises(ValueError):
        tw.hermite_batch(-1, 0.0)


def test_recurrence_vs_rodrigues_low_orders():
    rng = np.random.default_rng(11)
    pts = rng.uniform(-4, 4, 20)
    vals = tw.hermite_batch(12, pts)
    for k in range(13):
        for i, x in enumerate(pts):
            want = rodrigues_hermite(k, x)
            assert vals[k, i] == pytest.approx(want, rel=1e-9, abs=1e-300)


def test_one_point_rule():
    rule = tw.gauss_hermite_rule(1)
    np.testing.assert_allclose(rule.nodes, [0.0])
    np.testing.assert_allclose(rule.weights, [np.sqrt(np.pi)])


def test_two_point_rule():
    # roots of 4x^2 - 2, weights split the zeroth moment by symmetry
    rule = tw.gauss_hermite_rule(2)
    np.testing.assert_allclose(rule.nodes, [-1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-14)
    np.testing.assert_allclose(rule.weights, [np.sqrt(np.pi) / 2] * 2, atol=1e-14)


@pytest.mark.parametrize("n", [*range(2, 69), 128, 256, 511, 512])
def test_rule_equals_eigh_tridiagonal_bitwise(n):
    # every size tables and default_node_count use at small n_max, and the largest rules
    off = np.sqrt(np.arange(1, n) / 2.0)
    nodes, vecs = eigh_tridiagonal(np.zeros(n), off)
    rule = tw.gauss_hermite_rule(n)
    assert np.array_equal(rule.nodes, nodes)
    assert np.array_equal(rule.weights, np.sqrt(np.pi) * vecs[0] ** 2)


@pytest.mark.parametrize("n", [1, 3, 17, 96, 512])
def test_zeroth_moment(n):
    rule = tw.gauss_hermite_rule(n)
    assert abs(np.sum(rule.weights) - np.sqrt(np.pi)) < 1e-12
    assert rule.exact_degree == 2 * n - 1
    assert np.all(np.diff(rule.nodes) > 0)


def test_even_moments_exact_to_rule_degree():
    rule = tw.gauss_hermite_rule(6)
    for m in range(0, 12, 2):
        exact = math.gamma((m + 1) / 2)
        assert np.sum(rule.weights * rule.nodes ** m) == pytest.approx(exact, rel=1e-13)


def test_node_count_bounds():
    with pytest.raises(ValueError):
        tw.gauss_hermite_rule(0)
    with pytest.raises(ValueError):
        tw.gauss_hermite_rule(513)


def test_orthonormality_via_quadrature():
    n_max = 32
    rule = tw.gauss_hermite_rule(n_max + 1)
    hs = tw.hermite_batch(n_max, rule.nodes)
    gram = (hs * rule.weights_compensated) @ hs.T
    assert np.max(np.abs(gram - np.eye(n_max + 1))) < 1e-10


def test_projection_picks_out_basis_vector():
    f = tw.synthesize_hermite(_unit(1, 8, (3,)), 8.0, 256)
    c = tw.project_to_hermite(f, 8)
    want = np.zeros(9)
    want[3] = 1.0
    np.testing.assert_allclose(c.coeffs, want, atol=1e-11)


def test_projection_is_linear():
    v = np.zeros(9, dtype=complex)
    v[0] = v[2] = 1 / np.sqrt(2)
    f = tw.synthesize_hermite(tw.HermiteCoeffVector(1, 8, v), 8.0, 256)
    c = tw.project_to_hermite(f, 8)
    np.testing.assert_allclose(c.coeffs, v, atol=1e-11)


def test_projection_of_shifted_gaussian_matches_coherent_expansion():
    # c_k = e^{-a^2/4} (a/sqrt 2)^k / sqrt(k!), checked against a 10x rule
    a = 0.5
    n_max = 12
    axis = np.linspace(-8, 8, 512)
    vals = np.pi ** -0.25 * np.exp(-((axis - a) ** 2) / 2)
    f = tw.GridFunction(1, 8.0, 512, vals + 0j)
    got = tw.project_to_hermite(f, n_max).coeffs
    k = np.arange(n_max + 1)
    want = np.exp(-a * a / 4) * (a / np.sqrt(2)) ** k / np.sqrt([math.factorial(j) for j in k])
    np.testing.assert_allclose(got, want, atol=1e-10)
    rule = tw.gauss_hermite_rule(10 * default_node_count(n_max) // 4)
    hs = tw.hermite_batch(n_max, rule.nodes)
    dense = (hs * rule.weights_compensated) @ (np.pi ** -0.25 * np.exp(-((rule.nodes - a) ** 2) / 2))
    np.testing.assert_allclose(got, dense, atol=1e-10)


def test_projection_requires_resolution():
    f = tw.GridFunction(1, 8.0, 16, np.zeros(16) + 0j)
    with pytest.raises(ResolutionError) as err:
        tw.project_to_hermite(f, 32)
    assert err.value.required_points > 16


def _unit(d, n_max, alpha):
    coeffs = np.zeros((n_max + 1,) * d, dtype=complex)
    coeffs[alpha] = 1.0
    return tw.HermiteCoeffVector(d, n_max, coeffs)


@pytest.mark.parametrize("d,alpha,scale", [
    (1, (0,), 1.0),
    (1, (3,), 7.0),
    (2, (1, 2), 8.0),
])
def test_oscillator_scaling(d, alpha, scale):
    out = apply_H_coeff(_unit(d, 4, alpha))
    assert out.coeffs[alpha] == pytest.approx(scale)
    out.coeffs[alpha] = 0.0
    assert np.all(out.coeffs == 0)


def test_second_difference_eigenrelation_on_grid():
    # |x|^2 - Laplace at 2nd order, spacing 1/64 on [-8, 8]
    dx = 1.0 / 64
    axis = np.arange(-8.0, 8.0 + dx / 2, dx)
    vals = tw.hermite_batch(4, axis)
    for k in range(5):
        f = vals[k]
        lap = np.zeros_like(f)
        lap[1:-1] = (f[2:] - 2 * f[1:-1] + f[:-2]) / dx ** 2
        out = axis ** 2 * f - lap
        target = (2 * k + 1) * f
        err = np.max(np.abs(out[1:-1] - target[1:-1])) / np.max(np.abs(target))
        assert err < 1e-3


# d1: h_24 turns at |x| = 7 and only reaches 1e-14 around |x| = 12
@pytest.mark.parametrize("d,n_max,box,points", [(1, 24, 12.0, 512), (2, 6, 8.0, 128)],
                         ids=["d1", "d2"])
def test_projection_synthesis_round_trip(d, n_max, box, points):
    rng = np.random.default_rng(5)
    shape = (n_max + 1,) * d
    v = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    f = tw.HermiteCoeffVector(d, n_max, v)
    back = tw.project_to_hermite(tw.synthesize_hermite(f, box, points), n_max)
    assert np.max(np.abs(back.coeffs - v)) < 1e-9


def test_parseval_norm():
    v = np.array([3.0, 4.0j, 0.0])
    f = tw.HermiteCoeffVector(1, 2, v)
    assert f.norm() == pytest.approx(5.0)
    g = tw.synthesize_hermite(f, 8.0, 256)
    assert g.norm() == pytest.approx(5.0, abs=1e-9)


def test_multi_index_helpers():
    idx = multi_indices(2, 2)
    assert len(idx) == 9
    assert idx[0] == (0, 0)
    assert oscillator_eigenvalues(2, 1).tolist() == [2.0, 4.0, 4.0, 6.0]


def test_coeff_vector_json_round_trip():
    v = np.zeros((3, 3), dtype=complex)
    v[1, 2] = 0.5 - 0.25j
    f = tw.HermiteCoeffVector(2, 2, v)
    back = tw.coeff_vector_from_json(tw.coeff_vector_to_json(f))
    assert back.d == 2 and back.n_max == 2
    np.testing.assert_allclose(back.coeffs, v)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), d=st.sampled_from([1, 2]), n_max=st.integers(0, 5))
def test_coeff_vector_json_round_trip_property(data, d, n_max):
    f = tw.HermiteCoeffVector(d, n_max, data.draw(sparse_coeffs((n_max + 1,) * d)))
    text = tw.coeff_vector_to_json(f)
    back = tw.coeff_vector_from_json(text)
    assert (back.d, back.n_max) == (d, n_max)
    np.testing.assert_array_equal(back.coeffs, f.coeffs)
    assert tw.coeff_vector_to_json(back) == text


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_non_finite_vector_coefficients_rejected(bad):
    # the norm of such a vector is inf or nan
    with pytest.raises(ValueError, match="finite"):
        tw.HermiteCoeffVector(1, 2, [1.0, bad, 0.0])


@pytest.mark.parametrize("obj", [
    {"n_max": 2, "coeffs": []},
    {"d": 1, "n_max": 2},
    {"d": 1, "n_max": 2, "coeffs": [[3, 1.0, 0.0]]},
    {"d": 1, "n_max": 2, "coeffs": [[-1, 1.0, 0.0]]},
    {"d": 2, "n_max": 2, "coeffs": [[0, 1.0, 0.0]]},
    {"d": 1, "n_max": 2, "coeffs": [[0, "1.0", 0.0]]},
    {"d": 1, "n_max": 2, "coeffs": [[0, float("inf"), 0.0]]},
    [1, 2, 0.5],
    {"d": 1, "n_max": 2, "coeffs": [[1.7, 1.0, 0.0]]},
    {"d": True, "n_max": 2, "coeffs": []},
    {"d": 1, "n_max": 2, "coeffs": [[True, 1.0, 0.0]]},
], ids=["missing-d", "missing-coeffs", "index-above-n-max", "negative-index",
        "short-row", "string-value", "non-finite", "not-an-object", "fractional-index", "bool-d",
        "bool-index"])
def test_coeff_vector_json_rejects_malformed_input(obj):
    with pytest.raises(ValueError):
        tw.coeff_vector_from_json(json.dumps(obj))
