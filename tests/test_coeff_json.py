"""The coefficient JSON writer against json.dumps of plain Python rows."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import twcalc as tw
from twcalc import hermite
from twcalc.cli import main
from twcalc.hermite import _coeff_rows_json
from twcalc.regularity import default_planted_rate


def coeff_rows(T):
    """Oracle: nonzero entries of T as (index..., re, im) rows of Python ints and floats, C order."""
    nz = np.nonzero(T)
    v = T[nz]
    return list(zip(*(i.tolist() for i in nz), v.real.tolist(), v.imag.tolist()))


def rows_text(T):
    return "".join(_coeff_rows_json(T))


# magnitudes at the edges of float repr: subnormal, smallest normal, largest,
# the switch to exponent form at 1e16 and below 1e-4, and integral floats
_EDGE = [0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 1e16, 1e-5, 1e-4,
         1.0, 2.0, 1e15, 9007199254740993.0, 0.1, 1.0 / 3.0]
_MAGNITUDE = st.one_of(st.sampled_from(_EDGE),
                       st.integers(0, 2 ** 60).map(float),
                       st.floats(min_value=0.0, allow_nan=False, allow_infinity=False))


def _signed(pool):
    return st.builds(lambda m, neg: -m if neg else m, st.sampled_from(pool), st.booleans())


@settings(max_examples=150, deadline=None)
@given(data=st.data(), d=st.sampled_from([1, 2]), n_max=st.integers(0, 5), rank=st.sampled_from([1, 2]))
def test_writer_equals_json_dumps_of_rows(data, d, n_max, rank):
    # a small pool, so magnitudes repeat within and across entries with both signs
    pool = data.draw(st.lists(_MAGNITUDE, min_size=1, max_size=4))
    part = _signed(pool)
    T = data.draw(hnp.arrays(complex, (n_max + 1,) * (rank * d), elements=st.builds(complex, part, part),
                             fill=st.sampled_from([0j, complex(-0.0, 0.0)])))
    assert rows_text(T) == json.dumps(coeff_rows(T))


def test_writer_across_row_blocks(rng, monkeypatch):
    # blocks of 7 rows, so the joins between blocks and the cut after the last row are exercised
    monkeypatch.setattr(hermite, "_ROW_BLOCK", 7)
    T = rng.normal(size=(4, 4, 4, 4)) + 1j * rng.normal(size=(4, 4, 4, 4))
    T[rng.random(T.shape) < 0.4] = 0.0
    T.imag[rng.random(T.shape) < 0.3] = -0.0
    for size in (7, 14, 15, 200):
        U = T.ravel()[:size]
        assert rows_text(U) == json.dumps(coeff_rows(U))


def test_all_zero_matrix_writes_empty_entries():
    text = tw.wong_to_json(tw.WongCoeffMatrix(2, 1, np.zeros((4, 4))))
    assert text == '{"d": 2, "entries": [], "n_max": 1}'
    assert tw.coeff_vector_to_json(tw.HermiteCoeffVector(1, 2, np.zeros(3))) == \
        '{"d": 1, "n_max": 2, "coeffs": []}'


def test_meta_with_entries_and_quotes_matches_json_dumps():
    C = tw.WongCoeffMatrix(1, 2, np.diag([1.5, -0.0, 2e-7j]))
    meta = {"config": {"note": 'a "entries": [[0, 0, 1.0, 0.0]] string', "inputs": ['x"y.json']},
            "entries_note": "\"entries\"", "version": "0\"1"}
    obj = {"d": 1, "n_max": 2, "entries": coeff_rows(C.entries.reshape(3, 3)), **meta}
    assert tw.wong_to_json(C, meta) == json.dumps(obj, sort_keys=True)


def test_gram_element_d2_matches_oracle():
    C, _ = tw.random_positive_element(3, 0.5, default_planted_rate(0.5, 12, 40), 7, d=2, n_max=12)
    meta = {"config": {"seed": 7}, "version": tw.__version__}
    obj = {"d": 2, "n_max": 12, "entries": coeff_rows(C.entries.reshape((13,) * 4)), **meta}
    assert tw.wong_to_json(C, meta) == json.dumps(obj, sort_keys=True)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_writers_refuse_non_finite_entries(bad):
    C = tw.WongCoeffMatrix(1, 2, np.eye(3))
    C.entries[1, 2] = bad
    with pytest.raises(ValueError, match="finite"):
        tw.wong_to_json(C)
    f = tw.HermiteCoeffVector(2, 1, np.ones((2, 2)))
    f.coeffs[0, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        tw.coeff_vector_to_json(f)


def test_gen_exits_2_on_non_finite_element(tmp_path, monkeypatch, capsys):
    def broken(*args):
        C = tw.WongCoeffMatrix(1, 2, np.eye(3))
        C.entries[0, 0] = np.nan
        return C, np.eye(3)

    monkeypatch.setattr("twcalc.cli.random_positive_element", broken)
    out = tmp_path / "C.json"
    assert main(["gen", "--n-max", "2", "--out", str(out)]) == 2
    assert "finite" in capsys.readouterr().err
    assert not out.exists()
