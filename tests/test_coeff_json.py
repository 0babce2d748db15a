"""The coefficient JSON writer against json.dumps of plain Python rows."""

import io
import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import twcalc as tw
from twcalc import cli, formats
from twcalc.cli import main
from twcalc.formats import _coeff_rows_json
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
    monkeypatch.setattr(formats, "_ROW_BLOCK", 7)
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
    with pytest.raises(ValueError, match="finite"):
        formats.matrix_json(1, 2, C.entries)        # at the call, before a piece reaches a pipe
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


# --- the reader: rows parsed by json in blocks, against the whole-list reader by its contract ---

def _coeff_tensor_whole(text, key, rank):
    """Oracle: the reader that parses the whole text with one json.loads, verbatim."""
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


def _block_reader(text, key, rank):
    """The reader on a str, as wong_from_json runs it."""
    return formats._coeff_tensor(formats._Chars(text), key, rank)


def _file_reader(text, key, rank):
    """The reader on a text file object, as read_wong runs it."""
    return formats._coeff_tensor(io.StringIO(text), key, rank)


def _outcome(reader, text, key, rank):
    try:
        d, n_max, T = reader(text, key, rank)
    except ValueError as exc:
        return str(exc)
    return d, n_max, T.shape, T.tobytes()


_INT_BEYOND_INT64 = re.compile(r"(?<![\w.+-])-?\d{19,}(?![\w.])")


def _floated(text):
    """text with each int literal beyond int64 written as the float of its text, as JSON writes it."""
    return _INT_BEYOND_INT64.sub(lambda m: m[0] if -2 ** 63 <= int(m[0]) < 2 ** 63 else json.dumps(float(m[0])),
                                 text)


def _top_keys(text):
    """The keys of the JSON object text, in order, repeats included."""
    objects = []
    json.loads(text, object_pairs_hook=lambda pairs: objects.append(pairs) or dict(pairs))
    return [name for name, _ in objects[-1]]        # the top-level object closes last


def _contract(text, key, rank):
    """The reader's outcome by its contract, None for a refusal (any message).

    The oracle's outcome, with two changes: an int literal that numpy would hold as uint64
    or an object reads as float() of its text, so a text the oracle refuses for one gets
    the oracle's outcome on _floated(text); and a text with key twice is refused.
    """
    expected = _outcome(_coeff_tensor_whole, text, key, rank)
    if isinstance(expected, str):
        expected = _outcome(_coeff_tensor_whole, _floated(text), key, rank)
    if isinstance(expected, str) or _top_keys(text).count(key) > 1:
        return None
    return expected


def _accepted(outcome):
    return None if isinstance(outcome, str) else outcome


_KEY = {1: "coeffs", 2: "entries"}
_PART_TOKENS = ["0", "-0", "0.0", "-0.0", "1E2", "2", "-7", "0.1", "-2.5e-3", "1e308", "5e-324",
                str(10 ** 20), str(10 ** 400), "1e400", "NaN", "Infinity", "-Infinity"]
_INDEX_TOKENS = ["-0", "1E0", "2.0", "1.5", "-1", "4", "NaN", str(10 ** 20), "true"]
_ODD_ITEMS = ["true", "false", "null", '"x"', '"], ["', '"]]"', '"]\\n ,\\t["', "[1, 2]", "[]", '{"]]": 0}']
_ROW_GAPS = [", ", ",", "\n, ", ",\n ", " ,\t"]


def _rarely(common, rare):
    """common, or rare once in eight draws."""
    return st.integers(0, 7).flatmap(lambda i: rare if i == 7 else common)


@st.composite
def _token_rows(draw, k, n_max):
    """Rows text from JSON tokens json.dumps never writes, with now and then a bad item or width."""
    index = _rarely(st.integers(0, n_max).map(str), st.sampled_from(_INDEX_TOKENS))
    part = _rarely(st.sampled_from(_PART_TOKENS), st.sampled_from(_ODD_ITEMS))
    width = _rarely(st.just(k + 2), st.sampled_from([k + 1, k + 3]))
    rows = []
    for _ in range(draw(st.integers(0, 10))):
        items = [draw(index) for _ in range(k)] + [draw(part), draw(part)]
        items = (items + [draw(part)])[:draw(width)]
        rows.append("[" + draw(st.sampled_from([", ", ",", " ,\n  "])).join(items) + "]")
    ws = st.sampled_from(["", " ", "\n "])
    return "[" + draw(ws) + draw(st.sampled_from(_ROW_GAPS)).join(rows) + draw(ws) + "]"


@st.composite
def coeff_texts(draw):
    """(text, key, rank): writer output, re-dumped writer output, or JSON built from tokens."""
    rank, d, n_max = draw(st.sampled_from([1, 2])), draw(st.sampled_from([1, 2])), draw(st.integers(0, 3))
    key, k = _KEY[rank], rank * d
    part = _signed([0.0, 5e-324, 0.1, 1.0 / 3.0, 2.0, 1e16, 1.7976931348623157e308])
    T = draw(hnp.arrays(complex, (n_max + 1,) * k, elements=st.builds(complex, part, part), fill=st.just(0j)))
    if rank == 2:
        side = (n_max + 1) ** d
        # a top-level float a window can cut after "3.25e", and escapes (\u00e9, a surrogate pair) it can cut
        text = tw.wong_to_json(tw.WongCoeffMatrix(d, n_max, T.reshape(side, side)),
                               {"config": {"note": "]], [[1, 2]], [ \u00e9\U0001d11e", "n_max": 9}, "tol": 3.25e-07,
                                "version": "0"})
    else:
        text = tw.coeff_vector_to_json(tw.HermiteCoeffVector(d, n_max, T))
    source = draw(st.sampled_from(["writer", "dumps", "tokens"]))
    if source == "dumps":
        items = draw(st.permutations(list(json.loads(text).items())))
        layout = draw(st.sampled_from([{"indent": 1}, {"separators": (",", ":")},
                                       {"separators": (" ,", " : ")}, {"indent": "\t"}]))
        text = json.dumps(dict(items), **layout)
    elif source == "tokens":
        members = [("d", draw(_rarely(st.just(str(d)), st.sampled_from(["true", "3", "1.0", "-1"])))),
                   ("n_max", draw(_rarely(st.just(str(n_max)), st.sampled_from(["-1", "2.0", "null"])))),
                   (key, draw(_token_rows(k, n_max)))]
        other = draw(st.sampled_from(["", "valid", '[[0, 0, "x", 0]]', "[1, 2]", "{}", "null", '"]], ["']))
        if other:
            # a second rows key: refused, though json keeps the last value, whichever of the two is valid
            members.append((key, draw(_token_rows(k, n_max)) if other == "valid" else other))
        members += [("config", '{"note": "]], [[", "rows": [[0, 1]]}'),
                    ("tol", draw(st.sampled_from(["3.25e-07", "-Infinity"])))]
        members = draw(st.permutations(members))
        colon = draw(st.sampled_from([": ", ":", " :\n"]))
        text = "{" + draw(st.sampled_from([", ", ",", "\n,\t"])).join(
            json.dumps(name) + colon + value for name, value in members) + "}"
    prefix = draw(_rarely(st.sampled_from(["", " \n"]), st.just("\ufeff")))
    return prefix + text + draw(_rarely(st.sampled_from(["", "\n"]), st.sampled_from([" x", "]", "{}"]))), key, rank


@settings(max_examples=500, deadline=None)
@given(case=coeff_texts(), block=st.integers(16, 64))
# a bool after a block of numbers, an int beyond int64 in a block of ints, a block of ints that numpy holds as
# uint64 or as objects after a block with a float, the rows key twice (refused, the oracle reads the second),
# text json refuses in a later block, a bad index after int and float blocks and one before a float block,
# indices past 2048 in one-row blocks, a row of a string before later blocks, before a second valid value
# of the key, and before text after the object, and top-level numbers the first window cuts after "3.25e"
# and after "-Infinit"
@example(('{"d": 1, "n_max": 1, "entries": [[0, 0, 1.0, 0.0], [1, 1, true, 0]]}', "entries", 2), 16)
@example(('{"d": 1, "n_max": 1, "entries": [[0, 0, 1.5, 0.0], [1, 1, 100000000000000000000, 0]]}', "entries", 2), 16)
@example(('{"d": 1, "n_max": 1, "entries": [[0, 0, 1.5, 0.0], [0, 1, 2, 0], [1, 1, 100000000000000000000, 0]]}',
          "entries", 2), 16)
@example(('{"d": 1, "n_max": 1, "entries": [[0, 0, 1.5, 0.0], [0, 1, 2, 0], [10000000000000000000, '
          '10000000000000000000, 10000000000000000000, 10000000000000000000]]}', "entries", 2), 16)
@example(('{"d": 1, "n_max": 0, "entries": [[0, 0, 1.0, 0.0]], "entries": [[0, 0, "x", 0]]}', "entries", 2), 16)
@example(('{"d": 1, "n_max": 1, "entries": [[0, 0, 1.0, 0.0]], "entries": [[1, 1, 2.0, 0.0]]}', "entries", 2), 16)
@example(('{"d": 1, "n_max": 1, "entries": [[0, 0, 1.0, 0.0], [1, 1, tru, 0]]}', "entries", 2), 16)
@example(('{"d": 1, "n_max": 2, "entries": [[0, 0, 1, 0], [0, 1, 2.5, 0], [0, 9, 3, 0]]}', "entries", 2), 16)
@example(('{"d": 1, "n_max": 2, "entries": [[0, 9, 1, 0], [0, 1, 2, 0], [0, 0, 0.5, 0.0]]}', "entries", 2), 16)
@example(('{"d": 1, "n_max": 65535, "coeffs": [[2049, 1.5, 0.0], [2051, 2.5, -0.0], [65535, 3.5, 0.0]]}', "coeffs", 1),
         16)
@example(('{"d": 1, "n_max": 1, "entries": [[0, 0, "x", 0], [1, 1, 2.0, 0.0], [0, 1, 1, 2, 3]]}', "entries", 2), 16)
@example(('{"d": 1, "n_max": 0, "entries": [[0, 0, "x", 0]], "entries": [[0, 0, 1.0, 0.0]]}', "entries", 2), 16)
@example(('{"d": 1, "n_max": 1, "entries": [[0, 0, "x", 0], [1, 1, 2.0, 0.0]]} x', "entries", 2), 16)
@example(('{"d": 1, "n_max": 0, "tol": 3.25e-07, "entries": [[0, 0, 1.0, 0.0]]}', "entries", 2), 33)
@example(('{"d": 1, "n_max": 0, "tol": -Infinity, "entries": [[0, 0, 1.0, 0.0]]}', "entries", 2), 36)
def test_block_reader_equals_whole_list_reader(case, block):
    # windows and blocks of 16-64 characters, so the rows of one text span many of them and the
    # windows cut numbers, keys, escapes, whitespace, the BOM and the "]], [[" strings
    text, key, rank = case
    expected = _contract(text, key, rank)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(formats, "_TEXT_BLOCK", block)
        assert _accepted(_outcome(_block_reader, text, key, rank)) == expected
        assert _accepted(_outcome(_file_reader, text, key, rank)) == expected


@pytest.mark.parametrize("block", [16, 1000, None], ids=["16", "1000", "default"])
def test_gram_file_reads_in_blocks_as_the_whole_list_reader(monkeypatch, block):
    C, _ = tw.random_positive_element(3, 0.5, default_planted_rate(0.5, 6, 20), 3, d=2, n_max=6)
    text = tw.wong_to_json(C, {"config": {}, "version": tw.__version__})
    if block:
        monkeypatch.setattr(formats, "_TEXT_BLOCK", block)
    texts = formats._walk_object(formats._Chars(text).read, "entries", list)["entries"]
    blocks = [json.loads(t) for t in texts]
    sizes = [len(rows) for rows in blocks]
    assert sum(sizes) == np.count_nonzero(C.entries)
    # every block holds whole rows and, but for the last, at least _TEXT_BLOCK characters
    assert all(len(row) == 6 and all(type(v) in (int, float) for v in row) for rows in blocks for row in rows)
    assert all(len(t) >= formats._TEXT_BLOCK for t in texts[:-1])
    if block == 16:
        assert max(sizes) == 1          # each row is longer than 16 characters
    elif block == 1000:
        assert 1 < len(sizes) <= len(text) // 1000 + 1
    else:
        assert len(sizes) == 1
    assert _outcome(_block_reader, text, "entries", 2) == _outcome(_coeff_tensor_whole, text, "entries", 2)


def test_bad_index_is_named_by_its_row_in_the_file(monkeypatch):
    # blocks of one or two rows: the bad row's block holds ints only, the file's other rows floats;
    # the row is shown as its block parsed it, and named by its place in the file, as the oracle names it
    monkeypatch.setattr(formats, "_TEXT_BLOCK", 16)
    rows = [[0, 0, 0.5, 0.0]] * 20 + [[0, 9, 1, 0], [0, 1, 2, 0], [1, 0, 3, 0]]
    text = json.dumps({"d": 1, "n_max": 2, "entries": rows})
    assert _outcome(_block_reader, text, "entries", 2) == \
        "entries[20] = [0, 9, 1, 0] has an index that is not an integer in 0..2"
    assert _outcome(_coeff_tensor_whole, text, "entries", 2) == \
        "entries[20] = [0.0, 9.0, 1.0, 0.0] has an index that is not an integer in 0..2"


def _traced_peak(fn, *args):
    """Peak bytes traced while fn(*args) runs, above what was allocated before."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _dense_d2(n_max):
    """A d=2 matrix with every entry nonzero and nearly every magnitude distinct."""
    rng = np.random.default_rng(1)
    side = (n_max + 1) ** 2
    return tw.WongCoeffMatrix(2, n_max, rng.normal(size=(side, side)) + 1j * rng.normal(size=(side, side)))


def test_reader_peak_stays_below_twice_its_text(monkeypatch):
    # 362 kB of rows in blocks of 16 k characters; the whole-list reader peaks at 4.6 x the text
    monkeypatch.setattr(formats, "_TEXT_BLOCK", 1 << 14)
    text = tw.wong_to_json(_dense_d2(8))
    assert _traced_peak(tw.wong_from_json, text) < 2.0 * len(text)


@pytest.mark.parametrize("n_max", [12, 16])
def test_read_peak_is_the_matrix_and_a_few_blocks(tmp_path, monkeypatch, n_max):
    # 1.6 and 4.8 MB files read in blocks of 16 k characters peak about 20 blocks above the matrix,
    # whatever the file's size; a reader that keeps every row until it knows n_max grows with the file
    monkeypatch.setattr(formats, "_TEXT_BLOCK", 1 << 14)
    C = _dense_d2(n_max)
    path = tmp_path / "C.json"
    path.write_text(tw.wong_to_json(C))
    assert _traced_peak(tw.read_wong, path) <= C.entries.nbytes + 28 * formats._TEXT_BLOCK


def _row_x(text):
    end = text.rindex("]]")
    return text[:text.rindex(", ", 0, end)] + ', "x"' + text[end:]


@pytest.mark.parametrize("corrupt, message", [
    (_row_x, "entries must be a list of rows of 6 numbers"),
    (lambda text: text[:-200], "coefficient JSON at character {size}: the file ends inside the rows"),
    (lambda text: text.replace('"d": 2', '"d": tru'), "coefficient JSON at character 6: Expecting value"),
], ids=["row-x", "cut-200", "d-tru"])
def test_a_corrupt_file_is_refused_within_the_blocks(tmp_path, monkeypatch, capsys, corrupt, message):
    # a 1.6 MB file with the last row's imaginary part "x", its last 200 characters cut, or "d": tru:
    # json.loads of the whole text builds rows up to the fault, about 17 times the file, and a window
    # that grows on every json error holds the rest of the file; each is refused at the matrix and a few blocks
    monkeypatch.setattr(formats, "_TEXT_BLOCK", 1 << 14)
    C = _dense_d2(12)
    text = corrupt(tw.wong_to_json(C))
    path = tmp_path / "C.json"
    path.write_text(text)
    message = message.format(size=len(text))
    assert isinstance(_outcome(_coeff_tensor_whole, text, "entries", 2), str)

    def read():
        with pytest.raises(ValueError) as err:
            tw.read_wong(path)
        assert str(err.value) == message

    assert _traced_peak(read) <= C.entries.nbytes + 28 * formats._TEXT_BLOCK
    assert main(["verify", "--in", str(path), "--out", str(tmp_path / "r.json")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("big", [10 ** 19, 10 ** 20])
def test_an_int_beyond_int64_reads_as_the_float_of_its_text(big):
    # among small ints numpy holds 10**19 as a float and 10**20 as an object, which the oracle refuses
    text = '{"d": 1, "n_max": 1, "entries": [[0, 0, %s, 0], [1, 1, 2, -3]]}'
    assert _outcome(_block_reader, text % big, "entries", 2) == \
        _outcome(_block_reader, text % float(big), "entries", 2) == \
        _outcome(_coeff_tensor_whole, text % float(big), "entries", 2)


def test_an_int_past_the_float_range_is_refused_as_not_finite(tmp_path, capsys):
    path = tmp_path / "C.json"
    path.write_text('{"d": 1, "n_max": 1, "entries": [[0, 0, %d, 0]]}' % 10 ** 400)
    assert main(["verify", "--in", str(path), "--out", str(tmp_path / "r.json")]) == 2
    assert "entries must be finite" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_writer_peak_stays_below_three_times_its_text(monkeypatch):
    # 1.6 MB of rows in buffers of 2048 rows; with whole-matrix index and value copies it peaks at 3.7 x
    monkeypatch.setattr(formats, "_ROW_BLOCK", 2048)
    C = _dense_d2(12)
    size = len(tw.wong_to_json(C))
    assert _traced_peak(tw.wong_to_json, C) < 3.0 * size


class _Read(Exception):
    """Raised where a command has read its inputs, so the traced run stops there."""


@pytest.mark.parametrize("command, stage, inputs", [
    ("verify", "verify_matrix_report", 1),
    ("compose", "twisted_convolution_coeff", 2),
])
def test_cli_read_peak_stays_below_one_text_and_the_matrices(tmp_path, monkeypatch, command, stage, inputs):
    # 1.8 MB of rows read in windows of 16 k characters; a whole read holds the file's
    # bytes and its text at once, over twice the text
    C = _dense_d2(12)
    path = tmp_path / "C.json"
    path.write_text(tw.wong_to_json(C))
    monkeypatch.setattr(formats, "_TEXT_BLOCK", 1 << 14)
    peaks = []

    def read_done(*args, **kwargs):
        peaks.append(tracemalloc.get_traced_memory()[1])
        raise _Read

    monkeypatch.setattr(cli, stage, read_done)
    with pytest.raises(_Read):
        _traced_peak(main, [command, *["--in", str(path)] * inputs, "--out", str(tmp_path / "out.json")])
    # each input's matrix, and one copy of the text (ASCII: a byte a character)
    assert peaks[0] < path.stat().st_size + inputs * C.entries.nbytes


def test_gen_write_peak_stays_below_one_text_and_the_table(tmp_path, monkeypatch):
    # 1.8 MB of rows in buffers of 2048 rows; a writer that joins its text holds it twice
    C = _dense_d2(12)
    monkeypatch.setattr(cli, "random_positive_element", lambda *args: (C, []))
    monkeypatch.setattr(formats, "_ROW_BLOCK", 2048)
    out = tmp_path / "C.json"
    peak = _traced_peak(main, ["gen", "--d", "2", "--n-max", "12", "--out", str(out)])
    table = formats._MAGNITUDE_WIDTH * np.unique(np.abs(C.entries.view(float))).size
    assert peak < out.stat().st_size + table


@pytest.mark.parametrize("d, n_max", [(1, 12), (2, 4)])
def test_streamed_files_equal_the_joined_text(tmp_path, monkeypatch, d, n_max):
    # gen and compose write their pieces one by one; the file is the joined text and a newline,
    # with the row buffers cut anywhere
    src, out = tmp_path / "C.json", tmp_path / "CC.json"
    files = []
    for block in (None, 1, 7, 64):
        if block:
            monkeypatch.setattr(formats, "_ROW_BLOCK", block)
        assert main(["gen", "--d", str(d), "--n-max", str(n_max), "--out", str(src)]) == 0
        assert main(["compose", "--in", str(src), "--in", str(src), "--out", str(out)]) == 0
        files.append((src.read_text(), out.read_text()))
    text, composed = files[0]
    assert all(pair == files[0] for pair in files)
    assert text == json.dumps(json.loads(text), sort_keys=True) + "\n"
    C = tw.wong_from_json(text)
    meta = {k: v for k, v in json.loads(text).items() if k in ("config", "version")}
    assert text == tw.wong_to_json(C, meta) + "\n"
    meta["config"] = {"inputs": [str(src)] * 2}
    assert composed == tw.wong_to_json(tw.twisted_convolution_coeff(C, C), meta) + "\n"
