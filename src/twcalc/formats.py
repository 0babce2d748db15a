"""The package's file formats: coefficient JSON, for HermiteCoeffVector ("coeffs") and
Wong matrices ("entries", behind algebra.wong_to_json/wong_from_json), and binary TWCG grids.
"""

from __future__ import annotations

import contextlib
import json
import os
import re
import struct

import numpy as np

from .hermite import HermiteCoeffVector
from .phase_space import GridFunction

MAGIC = b"TWCG"

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


def matrix_to_json(d: int, n_max: int, entries: np.ndarray, meta: dict | None = None) -> str:
    """JSON form {"d", "n_max", "entries": [[a1..., a2..., re, im], ...], **meta}, zeros omitted."""
    rows = _coeff_rows_json(entries.reshape((n_max + 1,) * (2 * d)))
    return _json_object({"d": d, "n_max": n_max, "entries": _ROWS, **(meta or {})}, rows, sort_keys=True)


def matrix_from_json(text: str) -> tuple[int, int, np.ndarray]:
    """(d, n_max, entries) of the matrix_to_json form; malformed input raises ValueError."""
    d, n_max, T = _coeff_tensor(text, "entries", 2)
    return d, n_max, T.reshape(((n_max + 1) ** d,) * 2)


def write_grid(path, f: GridFunction):
    """Binary layout: magic, dims u32, L f64, points u32, then complex64 row-major.

    Values beyond the complex64 range raise ValueError before the file is
    opened; a failed write removes the file it created.
    """
    header = MAGIC + struct.pack("<IdI", f.dims, f.box_half_width, f.points_per_axis)
    with np.errstate(over="ignore"):
        values = np.ascontiguousarray(f.values.astype(np.complex64))
    if not np.isfinite(values).all():
        raise ValueError("grid values overflow complex64")
    write_files([(path, [header, values.tobytes()])], "wb")


def read_grid(path) -> GridFunction:
    """Read the write_grid layout; a bad magic, short header or wrong payload size raises ValueError."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != MAGIC:
            raise ValueError(f"not a grid file: bad magic {magic!r}")
        header = fh.read(16)
        if len(header) != 16:
            raise ValueError(f"grid header has {len(header)} of 16 bytes")
        dims, L, n = struct.unpack("<IdI", header)
        payload = fh.read()
    # n >= 2 gives n^dims >= 2^dims, so a dims past the payload's bit length cannot match it
    if dims > len(payload).bit_length() or len(payload) != 8 * n ** dims:
        raise ValueError(f"grid payload has {len(payload)} bytes, not 8 per point of a ({n},)*{dims} grid")
    values = np.frombuffer(payload, dtype=np.complex64).reshape((n,) * dims).astype(complex)
    return GridFunction(dims, L, n, values)


def write_files(files, mode: str = "w"):
    """Write each (path, pieces); if one fails, remove the files this call created.

    Every path is opened, without truncating, before any is truncated, so a
    path that cannot be opened leaves every existing file as it was.
    """
    created = []
    try:
        with contextlib.ExitStack() as stack:
            opened = []
            for path, pieces in files:
                new = not os.path.lexists(path)
                opened.append((path, stack.enter_context(open(path, mode.replace("w", "a"))), pieces))
                if new:
                    created.append(path)
            for path, fh, pieces in opened:
                if os.path.getsize(path):       # a pipe or terminal reads 0 and cannot be truncated
                    os.truncate(path, 0)
                fh.writelines(pieces)
    except BaseException:
        for path in created:
            os.remove(path)
        raise
