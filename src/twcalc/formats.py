"""The package's file formats: coefficient JSON, for HermiteCoeffVector ("coeffs") and
Wong matrices ("entries", behind algebra.read_wong/write_wong and wong_from_json/wong_to_json),
and binary TWCG grids.  Every output is written by write_files, and every coefficient JSON
text is read by _coeff_tensor, in windows and never whole.
"""

from __future__ import annotations

import errno
import itertools
import json
import os
import re
import stat
import struct
from collections.abc import Iterable, Iterator

import numpy as np

from .hermite import HermiteCoeffVector
from .phase_space import GridFunction

MAGIC = b"TWCG"

# bytes of the longest repr of a finite double's magnitude: 2.2250738585072014e-308
_MAGNITUDE_WIDTH = 23
_ROW_BLOCK = 16384                 # rows per byte buffer and magnitudes per repr batch
_ROWS = object()                   # marks where _json_object splices the rows text


def _coeff_rows_json(T: np.ndarray) -> Iterator[str]:
    """Pieces of the JSON text of the nonzero entries of T as [index..., re, im] rows.

    Rows run in C order.  Joined, the pieces are byte for byte json.dumps of
    the rows with Python int indices and float parts.  float.__repr__ runs
    once per distinct magnitude; a sign is a "-" byte in front of it, since
    repr(-x) == "-" + repr(x) for every finite double.  Each row is a
    fixed-width byte record whose NUL padding is dropped.  Zero entries are
    omitted.  The checks and the magnitude table run at the call, so a
    non-finite entry raises ValueError before a piece is taken; the rows are
    then formatted one block of _ROW_BLOCK as each piece is taken.  What the
    blocks share are the flat indices, sign bits and magnitude numbers of the
    nonzero entries, each in the narrowest type that holds it, and the table.
    """
    entries = T.reshape(-1)
    flat = np.flatnonzero(entries)
    parts = entries[flat].astype(complex, copy=False).view(np.float64).reshape(-1, 2)    # [re, im]
    if not np.isfinite(parts).all():
        raise ValueError("coefficients must be finite to be written as JSON")
    if flat.size == 0:
        return iter(["[]"])
    flat = flat.astype(np.min_scalar_type(entries.size - 1))
    negative = np.signbit(parts)
    # distinct magnitudes by one sort of their bit patterns, which order as the magnitudes do
    keys = np.abs(parts, out=parts).reshape(-1).view(np.uint64)
    del parts
    order = np.argsort(keys)
    keys = keys[order]
    first = np.empty(keys.size, dtype=bool)
    first[0] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    mags = keys[first].view(np.float64)
    del keys
    ids = np.cumsum(first, dtype=np.min_scalar_type(mags.size))
    ids -= 1
    inverse = np.empty_like(ids)
    inverse[order] = ids
    inverse = inverse.reshape(-1, 2)
    del first, order, ids
    table = np.empty(mags.size, dtype=f"S{_MAGNITUDE_WIDTH}")
    for start in range(0, mags.size, _ROW_BLOCK):
        table[start:start + _ROW_BLOCK] = list(map(float.__repr__, mags[start:start + _ROW_BLOCK].tolist()))
    del mags
    table = table.view(np.uint8).reshape(-1, _MAGNITUDE_WIDTH)
    shape = T.shape
    top = max(shape) - 1
    tokens = np.array([f"{i}, " for i in range(top + 1)], dtype=f"S{len(str(top)) + 2}")
    tokens = tokens.view(np.uint8).reshape(top + 1, -1)
    # "[" index tokens, then sign byte, magnitude and separator for re and im
    width = 1 + len(shape) * tokens.shape[1] + 2 * (1 + _MAGNITUDE_WIDTH) + len(", ") + len("], ")
    block = _ROW_BLOCK

    def pieces():
        yield "["
        for start in range(0, flat.size, block):
            at = slice(start, start + block)
            buf = np.zeros((min(block, flat.size - start), width), dtype=np.uint8)
            buf[:, 0] = ord("[")
            col = 1
            for axis in np.unravel_index(flat[at], shape):
                buf[:, col:col + tokens.shape[1]] = np.take(tokens, axis, axis=0)
                col += tokens.shape[1]
            for part, sep in ((0, b", "), (1, b"], ")):
                buf[:, col] = negative[at, part] * ord("-")
                buf[:, col + 1:col + 1 + _MAGNITUDE_WIDTH] = np.take(table, inverse[at, part], axis=0)
                col += 1 + _MAGNITUDE_WIDTH
                buf[:, col:col + len(sep)] = np.frombuffer(sep, np.uint8)
                col += len(sep)
            rows = buf[buf != 0].tobytes().decode("ascii")     # NUL padding dropped
            del buf
            yield rows if start + block < flat.size else rows[:-2]
        yield "]"

    return pieces()


_TEXT_BLOCK = 1 << 18              # characters per read of a coefficient file and per json.loads of rows
_DECODER = json.JSONDecoder()
_WS = json.decoder.WHITESPACE      # the pattern json.decoder skips whitespace with
_LAST_ROW_END = re.compile(r"\][ \t\n\r]*\]")
_ROW_GAP = re.compile(r"\][ \t\n\r]*,[ \t\n\r]*\[")


class _Chars:
    """read(size) and seek(0) over a str, without the 4 bytes a character io.StringIO takes."""

    def __init__(self, text: str):
        self.text, self.pos = text, 0

    def read(self, size: int = -1) -> str:
        start = self.pos
        self.pos = len(self.text) if size < 0 else min(start + size, len(self.text))
        return self.text[start:self.pos]

    def seek(self, pos: int):
        self.pos = pos


class _Window:
    """A text file read in windows: buf[at:] is read and not yet consumed, and buf starts at character start."""

    def __init__(self, read):
        self.read, self.buf, self.at, self.start = read, "", 0, 0

    def more(self) -> bool:
        """Drop the consumed text and read on; False, changing nothing, at the end of the file.

        A read takes _TEXT_BLOCK characters or as many as are unconsumed, if
        more, so a match retried on each new window costs linear time.
        """
        piece = self.read(max(_TEXT_BLOCK, len(self.buf) - self.at))
        if not piece:
            return False
        self.start += self.at
        self.buf = self.buf[self.at:] + piece
        self.at = 0
        return True

    def error(self, what: str, at: int | None = None) -> ValueError:
        return ValueError(f"coefficient JSON at character {self.start + (self.at if at is None else at)}: {what}")

    def take(self, match):
        """The value of match(buf, at) -> (value, end), and at moves to end; no value is cut by a window.

        A match that ends within 2 characters of the window's end may be a
        number cut short ("3.25e" of "3.25e-07"), and json fails on a value the
        window cuts in an unterminated string or within the longest literal,
        "-Infinity", of the end.  Both are retried on more text.
        """
        while True:
            try:
                value, end = match(self.buf, self.at)
            except json.JSONDecodeError as exc:
                if (len(self.buf) - exc.pos < len("-Infinity") or exc.msg.startswith("Unterminated string")) \
                        and self.more():
                    continue
                raise self.error(exc.msg, exc.pos) from None
            if end < len(self.buf) - 2 or not self.more():
                self.at = end
                return value

    def space(self):
        self.take(lambda buf, at: (None, _WS.match(buf, at).end()))

    def step(self, char: str) -> bool:
        """Step past char and the whitespace after it; False, not moving, if char is not next."""
        if not self.buf.startswith(char, self.at):
            return False
        self.at += 1
        self.space()
        return True

    def expect(self, char: str):
        if not self.step(char):
            raise self.error(f"expected {char!r}")


def _row_texts(text: _Window) -> Iterator[str]:
    """Texts "[row, ...]" of the rows array at text.at, cut at row gaps after _TEXT_BLOCK characters.

    Nothing is parsed here; ValueError unless the array is empty or starts
    with a row, or if the file ends inside it.  A cut is right if every
    block parses as numbers only: a block that starts at a row's "[" outside
    any string and holds no string ends outside one, so by induction the
    blocks join to the array json reads.
    """
    text.step("[")
    if text.step("]"):
        return
    if not text.buf.startswith("[", text.at):
        raise text.error("expected a row")
    while True:
        if len(text.buf) - text.at < 2 * _TEXT_BLOCK and text.more():
            continue
        buf, at = text.buf, text.at
        gap = _ROW_GAP.search(buf, at + _TEXT_BLOCK)
        last = _LAST_ROW_END.search(buf, at, gap.start() + 1 if gap else len(buf))
        if last:                    # the rows end before the gap
            text.at = last.end()
            yield "[" + buf[at:last.start() + 1] + "]"
            return
        if gap:
            text.at = gap.end() - 1
            yield "[" + buf[at:gap.start() + 1] + "]"
        elif not text.more():
            raise text.error("the file ends inside the rows", len(buf))


def _walk_object(read, key: str, rows) -> dict:
    """The top-level JSON object of the text read(size) reads, key's array as rows(_row_texts(...)).

    Keys are read with scanstring and other values with raw_decode, so text
    json.loads refuses raises ValueError.  A duplicate key keeps its last
    value, as in json, but key itself twice is refused.
    """
    text, obj = _Window(read), {}
    text.space()
    text.expect("{")
    while True:
        if not text.buf.startswith('"', text.at):
            raise text.error("expected a key")
        name = text.take(lambda buf, at: json.decoder.scanstring(buf, at + 1))
        if name == key and key in obj:
            raise text.error(f"{key} given twice")
        text.space()
        text.expect(":")
        if name == key and text.buf.startswith("[", text.at):
            obj[name] = rows(_row_texts(text))
        else:
            obj[name] = text.take(_DECODER.raw_decode)
        text.space()
        if text.step("}"):
            if text.at < len(text.buf):
                raise text.error("extra text after the object")
            return obj
        text.expect(",")


def _scatter(T: np.ndarray, key: str, blocks: Iterable[str]):
    """Parse each block of "[row, ...]" text and scatter its [index..., re, im] rows into T.

    ValueError at the first block that is not rows of T.ndim + 2 numbers,
    none a bool, and at the first row with an index that is not an integer
    in 0..n_max, named by its place in the file.  An int beyond int64, which
    numpy would hold as uint64 or an object, is float() of its text: only a
    block with one is parsed again.
    """
    k, n_max, first = T.ndim, T.shape[0] - 1, 0
    pairs = T.reshape(-1).view(np.float64).reshape(-1, 2)     # [re, im] of each entry, a view of T
    for text in blocks:
        try:
            rows = json.loads(text)
            arr = np.array(rows)
            if arr.dtype.kind in "uO":
                arr = np.array(json.loads(text, parse_int=lambda s: int(s) if -2**63 <= int(s) < 2**63 else float(s)))
            # numpy casts a bool among numbers to 0/1; the per-value scan runs only if the JSON text has one
            if arr.ndim != 2 or arr.shape[1] != k + 2 or arr.dtype.kind not in "if" or \
                    ("true" in text or "false" in text) and any(type(v) is bool for row in rows for v in row):
                raise ValueError
        except ValueError:
            raise ValueError(f"{key} must be a list of rows of {k + 2} numbers") from None
        index = arr[:, :k]
        ok = np.all((index >= 0) & (index <= n_max) & (index == np.floor(index)), axis=1)
        if not ok.all():
            i = int(np.argmin(ok))
            raise ValueError(f"{key}[{first + i}] = {arr[i].tolist()} has an index that is not an integer "
                             f"in 0..{n_max}")
        pairs[np.ravel_multi_index(tuple(index.astype(np.intp).T), T.shape)] = arr[:, k:]   # signed zeros too
        first += len(arr)


def _header(obj, key: str) -> tuple[int, int]:
    """(d, n_max) of a parsed coefficient object; ValueError unless both are in range and key holds a list."""
    try:
        d, n_max, rows = obj["d"], obj["n_max"], obj[key]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"coefficient JSON needs integers d, n_max and a list {key}: {exc!r}") from None
    if type(d) is not int or type(n_max) is not int or d not in (1, 2) or n_max < 0 or type(rows) is not list:
        raise ValueError(f"coefficient JSON has d={d!r}, n_max={n_max!r} and a {type(rows).__name__} "
                         f"{key}; need integers d in {{1, 2}}, n_max >= 0 and a list")
    return d, n_max


def _coeff_tensor(fh, key: str, rank: int) -> tuple[int, int, np.ndarray]:
    """Parse {"d", "n_max", key: rows} from the text file fh into (d, n_max, T).

    T has shape (n_max + 1,) * (rank * d) and rows are [index..., re, im].
    d in {1, 2} and n_max >= 0 must be JSON integers, every row rank * d + 2
    numbers and every index an integer in 0..n_max; anything else raises
    ValueError, as does key twice.  json is the only tokenizer: an int beyond
    int64 is float() of its text (10**400 is inf), NaN and Infinity are read.
    fh is read twice in windows of a few _TEXT_BLOCK characters, never whole.
    The first pass walks the object for d and n_max, stepping over the rows
    unparsed; T is allocated, and the second pass parses each block of rows
    and scatters it into T, so the peak is T and a few blocks.  Text json
    refuses outside the rows, and a file cut inside them, are refused before
    T exists, other faults in the rows at their block.  The first pass's
    header is right once every block parsed as numbers, since a string in
    the rows could have misled its cuts.
    """
    d, n_max = _header(_walk_object(fh.read, key, lambda blocks: list(map(len, blocks))), key)
    T = np.zeros((n_max + 1,) * (rank * d), dtype=complex)
    fh.seek(0)
    _walk_object(fh.read, key, lambda blocks: _scatter(T, key, blocks))
    return d, n_max, T


def _json_object(obj: dict, rows: Iterable[str], sort_keys: bool = False) -> Iterator[str]:
    """Pieces of json.dumps(obj, sort_keys=sort_keys), the value _ROWS written as the rows pieces."""
    yield "{"
    for i, (key, value) in enumerate(sorted(obj.items()) if sort_keys else obj.items()):
        if i:
            yield ", "
        if value is _ROWS:
            yield json.dumps(key) + ": "
            yield from rows
        else:
            yield json.dumps({key: value}, sort_keys=sort_keys)[1:-1]
    yield "}"


def coeff_vector_to_json(f: HermiteCoeffVector) -> str:
    """JSON form {"d", "n_max", "coeffs": [[index..., re, im], ...]}, zeros omitted."""
    return "".join(_json_object({"d": f.d, "n_max": f.n_max, "coeffs": _ROWS}, _coeff_rows_json(f.coeffs)))


def coeff_vector_from_json(text: str) -> HermiteCoeffVector:
    """Parse the coeff_vector_to_json form; malformed input raises ValueError."""
    return HermiteCoeffVector(*_coeff_tensor(_Chars(text), "coeffs", 1))


def matrix_json(d: int, n_max: int, entries: np.ndarray, meta: dict | None = None) -> Iterator[str]:
    """Pieces of the JSON form {"d", "n_max", "entries": [[a1..., a2..., re, im], ...], **meta}.

    Zeros are omitted and keys sorted.  The entries are checked at the call;
    the rows text is formatted a block at a time as the pieces are taken.
    """
    rows = _coeff_rows_json(entries.reshape((n_max + 1,) * (2 * d)))
    return _json_object({"d": d, "n_max": n_max, "entries": _ROWS, **(meta or {})}, rows, sort_keys=True)


def _matrix(fh) -> tuple[int, int, np.ndarray]:
    d, n_max, T = _coeff_tensor(fh, "entries", 2)
    return d, n_max, T.reshape(((n_max + 1) ** d,) * 2)


def matrix_from_json(text: str) -> tuple[int, int, np.ndarray]:
    """(d, n_max, entries) of the matrix_json text; malformed input raises ValueError."""
    return _matrix(_Chars(text))


def read_matrix(path) -> tuple[int, int, np.ndarray]:
    """(d, n_max, entries) of the matrix_json file at path, read twice in windows, never whole.

    A file that cannot seek (a pipe) is read whole first, since the reader
    goes back to its start for the second pass.
    """
    with open(path) as fh:
        return _matrix(fh if fh.seekable() else _Chars(fh.read()))


def write_matrix(path, d: int, n_max: int, entries: np.ndarray, meta: dict | None = None, others=()):
    """Write the matrix_json pieces and a newline to path, and others' (path, pieces), by write_files."""
    write_files([(path, itertools.chain(matrix_json(d, n_max, entries, meta), ["\n"])), *others])


def write_grid(path, f: GridFunction):
    """Binary layout: magic, dims u32, L f64, points u32, then complex64 row-major.

    Values beyond the complex64 range raise ValueError before the file is
    opened; a failed write leaves the path as it was (see write_files).
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
    """Write each (path, pieces), taking the pieces one by one; if one fails, every path stays as it was.

    A path that is a regular file, or is not there yet, is written under a
    temporary name in the directory of the file it resolves to, and every
    temporary is renamed over its path once all writes succeeded; a replaced
    file keeps its mode.  Other paths (a pipe, a terminal) are written in
    place.  A failed open or write removes the temporaries.
    """
    renames = []
    try:
        for path, pieces in files:
            try:
                old = os.stat(path)
            except FileNotFoundError:
                old = None
            if old and not stat.S_ISREG(old.st_mode):
                with open(path, mode) as fh:
                    fh.writelines(pieces)
                continue
            if old and not os.access(path, os.W_OK):      # as open(path, "w") would refuse it
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)
            target = os.path.realpath(path)
            temp = os.path.join(os.path.dirname(target), f".twcalc-{os.urandom(8).hex()}.tmp")
            fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)   # the mode open() gives
            renames.append((temp, target))
            if old:
                os.chmod(temp, stat.S_IMODE(old.st_mode))
            with open(fd, mode) as fh:
                fh.writelines(pieces)
        for temp, target in renames:
            os.replace(temp, target)
    except BaseException:
        for temp, _ in renames:
            if os.path.lexists(temp):
                os.remove(temp)
        raise
