"""Output checker for the CLI files, run as its own process.

It reads one JSON request per line on stdin and answers with one JSON line
``{"errors": [...]}``.  It uses numpy alone, never twcalc, so the checks do
not share code with what they check, and its memory stays out of the peak
RSS of the timed process.

Requests:
  {"op": "gram", "path": P}                       parses, Hermitian, PSD
  {"op": "compose", "src": P, "out": Q}           Q equals P @ P
  {"op": "report", "path": R, "code": c}         verify report of a Gram element
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np

HERMITIAN_TOL = 1e-12
PSD_TOL = 1e-10
COMPOSE_TOL = 1e-12


def read_coeff(path: str) -> np.ndarray:
    with open(path) as fh:
        obj = json.load(fh)
    d, n_max = int(obj["d"]), int(obj["n_max"])
    side = (n_max + 1) ** d
    C = np.zeros((side, side), dtype=complex)
    rows = np.asarray(obj["entries"], dtype=float).reshape(-1, 2 * d + 2)
    if rows.size:
        idx = rows[:, :2 * d].astype(np.int64)
        if idx.min() < 0 or idx.max() > n_max:
            raise ValueError(f"{path}: index outside 0..{n_max}")
        shape = (n_max + 1,) * d
        i = np.ravel_multi_index(idx[:, :d].T, shape)
        j = np.ravel_multi_index(idx[:, d:].T, shape)
        C[i, j] = rows[:, 2 * d] + 1j * rows[:, 2 * d + 1]
    return C


def check_gram(path: str) -> list[str]:
    C = read_coeff(path)
    if not np.all(np.isfinite(C)):
        return [f"{path}: non-finite entries"]
    errors = []
    if np.linalg.norm(C - C.conj().T) > HERMITIAN_TOL * np.linalg.norm(C):
        errors.append(f"{path}: not Hermitian")
    w = np.linalg.eigvalsh(0.5 * (C + C.conj().T))
    if w.size and w[0] < -PSD_TOL * np.max(np.abs(w)):
        errors.append(f"{path}: eigenvalue {w[0]:.3e} below -{PSD_TOL:g} |C|")
    return errors


def check_compose(src: str, out: str) -> list[str]:
    A = read_coeff(src)
    want = A @ A
    got = read_coeff(out)
    gap = np.linalg.norm(got - want) / max(np.linalg.norm(want), np.finfo(float).tiny)
    return [] if gap <= COMPOSE_TOL else [f"{out}: compose relative error {gap:.3e}"]


def check_report(path: str, code: int) -> list[str]:
    with open(path) as fh:
        report = json.load(fh)
    errors = []
    if code not in (0, 1) or report.get("pass") is not (code == 0):
        errors.append(f"{path}: exit code {code} disagrees with pass={report.get('pass')}")
    if report.get("positive") is not True:
        errors.append(f"{path}: a Gram element reported positive={report.get('positive')}")
    growth = os.path.splitext(path)[0] + "_growth.csv"
    if "fitted_s_growth" in report:
        with open(growth) as fh:
            rows = [line.split(",") for line in fh if not line.startswith(("#", "N,"))]
        if len(rows) != report["N_max"] + 1 or any(int(r[0]) != i for i, r in enumerate(rows)):
            errors.append(f"{growth}: expected N = 0..{report['N_max']}")
        elif np.isnan(np.array([r[1] for r in rows], dtype=float)).any():
            errors.append(f"{growth}: NaN in log g_N of a positive element")
    return errors


def answer(req: dict) -> list[str]:
    try:
        if req["op"] == "gram":
            return check_gram(req["path"])
        if req["op"] == "compose":
            return check_compose(req["src"], req["out"])
        if req["op"] == "report":
            return check_report(req["path"], req["code"])
        return [f"unknown op {req['op']!r}"]
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"{req.get('op')}: {type(exc).__name__}: {exc}"]


def main() -> int:
    for line in sys.stdin:
        sys.stdout.write(json.dumps({"errors": answer(json.loads(line))}) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
