"""The four benchmark workloads: input generation, one job, and its checks.

Each workload is a closed loop run by one client: ``cases(name, seed)``
draws a short cycle of inputs from the seed, ``run_job`` runs one case and
returns its outputs, and ``check`` compares those outputs with tolerances
outside the timed region.  twcalc is reached only through module
attributes looked up at call time, so the tracer can wrap them.
"""

from __future__ import annotations

import contextlib
import io
import os
import warnings
import zlib
from dataclasses import dataclass, field

import numpy as np

from twcalc import algebra, cli, oscillators, phase_space

CYCLE = 6                          # distinct cases per run; later jobs repeat them
PLANTED_S = (0.3, 0.5, 1.0)
VERIFY_REPORTS = {"verify_in": "in.json", "verify_planted": "planted.json"}

# acceptance tolerances of the grid residuals
PRODUCT_GAP_TOL = 1e-5
EXPAND_GAP_TOL = 1e-5
FSIGMA_TOL = {1: 1e-6, 2: 2e-6}
ROUND_TRIP_TOL = {1: 1e-7, 2: 2e-6}
WIGNER_D2_TOL = 1e-12
# 4th-order differences at spacing 0.125 (d=1) and 0.229 (d=2); measured
# worst cases over the index ranges drawn here are 7.6e-3 and 8.3e-3
OSCILLATOR_TOL = 2e-2

# (box half width, points per axis, points for the oscillator grid)
GRID = {1: (8.0, 73, 129), 2: (5.5, 49, 49)}
COEFF_N_MAX = {1: 48, 2: 24}
# a d=2 job takes 5-8 s, too long to repeat in every set-up probe
WARMUP_GRID = {**GRID, 2: (5.5, 33, 33)}
WARMUP_N_MAX = {**COEFF_N_MAX, 2: 12}


def dim(workload: str) -> int:
    return int(workload[-1])


def cases(workload: str, seed: int) -> list[dict]:
    """The cycle of inputs for one run, a pure function of (workload, seed)."""
    rng = np.random.default_rng([seed, zlib.crc32(workload.encode())])
    d = dim(workload)
    out = []
    for i in range(CYCLE):
        if workload.startswith("coeff"):
            out.append({"s": PLANTED_S[i % 3], "k": int(rng.integers(0, 2 ** 31 - 1))})
        else:
            out.append(_grid_case(rng, d))
    return out


def warmup_case(workload: str) -> dict:
    """A case drawn apart from every run's cycle, on a smaller size at d=2."""
    rng = np.random.default_rng([2 ** 32 - 1, zlib.crc32(workload.encode())])
    if workload.startswith("coeff"):
        return {"s": 0.5, "k": int(rng.integers(0, 2 ** 31 - 1))}
    return _grid_case(rng, dim(workload))


def _grid_case(rng, d: int) -> dict:
    """Unit-norm rank-3 Gram Ca, a unit Cb, and one basis pair per oracle."""
    n_max = 6 if d == 1 else 2
    side = (n_max + 1) ** d
    V = rng.normal(size=(3, side)) + 1j * rng.normal(size=(3, side))
    Ca = V.T @ V.conj()
    Ca /= np.linalg.norm(Ca)
    Cb = np.zeros((side, side), dtype=complex)
    Cb[rng.integers(side), rng.integers(side)] = 1.0
    def pair():
        return tuple(tuple(int(v) for v in row) for row in rng.integers(0, n_max + 1, size=(2, d)))

    return {"d": d, "n_max": n_max, "Ca": Ca, "Cb": Cb, "osc_pair": pair(), "wigner_pair": pair()}


def hermite_functions(n_max: int, x: np.ndarray) -> np.ndarray:
    """h_0..h_n_max by the normalized three-term recurrence, kept apart from twcalc."""
    h = np.zeros((n_max + 1, x.size))
    h[0] = np.pi ** -0.25 * np.exp(-x * x / 2.0)
    if n_max >= 1:
        h[1] = np.sqrt(2.0) * x * h[0]
    for k in range(1, n_max):
        h[k + 1] = np.sqrt(2.0 / (k + 1)) * x * h[k] - np.sqrt(k / (k + 1.0)) * h[k - 1]
    return h


@dataclass
class Job:
    """Outputs of one job: files written, CLI exit codes and result arrays."""

    files: list[str] = field(default_factory=list)
    codes: dict[str, int] = field(default_factory=dict)
    arrays: dict[str, np.ndarray] = field(default_factory=dict)


def run_job(workload: str, case: dict, workdir: str, warmup: bool = False) -> Job:
    d = dim(workload)
    if workload.startswith("coeff"):
        n_max = (WARMUP_N_MAX if warmup else COEFF_N_MAX)[d]
        return _coeff_job(d, n_max, case, workdir)
    return _grid_job(case, *(WARMUP_GRID if warmup else GRID)[d])


def _cli(job: Job, step: str, argv: list[str]):
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            code = cli.main(argv)
        except SystemExit as exc:              # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
    job.codes[step] = code


def _coeff_job(d: int, n_max: int, case: dict, workdir: str) -> Job:
    """gen -> compose (d=1 only) -> verify --in -> verify --planted-s, in-process."""
    job = Job()
    path = {name: os.path.join(workdir, name) for name in ("C.json", "CC.json", "in.json", "planted.json")}
    size = ["--d", str(d), "--n-max", str(n_max)]
    planted = ["--planted-s", repr(case["s"]), "--seed", str(case["k"])]
    _cli(job, "gen", ["gen", *size, "--rank", "3", *planted, "--out", path["C.json"]])
    job.files.append(path["C.json"])
    if d == 1:
        _cli(job, "compose", ["compose", "--in", path["C.json"], "--in", path["C.json"],
                              "--out", path["CC.json"]])
        job.files.append(path["CC.json"])
    for step, argv in (("verify_in", ["--in", path["C.json"]]), ("verify_planted", [*size, *planted])):
        report = path[VERIFY_REPORTS[step]]
        _cli(job, step, ["verify", *argv, "--out", report])
        job.files += [report, os.path.splitext(report)[0] + "_growth.csv"]
    return job


def _grid_job(case: dict, L: float, n: int, n_osc: int) -> Job:
    """Grid oracles against the coefficient algebra for one drawn case."""
    job = Job()
    out = job.arrays
    d, n_max = case["d"], case["n_max"]
    strict = d == 1                     # d=2 boxes carry ~3e-7 boundary mass by design
    Ca = algebra.WongCoeffMatrix(d, n_max, case["Ca"])
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message=".*boundary mass.*")
        a = algebra.synthesize(Ca, L, n)
        out["a"] = a.values
        if d == 1:
            Cb = algebra.WongCoeffMatrix(d, n_max, case["Cb"])
            b = algebra.synthesize(Cb, L, n)
            prod = algebra.twisted_convolution_grid(a, b)
            Cab = algebra.twisted_convolution_coeff(Ca, Cb)
            out["product_grid"] = prod.values
            out["product_coeff"] = algebra.synthesize(Cab, L, n).values
            out["expand"] = algebra.expand(prod, n_max).entries
            out["expand_ref"] = Cab.entries
        else:
            out["expand"] = algebra.expand(a, n_max, strict=False, tail_threshold=1e-5).entries
            out["expand_ref"] = Ca.entries
        out["fsigma_grid"] = phase_space.symplectic_fourier(a, strict=strict).values
        out["fsigma_coeff"] = algebra.synthesize(algebra.fsigma_coeff(Ca), L, n).values
        K = phase_space.kernel_map_A_grid(a, strict=strict)
        out["kernel"] = K.values
        out["round_trip"] = phase_space.inverse_kernel_map_grid(K).values
        r = phase_space.hermite_wong_eval(case["osc_pair"], L, n_osc)
        out["osc_in"] = r.values
        out["osc_out"] = oscillators.apply_h_sigma_grid(r, strict=strict).values
        if d == 2:
            (f1, f2), (g1, g2) = case["wigner_pair"]
            h = hermite_functions(n_max, np.linspace(-L, L, n))
            f = phase_space.GridFunction(2, L, n, np.outer(h[f1], h[f2]) + 0j)
            g = phase_space.GridFunction(2, L, n, np.outer(h[g1], h[g2]) + 0j)
            out["wigner"] = phase_space.wigner(f, g, strict=False).values
            out["wigner_ref"] = phase_space.hermite_wong_eval(case["wigner_pair"], L, n).values
    return job


def _rel_max(x: np.ndarray, ref: np.ndarray, scale: np.ndarray) -> float:
    return float(np.max(np.abs(x - ref)) / np.max(np.abs(scale)))


def verdicts(job: Job) -> list[bool]:
    """PASS (exit 0) or not, per verify call on a planted Gram element."""
    return [job.codes[step] == 0 for step in VERIFY_REPORTS if step in job.codes]


def check(workload: str, case: dict, job: Job, ask) -> list[str]:
    """Misses of one job's outputs; ``ask(**request)`` queries check.py."""
    if workload.startswith("grid"):
        return _check_grid(case, job, dim(workload))
    errors = [f"{step} exited {code}" for step, code in job.codes.items()
              if code != 0 and not (step in VERIFY_REPORTS and code == 1)]
    if errors:
        return errors
    files = {os.path.basename(p): p for p in job.files}
    errors = ask(op="gram", path=files["C.json"])
    if "CC.json" in files:
        errors += ask(op="compose", src=files["C.json"], out=files["CC.json"])
    for step, report in VERIFY_REPORTS.items():
        errors += ask(op="report", path=files[report], code=job.codes[step])
    return errors


def _check_grid(case: dict, job: Job, d: int) -> list[str]:
    """Grid residuals against the acceptance tolerances."""
    L, n, _ = GRID[d]
    out = job.arrays
    res = {}
    if d == 1:
        cell = (2.0 * L / (n - 1)) ** 2
        gap = np.sqrt(np.sum(np.abs(out["product_grid"] - out["product_coeff"]) ** 2) * cell)
        res["product_gap"] = (float(gap), PRODUCT_GAP_TOL)
    res["expand_gap"] = (float(np.max(np.abs(out["expand"] - out["expand_ref"]))), EXPAND_GAP_TOL)
    res["fsigma_eigen_sign"] = (_rel_max(out["fsigma_grid"], out["fsigma_coeff"], out["a"]), FSIGMA_TOL[d])
    res["kernel_round_trip"] = (_rel_max(out["round_trip"], out["a"], out["a"]), ROUND_TRIP_TOL[d])
    lam = 2 * sum(case["osc_pair"][0]) + d
    res["oscillator_eigen"] = (_rel_max(out["osc_out"], lam * out["osc_in"], lam * out["osc_in"]),
                               OSCILLATOR_TOL)
    if d == 2:
        sign = (-1.0) ** sum(case["wigner_pair"][0])
        res["wigner_d2"] = (_rel_max(sign * out["wigner"], out["wigner_ref"], out["wigner_ref"]),
                            WIGNER_D2_TOL)
    return [f"{k} {v:.3e} > {tol:.0e}" for k, (v, tol) in res.items() if not v <= tol]
