"""Command-line front door: generate, compose, verify, and table emission.

Exit codes: 0 success, 1 verification failure, 2 usage or I/O error.
Identical configurations (including the seed) produce byte-identical
outputs; every file embeds its configuration and the library version.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from .algebra import (
    twisted_convolution_coeff,
    twisted_convolution_grid,
    read_wong,
    write_wong,
)
from .errors import TwcError
from .formats import coeff_vector_to_json, write_files
from .hermite import HermiteCoeffVector, gauss_hermite_rule, hermite_batch
from .oscillators import apply_h_sigma_grid
from .phase_space import hermite_wong_eval
from .regularity import (
    default_planted_rate,
    random_positive_element,
    verify_matrix_report,
    verify_regularity_theorem,
)

FLOAT_FMT = "%.17g"


def _config_dict(args, keys):
    return {k: getattr(args, k) for k in keys if getattr(args, k, None) is not None}


def _csv_text(header, rows, config) -> list[str]:
    lines = ["# " + json.dumps({"config": config, "version": __version__}, sort_keys=True), ",".join(header)]
    lines += [",".join(FLOAT_FMT % v if isinstance(v, float) else str(v) for v in row) for row in rows]
    return [line + "\n" for line in lines]


def cmd_gen(args) -> int:
    config = _config_dict(args, ["d", "n_max", "rank", "planted_s", "planted_r", "seed", "flavor"])
    planted_r = args.planted_r
    if planted_r is None:
        planted_r = default_planted_rate(args.planted_s, args.n_max, args.N_max)
        config["planted_r"] = planted_r
    C, vectors = random_positive_element(
        args.rank, args.planted_s, planted_r, args.seed, args.d, args.n_max, args.flavor)
    others = []
    if args.vectors_out:
        shape = (args.n_max + 1,) * args.d
        entries = [json.loads(coeff_vector_to_json(HermiteCoeffVector(args.d, args.n_max, v.reshape(shape))))
                   for v in vectors]
        obj = {"config": config, "version": __version__, "vectors": entries}
        others.append((args.vectors_out, [json.dumps(obj, sort_keys=True, indent=1), "\n"]))
    write_wong(args.out, C, {"config": config, "version": __version__}, others)
    return 0


def cmd_compose(args) -> int:
    if len(args.inputs) != 2:
        raise ValueError("compose needs exactly two --in files")
    out = twisted_convolution_coeff(*map(read_wong, args.inputs))
    write_wong(args.out, out, {"config": {"inputs": list(args.inputs)}, "version": __version__})
    return 0


def cmd_verify(args) -> int:
    if os.path.exists(args.out) and not os.path.isfile(args.out):
        print(f"verify: --out {args.out} is not a regular file; the growth CSV is written beside it",
              file=sys.stderr)
        return 2
    if args.input:
        if args.element_flags:
            print(f"verify: --in reads the element from its file and takes no "
                  f"{', '.join(args.element_flags)}", file=sys.stderr)
            return 2
        C = read_wong(args.input)
        config = {"d": C.d, "n_max": C.n_max, **_config_dict(args, ["N_max", "seed", "tol"])}
        report = verify_matrix_report(C, args.N_max, planted_s=None, seed=args.seed, s_tol=args.tol)
    else:
        config = _config_dict(args, ["d", "n_max", "N_max", "rank", "planted_s", "planted_r", "seed", "tol"])
        report = verify_regularity_theorem(
            args.planted_s, args.rank, args.seed, args.N_max,
            d=args.d, n_max=args.n_max, planted_r=args.planted_r, s_tol=args.tol)
    report["config"] = config
    report["version"] = __version__
    # header only when the PSD test failed, so no earlier run's values are left beside the report
    rows = [(N, float(g)) for N, g in enumerate(report.pop("growth_log_values", []))]
    write_files([(args.out, [json.dumps(report, sort_keys=True, indent=1), "\n"]),
                 (os.path.splitext(args.out)[0] + "_growth.csv", _csv_text(["N", "log_g_N"], rows, config))])
    if not report["pass"]:
        print("verify: FAIL " + report.get("reason", "estimates disagree"), file=sys.stderr)
        return 1
    print("verify: PASS")
    return 0


def cmd_tables(args) -> int:
    """Compute every table first, so a failure leaves no file behind."""
    config = _config_dict(args, ["d", "n_max", "N_max", "rank", "planted_s", "planted_r", "seed",
                                 "grid_L", "grid_n"])
    tables = {}
    kmax = min(args.n_max, 16)

    rule = gauss_hermite_rule(4 * (kmax + 1))
    hs = hermite_batch(kmax, rule.nodes)
    G = (hs * rule.weights_compensated) @ hs.T
    rows = [(i, j, float(abs(G[i, j] - (1.0 if i == j else 0.0))))
            for i in range(kmax + 1) for j in range(kmax + 1)]
    tables["hermite_orthonormality.csv"] = (["i", "j", "deviation"], rows)

    # coefficient product vs grid quadrature, small index range
    oracle_n = 73
    rows = []
    for a2 in range(3):
        for b1 in range(3):
            a = hermite_wong_eval(((0,), (a2,)), args.grid_L, oracle_n)
            b = hermite_wong_eval(((b1,), (1,)), args.grid_L, oracle_n)
            got = twisted_convolution_grid(a, b, strict=args.strict)
            expect = hermite_wong_eval(((0,), (1,)), args.grid_L, oracle_n).values \
                if a2 == b1 else np.zeros_like(got.values)
            gap = float(np.sqrt(np.sum(np.abs(got.values - expect) ** 2) * got.cell))
            rows.append((a2, b1, gap))
    tables["twisted_product_gaps.csv"] = (["alpha2", "beta1", "l2_gap"], rows)

    rows = []
    for a1 in range(3):
        for a2 in range(3):
            r = hermite_wong_eval(((a1,), (a2,)), args.grid_L, args.grid_n)
            out = apply_h_sigma_grid(r, strict=args.strict)
            lam = 2 * a1 + 1
            err = float(np.max(np.abs(out.values - lam * r.values)) / np.max(np.abs(lam * r.values)))
            rows.append((a1, a2, err))
    tables["oscillator_eigen_residuals.csv"] = (["alpha1", "alpha2", "rel_error"], rows)

    report = verify_regularity_theorem(args.planted_s, args.rank, args.seed, args.N_max,
                                       d=args.d, n_max=args.n_max, planted_r=args.planted_r)
    rows = [(N, float(g)) for N, g in enumerate(report["growth_log_values"])]
    tables["growth_sequence.csv"] = (["N", "log_g_N"], rows)
    rows = [(report["planted_s"], report["fitted_s_growth"], report["fitted_s_decay"],
             report["residuals"]["growth"], report["residuals"]["decay"], int(report["pass"]))]
    tables["growth_fit.csv"] = (["planted_s", "fitted_s_growth", "fitted_s_decay",
                                 "growth_residual", "decay_residual", "pass"], rows)

    os.makedirs(args.out_dir, exist_ok=True)
    write_files([(os.path.join(args.out_dir, name), _csv_text(header, rows, config))
                  for name, (header, rows) in tables.items()])
    return 0


class _ElementFlag(argparse.Action):
    """Store the value and note the flag in ``element_flags``, which verify --in refuses."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.element_flags = [*namespace.element_flags, self.option_strings[0]]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="twcalc", description=__doc__)
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    # what a planted element is drawn from; verify --in reads only --N-max and --seed
    planted = argparse.ArgumentParser(add_help=False)
    planted.set_defaults(element_flags=())
    planted.add_argument("--d", action=_ElementFlag, type=int, default=1, choices=(1, 2))
    planted.add_argument("--n-max", dest="n_max", action=_ElementFlag, type=int, default=48)
    planted.add_argument("--N-max", dest="N_max", type=int, default=40)
    planted.add_argument("--seed", type=int, default=0)
    planted.add_argument("--planted-s", dest="planted_s", action=_ElementFlag, type=float, default=0.5)
    planted.add_argument("--planted-r", dest="planted_r", action=_ElementFlag, type=float, default=None)
    planted.add_argument("--rank", action=_ElementFlag, type=int, default=3)

    g = sub.add_parser("gen", parents=[planted],
                       help="generate a random positive element with planted decay")
    g.add_argument("--flavor", choices=("roumieu", "beurling"), default="roumieu")
    g.add_argument("--out", required=True)
    g.add_argument("--vectors-out", dest="vectors_out", default=None)
    g.set_defaults(func=cmd_gen)

    c = sub.add_parser("compose", help="twisted convolution of two coefficient files")
    c.add_argument("--in", dest="inputs", action="append", required=True)
    c.add_argument("--out", required=True)
    c.set_defaults(func=cmd_compose)

    v = sub.add_parser("verify", parents=[planted], help="run the positivity/regularity verification")
    v.add_argument("--tol", type=float, default=0.15)
    v.add_argument("--in", dest="input", default=None)
    v.add_argument("--out", required=True)
    v.set_defaults(func=cmd_verify)

    t = sub.add_parser("tables", parents=[planted], help="emit acceptance-style residual tables as CSV")
    t.add_argument("--grid-L", dest="grid_L", type=float, default=8.0)
    t.add_argument("--grid-n", dest="grid_n", type=int, default=129)
    t.add_argument("--permissive", dest="strict", action="store_false")
    t.add_argument("--out-dir", dest="out_dir", required=True)
    t.set_defaults(func=cmd_tables)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, TwcError, ValueError) as exc:
        print(f"twcalc: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # an input whose declared size cannot be allocated is an input error, not a failed check
        print(f"twcalc: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
