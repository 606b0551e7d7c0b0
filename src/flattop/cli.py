"""Command-line front end.

Subcommands: eval, sample, fit, mixfit, sweep, flatness, divergence,
gradcheck, gen.  Output is CSV or JSON on stdout (or --out FILE); given the
same argv and seed the bytes are identical across runs.  Exit codes: 0 on
success, 1 on runtime errors, 2 on usage errors.  A runtime error (a
ValueError, an ArithmeticError such as an overflow, a MemoryError, an
OSError or a FlattopError) prints ``error: <message>`` on stderr, without a
traceback.

gradcheck audits the maximum-likelihood kernel every fit steps on: each
family's gradient and Hessian, in (a, b, s) for AL, (a, b, s, t) for BL
and (m, L, log a) for CL, against central differences.

The FLATTOP_OUTPUT_DIR environment variable, when set, prefixes relative
--out paths.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

# Only what every command needs loads here; each handler imports the
# modules it runs, so a cold process compiles no module it does not use.
from . import FlattopError, data_io

_OUTPUT_DIR_VAR = "FLATTOP_OUTPUT_DIR"

# ``univariate.FAMILIES``, spelled out so that building the parser loads no
# density code (a test keeps the two equal).
_FAMILIES = ("U", "GN", "AN", "AL", "ALS", "BL", "BD", "CC", "CF", "CE", "CH", "DE")


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _parse_params(text: str) -> dict[str, float]:
    out: dict[str, float] = {}
    for item in text.split(","):
        if not item:
            continue
        if "=" not in item:
            raise argparse.ArgumentTypeError(f"expected key=value, got {item!r}")
        key, _, raw = item.partition("=")
        try:
            out[key.strip()] = float(raw)
        except ValueError:
            raise argparse.ArgumentTypeError(f"cannot parse value in {item!r}")
    if not out:
        raise argparse.ArgumentTypeError("empty parameter list")
    return out


def _parse_grid(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"grid must be start:stop:step, got {text!r}")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"grid must be numeric, got {text!r}")
    if step <= 0 or stop < start:
        raise argparse.ArgumentTypeError("grid needs step > 0 and stop >= start")
    span = (stop - start) / step
    if not (math.isfinite(span) and math.isfinite(step)):  # nan, inf, or too many points
        raise argparse.ArgumentTypeError(f"grid needs a finite start, stop, step and point count, "
                                         f"got {text!r}")
    count = int(math.floor(span + 1e-9)) + 1
    return start + step * np.arange(count)


def _parse_krange(text: str) -> range:
    parts = text.split(":")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected lo:hi, got {text!r}")
    try:
        lo, hi = int(parts[0]), int(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError(f"K range must be integers, got {text!r}")
    if lo < 1 or hi < lo:
        raise argparse.ArgumentTypeError("K range needs 1 <= lo <= hi")
    return range(lo, hi + 1)


def _parse_density(text: str):
    """FAMILY:key=value,... for the divergence pair mode."""
    fam, _, params = text.partition(":")
    if not params:
        raise argparse.ArgumentTypeError(f"expected FAMILY:k=v,..., got {text!r}")
    return fam.strip(), _parse_params(params)


def _open_out(path: str | None):
    if path is None:
        return sys.stdout, False
    base = os.environ.get(_OUTPUT_DIR_VAR)
    if base and not os.path.isabs(path):
        path = os.path.join(base, path)
    return open(path, "w", encoding="utf-8"), True


def _emit(args, text: str) -> None:
    stream, close = _open_out(getattr(args, "out", None))
    try:
        stream.write(text)
        if not text.endswith("\n"):
            stream.write("\n")
    finally:
        if close:
            stream.close()


def _finite_or_null(obj):
    """``obj`` with every non-finite float replaced by None, which JSON
    writes as null."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _finite_or_null(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(v) for v in obj]
    return obj


def _json_dumps(obj) -> str:
    """Strict RFC 8259 JSON: NaN and infinities are written as null."""
    return json.dumps(_finite_or_null(obj), sort_keys=True, allow_nan=False)


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_eval(args) -> int:
    from . import univariate as uv

    spec = uv.make(args.family, args.params)
    xs = args.grid
    pdf_vals = uv.pdf(spec, xs)
    cdf_vals = uv.cdf(spec, xs)
    if args.format == "json":
        payload = {"family": args.family, "x": list(map(float, xs)),
                   "pdf": list(map(float, pdf_vals)), "cdf": list(map(float, cdf_vals))}
        _emit(args, _json_dumps(payload))
    else:
        lines = ["x,pdf,cdf"]
        lines += [f"{_fmt(x)},{_fmt(p)},{_fmt(c)}"
                  for x, p, c in zip(xs, pdf_vals, cdf_vals)]
        _emit(args, "\n".join(lines))
    return 0


def _cmd_sample(args) -> int:
    from . import univariate as uv

    spec = uv.make(args.family, args.params)
    ds = uv.sample(spec, args.n, args.seed)
    lines = [_fmt(v) for v in ds.x]
    _emit(args, "\n".join(lines))
    return 0


def _al_start(ds, init_normal: bool):
    from . import mle

    return mle.init_al_from_normal_fit(ds) if init_normal else mle.init_al_from_data(ds)


def _bl_start(ds, init_normal: bool):
    from . import univariate as uv

    al = _al_start(ds, init_normal)
    return uv.make("BL", {"a": al.a, "b": al.b, "s": al.s, "t": al.s})


def _cl_start(ds, _):
    from . import mle

    return mle.init_cl_from_data(ds)


def _cl_json(spec) -> dict:
    from . import multivariate

    return multivariate.mv_to_json_dict(spec)


# Per fit family: the start from the data (given --init-normal), and the
# payload key and JSON form of the fitted spec.  --init replaces the start
# of AL and BL; CL takes neither flag (see ``main``).
_FIT = {
    "AL": (_al_start, "params", lambda spec: spec.params()),
    "BL": (_bl_start, "params", lambda spec: spec.params()),
    "CL": (_cl_start, "model", _cl_json),
}


def _cmd_fit(args) -> int:
    from . import mle, univariate as uv

    ds = data_io.read_csv(args.data, has_header=args.header)
    start, key, as_json = _FIT[args.family]
    init = (uv.make(args.family, args.init) if args.init is not None
            else start(ds, args.init_normal))
    spec, report = mle.fit(ds, init)
    payload = {"family": args.family, key: as_json(spec), "report": dataclasses.asdict(report)}
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as fh:
            fh.write("iteration,loglik\n")
            for i, ll in enumerate(report.loglik_trace):
                fh.write(f"{i},{_fmt(ll)}\n")
    _emit(args, _json_dumps(payload))
    return 0


def _cmd_mixfit(args) -> int:
    from . import mixture

    ds = data_io.read_csv(args.data, has_header=args.header)
    settings = mixture.MixtureSettings(bl_upgrade=args.bl_upgrade)
    model, report = mixture._fit(ds, args.family, args.k, args.seed, settings)
    payload = {"model": mixture.mixture_to_json_dict(model),
               "report": dataclasses.asdict(report)}
    if args.resp:
        es = mixture.e_step(model, ds)
        with open(args.resp, "w", encoding="utf-8") as fh:
            fh.write(",".join(f"w{k}" for k in range(model.k)) + "\n")
            for row in es.resp:
                fh.write(",".join(_fmt(v) for v in row) + "\n")
    _emit(args, _json_dumps(payload))
    return 0


def _cmd_sweep(args) -> int:
    from . import mixture

    ds = data_io.read_csv(args.data, has_header=args.header)
    rows = mixture.sweep(ds, args.family, args.k, args.seed)
    lines = ["K,it,loglik_per_N,AIC,BIC"]
    for r in rows:
        lines.append(f"{r.k},{r.iterations},{_fmt(r.loglik_per_point)},"
                     f"{_fmt(r.aic)},{_fmt(r.bic)}")
    _emit(args, "\n".join(lines))
    return 0


def _cmd_flatness(args) -> int:
    from . import flatness, univariate as uv

    spec = uv.make(args.family, args.params)
    eps = tuple(float(e) for e in args.eps.split(",")) if args.eps else (0.1, 0.05, 0.01)
    report = flatness.flatness_report(spec, eps, boundaries=args.boundaries)
    payload = dataclasses.asdict(report)
    payload["verdict_at"] = {str(k): v for k, v in report.verdict_at.items()}
    _emit(args, _json_dumps(payload))
    return 0


def _cmd_divergence(args) -> int:
    from . import divergence, univariate as uv

    if args.case == "uniform-normal":
        kl, l1 = divergence.uniform_vs_bestfit_normal_1d()
        result = divergence.DivergenceResult(kl=kl, l1=l1, method="closed_form")
    elif args.case == "ball-normal":
        kl, l1, _ = divergence.ball_vs_bestfit_normal(args.dim)
        result = divergence.DivergenceResult(kl=kl, l1=l1, method="closed_form")
    else:
        fam_p, par_p = args.p
        fam_q, par_q = args.q
        p = uv.make(fam_p, par_p)
        q = uv.make(fam_q, par_q)
        kl = divergence.kl_numeric(p, q).kl
        l1 = divergence.l1_numeric(p, q).l1
        result = divergence.DivergenceResult(kl=kl, l1=l1, method="quadrature")
    payload = dataclasses.asdict(result)
    _emit(args, _json_dumps(payload))
    return 0


def _central_differences(theta: np.ndarray, value) -> list:
    """d value / d theta_i at the (P, 1) coordinates ``theta`` for every i,
    by central differences with theta_i moved by +-1e-6 max(|theta_i|, 1)."""
    fds = []
    for i, v in enumerate(theta[:, 0]):
        h = np.zeros_like(theta)
        h[i] = 1e-6 * max(abs(v), 1.0)
        fds.append((value(theta + h) - value(theta - h)) / (2.0 * h[i, 0]))
    return fds


def _gradcheck_problem(family: str, count: int, rng):
    """The data of ``gradcheck`` in the family's kernel layout (one
    problem), a point in the kernel's (P, 1) coordinates and their names."""
    from . import mle

    if family == "AL":
        a, b = sorted(rng.uniform(-5.0, 5.0, 2))
        b = max(b, a + 0.5)
        s = rng.uniform(0.1, 1.5)
        return rng.uniform(a - 1.0, b + 1.0, count)[None], mle._params(a, b, s), "a b s".split()
    if family == "BL":
        s, t = rng.uniform(0.05, 0.2), rng.uniform(0.05, 0.2)
        return rng.uniform(0.0, 10.0, count)[None], mle._params(0.0, 10.0, s, t), "a b s t".split()
    pts = rng.normal(size=(count, 2))
    m = rng.normal(size=2) * 0.1
    return (pts[None], mle._cl_coords(m, np.eye(2) + 0.2, 1.5, 2.0),
            "m0 m1 L00 L10 L11 log_a".split())


def _cmd_gradcheck(args) -> int:
    """The kernel's gradient against central differences of the
    log-likelihood, then its upper-triangle Hessian (diagonal first, then
    row by row) against central differences of the gradient.  rel_err is
    taken against |fd|, floored at 1e-6 of the largest |fd| of its kind: a
    cross-shoulder BL entry can lie far below what differences resolve."""
    from . import mle

    if args.n < 1:
        raise ValueError(f"--n must be at least 1, got {args.n}")
    x, theta, names = _gradcheck_problem(args.family, args.n, np.random.default_rng(args.seed))
    w = np.ones(x.shape[:2])
    n = w.sum(axis=1)
    derivs = mle._KERNELS[args.family].derivs
    (grad,), (hess,) = derivs(x, w, n, theta)
    fd_grad = _central_differences(theta, lambda th: mle._loglik(args.family, x, w, n, th)[0])
    # Column j holds the differences of the gradient along theta_j.
    jac = _central_differences(theta, lambda th: derivs(x, w, n, th)[0][0])
    pairs = [(i, i) for i in range(len(names))] + list(zip(*np.triu_indices(len(names), 1)))
    rows = []
    for labels, analytic, fds in (
            (["d" + name for name in names], grad, fd_grad),
            ([f"d{names[i]}{names[j]}" for i, j in pairs], [hess[i, j] for i, j in pairs],
             [jac[j][i] for i, j in pairs])):
        floor = 1e-6 * max(abs(fd) for fd in fds)
        rows += [(label, float(an), float(fd), float(abs(an - fd) / max(abs(fd), floor)))
                 for label, an, fd in zip(labels, analytic, fds)]

    if args.format == "json":
        payload = [{"param": label, "analytic": a_, "fd": f_, "rel_err": r_}
                   for label, a_, f_, r_ in rows]
        _emit(args, _json_dumps(payload))
    else:
        lines = ["param,analytic,fd,rel_err"]
        lines += [f"{label},{_fmt(a_)},{_fmt(f_)},{_fmt(r_)}" for label, a_, f_, r_ in rows]
        _emit(args, "\n".join(lines))
    return 0


def _cmd_gen(args) -> int:
    if args.what == "mixed1d":
        ds = data_io.gen_mixed_1d(args.seed)
    else:
        if args.config:
            with open(args.config, "r", encoding="utf-8") as fh:
                scenario = data_io.scenario_from_json(fh.read())
            scenario = dataclasses.replace(scenario, seed=args.seed)
        else:
            scenario = data_io.default_segments_scenario(args.seed)
        ds = data_io.gen_segments_2d(scenario)
    lines = [",".join(_fmt(v) for v in row) for row in ds.rows]
    _emit(args, "\n".join(lines))
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flattop",
        description="Flat-topped distributions: evaluation, fitting, mixtures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--out", default=None, help="write output to FILE instead of stdout")
        p.add_argument("--verbose", action="store_true")

    p = sub.add_parser("eval", help="tabulate pdf and cdf on a grid")
    p.add_argument("--family", required=True, choices=_FAMILIES)
    p.add_argument("--params", required=True, type=_parse_params)
    p.add_argument("--grid", required=True, type=_parse_grid)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    add_common(p)
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("sample", help="inverse-transform sampling")
    p.add_argument("--family", required=True, choices=_FAMILIES)
    p.add_argument("--params", required=True, type=_parse_params)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    add_common(p)
    p.set_defaults(fn=_cmd_sample)

    p = sub.add_parser("fit", help="maximum-likelihood fit (AL, BL, CL)")
    p.add_argument("--family", required=True, choices=("AL", "BL", "CL"))
    p.add_argument("--data", required=True)
    p.add_argument("--header", action="store_true", help="data CSV has a header row")
    p.add_argument("--init", type=_parse_params, default=None)
    p.add_argument("--init-normal", action="store_true",
                   help="start AL (and BL, at t = s) from the best-fit-normal surrogate")
    p.add_argument("--trace", default=None, help="write iteration,loglik CSV")
    add_common(p)
    p.set_defaults(fn=_cmd_fit)

    p = sub.add_parser("mixfit", help="fit a GMM or flat-topped mixture")
    p.add_argument("--family", required=True, choices=("GMM", "FTM"))
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--header", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--bl-upgrade", action="store_true",
                   help="FTM on 1-d data: switch flat-topped components to BL at the "
                        "first stall (no effect on 2-d data)")
    p.add_argument("--resp", default=None, help="write the responsibility CSV")
    add_common(p)
    p.set_defaults(fn=_cmd_mixfit)

    p = sub.add_parser("sweep", help="model-selection table over K")
    p.add_argument("--family", required=True, choices=("GMM", "FTM"))
    p.add_argument("--k", required=True, type=_parse_krange, help="lo:hi inclusive")
    p.add_argument("--data", required=True)
    p.add_argument("--header", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    add_common(p)
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("flatness", help="flatness report for one family")
    p.add_argument("--family", required=True, choices=_FAMILIES)
    p.add_argument("--params", required=True, type=_parse_params)
    p.add_argument("--eps", default=None, help="comma-separated thresholds")
    p.add_argument("--boundaries", choices=("canonical", "fwhm"), default="canonical")
    add_common(p)
    p.set_defaults(fn=_cmd_flatness)

    p = sub.add_parser("divergence", help="KL and L1 benchmarks")
    p.add_argument("--case", choices=("uniform-normal", "ball-normal", "pair"),
                   required=True)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--p", type=_parse_density, default=None, help="FAMILY:k=v,...")
    p.add_argument("--q", type=_parse_density, default=None, help="FAMILY:k=v,...")
    add_common(p)
    p.set_defaults(fn=_cmd_divergence)

    p = sub.add_parser("gradcheck", help="analytic vs finite-difference gradients")
    p.add_argument("--family", required=True, choices=("AL", "BL", "CL"))
    p.add_argument("--n", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    add_common(p)
    p.set_defaults(fn=_cmd_gradcheck)

    p = sub.add_parser("gen", help="synthetic benchmark datasets")
    p.add_argument("--what", required=True, choices=("mixed1d", "segments"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", default=None, help="segments scenario JSON")
    add_common(p)
    p.set_defaults(fn=_cmd_gen)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    # Merge values that may begin with a minus sign (e.g. --grid -2:2:0.01)
    # so argparse does not mistake them for options.
    merged: list[str] = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok == "--grid" and i + 1 < len(argv):
            merged.append(f"--grid={argv[i + 1]}")
            i += 2
            continue
        merged.append(tok)
        i += 1
    try:  # a type function of the parser, such as --grid's, may run out of memory too
        args = parser.parse_args(merged)
        if args.command == "divergence" and args.case == "pair":
            if args.p is None or args.q is None:
                print("divergence --case pair needs --p and --q", file=sys.stderr)
                return 2
        if args.command == "fit" and args.family == "CL" and (args.init or args.init_normal):
            print("fit --family CL takes neither --init nor --init-normal", file=sys.stderr)
            return 2
        return args.fn(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (ValueError, ArithmeticError, MemoryError, OSError, FlattopError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
