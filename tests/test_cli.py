import ast
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import flattop
from flattop import cli, data_io, mixture, mle, multivariate as mv, univariate as uv
from flattop.data_io import Dataset, gen_mixed_1d, write_csv


def _run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_grid_row_count_and_normalization(capsys):
    code, out, _ = _run(capsys, "eval", "--family", "AL",
                        "--params", "a=-1,b=1,s=0.1", "--grid", "-2:2:0.01")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "x,pdf,cdf"
    assert len(lines) == 402  # header + 401 grid rows
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    trapz = np.trapezoid(rows[:, 1], rows[:, 0])
    assert abs(trapz - 1.0) < 1e-3
    assert np.all(np.diff(rows[:, 2]) >= -1e-12)


def test_eval_byte_identical_reruns(capsys):
    args = ("eval", "--family", "GN", "--params", "mu=0,s=1,beta=4",
            "--grid", "-3:3:0.1")
    _, out1, _ = _run(capsys, *args)
    _, out2, _ = _run(capsys, *args)
    assert out1 == out2


def test_eval_json_format(capsys):
    code, out, _ = _run(capsys, "eval", "--family", "U", "--params", "a=0,b=1",
                        "--grid", "0:1:0.5", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"family", "x", "pdf", "cdf"}
    assert payload["pdf"] == [1.0, 1.0, 1.0]


def test_sample_deterministic_per_seed(capsys):
    args = ("sample", "--family", "U", "--params", "a=0,b=1", "-n", "4", "--seed", "1")
    _, out1, _ = _run(capsys, *args)
    _, out2, _ = _run(capsys, *args)
    assert out1 == out2
    values = [float(v) for v in out1.strip().split("\n")]
    assert len(values) == 4
    assert all(0.0 <= v <= 1.0 for v in values)


def test_usage_errors_exit_two(capsys):
    code, _, _ = _run(capsys, "eval", "--family", "AL",
                      "--params", "a=-1,b=1,s=0.1", "--grid", "nonsense")
    assert code == 2
    code, _, _ = _run(capsys, "eval", "--family", "NOPE",
                      "--params", "a=0,b=1", "--grid", "0:1:0.5")
    assert code == 2
    code, _, _ = _run(capsys, "nosuchcommand")
    assert code == 2


@pytest.mark.parametrize("grid", ["0:inf:1", "0:1e300:1e-300", "-inf:0:1", "0:nan:1", "0:1:inf"])
def test_grid_without_a_finite_point_count_is_a_usage_error(capsys, grid):
    """An infinite bound or step, or more points than a float can count,
    used to end in an OverflowError traceback."""
    code, out, err = _run(capsys, "eval", "--family", "AL", "--params", "a=-1,b=1,s=0.1",
                          "--grid", grid)
    assert (code, out) == (2, "")
    assert f"argument --grid: grid needs a finite start, stop, step and point count, got {grid!r}" in err
    assert "Traceback" not in err


_EVAL_AL = ("eval", "--family", "AL", "--params", "a=-1,b=1,s=0.1", "--grid", "0:1:0.5")
_SWEEP = ("sweep", "--family", "GMM", "--data", "unread.csv", "--k")


@pytest.mark.parametrize("argv, flag, message", [
    (("eval", "--family", "AL", "--params", "a=1,b", "--grid", "0:1:0.5"), "--params",
     "expected key=value, got 'b'"),
    (("eval", "--family", "AL", "--params", "a=x", "--grid", "0:1:0.5"), "--params",
     "cannot parse value in 'a=x'"),
    (("eval", "--family", "AL", "--params", ",", "--grid", "0:1:0.5"), "--params",
     "empty parameter list"),
    (_EVAL_AL[:-1] + ("0:1",), "--grid", "grid must be start:stop:step, got '0:1'"),
    (_EVAL_AL[:-1] + ("0:one:1",), "--grid", "grid must be numeric, got '0:one:1'"),
    (_EVAL_AL[:-1] + ("0:1:-1",), "--grid", "grid needs step > 0 and stop >= start"),
    (_SWEEP + ("3",), "--k", "expected lo:hi, got '3'"),
    (_SWEEP + ("1:x",), "--k", "K range must be integers, got '1:x'"),
    (_SWEEP + ("3:1",), "--k", "K range needs 1 <= lo <= hi"),
    (("divergence", "--case", "pair", "--p", "U", "--q", "U:a=0,b=1"), "--p",
     "expected FAMILY:k=v,..., got 'U'"),
])
def test_argument_type_errors_exit_two_and_name_the_argument(capsys, argv, flag, message):
    code, out, err = _run(capsys, *argv)
    assert (code, out) == (2, "")
    assert f"argument {flag}: {message}" in err


def test_runtime_errors_exit_one(capsys):
    code, _, err = _run(capsys, "eval", "--family", "AL",
                        "--params", "a=1,b=0,s=0.1", "--grid", "0:1:0.5")
    assert code == 1
    assert "a < b" in err
    code, _, err = _run(capsys, "fit", "--family", "AL", "--data", "/no/such/file.csv")
    assert code == 1


@pytest.mark.parametrize("argv, message", [
    # c = inf used to be stored and printed: 0,inf,0.5 and 0.5,nan,1.
    (("eval", "--family", "GN", "--params", "mu=0,s=5e-324,beta=2", "--grid", "0:1:0.5"),
     "GN: computed normalizing constant inf is not positive and finite"),
    # 8e15-byte requests, beyond the 2^47-byte user address space of x86-64
    # Linux: the first in the --grid type function, the second in the handler.
    (("eval", "--family", "U", "--params", "a=0,b=1", "--grid", "0:1e15:1"), "Unable to allocate"),
    (("sample", "--family", "U", "--params", "a=0,b=1", "-n", "1000000000000000"),
     "Unable to allocate"),
])
def test_runtime_errors_print_one_error_line(capsys, argv, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = _run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


def test_typed_library_errors_exit_one_without_traceback(capsys, tmp_path, monkeypatch):
    # QuadratureError: the BL normalizer integrand does not decay.
    code, out, err = _run(capsys, "eval", "--family", "BL",
                          "--params", "a=0,b=1,s=1e300,t=1e300", "--grid", "0:1:0.5")
    assert (code, out) == (1, "")
    assert err.startswith("error: tail truncation failed")
    # FlatnessError: the density is 0 at its mode.
    with monkeypatch.context() as patch:
        patch.setattr(uv, "pdf", lambda spec, x: np.zeros_like(np.asarray(x, float)))
        code, out, err = _run(capsys, "flatness", "--family", "AL",
                              "--params", "a=0,b=1,s=0.1")
    assert (code, out, err) == (1, "", "error: density vanishes at its mode\n")
    # ComponentCollapseError: every other M-step reports an empty component,
    # so the reseeded component collapses again.
    rows = np.concatenate([np.linspace(0, 3, 40), np.linspace(6, 9, 40)])
    path = tmp_path / "d.csv"
    np.savetxt(path, rows, fmt="%.17g")
    real_m_step = mixture._gmm_m_step
    calls = []

    def empty_every_other_call(rows, resp, cov_type, floor):
        calls.append(1)
        if len(calls) % 2:
            empty = np.zeros(resp.shape[:2], dtype=bool)
            empty[:, 0] = True
            raise mixture._EmptyComponent(empty)
        return real_m_step(rows, resp, cov_type, floor)

    monkeypatch.setattr(mixture, "_gmm_m_step", empty_every_other_call)
    code, out, err = _run(capsys, "mixfit", "--family", "GMM", "--k", "2",
                          "--data", str(path), "--seed", "1")
    assert (code, out) == (1, "")
    assert err == "error: component 0 collapsed twice; aborting\n"


def test_convergence_error_exits_one_without_traceback(capsys, monkeypatch):
    message = "quantile: Newton steps did not converge at 1 of 3"

    def fail(spec, n, seed):
        raise uv.ConvergenceError(message)

    monkeypatch.setattr(uv, "sample", fail)
    got = _run(capsys, "sample", "--family", "AL", "--params", "a=-1,b=1,s=0.1", "-n", "3")
    assert got == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("family, params", [
    ("AL", "a=-1,b=1,s=0.1"), ("BL", "a=0,b=5,s=0.3,t=0.6"), ("GN", "mu=0,s=1,beta=3")])
@pytest.mark.parametrize("eps, shown", [
    ("0", "0.0"), ("1", "1.0"), ("-1", "-1.0"), ("2", "2.0"), ("nan", "nan"), ("0.1,2", "2.0")])
def test_flatness_rejects_thresholds_outside_unit_interval(capsys, family, params, eps, shown):
    got = _run(capsys, "flatness", "--family", family, "--params", params, f"--eps={eps}")
    assert got == (1, "", f"error: eps must lie in (0, 1), got {shown}\n")


@pytest.mark.parametrize("argv, code, err", [
    # The AN curvature bound decays to its limit 0.
    (("--family", "AN", "--params", "a=0,b=1,s=1e-200"), 0, ""),
    (("--family", "GN", "--params", "mu=0,s=1e-300,beta=2"), 1,
     "error: GN: density derivatives overflow at s=1e-300\n"),
    (("--family", "AL", "--params", "a=0,b=1e300,s=1e-300"), 1,
     "error: AL: requires a finite ratio r/s, got r=5e+299, s=1e-300\n"),
    # h = (r/s)^2 overflows although r/s is finite.
    (("--family", "CE", "--params", "a=0,b=1,s=1e-200"), 1,
     "error: CE: requires a finite (r/s)^beta, got r=0.5, s=1e-200, beta=2.0\n"),
    # p' ~ 1/s^2 overflows: a typed error, not a null measure.
    (("--family", "GN", "--params", "mu=0,s=1e-160,beta=1.5"), 1,
     "error: GN: density derivatives overflow at s=1e-160\n"),
    (("--family", "CE", "--params", "a=0,b=1e-160,s=1e-160", "--boundaries", "fwhm"), 1,
     "error: CE: density derivatives overflow at s=1e-160\n"),
    # r^beta and s^beta underflow to 0, but (r/s)^beta = 1: no 0/0 in ln p.
    (("--family", "CF", "--params", "m=0,r=1e-170,s=1e-170,beta=2"), 1,
     "error: CF: density derivatives overflow at s=1e-170\n"),
])
def test_flatness_extreme_scales_without_traceback_or_warning(capsys, argv, code, err):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _run(capsys, "flatness", *argv)
    assert (got[0], got[2]) == (code, err)
    if code == 0:
        assert json.loads(got[1])["family_bound"] == 0.0


@pytest.mark.parametrize("family, params, err", [
    ("BD", "a=-4.8e163,b=3.3e164,s=2.7e160,t=2.8e160",
     "error: (34, 'Numerical result out of range')\n"),  # OverflowError
    ("BD", "a=5.57e-165,b=7.24e-164,s=1.23e-164,t=3.99e-165",
     "error: float division by zero\n"),  # ZeroDivisionError
    ("CE", "a=-2.857e210,b=8.48e210,s=1.007e210",
     "error: (34, 'Numerical result out of range')\n"),  # OverflowError
])
def test_arithmetic_errors_exit_one_without_traceback(capsys, family, params, err):
    # Far outside the property-test box a density's standard form still
    # overflows or divides by zero in Python float arithmetic.
    got = _run(capsys, "eval", "--family", family, "--params", params, "--grid", "0:1:0.5")
    assert got == (1, "", err)


def test_eval_fermi_dirac_height_overflow_is_a_typed_error(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _run(capsys, "eval", "--family", "CF", "--params", "m=0,r=1e200,s=1,beta=2",
                   "--grid", "0:1:0.5")
    assert got == (1, "", "error: CF: requires a finite (r/s)^beta, got r=1e+200, s=1.0, "
                          "beta=2.0\n")


def test_eval_cf_across_a_very_wide_flat_top(capsys):
    # The tail search from the mode has to cross the 2e80-wide top.
    code, out, _ = _run(capsys, "eval", "--family", "CF", "--params", "m=0,r=1e80,s=1,beta=2",
                        "--grid", "0:1:0.5")
    assert code == 0
    cdfs = [float(line.split(",")[2]) for line in out.strip().split("\n")[1:]]
    assert cdfs == pytest.approx([0.5, 0.5, 0.5], abs=1e-12)


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.mark.parametrize("family", ["GMM", "FTM"])
def test_mixfit_stdout_is_strict_json(capsys, tmp_path, family):
    path = tmp_path / "mixed55.csv"
    write_csv(gen_mixed_1d(seed=3), str(path))
    code, out, _ = _run(capsys, "mixfit", "--family", family, "--k", "2",
                        "--data", str(path))
    assert code == 0
    payload = json.loads(out, parse_constant=_reject_constant)
    assert payload["report"]["grad_norm"] is None  # NaN in the report


@pytest.mark.parametrize("loc, span, seed, k", [
    (1.0, 1e-9, 0, 2),  # the GEM trace fell by 3.6e-6 and reported converged
    (1e8, 1.0, 4, 3),   # b - a rounded to 0: "log_sinh requires z > 0", exit 1
])
def test_mixfit_ftm_on_near_constant_data(capsys, tmp_path, loc, span, seed, k):
    path = tmp_path / "near.csv"
    x = loc + span * np.random.default_rng(seed).random(60)
    write_csv(Dataset(x.reshape(-1, 1)), str(path))
    code, out, err = _run(capsys, "mixfit", "--family", "FTM", "--k", str(k),
                          "--data", str(path))
    assert code == 0, err
    trace = json.loads(out)["report"]["loglik_trace"]
    assert np.all(np.diff(trace) >= -1e-9)


@pytest.mark.parametrize("family", ["AL", "BL"])
def test_fit_from_data_init_on_near_constant_data(capsys, tmp_path, family):
    """Data 8 ulps wide: the data-based start put a = min(x) + span/N,
    which rounded back to min(x), and the fit refused it."""
    path = tmp_path / "near.csv"
    x = 1e6 + 1e-9 * np.random.default_rng(4).random(60)
    write_csv(Dataset(x.reshape(-1, 1)), str(path))
    code, out, err = _run(capsys, "fit", "--family", family, "--data", str(path))
    assert code == 0, err
    params = json.loads(out)["params"]
    assert x.min() <= params["a"] < params["b"] <= x.max()


# Run in a fresh interpreter: the test process has scipy loaded already.
# Reports the scipy and flattop modules loaded after ``import flattop`` and
# then, cumulatively, after each argv.
_SCIPY_FREE_SCRIPT = """
import contextlib, io, json, sys
import flattop

def modules(package):
    return sorted(m.partition(".")[2] for m in sys.modules
                  if m == package or m.startswith(package + "."))

report = [("import", 0, modules("scipy"), modules("flattop"))]
import flattop.cli
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = flattop.cli.main(argv)
    report.append((argv[0], code, modules("scipy"), modules("flattop")))
print(json.dumps(report))
"""

# The flattop modules a cold command loads: ``import flattop`` loads none
# (the "" is the package itself), ``gen`` no density code, and no command
# here loads ``mixture``.
_BASE_MODULES = ["", "cli", "data_io", "quadrature", "specfun", "univariate"]
_MODULES_AFTER = {
    "import": [""],
    "gen": ["", "cli", "data_io"],
    "eval": _BASE_MODULES,
    "sample": _BASE_MODULES,
    "fit": sorted(_BASE_MODULES + ["mle", "multivariate"]),
    "flatness": sorted(_BASE_MODULES + ["flatness", "mle", "multivariate"]),
    "divergence": sorted(_BASE_MODULES + ["divergence", "flatness", "mle", "multivariate"]),
}


def test_scipy_free_commands_do_not_import_scipy(tmp_path):
    al = uv.make("AL", {"a": -1.0, "b": 1.0, "s": 0.1})
    data = tmp_path / "al.csv"
    write_csv(uv.sample(al, 500, 1), str(data))
    mixed = tmp_path / "mixed55.csv"
    write_csv(gen_mixed_1d(seed=20260808), str(mixed))
    cl = tmp_path / "cl.csv"
    write_csv(mv.mv_sample(mv.make_mv("CL", [0.0, 0.0], 1.0, 20.0), 1000, 20260808), str(cl))
    al_params = ("--family", "AL", "--params", "a=-1,b=1,s=0.1")
    bl_params = ("--family", "BL", "--params", "a=-1,b=1,s=0.2,t=0.5")
    argvs = [
        ["gen", "--what", "segments", "--seed", "3"],
        ["eval", *al_params, "--grid", "-2:2:0.01"],
        ["eval", "--family", "CH", "--params", "m=0,r=1,s=0.4,beta=2.5", "--grid", "-3:3:0.05"],
        ["sample", *al_params, "-n", "1000", "--seed", "3"],
        ["sample", *bl_params, "-n", "200", "--seed", "3"],
        ["fit", "--family", "AL", "--data", str(data)],
        ["fit", "--family", "BL", "--data", str(mixed), "--init", "a=-0.9,b=1.1,s=0.3,t=0.3"],
        ["fit", "--family", "CL", "--data", str(cl)],
        ["flatness", *al_params],
        ["flatness", *al_params, "--boundaries", "fwhm"],
        ["flatness", *bl_params],  # a numeric mode
        ["divergence", "--case", "pair", "--p", "U:a=-0.5,b=0.5",
         "--q", "GN:mu=0.1,s=0.8,beta=3"],
    ]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(flattop.__file__)))
    proc = subprocess.run([sys.executable, "-c", _SCIPY_FREE_SCRIPT, json.dumps(argvs)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert [step for step, *_ in report] == ["import", *(a[0] for a in argvs)]
    assert [(step, code, mods) for step, code, mods, _ in report if code or mods] == []
    assert [(step, mods) for step, _, _, mods in report] == [
        (step, _MODULES_AFTER[step]) for step, *_ in report]


def _scipy_imports(path):
    """(line, module, deferred) for every import of scipy in a source file;
    an import is deferred when it sits inside a function body."""
    found = []

    def visit(node, deferred):
        for child in ast.iter_child_nodes(node):
            inner = deferred or isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                                   ast.Lambda))
            if isinstance(child, ast.Import):
                mods = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom) and child.level == 0:
                mods = [f"{child.module}.{alias.name}" for alias in child.names]
            else:
                mods = []
            found.extend((child.lineno, m, deferred) for m in mods
                         if m.split(".")[0] == "scipy")
            visit(child, inner)

    with open(path) as fh:
        visit(ast.parse(fh.read()), False)
    return found


def test_cli_family_choices_are_the_univariate_families():
    # The parser spells the families out so that ``gen`` loads no density code.
    assert cli._FAMILIES == uv.FAMILIES


def test_package_imports_only_scipy_special_and_only_inside_functions():
    pkg = os.path.dirname(flattop.__file__)
    sources = sorted(f for f in os.listdir(pkg) if f.endswith(".py"))
    assert "univariate.py" in sources
    found = {f: _scipy_imports(os.path.join(pkg, f)) for f in sources}
    assert found["specfun.py"]  # the scan sees the remaining scipy.special calls
    offending = [(f, line, mod) for f, hits in found.items() for line, mod, deferred in hits
                 if not deferred or not mod.startswith("scipy.special")]
    assert offending == []


def test_format_only_on_eval_and_gradcheck(capsys):
    code, _, _ = _run(capsys, "sample", "--family", "U", "--params", "a=0,b=1",
                      "-n", "4", "--format", "json")
    assert code == 2
    code, _, _ = _run(capsys, "fit", "--family", "AL", "--data", "x.csv", "--seed", "1")
    assert code == 2


def test_unknown_param_key_rejected(capsys):
    code, _, err = _run(capsys, "eval", "--family", "AL",
                        "--params", "a=-1,b=1,s=0.1,q=3", "--grid", "0:1:0.5")
    assert code == 1
    assert "unknown parameter" in err


def test_fit_subcommand_emits_report(capsys, tmp_path):
    ds = gen_mixed_1d(seed=2)
    path = tmp_path / "mixed.csv"
    write_csv(ds, str(path))
    trace_path = tmp_path / "trace.csv"
    code, out, _ = _run(capsys, "fit", "--family", "AL", "--data", str(path),
                        "--init-normal", "--trace", str(trace_path))
    assert code == 0
    payload = json.loads(out)
    assert payload["family"] == "AL"
    assert set(payload["params"]) == {"a", "b", "s"}
    assert payload["report"]["free_params"] == 3
    trace_lines = trace_path.read_text().strip().split("\n")
    assert trace_lines[0] == "iteration,loglik"
    assert len(trace_lines) >= 3


def test_fit_bl_takes_init_normal_as_al_does(capsys, tmp_path):
    """BL starts from AL's start with t = s, so --init-normal selects that
    start for BL too."""
    path = tmp_path / "bl.csv"
    ds = uv.sample(uv.make("BL", {"a": -1.0, "b": 1.0, "s": 0.2, "t": 0.4}), 200, 1)
    write_csv(ds, str(path))
    al = mle.init_al_from_normal_fit(ds)
    fit = ("fit", "--family", "BL", "--data", str(path))
    code, normal, err = _run(capsys, *fit, "--init-normal")
    assert code == 0, err
    _, explicit, _ = _run(capsys, *fit, "--init", f"a={al.a!r},b={al.b!r},s={al.s!r},t={al.s!r}")
    _, from_data, _ = _run(capsys, *fit)
    assert normal == explicit
    assert normal != from_data


@pytest.mark.parametrize("name, aic", [("al-draws", 21224.26), ("mixed55", 534.80)])
def test_fit_bl_from_the_normal_start_converges_to_the_data_start_optimum(
        capsys, tmp_path, name, aic):
    # From the AL-of-the-normal start at t = s, the flat-regime coordinate
    # pass stopped after 1 pass at -11181.35 on the 5000 AL draws, and ran
    # 500 passes (50 s) on the 55-point mixed set; the exact BL gradient and
    # Hessian reach the optimum of the data start.
    path = tmp_path / "data.csv"
    if name == "al-draws":
        params = {"a": -0.9527135011989731, "b": 6.690625112347761, "s": 0.2157835546275788}
        ds = uv.sample(uv.make("AL", params), 5000, 1)
    else:
        ds = gen_mixed_1d(20260808)
    write_csv(ds, str(path))
    fit = ("fit", "--family", "BL", "--data", str(path))
    code, out, err = _run(capsys, *fit, "--init-normal")
    assert code == 0, err
    report = json.loads(out)["report"]
    assert report["converged"] and report["iterations"] <= 20
    assert report["aic"] == pytest.approx(aic, abs=0.01)
    assert np.all(np.diff(report["loglik_trace"]) >= -1e-9)
    _, from_data, _ = _run(capsys, *fit)
    assert report["aic"] == pytest.approx(json.loads(from_data)["report"]["aic"], rel=1e-9)


@pytest.mark.parametrize("flag", [("--init", "m=0"), ("--init-normal",)])
def test_fit_cl_rejects_init_flags(capsys, tmp_path, flag):
    path = tmp_path / "cl.csv"
    write_csv(mv.mv_sample(mv.make_mv("CL", [0.0, 0.0], 1.0, 20.0), 200, 3), str(path))
    code, out, err = _run(capsys, "fit", "--family", "CL", "--data", str(path), *flag)
    assert code == 2
    assert out == ""
    assert err == "fit --family CL takes neither --init nor --init-normal\n"


@pytest.mark.parametrize("family", ["GMM", "FTM"])
@pytest.mark.parametrize("dim", [1, 2])
def test_mixfit_and_sweep_run_the_same_fit(capsys, tmp_path, family, dim):
    rng = np.random.default_rng(7)
    rows = np.concatenate([rng.uniform(0, 3, (120, dim)), rng.uniform(6, 9, (120, dim))])
    path = tmp_path / "d.csv"
    np.savetxt(path, rows, fmt="%.17g", delimiter=",")
    data = ("--data", str(path), "--seed", "2")
    code, out, err = _run(capsys, "mixfit", "--family", family, "--k", "2", *data)
    assert code == 0, err
    bic = json.loads(out)["report"]["bic"]
    code, out, err = _run(capsys, "sweep", "--family", family, "--k", "1:2", *data)
    assert code == 0, err
    assert out.strip().split("\n")[2].split(",")[4] == cli._fmt(bic)


def test_mixfit_writes_model_and_responsibilities(capsys, tmp_path):
    rng = np.random.default_rng(3)
    rows = np.concatenate([rng.uniform(0, 3, 150), rng.uniform(6, 9, 150)])
    path = tmp_path / "d.csv"
    np.savetxt(path, rows, fmt="%.17g")
    resp_path = tmp_path / "resp.csv"
    code, out, _ = _run(capsys, "mixfit", "--family", "FTM", "--k", "2",
                        "--data", str(path), "--seed", "5",
                        "--resp", str(resp_path))
    assert code == 0
    payload = json.loads(out)
    assert payload["model"]["K"] == 2
    assert len(payload["model"]["weights"]) == 2
    assert payload["model"]["factorized"] is False
    resp_lines = resp_path.read_text().strip().split("\n")
    assert resp_lines[0] == "w0,w1"
    assert len(resp_lines) == 301
    first = [float(v) for v in resp_lines[1].split(",")]
    assert sum(first) == pytest.approx(1.0, abs=1e-9)


def test_sweep_emits_table(capsys, tmp_path):
    rng = np.random.default_rng(4)
    rows = np.concatenate([rng.uniform(0, 3, 120), rng.uniform(6, 9, 120)])
    path = tmp_path / "d.csv"
    np.savetxt(path, rows, fmt="%.17g")
    code, out, _ = _run(capsys, "sweep", "--family", "GMM", "--k", "1:3",
                        "--data", str(path), "--seed", "6")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "K,it,loglik_per_N,AIC,BIC"
    assert len(lines) == 4
    assert [int(line.split(",")[0]) for line in lines[1:]] == [1, 2, 3]


def test_flatness_json_schema(capsys):
    code, out, _ = _run(capsys, "flatness", "--family", "AL",
                        "--params", "a=-1,b=1,s=0.1", "--eps", "0.05,0.01")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"a", "b", "epsilon_measure", "family_bound",
                            "delta", "interval_ratio", "verdict_at"}
    assert payload["verdict_at"] == {"0.05": True, "0.01": True}


def test_flatness_payload_bytes_pinned(capsys):
    # The verdict keys are sorted as strings: "1e-05" after "0.5".
    code, out, _ = _run(capsys, "flatness", "--family", "GN",
                        "--params", "mu=0,s=1,beta=2", "--eps", "1e-05,0.1,0.5")
    assert code == 0
    assert out == (
        '{"a": -0.886226925452758, "b": 0.886226925452758, "delta": 1.772453850905516, '
        '"epsilon_measure": 2.1932800507380157, "family_bound": null, '
        '"interval_ratio": 0.0037982920561822156, '
        '"verdict_at": {"0.1": false, "0.5": false, "1e-05": false}}\n')


def test_divergence_cases(capsys):
    code, out, _ = _run(capsys, "divergence", "--case", "uniform-normal")
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "closed_form"
    assert round(payload["kl"], 3) == 0.176
    code, out, _ = _run(capsys, "divergence", "--case", "ball-normal", "--dim", "2")
    payload = json.loads(out)
    assert payload["kl"] == pytest.approx(1.0 - math.log(2.0))
    code, out, _ = _run(capsys, "divergence", "--case", "pair",
                        "--p", "U:a=0,b=1", "--q", "U:a=0.5,b=1.5")
    payload = json.loads(out)
    assert payload["l1"] == pytest.approx(1.0, abs=1e-8)
    code, out, _ = _run(capsys, "divergence", "--case", "pair",
                        "--p", "DE:m=0,s=1", "--q", "AL:a=-1,b=1,s=0.3")
    assert code == 0 and json.loads(out)["kl"] is None  # +inf
    code, _, _ = _run(capsys, "divergence", "--case", "pair")
    assert code == 2


def test_gradcheck_all_families_small(capsys):
    # Every family audits its kernel's P gradient entries and P(P + 1)/2
    # upper-triangle Hessian entries.
    for family, size in (("AL", 3), ("BL", 4), ("CL", 6)):
        code, out, _ = _run(capsys, "gradcheck", "--family", family,
                            "--n", "50", "--seed", "7")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "param,analytic,fd,rel_err"
        assert len(lines) - 1 == size * (size + 3) // 2
        rels = [float(line.split(",")[-1]) for line in lines[1:]]
        assert max(rels) < 1e-6, (family, max(rels))


def test_gradcheck_al_stdout_pinned(capsys):
    code, out, _ = _run(capsys, "gradcheck", "--family", "AL", "--n", "50", "--seed", "7")
    assert code == 0
    assert out == (
        "param,analytic,fd,rel_err\n"
        "da,0.5106071430913186,0.51060715236881493,1.8169538526225923e-08\n"
        "db,-2.2685080351689608,-2.2685080336849501,6.5417916536944658e-10\n"
        "ds,-19.660081538750301,-19.660081530051933,4.4243805574303954e-10\n"
        "daa,-3.7728827679010664,-3.7728827715083497,9.5610798939950395e-10\n"
        "dbb,-3.3123702014880774,-3.3123702016701357,5.4963170568653789e-11\n"
        "dss,-6.8696498584430623,-6.8696498561581123,3.3261520671723215e-10\n"
        "dab,-2.3199220046346447,-2.3199220043455249,1.2462481007517692e-10\n"
        "das,1.2729486651666448,1.272948664032858,8.9067758521937126e-10\n"
        "dbs,0.89529390140984866,0.89529390225533001,9.4436178942684753e-10\n")


@pytest.mark.parametrize("family", ["AL", "BL", "CL"])
def test_gradcheck_json_rows_equal_the_csv_rows(capsys, family):
    _, csv_out, _ = _run(capsys, "gradcheck", "--family", family, "--n", "20")
    code, json_out, _ = _run(capsys, "gradcheck", "--family", family, "--n", "20",
                             "--format", "json")
    assert code == 0
    rows = [(label, *map(float, rest)) for label, *rest in
            (line.split(",") for line in csv_out.strip().split("\n")[1:])]
    payload = json.loads(json_out)
    assert [(r["param"], r["analytic"], r["fd"], r["rel_err"]) for r in payload] == rows


def test_gradcheck_rejects_n_below_one(capsys):
    for family in ("AL", "BL", "CL"):
        for n in ("0", "-3"):
            code, out, err = _run(capsys, "gradcheck", "--family", family, "--n", n)
            assert code == 1 and out == ""
            assert "--n" in err, (family, n, err)


def test_gen_counts(capsys):
    code, out, _ = _run(capsys, "gen", "--what", "mixed1d", "--seed", "3")
    assert code == 0
    assert len(out.strip().split("\n")) == 55
    code, out, _ = _run(capsys, "gen", "--what", "segments", "--seed", "3")
    assert len(out.strip().split("\n")) == 427
    assert all(len(line.split(",")) == 2 for line in out.strip().split("\n"))


def test_gen_config_of_the_default_scenario_prints_the_default_bytes(capsys, tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(data_io.scenario_to_json(data_io.default_segments_scenario()))
    _, default, _ = _run(capsys, "gen", "--what", "segments", "--seed", "5")
    code, configured, _ = _run(capsys, "gen", "--what", "segments", "--seed", "5",
                               "--config", str(path))
    assert code == 0
    assert configured == default


@pytest.mark.parametrize("edit, message", [
    (lambda obj: obj.pop("total"), "missing scenario key 'total'"),
    (lambda obj: obj.pop("noise_sigma"), "missing scenario key 'noise_sigma'"),
    (lambda obj: obj.update(segments=[[1, 2]]), "scenario segment 0 must be [[x1, y1], [x2, y2]]"),
    (lambda obj: obj.update(segments=5), "scenario segments must be a list, got 5"),
    (lambda obj: obj.update(total=3.7), "scenario total must be an integer, got 3.7"),
])
def test_gen_config_errors_exit_one_and_name_the_entry(capsys, tmp_path, edit, message):
    obj = json.loads(data_io.scenario_to_json(data_io.default_segments_scenario()))
    edit(obj)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(obj))
    code, out, err = _run(capsys, "gen", "--what", "segments", "--config", str(path))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


def test_out_file_and_env_dir(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("FLATTOP_OUTPUT_DIR", str(tmp_path))
    code, out, _ = _run(capsys, "gen", "--what", "mixed1d", "--seed", "1",
                        "--out", "pts.csv")
    assert code == 0
    assert out == ""
    written = (tmp_path / "pts.csv").read_text().strip().split("\n")
    assert len(written) == 55
