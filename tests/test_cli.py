import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import flattop
from flattop import cli, mixture, univariate as uv
from flattop.data_io import gen_mixed_1d, write_csv


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


def test_runtime_errors_exit_one(capsys):
    code, _, err = _run(capsys, "eval", "--family", "AL",
                        "--params", "a=1,b=0,s=0.1", "--grid", "0:1:0.5")
    assert code == 1
    assert "a < b" in err
    code, _, err = _run(capsys, "fit", "--family", "AL", "--data", "/no/such/file.csv")
    assert code == 1


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
            raise mixture._EmptyComponent(np.array([0]))
        return real_m_step(rows, resp, cov_type, floor)

    monkeypatch.setattr(mixture, "_gmm_m_step", empty_every_other_call)
    code, out, err = _run(capsys, "mixfit", "--family", "GMM", "--k", "2",
                          "--data", str(path), "--seed", "1")
    assert (code, out) == (1, "")
    assert err == "error: component 0 collapsed twice; aborting\n"


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
])
def test_flatness_extreme_scales_without_traceback_or_warning(capsys, argv, code, err):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _run(capsys, "flatness", *argv)
    assert (got[0], got[2]) == (code, err)
    if code == 0:
        assert json.loads(got[1])["family_bound"] == 0.0


def test_eval_fermi_dirac_height_overflow_is_a_typed_error(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _run(capsys, "eval", "--family", "CF", "--params", "m=0,r=1e200,s=1,beta=2",
                   "--grid", "0:1:0.5")
    assert got == (1, "", "error: CF: requires a finite (r/s)^beta, got r=1e+200, s=1.0, "
                          "beta=2.0\n")


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


# Run in a fresh interpreter: the test process has scipy loaded already.
_SCIPY_FREE_SCRIPT = """
import contextlib, io, json, sys
import flattop, flattop.cli

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

report = [("import", 0, scipy_modules())]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = flattop.cli.main(argv)
    report.append((argv[0], code, scipy_modules()))
print(json.dumps(report))
"""


def test_scipy_free_commands_do_not_import_scipy(tmp_path):
    al = uv.make("AL", {"a": -1.0, "b": 1.0, "s": 0.1})
    data = tmp_path / "al.csv"
    write_csv(uv.sample(al, 500, 1), str(data))
    al_params = ("--family", "AL", "--params", "a=-1,b=1,s=0.1")
    argvs = [
        ["gen", "--what", "segments", "--seed", "3"],
        ["eval", *al_params, "--grid", "-2:2:0.01"],
        ["sample", *al_params, "-n", "1000", "--seed", "3"],
        ["fit", "--family", "AL", "--data", str(data)],
        ["flatness", *al_params],
        ["divergence", "--case", "pair", "--p", "U:a=-0.5,b=0.5",
         "--q", "GN:mu=0.1,s=0.8,beta=3"],
    ]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(flattop.__file__)))
    proc = subprocess.run([sys.executable, "-c", _SCIPY_FREE_SCRIPT, json.dumps(argvs)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert [step for step, _, _ in report] == ["import", *(a[0] for a in argvs)]
    assert [(step, code, mods) for step, code, mods in report if code or mods] == []


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
    code, _, _ = _run(capsys, "divergence", "--case", "pair")
    assert code == 2


def test_gradcheck_all_families_small(capsys):
    for family, bound in (("AL", 1e-6), ("BL", 0.02), ("CL", 1e-6)):
        code, out, _ = _run(capsys, "gradcheck", "--family", family,
                            "--n", "50", "--seed", "7")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "param,analytic,fd,rel_err"
        rels = [float(line.split(",")[-1]) for line in lines[1:]]
        assert max(rels) < bound, (family, max(rels))


def test_gen_counts(capsys):
    code, out, _ = _run(capsys, "gen", "--what", "mixed1d", "--seed", "3")
    assert code == 0
    assert len(out.strip().split("\n")) == 55
    code, out, _ = _run(capsys, "gen", "--what", "segments", "--seed", "3")
    assert len(out.strip().split("\n")) == 427
    assert all(len(line.split(",")) == 2 for line in out.strip().split("\n"))


def test_out_file_and_env_dir(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("FLATTOP_OUTPUT_DIR", str(tmp_path))
    code, out, _ = _run(capsys, "gen", "--what", "mixed1d", "--seed", "1",
                        "--out", "pts.csv")
    assert code == 0
    assert out == ""
    written = (tmp_path / "pts.csv").read_text().strip().split("\n")
    assert len(written) == 55
