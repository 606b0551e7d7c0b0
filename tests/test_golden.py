"""Golden stdout digests of the CLI: each argv runs in-process through
``cli.main`` on data that ``gen`` writes into ``tmp_path``, and its stdout
must match the committed table to the byte.

A row holds the byte length and sha256 of the whole stdout and a 12-hex
sha256 prefix of each of its lines, so that a mismatch names the first line
that moved.  The digests belong to numpy 2.4.6: a numpy change re-takes
them on its own.  A change that moves a digest updates its row and says
which argv moved and why.
"""

import hashlib

import pytest

from flattop import cli

# The data sets, by file name: the criterion-7 segments and the mixed 1-d set.
DATA = {"segments.csv": ("segments", 20260808), "mixed1d.csv": ("mixed1d", 3)}

# The mixture argvs run at default settings to convergence, so GMM restart
# lanes retire at different cycles and ``--bl-upgrade`` swaps BL in.
MIXTURE = {
    "sweep GMM 1:10": (
        ("sweep", "--family", "GMM", "--k", "1:10", "--data", "segments.csv", "--seed", "11"),
        658, "ee1ba089f967760a048ceea67d5d1bcb4aca13c6d5ad7fd7c9f28dcccbc57eb6",
        ("c313b60dd52b", "dac55a501d7f", "88f7d8f34e86", "67b455c664dc", "f1e44c01c3d4",
         "647cd5ff9c7b", "ee8d31ae67c5", "5d353d057fda", "c361582b0b6e", "9406aa4fce91",
         "a56f460c47f3")),
    "sweep FTM 1:8": (
        ("sweep", "--family", "FTM", "--k", "1:8", "--data", "segments.csv", "--seed", "11"),
        531, "2ca36141262904f2ea21094febaca2f34476da497d946f84df6feb5a44b24655",
        ("c313b60dd52b", "dd589904629d", "4ff86538b5ca", "a25ac714b961", "d824199f81b9",
         "f719f352b1b7", "7a556f4c3b5c", "4507b9ab1bfc", "a86e7faea1d5")),
    "mixfit GMM 4": (
        ("mixfit", "--family", "GMM", "--k", "4", "--data", "segments.csv", "--seed", "11"),
        1361, "0b766d908ec0047d0909c53572be3d88bfb42fe5a07e7ea63b3aad24ffc3816f",
        ("7d23efe9f6a3",)),
    "mixfit FTM 4": (
        ("mixfit", "--family", "FTM", "--k", "4", "--data", "segments.csv", "--seed", "11"),
        1948, "55dc745d61ee5ae346f317d4d047fbdcb7d2c7fb834864caa71634274618dd84",
        ("3d7bc350d089",)),
    "mixfit FTM 2 bl-upgrade": (
        ("mixfit", "--family", "FTM", "--k", "2", "--bl-upgrade", "--data", "mixed1d.csv",
         "--seed", "3"),
        1132, "82190d32c444d988a0cad7ba25c9442aece5fcafd0e3e051cdf30d3a5e3e39eb",
        ("4f28b0a439e4",)),
}


def _line_digests(out: str) -> tuple[str, ...]:
    return tuple(hashlib.sha256(line.encode()).hexdigest()[:12] for line in out.splitlines())


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden")
    for name, (what, seed) in DATA.items():
        assert cli.main(["gen", "--what", what, "--seed", str(seed),
                         "--out", str(path / name)]) == 0
    return path


def test_mixture_cli_stdout_matches_the_golden_digests(data_dir, capsys):
    for label, (argv, size, digest, lines) in MIXTURE.items():
        argv = [str(data_dir / a) if a in DATA else a for a in argv]
        assert cli.main(argv) == 0, label
        out = capsys.readouterr().out
        got = _line_digests(out)
        moved = next((i for i, (g, e) in enumerate(zip(got, lines)) if g != e),
                     min(len(got), len(lines)))
        row = (len(out.encode()), hashlib.sha256(out.encode()).hexdigest(), got)
        assert got == lines, (
            f"{label}: line {moved + 1} moved (of {len(got)}, expected {len(lines)}):\n"
            f"{out.splitlines()[moved] if moved < len(got) else '<missing>'}\nnew row: {row}")
        assert row[:2] == (size, digest), f"{label}: new row: {row}"
