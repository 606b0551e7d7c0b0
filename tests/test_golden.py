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

# The fit argvs: ``gradcheck`` prints ``mle._KERNELS[f].derivs`` at default
# arguments, and ``fit`` runs the AL and BL passes on one problem (J = 1).
MLE = {
    "gradcheck AL": (
        ("gradcheck", "--family", "AL"),
        616, "ceab2de367be84c8d68d055a69622b35be1234ab55db7e7da4ceff088d91b9a7",
        ("3180f13bd2fe", "d2d5967ae341", "1e07d38e6033", "3942cea8be13", "8435bf8ab867",
         "02c43adb5d85", "809b38aa5c97", "720618609315", "ab4a438869ac", "aa4efe72f422")),
    "gradcheck BL": (
        ("gradcheck", "--family", "BL"),
        910, "1e39fa6d2758690ddecffcea3ee1959c9ba67171222cad561f62cf163d71f9c1",
        ("3180f13bd2fe", "718ca5b3b1bf", "0d6c9d48417f", "9b5c497f7a12", "6704d0d6e811",
         "6eca5488075f", "15b29326b3de", "90233f828404", "9170b3cc3b94", "d01542c69b9f",
         "778c70ae59b0", "961abf64dbd2", "533d107f914d", "c94a0cf849f3", "3cbc5f351c9f")),
    "gradcheck CL": (
        ("gradcheck", "--family", "CL"),
        1903, "f755d7112a6a524199bc5eac1bcfefb67fdfe051b7dd5ffbf27ac0411f05699a",
        ("3180f13bd2fe", "572bd4bb0069", "925a8de4dae8", "439eddbdf9f8", "d1291ab06c9f",
         "4460c895dfd1", "12e10623dbcd", "c684eb245354", "8e671771b504", "9dd5c7f560f8",
         "45adf58aae9d", "f351dae432a2", "84e5fae28392", "729b21d1108c", "98925fe86358",
         "cd03638143a7", "3aebd721adcc", "9cb22a33ee8d", "9a0c9bd2853f", "38d4fab7d9c6",
         "14c1a9842874", "d119094deaeb", "649e7bdfdedb", "eb74dfdb00c3", "7e6f6d771c2f",
         "c3628a018991", "971471c61873", "47939f700151")),
    "fit AL": (
        ("fit", "--family", "AL", "--data", "mixed1d.csv"),
        542, "b15c4b6995aabca985f86a47fb0d3653802b972262fa5f25e0b8cc45270c1896",
        ("ac97d126a527",)),
    "fit AL init-normal": (
        ("fit", "--family", "AL", "--init-normal", "--data", "mixed1d.csv"),
        544, "76de079ef2c163e65cf599d3ba9d3a384347c7ff13da427fd5590efc7ff54054",
        ("4e68476dd6f8",)),
    "fit BL init-normal": (
        ("fit", "--family", "BL", "--init-normal", "--data", "mixed1d.csv"),
        617, "6bd32a1dea9d50b1becf60da52997502104fabdc396bbfd2944145504f55444b",
        ("3c24d4f477b1",)),
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


def _check_rows(table, data_dir, capsys):
    for label, (argv, size, digest, lines) in table.items():
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


def test_mixture_cli_stdout_matches_the_golden_digests(data_dir, capsys):
    _check_rows(MIXTURE, data_dir, capsys)


def test_fit_and_gradcheck_stdout_matches_the_golden_digests(data_dir, capsys):
    _check_rows(MLE, data_dir, capsys)
