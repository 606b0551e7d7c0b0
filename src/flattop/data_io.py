"""Datasets, seeded synthetic generators, and CSV/JSON persistence.

All randomness flows through ``numpy.random.default_rng`` (the PCG64
generator), so a seed pins every generated dataset bit-for-bit across runs
and platforms.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "Dataset",
    "SegmentsScenario",
    "default_segments_scenario",
    "gen_mixed_1d",
    "gen_segments_2d",
    "read_csv",
    "write_csv",
    "scenario_from_json",
    "scenario_to_json",
]


@dataclass
class Dataset:
    """Ordered observations, one row per point.

    ``rows`` always has shape (N, dim).  Weights, when present, must be
    positive and aligned with the rows.  ``provenance`` is a free-text
    generator descriptor including the seed.
    """

    rows: np.ndarray
    weights: np.ndarray | None = None
    provenance: str = ""

    def __post_init__(self) -> None:
        rows = np.asarray(self.rows, dtype=float)
        if rows.ndim == 1:
            rows = rows.reshape(-1, 1)
        if rows.ndim != 2 or rows.shape[0] == 0:
            raise ValueError(f"rows must be a non-empty (N, dim) array, got shape {rows.shape}")
        if not np.all(np.isfinite(rows)):
            raise ValueError("rows must be finite")
        self.rows = rows
        if self.weights is not None:
            w = np.asarray(self.weights, dtype=float)
            if w.shape != (rows.shape[0],):
                raise ValueError("weights must have one entry per row")
            if not np.all(w > 0):
                raise ValueError("weights must be positive")
            self.weights = w

    @property
    def dim(self) -> int:
        return self.rows.shape[1]

    def __len__(self) -> int:
        return self.rows.shape[0]

    @property
    def x(self) -> np.ndarray:
        """1-d view for univariate datasets."""
        if self.dim != 1:
            raise ValueError(f"dataset is {self.dim}-dimensional")
        return self.rows[:, 0]


def _rows_of(data) -> np.ndarray:
    """The rows of a Dataset, or of an array with a 1-d sample as one column;
    a ValueError if the array is not (N, dim) or any value is not finite."""
    if isinstance(data, Dataset):
        return data.rows
    arr = np.asarray(data, dtype=float)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2:
        raise ValueError(f"data must be an (N, dim) array of points or a 1-d sample, "
                         f"got shape {arr.shape}")
    return _finite(arr)


def _finite(arr: np.ndarray) -> np.ndarray:
    """``arr``, or a ValueError that counts its NaN and infinite values."""
    bad = arr.size - np.count_nonzero(np.isfinite(arr))
    if bad:
        raise ValueError(f"data must be finite: {bad} of {arr.size} values are NaN or infinite")
    return arr


@dataclass(frozen=True)
class SegmentsScenario:
    """Uniform-on-segments generator config: axis-aligned segments plus
    isotropic Gaussian jitter."""

    segments: tuple[tuple[tuple[float, float], tuple[float, float]], ...]
    total: int
    noise_sigma: float
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.segments:
            raise ValueError("at least one segment required")
        for (x1, y1), (x2, y2) in self.segments:
            if not (x1 == x2 or y1 == y2):
                raise ValueError("segments must be axis-aligned (constant x or constant y)")
            if x1 == x2 and y1 == y2:
                raise ValueError("degenerate zero-length segment")
        if self.total < 1:
            raise ValueError("total must be >= 1")
        if not self.noise_sigma > 0:
            raise ValueError("noise_sigma must be positive")

    def lengths(self) -> np.ndarray:
        return np.array([abs(x2 - x1) + abs(y2 - y1)
                         for (x1, y1), (x2, y2) in self.segments])


def default_segments_scenario(seed: int = 20260808) -> SegmentsScenario:
    """Four segments forming a 10 x 6 rectangle outline, 427 points, jitter
    at 2% of the long segment length."""
    return SegmentsScenario(
        segments=(
            ((0.0, 0.0), (10.0, 0.0)),
            ((0.0, 6.0), (10.0, 6.0)),
            ((0.0, 0.0), (0.0, 6.0)),
            ((10.0, 0.0), (10.0, 6.0)),
        ),
        total=427,
        noise_sigma=0.2,
        seed=seed,
    )


def gen_mixed_1d(seed: int) -> Dataset:
    """55 points: 40 uniform on [0, 100] followed by 15 from N(60, 35^2)."""
    rng = np.random.default_rng(seed)
    uniform_part = rng.uniform(0.0, 100.0, size=40)
    normal_part = rng.normal(60.0, 35.0, size=15)
    rows = np.concatenate([uniform_part, normal_part]).reshape(-1, 1)
    return Dataset(rows=rows, provenance=f"gen_mixed_1d:40xU(0,100)+15xN(60,35^2);seed={seed}")


def gen_segments_2d(scenario: SegmentsScenario) -> Dataset:
    """Points uniform on the scenario's segments plus isotropic noise.

    Segment membership is drawn with probability proportional to length, so
    per-segment counts are binomial.
    """
    rng = np.random.default_rng(scenario.seed)
    lengths = scenario.lengths()
    probs = lengths / lengths.sum()
    choice = rng.choice(len(scenario.segments), size=scenario.total, p=probs)
    frac = rng.random(scenario.total)
    seg = np.asarray(scenario.segments, dtype=float)[choice]  # (N, endpoint, coordinate)
    pts = seg[:, 0] + frac[:, None] * (seg[:, 1] - seg[:, 0])
    pts += rng.normal(0.0, scenario.noise_sigma, size=pts.shape)
    prov = (f"gen_segments_2d:{len(scenario.segments)}segs,N={scenario.total},"
            f"noise={scenario.noise_sigma};seed={scenario.seed}")
    return Dataset(rows=pts, provenance=prov)


def write_csv(dataset: Dataset, path: str, header: Sequence[str] | None = None) -> None:
    """One observation per line, 17 significant digits (lossless doubles)."""
    with open(path, "w", encoding="utf-8") as fh:
        if header is not None:
            fh.write(",".join(header) + "\n")
        for row in dataset.rows:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def read_csv(path: str, has_header: bool = False) -> Dataset:
    """Parse a dataset CSV; errors carry the offending line number."""
    rows: list[list[float]] = []
    width: int | None = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if lineno == 1 and has_header:
                continue
            stripped = line.strip()
            if not stripped:
                continue
            parts = stripped.split(",")
            try:
                values = [float(p) for p in parts]
            except ValueError as exc:
                raise ValueError(f"line {lineno}: cannot parse {stripped!r}") from exc
            if not all(math.isfinite(v) for v in values):
                raise ValueError(f"line {lineno}: non-finite value in {stripped!r}")
            if width is None:
                width = len(values)
            elif len(values) != width:
                raise ValueError(
                    f"line {lineno}: expected {width} columns, got {len(values)}")
            rows.append(values)
    if not rows:
        raise ValueError("no data rows found")
    return Dataset(rows=np.array(rows), provenance=f"read_csv:{path}")


def scenario_to_json(scenario: SegmentsScenario) -> str:
    return json.dumps({
        "segments": [list(map(list, seg)) for seg in scenario.segments],
        "total": scenario.total,
        "noise_sigma": scenario.noise_sigma,
        "seed": scenario.seed,
    }, sort_keys=True)


def _entry(obj: dict, key: str, kind, noun: str):
    """``obj[key]`` if it is a JSON value of type ``kind``, else a ValueError
    that names the key.  JSON's true and false are no numbers."""
    if key not in obj:
        raise ValueError(f"missing scenario key {key!r}")
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValueError(f"scenario {key} must be {noun}, got {value!r}")
    return value


def _segment(i: int, seg) -> tuple[tuple[float, float], tuple[float, float]]:
    try:
        ends = np.array(seg, dtype=float)
    except (TypeError, ValueError):
        ends = np.empty(0)
    if ends.shape != (2, 2):
        raise ValueError(f"scenario segment {i} must be [[x1, y1], [x2, y2]], got {seg!r}")
    return tuple(map(tuple, ends.tolist()))


def scenario_from_json(text: str) -> SegmentsScenario:
    """The scenario of ``scenario_to_json``; a ValueError names a missing or
    unknown key or a malformed entry."""
    obj = json.loads(text)
    if not isinstance(obj, dict):
        raise ValueError(f"a scenario is a JSON object, got {obj!r}")
    extra = set(obj) - {"segments", "total", "noise_sigma", "seed"}
    if extra:
        raise ValueError(f"unknown scenario keys: {sorted(extra)}")
    segments = _entry(obj, "segments", list, "a list")
    return SegmentsScenario(
        segments=tuple(_segment(i, seg) for i, seg in enumerate(segments)),
        total=_entry(obj, "total", int, "an integer"),
        noise_sigma=float(_entry(obj, "noise_sigma", (int, float), "a number")),
        seed=_entry({"seed": 0, **obj}, "seed", int, "an integer"),
    )
