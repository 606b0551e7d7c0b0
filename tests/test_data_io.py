import json
import math

import numpy as np
import pytest

from flattop import data_io


def test_dataset_validation():
    with pytest.raises(ValueError):
        data_io.Dataset(rows=np.array([[1.0], [np.inf]]))
    with pytest.raises(ValueError):
        data_io.Dataset(rows=np.ones((3, 1)), weights=np.array([1.0, -1.0, 1.0]))
    with pytest.raises(ValueError):
        data_io.Dataset(rows=np.ones((3, 1)), weights=np.ones(2))
    ds = data_io.Dataset(rows=np.arange(4.0))
    assert ds.dim == 1
    assert len(ds) == 4
    assert np.array_equal(ds.x, np.arange(4.0))


def test_mixed_sample_counts_and_support():
    ds = data_io.gen_mixed_1d(seed=1)
    assert len(ds) == 55
    assert ds.dim == 1
    assert np.all((ds.x[:40] >= 0.0) & (ds.x[:40] <= 100.0))
    assert "seed=1" in ds.provenance


def test_generators_bit_identical_per_seed():
    a = data_io.gen_mixed_1d(seed=9)
    b = data_io.gen_mixed_1d(seed=9)
    assert np.array_equal(a.rows, b.rows)
    scen = data_io.default_segments_scenario(seed=4)
    c = data_io.gen_segments_2d(scen)
    d = data_io.gen_segments_2d(scen)
    assert np.array_equal(c.rows, d.rows)
    e = data_io.gen_mixed_1d(seed=10)
    assert not np.array_equal(a.rows, e.rows)


def test_default_scenario_shape():
    scen = data_io.default_segments_scenario()
    ds = data_io.gen_segments_2d(scen)
    assert len(ds) == 427
    assert ds.dim == 2


@pytest.mark.parametrize("seed", [0, 20260808])
def test_segment_points_match_a_per_point_loop(seed):
    """The broadcast interpolation gives the rows of the per-point loop."""
    scen = data_io.default_segments_scenario(seed)
    rng = np.random.default_rng(scen.seed)
    lengths = scen.lengths()
    choice = rng.choice(len(scen.segments), size=scen.total, p=lengths / lengths.sum())
    frac = rng.random(scen.total)
    pts = np.empty((scen.total, 2))
    for i, (seg_idx, f) in enumerate(zip(choice, frac)):
        (x1, y1), (x2, y2) = scen.segments[seg_idx]
        pts[i] = x1 + f * (x2 - x1), y1 + f * (y2 - y1)
    pts += rng.normal(0.0, scen.noise_sigma, size=pts.shape)
    assert np.array_equal(data_io.gen_segments_2d(scen).rows, pts)


def test_zero_noise_limit_points_on_segments():
    scen = data_io.SegmentsScenario(
        segments=(((0.0, 0.0), (4.0, 0.0)), ((0.0, 0.0), (0.0, 2.0))),
        total=200, noise_sigma=1e-300, seed=3)
    ds = data_io.gen_segments_2d(scen)
    on_h = np.isclose(ds.rows[:, 1], 0.0, atol=1e-250) & (ds.rows[:, 0] >= -1e-9) \
        & (ds.rows[:, 0] <= 4.0 + 1e-9)
    on_v = np.isclose(ds.rows[:, 0], 0.0, atol=1e-250) & (ds.rows[:, 1] >= -1e-9) \
        & (ds.rows[:, 1] <= 2.0 + 1e-9)
    assert np.all(on_h | on_v)


def test_segment_shares_follow_lengths():
    scen = data_io.SegmentsScenario(
        segments=(((0.0, 0.0), (9.0, 0.0)), ((0.0, 5.0), (3.0, 5.0))),
        total=4000, noise_sigma=1e-6, seed=5)
    ds = data_io.gen_segments_2d(scen)
    near_bottom = np.sum(np.abs(ds.rows[:, 1]) < 1.0)
    p = 9.0 / 12.0
    sd = math.sqrt(scen.total * p * (1.0 - p))
    assert abs(near_bottom - scen.total * p) <= 3.0 * sd


def test_segment_positions_uniform_along_length():
    scen = data_io.SegmentsScenario(
        segments=(((0.0, 0.0), (1.0, 0.0)),), total=20_000, noise_sigma=1e-300, seed=6)
    ds = data_io.gen_segments_2d(scen)
    u = np.sort(ds.rows[:, 0])
    n = u.size
    ks = max(np.max(np.arange(1, n + 1) / n - u), np.max(u - np.arange(0, n) / n))
    assert ks < 1.36 / math.sqrt(n)


def test_scenario_validation():
    with pytest.raises(ValueError, match="axis-aligned"):
        data_io.SegmentsScenario(segments=(((0.0, 0.0), (1.0, 1.0)),),
                                 total=10, noise_sigma=0.1)
    with pytest.raises(ValueError, match="noise_sigma"):
        data_io.SegmentsScenario(segments=(((0.0, 0.0), (1.0, 0.0)),),
                                 total=10, noise_sigma=0.0)


def test_csv_round_trip_exact(tmp_path):
    rng = np.random.default_rng(7)
    ds = data_io.Dataset(rows=rng.normal(size=(50, 2)) * 1e3)
    path = tmp_path / "data.csv"
    data_io.write_csv(ds, str(path))
    back = data_io.read_csv(str(path))
    assert np.array_equal(back.rows, ds.rows)


def test_csv_header_handling(tmp_path):
    path = tmp_path / "h.csv"
    path.write_text("x,y\n1.0,2.0\n3.0,4.0\n")
    ds = data_io.read_csv(str(path), has_header=True)
    assert ds.rows.shape == (2, 2)
    assert ds.rows[0, 1] == 2.0


def test_csv_parse_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,2.0\nx,4.0\n")
    with pytest.raises(ValueError, match="line 2"):
        data_io.read_csv(str(path))
    path.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(ValueError, match="line 2"):
        data_io.read_csv(str(path))


def test_inline_two_by_two():
    rows = [[1.0, 2.0], [3.0, 4.0]]
    ds = data_io.Dataset(rows=np.array(rows))
    assert ds.rows.shape == (2, 2)


def test_scenario_json_round_trip():
    scen = data_io.default_segments_scenario(seed=12)
    text = data_io.scenario_to_json(scen)
    back = data_io.scenario_from_json(text)
    assert back == scen
    with pytest.raises(ValueError, match="unknown scenario"):
        data_io.scenario_from_json(json.dumps({"segments": [], "total": 1,
                                               "noise_sigma": 1, "zzz": 1}))


@pytest.mark.parametrize("text, message", [
    ('{"segments": [[[0, 0], [1, 0]]], "noise_sigma": 0.1}', "missing scenario key 'total'"),
    ('{"segments": [[[0, 0], [1, 0]]], "total": 5}', "missing scenario key 'noise_sigma'"),
    ('{"total": 5, "noise_sigma": 0.1}', "missing scenario key 'segments'"),
    ('{"segments": [[1, 2]], "total": 5, "noise_sigma": 0.1}', r"segment 0 must be \[\[x1"),
    ('{"segments": [[[0, 0], [1, 0]], [[0, 0], ["a", 0]]], "total": 5, "noise_sigma": 0.1}',
     "segment 1 must be"),
    ('{"segments": 5, "total": 5, "noise_sigma": 0.1}', "segments must be a list, got 5"),
    ('{"segments": [[[0, 0], [1, 0]]], "total": 3.7, "noise_sigma": 0.1}',
     "total must be an integer, got 3.7"),
    ('{"segments": [[[0, 0], [1, 0]]], "total": 5, "noise_sigma": "0.1"}',
     "noise_sigma must be a number"),
    ('{"segments": [[[0, 0], [1, 0]]], "total": 5, "noise_sigma": 0.1, "seed": true}',
     "seed must be an integer, got True"),
    ("[1, 2]", "a scenario is a JSON object"),
])
def test_scenario_from_json_names_what_is_malformed(text, message):
    with pytest.raises(ValueError, match=message):
        data_io.scenario_from_json(text)
