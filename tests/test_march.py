"""Whole-array marching squares against the per-cell loop it replaced (kept
in legacy_march as a test-only reference): the polylines must agree bit for
bit on every grid shape, mask clipping, saddle cell and tie with the level.
"""

import warnings
from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from chermnykh import cli
from chermnykh.dynamics import _march, zvc_contours
from chermnykh.equilibria import find_collinear
from chermnykh.model import SystemParams, omega_grid

from conftest import CLASSICAL
from legacy_march import _cell_segments, legacy_polylines

# The benchmark's seed-2 contour parameters and levels.
SEED2 = (
    (SystemParams(mu=0.096043, q1=0.973914, a2=0.005655, mb=0.050923, t_belt=0.01), 3.583976483),
    (SystemParams(mu=0.247194, q1=0.834865, a2=0.030814, mb=0.363566, t_belt=0.01), 5.105565937),
    (SystemParams(mu=0.416241, q1=0.579191, a2=0.043067, mb=0.236119, t_belt=0.01), 4.986481455),
)


def _grid(p, bounds, resolution):
    xs = np.linspace(bounds[0], bounds[1], resolution[0])
    ys = np.linspace(bounds[2], bounds[3], resolution[1])
    return xs, ys, omega_grid(p, xs[None, :], ys[:, None])


def _cases(f, c):
    h = (f >= c).view(np.uint8)
    return h[:-1, :-1] | h[:-1, 1:] << 1 | h[1:, 1:] << 2 | h[1:, :-1] << 3


def assert_same_as_legacy(p, c, bounds=(-2.0, 2.0, -2.0, 2.0), resolution=(256, 256)):
    new = zvc_contours(p, c, bounds, resolution).polylines
    old = legacy_polylines(p, c, bounds, resolution)
    assert len(new) == len(old)
    for a, b in zip(new, old):
        assert np.array(a).tobytes() == np.array(b).tobytes()
    return new


def _quiet_params(mu, q1, a2, mb, t_belt):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # q1 = 0 warns
        return SystemParams(mu=mu, q1=q1, a2=a2, mb=mb, t_belt=t_belt)


# The documented box: mu in (0, 1/2], q1 in [0, 1], A2 in [0, 0.1],
# M_b in [0, 1.5], T in (0, 0.5].
box = st.builds(
    _quiet_params,
    mu=st.floats(0.0, 0.5, exclude_min=True),
    q1=st.floats(0.0, 1.0),
    a2=st.floats(0.0, 0.1),
    mb=st.floats(0.0, 1.5),
    t_belt=st.floats(0.0, 0.5, exclude_min=True),
)


@settings(max_examples=30)
@given(
    p=box,
    nx=st.integers(64, 128),
    ny=st.integers(64, 128),
    frac=st.floats(0.01, 0.99),
)
def test_matches_the_per_cell_loop_over_the_box(p, nx, ny, frac):
    bounds = (-2.0, 2.0, -2.0, 2.0)
    _, _, f = _grid(p, bounds, (nx, ny))
    c = float(np.quantile(f[np.isfinite(f)], frac))
    assert_same_as_legacy(p, c, bounds, (nx, ny))


def test_non_square_grids():
    for resolution in ((200, 96), (96, 200), (65, 257)):
        assert assert_same_as_legacy(CLASSICAL, 3.5, resolution=resolution)
        for p, c in SEED2:
            assert_same_as_legacy(p, c, resolution=resolution)


def test_bounds_without_one_or_both_primaries():
    p = CLASSICAL
    for bounds in (
        (-2.0, 0.5, -2.0, 2.0),  # the smaller primary is right of the grid
        (0.0, 2.0, -2.0, 2.0),  # the bigger one is left of it
        (-2.0, 2.0, 0.3, 2.0),  # both lie below it
        (0.1, 0.9, -0.5, 0.5),  # both lie beside it
    ):
        assert_same_as_legacy(p, 3.5, bounds, (128, 96))


def test_mask_clipped_at_the_grid_edge():
    # the levels of 2 Omega 2.5 cells from each primary cross its blank block
    p, c = SEED2[1]
    h = 4.0 / 127
    levels = [c] + [float(omega_grid(p, px, 2.5 * h)) for px in (-p.mu, 1.0 - p.mu)]
    for bounds in (
        (-p.mu, 2.0, -2.0, 2.0),  # on the left edge
        (-p.mu - 1.5 * h, 2.0, -2.0, 2.0),  # within two cells of it
        (-2.0, 1.0 - p.mu, -2.0, 2.0),  # on the right edge
        (-2.0, 1.0 - p.mu + 0.5 * h, -2.0, 2.0),
        (-2.0, 2.0, 0.0, 2.0),  # both on the bottom edge
        (-2.0, 2.0, -1.2 * h, 2.0),
        (-2.0, 2.0, -2.0, 1.5 * h),  # both within two cells of the top edge
    ):
        for level in levels:
            assert assert_same_as_legacy(p, level, bounds, (128, 128))


def test_levels_at_the_collinear_points():
    # The L1 level gives no saddle cell (2 Omega is even in y and falls
    # with |y| about an axis saddle); L3's on a 64 x 64 grid gives both.
    p = CLASSICAL
    levels = {e.kind: float(omega_grid(p, e.x, 0.0)) for e in find_collinear(p)}
    for resolution in ((256, 256), (200, 96), (64, 64)):
        assert_same_as_legacy(p, levels["L1"], resolution=resolution)
    _, _, f = _grid(p, (-2.0, 2.0, -2.0, 2.0), (64, 64))
    cases = _cases(f, levels["L3"])
    assert (cases == 5).any() and (cases == 10).any()
    assert_same_as_legacy(p, levels["L3"], resolution=(64, 64))


def test_level_equal_to_a_node_value():
    p, _ = SEED2[0]
    _, _, f = _grid(p, (-2.0, 2.0, -2.0, 2.0), (128, 128))
    for j, i in ((20, 30), (64, 64), (100, 90)):
        c = float(f[j, i])
        assert (f == c).any()
        assert assert_same_as_legacy(p, c, resolution=(128, 128))


def test_saddle_cells_of_random_fields():
    # Random fields give every case, saddles with the cell average on
    # either side of the level, ties with it, and cells masked at random.
    rng = np.random.default_rng(7)
    saddles = set()
    for _ in range(20):
        ny, nx = rng.integers(3, 40, size=2)
        f = rng.integers(-3, 4, size=(ny, nx)).astype(float) + rng.choice((0.0, 0.25), size=(ny, nx))
        xs = np.sort(rng.uniform(-2.0, 2.0, nx))
        ys = np.sort(rng.uniform(-2.0, 2.0, ny))
        keep = rng.random((ny, nx)) > 0.1
        c = float(rng.choice((0.0, 0.25, 0.5)))
        cases = _cases(f, c)
        avg = 0.25 * (f[:-1, :-1] + f[:-1, 1:] + f[1:, 1:] + f[1:, :-1]) >= c
        saddles |= {(int(k), bool(a)) for k, a in zip(cases.ravel(), avg.ravel()) if k in (5, 10)}
        old = [
            seg
            for j in range(ny - 1)
            for i in range(nx - 1)
            if keep[j : j + 2, i : i + 2].all()
            for seg in _cell_segments(f, c, i, j, xs, ys)
        ]
        new = _march(f, c, keep, xs, ys)
        assert np.array(new).tobytes() == np.array(old, dtype=float).tobytes()
    assert saddles == {(5, False), (5, True), (10, False), (10, True)}


def test_saddle_average_sums_in_the_legacy_order():
    # ((f00 + f10) + f11) + f01 is -2^-61 here; another order rounds to 0
    f = np.array([[1.0, -1.0], [-(2.0**-60), 2.0**-61]])
    xs = ys = np.array([0.0, 1.0])
    keep = np.ones(f.shape, dtype=bool)
    assert _march(f, 0.0, keep, xs, ys) == _cell_segments(f, 0.0, 0, 0, xs, ys)


def test_no_numpy_warning_with_both_primaries_on_the_grid():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for p, c in ((CLASSICAL, 3.5), *SEED2):
            assert zvc_contours(p, c).polylines


def test_cli_csv_equals_the_legacy_path(tmp_path, monkeypatch):
    real = cli.zvc_contours

    def legacy(p, c, bounds, resolution):
        cs = real(p, c, bounds, resolution)
        return replace(cs, polylines=legacy_polylines(p, c, bounds, resolution))

    for k, (p, c) in enumerate(SEED2):
        argv = [
            "zvc", "--mu", repr(p.mu), "--q1", repr(p.q1), "--a2", repr(p.a2),
            "--mb", repr(p.mb), "--t", repr(p.t_belt), "--C", repr(c),
            "--grid", "256", "--format", "csv",
        ]
        new, old = tmp_path / f"new{k}.csv", tmp_path / f"old{k}.csv"
        assert cli.main([*argv, "--out", str(new)]) == cli.EXIT_OK
        with monkeypatch.context() as m:
            m.setattr(cli, "zvc_contours", legacy)
            assert cli.main([*argv, "--out", str(old)]) == cli.EXIT_OK
        assert new.read_bytes() == old.read_bytes()
        assert new.read_bytes().count(b"\n") > 100
