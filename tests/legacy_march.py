"""Test-only reference: the per-cell marching squares that
dynamics.zvc_contours replaced.

It visits every cell of the grid in a Python loop, skips the cells near a
primary (_mask_cells) and those with a non-finite corner, and builds each
crossed cell's segments from a dict table of per-edge closures.  The
chaining step, dynamics._chain, is shared: only the case index, the mask
and the edge interpolation are under test.  The differential tests hold
zvc_contours to it bit for bit.
"""

import numpy as np

from chermnykh.dynamics import GridSpec, _chain
from chermnykh.model import omega_grid


def _mask_cells(grid, p):
    """Cells within 2 cells (Chebyshev) of a primary's containing cell."""
    masked = set()
    for px, py in ((-p.mu, 0.0), (1.0 - p.mu, 0.0)):
        if not (grid.xmin <= px <= grid.xmax and grid.ymin <= py <= grid.ymax):
            continue
        ci = int((px - grid.xmin) / grid.hx)
        cj = int((py - grid.ymin) / grid.hy)
        for di in range(-2, 3):
            for dj in range(-2, 3):
                masked.add((ci + di, cj + dj))
    return masked


def _cell_segments(f, c, i, j, xs, ys):
    """Marching-squares segments for cell (i, j); corner order is
    (i,j) (i+1,j) (i+1,j+1) (i,j+1)."""
    f00, f10, f11, f01 = f[j, i], f[j, i + 1], f[j + 1, i + 1], f[j + 1, i]
    case = (
        (1 if f00 >= c else 0)
        | (2 if f10 >= c else 0)
        | (4 if f11 >= c else 0)
        | (8 if f01 >= c else 0)
    )
    if case in (0, 15):
        return []

    def interp(xa, ya, fa, xb, yb, fb):
        t = 0.5 if fb == fa else (c - fa) / (fb - fa)
        return (xa + t * (xb - xa), ya + t * (yb - ya))

    x0, x1 = xs[i], xs[i + 1]
    y0, y1 = ys[j], ys[j + 1]
    bottom = lambda: interp(x0, y0, f00, x1, y0, f10)
    right = lambda: interp(x1, y0, f10, x1, y1, f11)
    top = lambda: interp(x0, y1, f01, x1, y1, f11)
    left = lambda: interp(x0, y0, f00, x0, y1, f01)

    table = {
        1: [(left, bottom)],
        2: [(bottom, right)],
        3: [(left, right)],
        4: [(right, top)],
        6: [(bottom, top)],
        7: [(left, top)],
        8: [(top, left)],
        9: [(bottom, top)],
        11: [(top, right)],
        12: [(right, left)],
        13: [(right, bottom)],
        14: [(left, bottom)],
    }
    if case in (5, 10):
        # saddle cell: pair by the cell-average rule
        avg_high = 0.25 * (f00 + f10 + f11 + f01) >= c
        if case == 5:
            pairs = [(left, top), (right, bottom)] if avg_high else [(left, bottom), (right, top)]
        else:
            pairs = [(bottom, left), (top, right)] if avg_high else [(bottom, right), (top, left)]
    else:
        pairs = table[case]
    return [(a(), b()) for a, b in pairs]


def legacy_polylines(p, c, bounds=(-2.0, 2.0, -2.0, 2.0), resolution=(256, 256)):
    """The polylines zvc_contours gave with the per-cell loop, for a level
    at or above the grid minimum."""
    xmin, xmax, ymin, ymax = map(float, bounds)
    nx, ny = int(resolution[0]), int(resolution[1])
    grid = GridSpec(xmin, xmax, ymin, ymax, nx, ny)
    xs = np.linspace(xmin, xmax, nx)
    ys = np.linspace(ymin, ymax, ny)
    f = omega_grid(p, xs[None, :], ys[:, None])
    masked = _mask_cells(grid, p)

    keep = np.isfinite(f)
    for ci, cj in masked:
        for di in (0, 1):
            for dj in (0, 1):
                ii, jj = ci + di, cj + dj
                if 0 <= ii < nx and 0 <= jj < ny:
                    keep[jj, ii] = False

    segments = []
    for j in range(ny - 1):
        for i in range(nx - 1):
            if (i, j) in masked:
                continue
            if not (keep[j, i] and keep[j, i + 1] and keep[j + 1, i] and keep[j + 1, i + 1]):
                continue
            segments.extend(_cell_segments(f, c, i, j, xs, ys))
    return tuple(tuple(line) for line in _chain(segments))
