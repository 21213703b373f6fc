import os
import time
import tracemalloc
from math import isqrt
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.ndimage import distance_transform_edt

from urbanmorph import pointcloud
from urbanmorph.errors import EmptyStatisticsError, FormatError
from urbanmorph.pointcloud import (
    _BLOCK,
    _GLBP_HEADER,
    MAX_ABS_ELEVATION,
    Label,
    PointCloud,
    fill_voids_nearest,
    grid_elevation,
    height_above_ground,
    read_points_csv,
    write_glbp_pieces,
)
from urbanmorph.pipeline import STAGES, PipelineConfig, _synth_spec, stage_rasterize_points
from urbanmorph.raster import Raster, clamp_nonnegative, read_raster, write_raster
from urbanmorph.synth import generate_city

NODATA = -9999.0


# The kernels that ``grid_elevation`` and ``fill_voids_nearest`` replaced,
# kept as bit-for-bit oracles: one gridding call per label, and the fill
# rounds with 2-D indexing and bounds checks over the unpruned lattice.


def grid_elevation_oracle(pc, label_filter, template):
    sel = np.isin(pc.labels, [int(l) for l in label_filter])
    xs, ys, zs = pc.xs[sel], pc.ys[sel], pc.zs[sel]
    col = np.floor((xs - template.origin_x) / template.cell_size).astype(np.int64)
    row = np.floor((ys - template.origin_y) / template.cell_size).astype(np.int64)
    in_bounds = (col >= 0) & (col < template.width) & (row >= 0) & (row < template.height)
    col, row, zs = col[in_bounds], row[in_bounds], zs[in_bounds]
    n = template.width * template.height
    flat = row * template.width + col
    sums = np.bincount(flat, weights=zs, minlength=n)
    counts = np.bincount(flat, minlength=n)
    out = np.full(n, template.nodata, dtype=np.float32)
    hit = counts > 0
    out[hit] = (sums[hit] / counts[hit]).astype(np.float32)
    return template.with_values(out)


_isqrt = np.vectorize(isqrt, otypes=[np.int64])
_D2_SPAN = 1 << 18


def lattice_oracle(lo, hi):
    rows = np.arange(-isqrt(hi), isqrt(hi) + 1)
    need = lo - rows * rows
    inner = _isqrt(np.maximum(need, 1) - 1) + (need > 0)
    count = np.maximum(_isqrt(hi - rows * rows) - inner + 1, 0)
    dr = np.repeat(rows, count)
    dc = np.repeat(inner - np.cumsum(count) + count, count) + np.arange(count.sum())
    dr, dc = np.concatenate([dr, dr[dc > 0]]), np.concatenate([dc, -dc[dc > 0]])
    d2 = dr * dr + dc * dc
    order = np.lexsort((dc, dr, d2))
    return d2[order], dr[order], dc[order]


def fill_voids_oracle(r):
    valid = r.valid_mask
    out = r.values.copy()
    if valid.all():
        return r.with_values(out)
    near_r, near_c = distance_transform_edt(~valid, return_distances=False, return_indices=True)
    void_r, void_c = np.nonzero(~valid)
    d2 = (void_r - near_r[void_r, void_c]) ** 2 + (void_c - near_c[void_r, void_c]) ** 2
    order = np.argsort(d2, kind="stable")
    void_r, void_c, d2 = void_r[order], void_c[order], d2[order]
    height, width = valid.shape
    lo = 0
    while lo < d2.size:
        hi = int(np.searchsorted(d2, d2[lo] + _D2_SPAN))
        off_d2, off_r, off_c = lattice_oracle(int(d2[lo]), int(d2[hi - 1]))
        cell = np.arange(lo, hi)
        k = np.searchsorted(off_d2, d2[lo:hi])
        while cell.size:
            rr, cc = void_r[cell] + off_r[k], void_c[cell] + off_c[k]
            hit = (rr >= 0) & (rr < height) & (cc >= 0) & (cc < width)
            hit[hit] = valid[rr[hit], cc[hit]]
            out[void_r[cell[hit]], void_c[cell[hit]]] = r.values[rr[hit], cc[hit]]
            cell, k = cell[~hit], k[~hit] + 1
        lo = hi
    return r.with_values(out)


def subtract(minuend, subtrahend):
    """The cell-wise difference that ``height_above_ground`` replaced, kept as
    its oracle: nodata in either operand is the minuend's nodata."""
    valid = minuend.valid_mask & subtrahend.valid_mask
    out = np.full_like(minuend.values, minuend.nodata)
    out[valid] = minuend.values[valid] - subtrahend.values[valid]
    return minuend.with_values(out)


def assert_same_cells(a, b):
    assert (a.width, a.height, a.origin_x, a.origin_y, a.cell_size, a.nodata) == (
        b.width, b.height, b.origin_x, b.origin_y, b.cell_size, b.nodata)
    assert a.values.tobytes() == b.values.tobytes()


def template(width, height, cell_size=1.0):
    return Raster(
        width=width,
        height=height,
        origin_x=0.0,
        origin_y=0.0,
        cell_size=cell_size,
        nodata=NODATA,
        values=np.zeros((height, width), dtype=np.float32),
    )


def csv_text(pc):
    """A points CSV of ``pc`` with ``repr`` numbers, which read back exactly."""
    names = ("ground", "building", "other")
    columns = (pc.xs.tolist(), pc.ys.tolist(), pc.zs.tolist(), pc.labels.tolist())
    return "x,y,z,label\n" + "".join(
        f"{x!r},{y!r},{z!r},{names[label]}\n" for x, y, z, label in zip(*columns)
    )


def cloud(rows):
    xs, ys, zs, labels = zip(*rows)
    return PointCloud(
        xs=np.array(xs), ys=np.array(ys), zs=np.array(zs),
        labels=np.array([int(l) for l in labels], dtype=np.int8),
    )


class TestGridElevation:
    def test_mean_of_two(self):
        pc = cloud([(0.2, 0.3, 10.0, Label.BUILDING), (0.8, 0.6, 12.0, Label.BUILDING)])
        _, out = grid_elevation(pc, template(2, 2))
        assert out.values[0, 0] == 11.0

    def test_filter_leaves_nodata(self):
        pc = cloud([(0.5, 0.5, 98.0, Label.GROUND)])
        out, _ = grid_elevation(pc, template(2, 2))
        assert out.values[0, 0] == 98.0
        pc2 = cloud([(0.5, 0.5, 98.0, Label.GROUND), (1.5, 1.5, 5.0, Label.BUILDING)])
        _, out2 = grid_elevation(pc2, template(2, 2))
        assert out2.values[0, 0] == np.float32(NODATA)

    def test_empty_selection_all_nodata(self):
        pc = cloud([(0.5, 0.5, 98.0, Label.GROUND)])
        _, out = grid_elevation(pc, template(2, 2))
        np.testing.assert_array_equal(out.values, np.float32(NODATA))

    def test_matches_bucket_oracle(self):
        rng = np.random.default_rng(17)
        n = 1000
        pc = PointCloud(
            xs=rng.uniform(0, 10, n),
            ys=rng.uniform(0, 10, n),
            zs=rng.uniform(50, 150, n),
            labels=rng.integers(0, 3, n).astype(np.int8),
        )
        t = template(10, 10)
        out, _ = grid_elevation(pc, t)
        # Brute-force accumulation per cell.
        sums = {}
        for x, y, z, l in zip(pc.xs, pc.ys, pc.zs, pc.labels):
            if l != int(Label.GROUND):
                continue
            key = (int(np.floor(y)), int(np.floor(x)))
            sums.setdefault(key, []).append(z)
        for r in range(10):
            for c in range(10):
                if (r, c) in sums:
                    assert out.values[r, c] == pytest.approx(
                        np.mean(sums[(r, c)]), rel=1e-6
                    )
                else:
                    assert out.values[r, c] == np.float32(NODATA)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(23)
        n = 500
        pc = PointCloud(
            xs=rng.uniform(0, 5, n), ys=rng.uniform(0, 5, n),
            zs=rng.uniform(0, 100, n),
            labels=np.zeros(n, dtype=np.int8),
        )
        perm = rng.permutation(n)
        pc2 = PointCloud(xs=pc.xs[perm], ys=pc.ys[perm], zs=pc.zs[perm],
                         labels=pc.labels[perm])
        a, _ = grid_elevation(pc, template(5, 5))
        b, _ = grid_elevation(pc2, template(5, 5))
        np.testing.assert_allclose(a.values, b.values, rtol=1e-6)


class TestFillVoids:
    def test_single_donor(self):
        vals = np.full((3, 3), NODATA, dtype=np.float32)
        vals[1, 1] = 42.0
        out = fill_voids_nearest(template(3, 3).with_values(vals))
        np.testing.assert_array_equal(out.values, 42.0)

    def test_no_voids_identity(self):
        rng = np.random.default_rng(2)
        r = template(4, 4).with_values(rng.uniform(0, 9, (4, 4)).astype(np.float32))
        np.testing.assert_array_equal(fill_voids_nearest(r).values, r.values)

    def test_all_nodata_raises(self):
        with pytest.raises(EmptyStatisticsError):
            fill_voids_nearest(template(2, 2).with_values(np.full((2, 2), NODATA)))

    def test_matches_exhaustive_search(self):
        rng = np.random.default_rng(31)
        vals = rng.uniform(0, 50, (5, 5)).astype(np.float32)
        voids = [(0, 0), (2, 3), (4, 4)]
        for r, c in voids:
            vals[r, c] = NODATA
        raster = template(5, 5).with_values(vals)
        out = fill_voids_nearest(raster)
        donors = [
            (r, c) for r in range(5) for c in range(5)
            if vals[r, c] != np.float32(NODATA)
        ]
        for vr, vc in voids:
            best = min(
                donors,
                key=lambda rc: ((rc[0] - vr) ** 2 + (rc[1] - vc) ** 2, rc[0], rc[1]),
            )
            assert out.values[vr, vc] == vals[best]

    def test_tie_break_row_major(self):
        # Void at (1,1) is equidistant from four donors; row-major order wins.
        vals = np.full((3, 3), NODATA, dtype=np.float32)
        vals[0, 1] = 1.0
        vals[1, 0] = 2.0
        vals[1, 2] = 3.0
        vals[2, 1] = 4.0
        out = fill_voids_nearest(template(3, 3).with_values(vals))
        assert out.values[1, 1] == 1.0


def reference_ndsm(pc, template):
    """The reference chain of the pipeline: building DSM minus the void-filled DEM."""
    dem, dsm = grid_elevation(pc, template)
    return height_above_ground(dsm, fill_voids_nearest(dem))


class TestReferenceNdsm:
    def test_box_height(self):
        pc = cloud([
            (0.5, 0.5, 5.0, Label.GROUND),
            (1.5, 0.5, 20.0, Label.BUILDING),
        ])
        out = reference_ndsm(pc, template(2, 1))
        assert out.values[0, 1] == 15.0

    def test_no_building_is_zero(self):
        pc = cloud([(0.5, 0.5, 5.0, Label.GROUND)])
        out = reference_ndsm(pc, template(2, 1))
        assert out.values[0, 0] == 0.0
        assert out.values[0, 1] == 0.0

    def test_boxes_on_ramp_recovered(self):
        # Three flat-roofed boxes on a gently sloping terrain.
        size = 30
        rng = np.random.default_rng(5)
        boxes = [(2, 2, 6, 6, 10.0), (12, 5, 7, 8, 25.0), (20, 20, 8, 6, 4.0)]
        xs, ys, zs, labels = [], [], [], []
        def terrain(x, y):
            return 100.0 + 0.01 * x
        covered = np.zeros((size, size), dtype=bool)
        truth = np.zeros((size, size))
        for bx, by, bw, bh, bz in boxes:
            covered[by:by + bh, bx:bx + bw] = True
            truth[by:by + bh, bx:bx + bw] = bz
        for r in range(size):
            for c in range(size):
                x, y = c + 0.5, r + 0.5
                if covered[r, c]:
                    xs.append(x); ys.append(y)
                    zs.append(terrain(x, y) + truth[r, c])
                    labels.append(int(Label.BUILDING))
                else:
                    xs.append(x); ys.append(y)
                    zs.append(terrain(x, y))
                    labels.append(int(Label.GROUND))
        pc = PointCloud(xs=np.array(xs), ys=np.array(ys), zs=np.array(zs),
                        labels=np.array(labels, dtype=np.int8))
        out = reference_ndsm(pc, template(size, size))
        # Interior of each box: terrain void-fill borrows a neighbor at most
        # a few cells away; with a 1 cm/m slope that is < 0.1 m of error.
        for bx, by, bw, bh, bz in boxes:
            got = out.values[by + 1:by + bh - 1, bx + 1:bx + bw - 1]
            assert np.abs(got - bz).max() < 0.1
        assert out.values.min() >= 0.0
        np.testing.assert_array_equal(out.values[~covered], 0.0)

    def test_flat_terrain_exact(self):
        pc = cloud(
            [(c + 0.5, r + 0.5, 50.0, Label.GROUND) for r in range(4) for c in range(4)
             if not (r == 1 and c == 1)]
            + [(1.5, 1.5, 62.0, Label.BUILDING)]
        )
        out = reference_ndsm(pc, template(4, 4))
        assert out.values[1, 1] == 12.0


class TestCsv:
    def test_round_trip(self, tmp_path):
        pc = cloud([
            (0.25, 0.75, 10.5, Label.GROUND),
            (1.5, 0.5, 20.25, Label.BUILDING),
            (2.5, 2.5, 30.125, Label.OTHER),
        ])
        path = tmp_path / "pts.csv"
        path.write_text(csv_text(pc))
        back = read_points_csv(path)
        np.testing.assert_allclose(back.xs, pc.xs)
        np.testing.assert_allclose(back.zs, pc.zs)
        np.testing.assert_array_equal(back.labels, pc.labels)

    def test_bad_label(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("x,y,z,label\n1,2,3,tree\n")
        with pytest.raises(FormatError, match="tree"):
            read_points_csv(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("a,b,c\n")
        with pytest.raises(FormatError):
            read_points_csv(path)

    @pytest.mark.parametrize("row", ["nan,2,3", "1,inf,3", "1,2,nan"])
    def test_non_finite_coordinate_names_line(self, tmp_path, row):
        path = tmp_path / "pts.csv"
        path.write_text(f"x,y,z,label\n1,2,3,ground\n{row},ground\n")
        with pytest.raises(FormatError, match=r"pts\.csv:3: non-finite"):
            read_points_csv(path)

    def test_undecodable_bytes_name_line(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_bytes(b"x,y,z,label\n1,2,3,ground\n1,2,\xff3,ground\n")
        with pytest.raises(FormatError, match=r"pts\.csv:3: bad number"):
            read_points_csv(path)


class TestPointCloud:
    @pytest.mark.parametrize("column", ["xs", "ys", "zs"])
    def test_rejects_non_finite(self, column):
        cols = {"xs": [0.0, 1.0], "ys": [0.0, 1.0], "zs": [5.0, 6.0], "labels": [0, 1]}
        cols[column] = [0.0, np.nan]
        with pytest.raises(ValueError, match="finite"):
            PointCloud(**cols)


class TestRasterizePointsStage:
    def test_grid_of_resampled_ndsm_drops_points_off_it(self, tmp_path):
        # The fine grid is 3 x 1 cells of 2 m from (10, 0); the points at
        # x = 9.9, at x = 16.0 and at y = 2.0 lie off it.
        out = tmp_path / "out"
        out.mkdir()
        fine = Raster(width=3, height=1, origin_x=10.0, origin_y=0.0, cell_size=2.0,
                      nodata=-1.0, values=np.full((1, 3), 7.0, dtype=np.float32))
        write_raster(fine, out / "ndsm_resampled.glbr")
        path = tmp_path / "pts.csv"
        path.write_text(csv_text(cloud([
            (9.9, 1.0, 500.0, Label.GROUND),
            (10.0, 1.0, 100.0, Label.GROUND),
            (13.5, 1.9, 101.0, Label.GROUND),
            (10.5, 0.5, 110.0, Label.BUILDING),
            (16.0, 0.5, 120.0, Label.BUILDING),
            (15.9, 2.0, 130.0, Label.BUILDING),
        ])))
        outputs = stage_rasterize_points(PipelineConfig(points=str(path), out=str(out)))
        dsm = read_raster(outputs["dsm"])
        dem = read_raster(outputs["dem"])
        for r in (dsm, dem):
            assert r.same_geometry(fine)
            assert r.nodata == NODATA
        np.testing.assert_array_equal(dsm.values, [[110.0, NODATA, NODATA]])
        np.testing.assert_array_equal(dem.values, [[100.0, 101.0, 101.0]])


@pytest.fixture(scope="module")
def reference_path_peaks(tmp_path_factory, criterion5):
    """The tracemalloc peak of each reference-path stage from ``synth`` to
    ``lod1`` on the criterion-5 recipe at 720 m (19 buildings), seed 1."""
    cfg = criterion5(tmp_path_factory.mktemp("city"), extent=720.0, seed=1)
    peaks = {}
    for name in ("synth", "resample", "rasterize-points", "ndsm", "predict", "lod1"):
        tracemalloc.start()
        try:
            STAGES[name](cfg)
            peaks[name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return peaks


class TestReferencePathMemory:
    # Measured peaks plus 5 %.  With the whole cloud built before it was
    # written, and the gridding's full-length per-point temporaries and both
    # labels' accumulators, they were 31.2 MiB (synth) and 35.2 MiB
    # (rasterize-points).  Now synth writes the cloud in row bands (14.9 MiB)
    # and the gridding takes one label at a time in point blocks (26.9 MiB).
    # Now the gridding reads a GLBP file a block at a time, holding only its
    # labels (17.0 MiB), and with the fine grid's cells freed before the
    # gridding, 15.0 MiB.  ``lod1`` was 18.0 MiB before its owned cells were
    # sorted without the owner and order copies (14.8 MiB).  With the
    # footprint mask one id grid, no float32 0/1 copy beside it, ``predict``
    # fell 12.4 -> 10.4 MiB and ``lod1`` 14.8 -> 12.8 MiB.
    @pytest.mark.parametrize("stage, mib",
                             [("synth", 14.9), ("rasterize-points", 15.0), ("predict", 10.4),
                              ("lod1", 12.8)],
                             ids=["synth", "rasterize-points", "predict", "lod1"])
    def test_peak_bound(self, reference_path_peaks, stage, mib):
        assert reference_path_peaks[stage] <= 1.05 * mib * 2**20


class TestReferenceChainRecoversTruth:
    @pytest.mark.parametrize("slope", [0.0, 0.02, -0.05])
    def test_ndsm_ref_is_truth(self, tmp_path, criterion5, slope):
        # The 720 m recipe of ``reference_path_peaks`` on a ramp.  Each cell
        # holds one point, so its DSM is float32(terrain + height) and a
        # ground cell's DEM float32(terrain); a cell under a building takes
        # the DEM of its nearest ground cell, whose terrain differs by at
        # most |slope| times their distance.  With the four float32 roundings
        # (DSM, DEM, their difference and the truth) of half a spacing each
        # at the peak elevation, and the float64 terrain, the nDSM is the
        # truth within that.
        cfg = criterion5(tmp_path, extent=720.0, seed=1, terrain_slope=slope)
        for name in ("synth", "resample", "rasterize-points", "ndsm"):
            outputs = STAGES[name](cfg)
        ndsm = read_raster(outputs["ndsm_ref"])
        spec = _synth_spec(cfg)
        scene = generate_city(spec)
        assert ndsm.same_geometry(scene.truth_ndsm)
        peak = spec.peak_elevation
        reach = distance_transform_edt(scene.mask.source_ids > 0)
        tol = 2 * np.spacing(np.float32(peak)) + 8 * np.spacing(peak) + abs(slope) * reach
        err = np.abs(ndsm.values.astype(np.float64) - scene.truth_ndsm.values)
        assert (err <= tol).all()
        assert (err[reach == 0] == 0).all()  # open ground: no height, no DSM


def nearest_donor_oracle(valid, vr, vc):
    """The declared rule by brute force: least d², then row, then column."""
    donors = zip(*np.nonzero(valid))
    return min(donors, key=lambda rc: ((rc[0] - vr) ** 2 + (rc[1] - vc) ** 2, rc[0], rc[1]))


class TestFillVoidsOracle:
    @settings(max_examples=300, deadline=None)
    @given(
        height=st.integers(1, 12),
        width=st.integers(1, 12),
        density=st.floats(0.05, 0.95),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_brute_force(self, height, width, density, seed):
        valid = np.random.default_rng(seed).random((height, width)) < density
        # Every donor holds a distinct value, so the filled value names its donor.
        ids = np.arange(1, height * width + 1).reshape(height, width)
        vals = np.where(valid, ids, NODATA).astype(np.float32)
        raster = template(width, height).with_values(vals)
        if not valid.any():
            with pytest.raises(EmptyStatisticsError):
                fill_voids_nearest(raster)
            return
        out = fill_voids_nearest(raster).values
        for vr, vc in zip(*np.nonzero(~valid)):
            assert out[vr, vc] == vals[nearest_donor_oracle(valid, vr, vc)]
        np.testing.assert_array_equal(out[valid], vals[valid])

    # The eight donors at squared distance 5 around the center of a 5x5 grid,
    # listed against row-major order.
    KNIGHT = [(4, 3), (4, 1), (3, 4), (3, 0), (1, 4), (1, 0), (0, 3), (0, 1)]

    @pytest.mark.parametrize("n_tied", range(2, 9))
    def test_tie_among_equidistant_donors(self, n_tied):
        valid = np.zeros((5, 5), dtype=bool)
        for r, c in self.KNIGHT[:n_tied]:
            valid[r, c] = True
        vals = np.where(valid, np.arange(1, 26).reshape(5, 5), NODATA).astype(np.float32)
        out = fill_voids_nearest(template(5, 5).with_values(vals)).values
        first = min(self.KNIGHT[:n_tied])
        assert out[2, 2] == vals[first]
        assert nearest_donor_oracle(valid, 2, 2) == first

    def test_every_mask_of_four_by_four(self):
        # Every non-empty donor mask of a 4x4 grid.  The oracle's least
        # (d², row, column) among a mask's donors is the first donor of the
        # mask in each void's list of all 16 cells ordered by that key; the
        # lists come from the oracle, one cell taken away at a time.
        ranked = np.empty((16, 16), dtype=np.intp)
        for vr, vc in np.ndindex(4, 4):
            left = np.ones((4, 4), dtype=bool)
            for k in range(16):
                r, c = nearest_donor_oracle(left, vr, vc)
                ranked[4 * vr + vc, k], left[r, c] = 4 * r + c, False
        masks = (np.arange(1, 1 << 16)[:, None] >> np.arange(16)) & 1 > 0
        first = np.argmax(masks[:, ranked], axis=2)
        expected = np.take_along_axis(ranked[None], first[..., None], axis=2)[..., 0] + 1
        # Every donor holds a distinct value, so the filled value names its donor.
        ids = np.arange(1, 17, dtype=np.float32)
        grid = template(4, 4)
        out = np.stack([
            fill_voids_nearest(grid.with_values(np.where(valid, ids, np.float32(NODATA)))).values
            for valid in masks
        ]).reshape(-1, 16)
        wrong = (out != expected).any(axis=1)
        assert not wrong.any(), masks[wrong][0].reshape(4, 4)

    @pytest.mark.parametrize("shape", [(1, 9), (9, 1)])
    def test_single_row_or_column_tie(self, shape):
        # A void between two donors two cells away each side takes the first.
        vals = np.full(9, NODATA, dtype=np.float32)
        vals[2], vals[6] = 1.0, 2.0
        raster = template(shape[1], shape[0]).with_values(vals.reshape(shape))
        out = fill_voids_nearest(raster).values.ravel()
        np.testing.assert_array_equal(out, [1, 1, 1, 1, 1, 2, 2, 2, 2])

    def test_far_sparse_donors(self):
        # Squared distances reach 2 * 399**2, past one offset table's span.
        vals = np.full((400, 400), NODATA, dtype=np.float32)
        vals[0, 0], vals[399, 399] = 1.0, 2.0
        valid = vals != np.float32(NODATA)
        out = fill_voids_nearest(template(400, 400).with_values(vals)).values
        rng = np.random.default_rng(4)
        for vr, vc in rng.integers(0, 400, (200, 2)):
            assert out[vr, vc] == vals[nearest_donor_oracle(valid, vr, vc)]
        # The anti-diagonal is equidistant from both donors: (0, 0) comes first.
        np.testing.assert_array_equal(np.fliplr(out).diagonal(), 1.0)

    def test_sparse_donor_memory_bound(self):
        # Two donors in opposite corners of 1,500² cells.  The fill peaked at
        # 28.0 MiB of traced allocations (17.2 MiB of feature indices, the
        # 8.6 MiB result and the mask); the bound is that plus 5 %.
        vals = np.full((1500, 1500), NODATA, dtype=np.float32)
        vals[0, 0], vals[-1, -1] = 1.0, 2.0
        raster = template(1500, 1500).with_values(vals)
        tracemalloc.start()
        try:
            out = fill_voids_nearest(raster)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.05 * 28.0 * 2**20
        # The anti-diagonal is equidistant from both donors: (0, 0) comes first.
        np.testing.assert_array_equal(np.fliplr(out.values).diagonal(), 1.0)


class TestReplacedKernelOracles:
    """The gridding, the fill and the nDSM rule give the bits of the kernels
    they replaced."""

    @settings(max_examples=300, deadline=None)
    @given(
        width=st.integers(1, 7),
        height=st.integers(1, 7),
        cell_size=st.sampled_from([0.3, 0.5, 1.0, 2.5]),
        origin=st.tuples(st.floats(-1e4, 1e4), st.floats(-1e4, 1e4)),
        n=st.integers(0, 80),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_grid_elevation_matches_per_label_calls(
        self, width, height, cell_size, origin, n, seed
    ):
        rng = np.random.default_rng(seed)
        # Cells from one beyond each edge, so some points are off the grid and
        # most cells get several points of both labels; some points sit on a
        # cell's lower corner.  Labels -1 and 3 are neither ground nor building.
        col, row = rng.integers(-1, width + 1, n), rng.integers(-1, height + 1, n)
        frac = np.where(rng.random((2, n)) < 0.2, 0.0, rng.random((2, n)))
        pc = PointCloud(
            xs=origin[0] + (col + frac[0]) * cell_size,
            ys=origin[1] + (row + frac[1]) * cell_size,
            zs=rng.uniform(-50.0, 250.0, n),
            labels=rng.integers(-1, 4, n).astype(np.int8),
        )
        t = Raster(width=width, height=height, origin_x=origin[0], origin_y=origin[1],
                   cell_size=cell_size, nodata=NODATA,
                   values=np.zeros((height, width), dtype=np.float32))
        dem, dsm = grid_elevation(pc, t)
        assert_same_cells(dem, grid_elevation_oracle(pc, {Label.GROUND}, t))
        assert_same_cells(dsm, grid_elevation_oracle(pc, {Label.BUILDING}, t))

    @settings(max_examples=300, deadline=None)
    @given(
        block=st.integers(1, 7),
        width=st.integers(1, 3),
        height=st.integers(1, 3),
        cell_size=st.sampled_from([0.5, 1.0, 2.5]),
        n=st.integers(0, 100),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_blocked_grid_elevation_matches_oracle(self, block, width, height, cell_size, n, seed):
        # Blocks of 1-7 points, so that one cell's points straddle blocks.
        # Points in shuffled order, some off the grid, a third of them
        # ``other``, on a few cells.  The elevations repeat and include
        # -0.0.  A third of the points are +2^60 and each has a -2^60 partner
        # in its cell and label: a small elevation added while a cell's sum
        # is ±2^60 is lost, so the sum depends on the order of its points.
        rng = np.random.default_rng(seed)
        k = n // 3
        col, row = rng.integers(-1, width + 1, n - k), rng.integers(-1, height + 1, n - k)
        labels = rng.integers(0, 3, n - k).astype(np.int8)
        zs = rng.choice([0.0, -0.0, 0.5, 1.0, 3.0], n - k)
        zs[:k] = 2.0**60
        col, row, labels, zs = (np.concatenate([a, a[:k]]) for a in (col, row, labels, zs))
        zs[n - k:] *= -1
        order = rng.permutation(n)
        pc = PointCloud(
            xs=(col[order] + rng.random(n)) * cell_size,
            ys=(row[order] + rng.random(n)) * cell_size,
            zs=zs[order],
            labels=labels[order],
        )
        t = template(width, height, cell_size)
        with patch.object(pointcloud, "_BLOCK", block):
            dem, dsm = grid_elevation(pc, t)
        assert_same_cells(dem, grid_elevation_oracle(pc, {Label.GROUND}, t))
        assert_same_cells(dsm, grid_elevation_oracle(pc, {Label.BUILDING}, t))

    @settings(max_examples=300, deadline=None)
    @given(
        height=st.integers(1, 40),
        width=st.integers(1, 40),
        donors=st.integers(1, 6),
        density=st.sampled_from([0.0, 0.05, 0.3, 0.8]),
        layout=st.sampled_from(["scatter", "lattice", "rectangles"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_fill_matches_two_d_rounds(self, height, width, donors, density, layout, seed):
        # A few donors far apart give long reaches and many ties at one d²;
        # a dense scatter gives short ones.  Donors on a lattice of spacing
        # 2-6 tie at almost every void; ``donors`` void rectangles, like the
        # ground under the synthetic buildings, tie along their diagonals.
        rng = np.random.default_rng(seed)
        if layout == "scatter":
            valid = rng.random((height, width)) < density
            valid.flat[rng.integers(0, height * width, donors)] = True
        elif layout == "lattice":
            step = int(rng.integers(2, 7))
            valid = np.zeros((height, width), dtype=bool)
            valid[rng.integers(min(step, height))::step, rng.integers(min(step, width))::step] = True
        else:
            valid = np.ones((height, width), dtype=bool)
            for _ in range(donors):
                r, c = rng.integers(height), rng.integers(width)
                valid[r:r + rng.integers(1, height + 1), c:c + rng.integers(1, width + 1)] = False
            if not valid.any():
                valid.flat[rng.integers(height * width)] = True
        vals = np.where(valid, rng.integers(1, 5, (height, width)), NODATA).astype(np.float32)
        raster = template(width, height).with_values(vals)
        assert_same_cells(fill_voids_nearest(raster), fill_voids_oracle(raster))

    @pytest.mark.parametrize("shape", [(1, 200), (200, 1), (90, 3)])
    def test_fill_one_cell_wide(self, shape):
        vals = np.full(shape, NODATA, dtype=np.float32)
        vals.flat[[7, vals.size - 5]] = (1.0, 2.0)
        raster = template(shape[1], shape[0]).with_values(vals)
        assert_same_cells(fill_voids_nearest(raster), fill_voids_oracle(raster))

    def test_fill_ties_at_equal_d2(self):
        # Donors on a ring of d² = 25 around each void (12 lattice points,
        # (±3, ±4), (±4, ±3), (0, ±5), (±5, 0)), a random subset each time.
        rng = np.random.default_rng(8)
        ring = [(dr, dc) for dr in range(-5, 6) for dc in range(-5, 6) if dr * dr + dc * dc == 25]
        for _ in range(40):
            vals = np.full((11, 11), NODATA, dtype=np.float32)
            for i in rng.choice(len(ring), rng.integers(1, len(ring) + 1), replace=False):
                vals[5 + ring[i][0], 5 + ring[i][1]] = float(i + 1)
            raster = template(11, 11).with_values(vals)
            out = fill_voids_nearest(raster)
            assert_same_cells(out, fill_voids_oracle(raster))
            valid = vals != np.float32(NODATA)
            assert out.values[5, 5] == vals[nearest_donor_oracle(valid, 5, 5)]

    def test_sparse_fill_no_worse_than_two_d_rounds(self):
        # Two donors in opposite corners: almost every void tries offsets off
        # the grid before it finds its donor.  On a 2-core host the fill that
        # this one replaced peaked at 18.9 MiB and took 0.13 s; this one
        # 1.2 MiB and 0.003 s.
        vals = np.full((300, 300), NODATA, dtype=np.float32)
        vals[0, 0], vals[-1, -1] = 1.0, 2.0
        raster = template(300, 300).with_values(vals)
        peaks, seconds = {}, {}
        for name, fill in (("oracle", fill_voids_oracle), ("fill", fill_voids_nearest)):
            tracemalloc.start()
            try:
                out = fill(raster)
                peaks[name] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            times = []
            for _ in range(3):
                start = time.perf_counter()
                fill(raster)
                times.append(time.perf_counter() - start)
            seconds[name] = min(times)
            if name == "oracle":
                expected = out
        assert_same_cells(out, expected)
        assert peaks["fill"] <= peaks["oracle"]
        assert seconds["fill"] <= seconds["oracle"]

    @settings(max_examples=200, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 8), st.integers(1, 8)),
        nodata=st.tuples(st.sampled_from([-9999.0, 0.0, 2.0, -1.0]),
                         st.sampled_from([-9999.0, 0.0, 2.0, 5.0])),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_height_above_ground_matches_subtract_and_clamp(self, shape, nodata, seed):
        # Small integers, so that differences hit either sentinel and 0 often.
        rng = np.random.default_rng(seed)
        dsm = template(*shape[::-1]).with_values(
            rng.integers(-3, 6, shape).astype(np.float32), nodata=nodata[0])
        dem = template(*shape[::-1]).with_values(
            rng.integers(-3, 6, shape).astype(np.float32), nodata=nodata[1])
        ndsm = clamp_nonnegative(subtract(dsm, dem))
        expected = ndsm.with_values(np.where(ndsm.valid_mask, ndsm.values, np.float32(0.0)))
        assert_same_cells(height_above_ground(dsm, dem), expected)


AWKWARD = [-0.0, 5e-324, 0.1, 1e16, 123456789.123, -2.5, 7.0]


def good_rows(n):
    return [f"{i}.5,{i % 7}.25,{100 + i % 13},{('ground', 'building', 'other')[i % 3]}\n"
            for i in range(n)]


class TestCsvBlocks:
    def test_first_bad_line_wins(self, tmp_path):
        # A bad number on line 3 comes before an unknown label on line 5.
        path = tmp_path / "pts.csv"
        path.write_text("x,y,z,label\n1,2,3,ground\n1,two,3,ground\n"
                        "1,2,3,other\n1,2,3,tree\n")
        with pytest.raises(FormatError, match=r"pts\.csv:3: bad number"):
            read_points_csv(path)

    @pytest.mark.parametrize("bad, message", [
        ("1,2,3", "expected 4 fields"),
        ("1,2,3,tree", "unknown label 'tree'"),
        ("1,x,3,ground", "bad number"),
        ("1,2,inf,ground", "non-finite coordinate"),
    ])
    def test_bad_line_after_first_block(self, tmp_path, bad, message):
        # Two blank lines in the first block still count as lines.
        lines = good_rows(_BLOCK + 10)
        lines[5:5] = ["\n", "   \n"]
        lines.append(bad + "\n")
        path = tmp_path / "pts.csv"
        path.write_text("x,y,z,label\n" + "".join(lines))
        with pytest.raises(FormatError, match=rf"pts\.csv:{len(lines) + 1}: {message}"):
            read_points_csv(path)

    def test_blank_lines_and_crlf(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_bytes(b"x,y,z,label\r\n1,2,3,ground\r\n\r\n  \r\n"
                         b" 4 , 5 ,6, Building \r\n\n7,8,9,OTHER\r\n")
        pc = read_points_csv(path)
        np.testing.assert_array_equal(pc.xs, [1.0, 4.0, 7.0])
        np.testing.assert_array_equal(pc.zs, [3.0, 6.0, 9.0])
        np.testing.assert_array_equal(pc.labels, [0, 1, 2])
        path.write_bytes(b"x,y,z,label\r\n1,2,3,ground\r\n\r\n1,2,3,tree\r\n")
        with pytest.raises(FormatError, match=r"pts\.csv:4: unknown label"):
            read_points_csv(path)

    def test_fields_split_across_rows_rejected(self, tmp_path):
        # A 3-field row then a 5-field row hold 8 fields whose every fourth is
        # a label; the rows are still bad, the first on line 2.
        path = tmp_path / "pts.csv"
        path.write_text("x,y,z,label\n1,2,3\nground,1,2,3,ground\n")
        with pytest.raises(FormatError, match=r"pts\.csv:2: expected 4 fields"):
            read_points_csv(path)

    def test_header_only_is_empty(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("x,y,z,label\n")
        pc = read_points_csv(path)
        assert len(pc) == 0
        assert pc.labels.dtype == np.int8


def assert_bits_equal(a, b):
    a, b = np.asarray(a, np.float64), np.asarray(b, np.float64)
    assert a.shape == b.shape
    np.testing.assert_array_equal(a.view(np.int64), b.view(np.int64))


_MANTISSAS = np.random.default_rng(5).integers(10**8, 10**9, 50).astype(float)
EDGE_VALUES = np.concatenate([
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
     1e-30, -1e-30, 1e30, -1e30, 1e22, 1e23, 1.7976931348623157e308, -1.5],
    # Exact decimal ties at the 10th significant digit, at several scales.
    _MANTISSAS + 0.5, -(_MANTISSAS + 0.5), _MANTISSAS * 10 + 5, _MANTISSAS * 100 + 50,
    (_MANTISSAS + 0.5) / 1024, [0.5, 2.5, 1.25e-7, 999999999.5, 99999999.95],
    # Powers of ten, their neighbours, and 9 nines rounding up a decade.
    [np.nextafter(10.0**e, to) for e in range(-30, 31) for to in (0.0, 10.0**e, np.inf)],
    [9.999999995 * 10.0**e for e in range(-30, 31)],
    [9.9999999949 * 10.0**e for e in range(-30, 31)],
])


def awkward_cloud(n):
    """``n`` points with hard-to-print coordinates, every label used."""
    i = np.arange(n)
    # Scaling z by up to 2 must stay finite.
    values = np.concatenate([AWKWARD, EDGE_VALUES[np.abs(EDGE_VALUES) < 1e300]])
    rng = np.random.default_rng(2)
    return PointCloud(
        xs=np.take(values, i, mode="wrap"),
        ys=rng.uniform(-1e6, 1e6, n),
        zs=np.take(values, i + 3, mode="wrap") * rng.uniform(0.5, 2.0, n),
        labels=(i % 3).astype(np.int8),
    )


class TestGlbp:
    @pytest.mark.parametrize("n", [1, _BLOCK + 7])
    def test_glbp_and_csv_read_back_bit_identical(self, tmp_path, n):
        pc = awkward_cloud(n)
        (tmp_path / "pts.csv").write_text(csv_text(pc))
        write_glbp_pieces(tmp_path / "pts.glbp", len(pc), [(0, pc)])
        for back in (read_points_csv(tmp_path / "pts.glbp"), read_points_csv(tmp_path / "pts.csv")):
            labels, *xyz = next(back.blocks(len(back)))
            for got, want in zip(xyz, (pc.xs, pc.ys, pc.zs)):
                assert_bits_equal(got, want)
            assert labels.dtype == np.int8
            np.testing.assert_array_equal(labels, pc.labels)

    def test_layout(self, tmp_path):
        pc = cloud([(1.0, 2.0, 3.0, Label.BUILDING), (4.0, 5.0, 6.0, Label.OTHER)])
        write_glbp_pieces(tmp_path / "pts.glbp", len(pc), [(0, pc)])
        raw = (tmp_path / "pts.glbp").read_bytes()
        assert raw[:14] == b"GLBP" + (1).to_bytes(2, "little") + (2).to_bytes(8, "little")
        assert raw[14:62] == np.array([1.0, 4.0, 2.0, 5.0, 3.0, 6.0], "<f8").tobytes()
        assert raw[62:] == bytes([1, 2])

    def test_empty_cloud_round_trips(self, tmp_path):
        write_glbp_pieces(tmp_path / "e.glbp", 0, [(0, PointCloud(xs=[], ys=[], zs=[], labels=[]))])
        assert (tmp_path / "e.glbp").stat().st_size == 14
        back = read_points_csv(tmp_path / "e.glbp")
        assert len(back) == 0
        assert back.labels.dtype == np.int8

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(0, 30), cuts=st.lists(st.integers(0, 30), max_size=6),
           block=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
    def test_pieces_and_blocks_share_one_layout(self, glbp_dir, n, cuts, block, seed):
        # The cloud cut at ``cuts`` into uneven pieces, a repeated cut making
        # an empty piece, written in shuffled order: the bytes of the whole
        # cloud written at once, read back bit for bit a block at a time.
        rng = np.random.default_rng(seed)
        values = EDGE_VALUES[np.abs(EDGE_VALUES) <= MAX_ABS_ELEVATION]
        pc = PointCloud(*rng.choice(values, (3, n)), labels=rng.integers(0, 3, n))
        bounds = [0, *sorted(c % (n + 1) for c in cuts), n]
        pieces = [(a, PointCloud(pc.xs[a:b], pc.ys[a:b], pc.zs[a:b], pc.labels[a:b]))
                  for a, b in zip(bounds, bounds[1:])]
        shuffled = [pieces[i] for i in rng.permutation(len(pieces))]
        write_glbp_pieces(glbp_dir / "pieces.glbp", n, shuffled)
        write_glbp_pieces(glbp_dir / "whole.glbp", len(pc), [(0, pc)])
        assert (glbp_dir / "pieces.glbp").read_bytes() == (glbp_dir / "whole.glbp").read_bytes()
        with patch.object(pointcloud, "_BLOCK", block):
            points = read_points_csv(glbp_dir / "pieces.glbp")
            blocks = list(points.blocks(pointcloud._BLOCK))
        sizes = [len(labels) for labels, *_ in blocks]
        assert (sizes == [0]) if n == 0 else all(0 < size <= block for size in sizes)
        for got, want in zip(zip(*blocks), (pc.labels, pc.xs, pc.ys, pc.zs)):
            assert_bits_equal(np.concatenate(got), want)


class TestWholeRead:
    """``next(points.blocks(len(points)))`` reads a cloud whole, in memory or
    from a file; an empty cloud is one empty block."""

    @staticmethod
    def points(tmp_path, kind, pc):
        """``pc`` itself, or read back from its GLBP file."""
        write_glbp_pieces(tmp_path / "p.glbp", len(pc), [(0, pc)])
        return pc if kind == "memory" else read_points_csv(tmp_path / "p.glbp")

    @pytest.mark.parametrize("n", [0, 1, 5])
    @pytest.mark.parametrize("kind", ["memory", "glbp"])
    def test_one_block_of_every_point(self, tmp_path, kind, n):
        pc = awkward_cloud(n)
        points = self.points(tmp_path, kind, pc)
        blocks = list(points.blocks(len(points)))
        assert len(blocks) == 1
        for got, want in zip(blocks[0], (pc.labels, pc.xs, pc.ys, pc.zs)):
            assert got.dtype == want.dtype
            assert_bits_equal(got, want)

    @pytest.mark.parametrize("n, size", [(0, -1), (3, 0), (3, -2)])
    @pytest.mark.parametrize("kind", ["memory", "glbp"])
    def test_size_below_one_rejected(self, tmp_path, kind, n, size):
        points = self.points(tmp_path, kind, awkward_cloud(n))
        with pytest.raises(ValueError, match=rf"^block size {size} is below {min(n, 1)}"):
            next(points.blocks(size))


class TestElevationBound:
    """A point whose |z| exceeds ``MAX_ABS_ELEVATION`` is a FormatError in
    either format; at the bound, the DSM, the DEM and the nDSM stay finite."""

    def test_bound_keeps_rasters_finite(self, tmp_path):
        top = MAX_ABS_ELEVATION
        pc = cloud([(0.5, 0.5, -top, Label.GROUND), (0.5, 0.5, -top, Label.GROUND),
                    (0.5, 0.5, top, Label.BUILDING), (0.5, 0.5, top, Label.BUILDING)])
        (tmp_path / "p.csv").write_text(csv_text(pc))
        write_glbp_pieces(tmp_path / "p.glbp", len(pc), [(0, pc)])
        for name in ("p.csv", "p.glbp"):
            dem, dsm = grid_elevation(read_points_csv(tmp_path / name), template(1, 1))
            assert (dem.values[0, 0], dsm.values[0, 0]) == (np.float32(-top), np.float32(top))
            assert np.isfinite(dsm.values - dem.values).all()

    @pytest.mark.parametrize("z", [1e39, -1e39, np.nextafter(MAX_ABS_ELEVATION, np.inf)])
    def test_glbp_counts_elevations_across_blocks(self, tmp_path, z):
        pc = awkward_cloud(10)
        pc.zs[0] = pc.zs[-1] = z
        write_glbp_pieces(tmp_path / "p.glbp", len(pc), [(0, pc)])
        with patch.object(pointcloud, "_BLOCK", 4), pytest.raises(
                FormatError, match=r"p\.glbp: 2 elevations out of range \(\|z\| > 1\.70141e\+38\)$"):
            read_points_csv(tmp_path / "p.glbp")

    @pytest.mark.parametrize("z", [1e39, -1e39, np.nextafter(MAX_ABS_ELEVATION, np.inf)])
    def test_point_cloud_rejects(self, z):
        # In memory too: a cloud that holds it is never gridded.
        with pytest.raises(ValueError, match=r"^1 elevations out of range \(\|z\| > 1\.70141e\+38\)$"):
            cloud([(0.5, 0.5, z, Label.GROUND), (0.5, 0.5, 1.0, Label.GROUND)])
        top = cloud([(0.5, 0.5, MAX_ABS_ELEVATION, Label.GROUND)])
        dem, _ = grid_elevation(top, template(1, 1))
        assert np.isfinite(dem.values).all()

    def test_glbp_non_finite_wins(self, tmp_path):
        pc = awkward_cloud(10)
        pc.zs[0], pc.ys[5] = 1e39, np.nan
        write_glbp_pieces(tmp_path / "p.glbp", len(pc), [(0, pc)])
        with pytest.raises(FormatError, match=r"p\.glbp: 1 non-finite coordinates$"):
            read_points_csv(tmp_path / "p.glbp")

    @pytest.mark.parametrize("at", [2, _BLOCK + 1], ids=["first-block", "second-block"])
    @pytest.mark.parametrize("z", ["1e39", "-1e39", repr(float(np.nextafter(MAX_ABS_ELEVATION, np.inf)))])
    def test_csv_names_line(self, tmp_path, z, at):
        lines = good_rows(_BLOCK + 3)
        lines.insert(at, f"1,2,{z},ground\n")
        path = tmp_path / "pts.csv"
        path.write_text("x,y,z,label\n" + "".join(lines))
        message = rf"pts\.csv:{at + 2}: elevation out of range \(\|z\| > 1\.70141e\+38\)$"
        with pytest.raises(FormatError, match=message):
            read_points_csv(path)


@pytest.fixture(scope="module")
def glbp_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("streamed")


class TestStreamedGlbp:
    """A GLBP file is gridded a block at a time from the file: the same bits
    as the cloud in memory, every fault raised as a FormatError."""

    @settings(max_examples=200, deadline=None)
    @given(
        block=st.integers(1, 6),
        k=st.integers(0, 8),
        extra=st.sampled_from(["none", "one", "short"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_memory_and_oracle(self, glbp_dir, block, k, extra, seed):
        # n is k whole blocks, one point past them, or one short of the next:
        # n = 0, n < block, n = k * block and k * block + 1 all come up.  The
        # points are of every label and some are off the 2 x 1 grid.  A third
        # of the elevations are ±2^60: a small elevation added while a cell's
        # sum is ±2^60 is lost, so the sum depends on the order of its points.
        n = k * block + {"none": 0, "one": 1, "short": block - 1}[extra]
        rng = np.random.default_rng(seed)
        zs = rng.choice([0.0, -0.0, 0.5, 3.0, 2.0**60, -(2.0**60)], n)
        pc = PointCloud(xs=rng.uniform(-0.5, 2.5, n), ys=rng.uniform(-0.25, 1.25, n), zs=zs,
                        labels=rng.integers(0, 3, n).astype(np.int8))
        path = glbp_dir / "pts.glbp"
        write_glbp_pieces(path, len(pc), [(0, pc)])
        t = template(2, 1)
        with patch.object(pointcloud, "_BLOCK", block):
            points = read_points_csv(path)
            assert len(points) == n
            streamed, in_memory = grid_elevation(points, t), grid_elevation(pc, t)
        for label, a, b in zip((Label.GROUND, Label.BUILDING), streamed, in_memory):
            assert_same_cells(a, b)
            assert_same_cells(a, grid_elevation_oracle(pc, {label}, t))

    def test_non_finite_count_spans_blocks(self, tmp_path):
        # A NaN in the first block and an inf in the last: one count of both.
        pc = awkward_cloud(10)
        pc.xs[0], pc.zs[-1] = np.nan, np.inf
        path = tmp_path / "p.glbp"
        with open(path, "wb") as f:
            _GLBP_HEADER.write_header(f, 10)
            for column in (pc.xs, pc.ys, pc.zs, pc.labels):
                column.tofile(f)
        with patch.object(pointcloud, "_BLOCK", 4), \
                pytest.raises(FormatError, match=rf"p\.glbp: 2 non-finite coordinates$"):
            read_points_csv(path)

    def test_file_truncated_after_read_fails_gridding(self, tmp_path):
        path = tmp_path / "p.glbp"
        pc = awkward_cloud(20)
        write_glbp_pieces(path, len(pc), [(0, pc)])
        points = read_points_csv(path)
        os.truncate(path, 100)
        with pytest.raises(FormatError,
                           match=r"p\.glbp: expected 514 bytes, got 100 \(truncation at byte 100\)"):
            grid_elevation(points, template(3, 3))

    def test_read_holds_a_fraction_of_the_file(self, tmp_path):
        n = 300_000
        path = tmp_path / "p.glbp"
        pc = PointCloud(xs=np.arange(n) % 997.0, ys=np.zeros(n), zs=np.ones(n),
                        labels=np.arange(n) % 3)
        write_glbp_pieces(path, n, [(0, pc)])
        tracemalloc.start()
        try:
            points = read_points_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(points) == n
        assert peak < path.stat().st_size / 4
