import argparse
import builtins
import hashlib
import json
import os
import platform
import shutil
import struct
import subprocess
import sys
import warnings
import weakref
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from urbanmorph import cli, network, pipeline, tiler
from urbanmorph.cli import _config_from_args, build_parser, main
from urbanmorph.lod1 import read_lod1
from urbanmorph.pipeline import (
    MAX_ELEVATION,
    PipelineConfig,
    build_config,
    parse_config_file,
    run_all,
)
from urbanmorph.errors import ConfigError
from urbanmorph.footprints import BuildingFootprint, write_footprints
from urbanmorph.pointcloud import PointCloud, read_points_csv, write_glbp_pieces
from urbanmorph.raster import Raster, minmax_normalize, read_raster, write_raster

SMALL_CONFIG = """\
# small synthetic scene for end-to-end runs
extent = 200
n_buildings = 8
footprint_min = 12
footprint_max = 24
height_min = 4
height_max = 25
coarse_factor = 8
noise_sigma = 0.5
resolutions = 100
directions = 0,90
predictor = baseline
seed = 3
"""


def write_config(tmp_path, text=SMALL_CONFIG, extra=""):
    path = tmp_path / "run.cfg"
    path.write_text(text + extra)
    return str(path)


def tree_digest(root):
    digests = {}
    for dirpath, _, filenames in os.walk(root):
        for name in filenames:
            p = os.path.join(dirpath, name)
            rel = os.path.relpath(p, root)
            digests[rel] = hashlib.sha256(open(p, "rb").read()).hexdigest()
    return digests


class TestConfigParsing:
    def test_key_value_with_comments(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("seed = 5  # the seed\n\n# comment line\nextent = 100\n")
        vals = parse_config_file(str(path))
        assert vals == {"seed": "5", "extent": "100"}

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            parse_config_file("/nonexistent/x.cfg")

    def test_bad_line(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("just words\n")
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_file(str(path))

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            build_config({"bogus": "1"}, {})

    def test_type_coercion(self):
        cfg = build_config(
            {"seed": "7", "extent": "300", "snap_to_coarse": "true"},
            {"epochs": "12"},
        )
        assert cfg.seed == 7 and isinstance(cfg.seed, int)
        assert cfg.extent == 300.0 and isinstance(cfg.extent, float)
        assert cfg.snap_to_coarse is True
        assert cfg.epochs == 12

    @pytest.mark.parametrize("raw, value", [("1", True), ("TRUE", True), ("Yes", True),
                                            ("0", False), ("False", False), ("no", False)])
    def test_bool_values(self, raw, value):
        assert build_config({"snap_to_coarse": raw}, {}).snap_to_coarse is value

    def test_bad_value(self):
        with pytest.raises(ConfigError, match="seed"):
            build_config({"seed": "not-a-number"}, {})

    @pytest.mark.parametrize("raw", ["banana", "Flase", "2"])
    def test_bad_bool_value(self, raw):
        with pytest.raises(ConfigError, match=f"'snap_to_coarse': {raw}$"):
            build_config({"snap_to_coarse": raw}, {})

    def test_bad_bool_in_config_file_exit_2_before_synth(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = main(["--config", write_config(tmp_path, extra="snap_to_coarse = banana\n"),
                     "--out", str(out), "run"])
        err = capsys.readouterr().err
        assert code == 2
        assert err == "ERROR stage=run: bad value for config key 'snap_to_coarse': banana\n"
        assert not out.exists()

    def test_directory_config_exit_2(self, tmp_path, capsys):
        code = main(["--config", str(tmp_path), "--out", str(tmp_path / "o"), "report"])
        err = capsys.readouterr().err
        assert code == 2
        assert err == f"ERROR stage=report: config file not found: {tmp_path}\n"

    def test_undecodable_config_exit_2(self, tmp_path, capsys):
        path = tmp_path / "c.cfg"
        path.write_bytes(b"seed = 1\n\xff\xfe = 2\n")
        code = main(["--config", str(path), "--out", str(tmp_path / "o"), "report"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1
        assert err.startswith(f"ERROR stage=report: {path}: config file is not text")

    def test_override_wins(self):
        cfg = build_config({"seed": "1"}, {"seed": "9"})
        assert cfg.seed == 9

    def test_resolution_list(self):
        cfg = build_config({"resolutions": "100,300"}, {})
        assert cfg.resolution_list() == [100.0, 300.0]
        with pytest.raises(ConfigError):
            build_config({"resolutions": "-5"}, {}).resolution_list()


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("run")
    cfg_path = write_config(tmp)
    out = tmp / "out"
    code = main(["--config", cfg_path, "--out", str(out), "run"])
    assert code == 0
    return out


class TestFullRun:
    def test_expected_outputs_exist(self, run_dir):
        for name in [
            "footprints.geojson",
            "points.glbp",
            "coarse_ndsm.glbr",
            "population.glbr",
            "dsm.glbr",
            "dem.glbr",
            "ndsm_ref.glbr",
            "ndsm_resampled.glbr",
            "predicted_heights.glbr",
            "lod1_pred.geojson",
            "lod1_ref.geojson",
            "report.txt",
        ]:
            assert (run_dir / name).exists(), name
        assert (run_dir / "ucp_pred_100m" / "ucp_mean_100m.glbr").exists()
        assert (run_dir / "ucp_ref_100m" / "ucp_table.csv").exists()
        assert (run_dir / "validation_100m" / "metrics.csv").exists()

    def test_top_level_file_set(self, run_dir):
        # No file that no stage reads: synth's truth stays in memory, and the
        # network resamples the population itself.
        assert sorted(os.listdir(run_dir)) == [
            "coarse_ndsm.glbr", "dem.glbr", "dsm.glbr", "footprints.geojson",
            "lod1_pred.geojson", "lod1_ref.geojson", "ndsm_ref.glbr", "ndsm_resampled.glbr",
            "points.glbp", "population.glbr",
            "predicted_heights.glbr", "report.txt", "ucp_pred_100m", "ucp_ref_100m",
            "validation_100m",
        ]

    def test_reference_heights_recovered(self, run_dir):
        # The reference LoD-1 heights come from the synthetic truth field and
        # must match the generator's per-building heights closely.
        from urbanmorph.synth import SyntheticCitySpec, generate_city

        scene = generate_city(SyntheticCitySpec(
            extent_m=200, n_buildings=8, footprint_min=12, footprint_max=24,
            height_min=4, height_max=25, coarse_factor=8, noise_sigma=0.5, seed=3,
        ))
        ref = {b.footprint.id: b.height for b in read_lod1(run_dir / "lod1_ref.geojson")}
        for fid, h in scene.heights.items():
            assert ref[fid] == pytest.approx(h, abs=0.01)

    def test_predictions_geometry(self, run_dir):
        pred = read_raster(run_dir / "predicted_heights.glbr")
        truth = read_raster(run_dir / "ndsm_ref.glbr")
        assert (pred.width, pred.height) == (truth.width, truth.height)
        assert pred.values.min() >= 0.0

    def test_report_mentions_metrics(self, run_dir):
        text = (run_dir / "report.txt").read_text()
        assert "resolution 100 m:" in text
        assert "rmse" in text

    def test_rerun_byte_identical(self, run_dir, tmp_path):
        cfg_path = write_config(tmp_path)
        out2 = tmp_path / "out2"
        assert main(["--config", cfg_path, "--out", str(out2), "run"]) == 0
        assert tree_digest(run_dir) == tree_digest(out2)


class TestLod1ReadOnce:
    def test_each_lod1_file_read_once_per_stage(self, run_dir, tmp_path, monkeypatch):
        for name in ("predicted_heights.glbr", "lod1_pred.geojson", "lod1_ref.geojson"):
            shutil.copy(run_dir / name, tmp_path / name)
        reads = []

        def counting_read_lod1(path, **kwargs):
            reads.append(os.path.basename(path))
            return read_lod1(path, **kwargs)

        monkeypatch.setattr(pipeline.lod1_mod, "read_lod1", counting_read_lod1)
        cfg = build_config(
            {"resolutions": "100,300", "directions": "0,90"}, {"out": str(tmp_path)}
        )
        for stage in ("ucp", "validate"):
            reads.clear()
            outputs = pipeline.STAGES[stage](cfg)
            assert len(outputs) == {"ucp": 4, "validate": 2}[stage]
            # validate reads back the tables ucp wrote, and no LoD-1 file.
            expect = {"ucp": ["lod1_pred.geojson", "lod1_ref.geojson"], "validate": []}
            assert sorted(reads) == expect[stage], stage


class TestRasterizeOncePerStage:
    def test_baseline_run(self, tmp_path, monkeypatch):
        calls = Counter()
        running = []
        real_rasterize = pipeline.rasterize

        def counting_rasterize(*args, **kwargs):
            calls[running[-1]] += 1
            return real_rasterize(*args, **kwargs)

        def recorded(name, stage):
            def run_stage(cfg):
                running.append(name)
                return stage(cfg)
            return run_stage

        monkeypatch.setattr(pipeline, "rasterize", counting_rasterize)
        for name, stage in list(pipeline.STAGES.items()):
            monkeypatch.setitem(pipeline.STAGES, name, recorded(name, stage))
        cfg = build_config(
            parse_config_file(write_config(tmp_path)), {"out": str(tmp_path / "out")}
        )
        run_all(cfg)
        assert running == pipeline.RUN_ORDER
        assert calls == {"predict": 1, "lod1": 1, "ucp": 1}


class TestBaselinePredict:
    def test_masked_clamped(self, tmp_path):
        # A footprint over the first two cells, a negative and a positive
        # height, and a positive height on the third cell, off it.
        heights = Raster(width=3, height=1, origin_x=0.0, origin_y=0.0, cell_size=1.0,
                         nodata=-9999.0, values=np.array([[-2.0, 5.0, 7.0]]))
        write_raster(heights, tmp_path / "ndsm_resampled.glbr")
        write_footprints([BuildingFootprint(id=1, exterior=[(0, 0), (2, 0), (2, 1), (0, 1)])],
                         tmp_path / "footprints.geojson")
        pipeline.STAGES["predict"](PipelineConfig(out=str(tmp_path), predictor="baseline"))
        pred = read_raster(tmp_path / "predicted_heights.glbr")
        assert pred.values.dtype == np.float32
        np.testing.assert_array_equal(pred.values, [[0.0, 5.0, 0.0]])


class TestNetworkRun:
    def test_tiny_network_end_to_end(self, tmp_path):
        cfg_path = write_config(
            tmp_path,
            extra="predictor = network\nepochs = 2\ndepth = 1\nbase_filters = 2\n"
                  "learning_rate = 0.01\n",
        )
        out = tmp_path / "out"
        assert main(["--config", cfg_path, "--out", str(out), "run"]) == 0
        assert (out / "weights.glbw").exists()
        loss_lines = (out / "loss_history.csv").read_text().splitlines()
        assert loss_lines[0] == "epoch,mean_loss"
        assert len(loss_lines) == 3
        pred = read_raster(out / "predicted_heights.glbr")
        assert np.isfinite(pred.values).all()

    def test_rerun_byte_identical(self, tmp_path):
        cfg_path = write_config(
            tmp_path, extra="predictor = network\nepochs = 1\ndepth = 1\nbase_filters = 2\n"
        )
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            assert main(["--config", cfg_path, "--out", str(out), "run"]) == 0
        assert "weights.glbw" in tree_digest(outs[0])
        assert tree_digest(outs[0]) == tree_digest(outs[1])


    def test_divergence_exit_1_without_weights(self, tmp_path, capsys):
        cfg_path = write_config(
            tmp_path, extra="predictor = network\nepochs = 1\ndepth = 1\nbase_filters = 2\n"
                            "learning_rate = 1e200\n"
        )
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["--config", cfg_path, "--out", str(out), "run"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.count("\n") == 1 and err.startswith("ERROR stage=run: training diverged")
        assert "epoch 0, sample 0" in err
        assert not (out / "weights.glbw").exists()


class TestNetworkStageInputs:
    @staticmethod
    def copy_inputs(run_dir, tmp_path, names, population=False):
        for name in names:
            shutil.copy(run_dir / name, tmp_path / name)
        flags = ["--footprints", str(run_dir / "footprints.geojson")]
        return flags + ["--population", str(run_dir / "population.glbr")] * population

    def test_bad_weights_header_exit_2(self, run_dir, tmp_path, capsys):
        flags = self.copy_inputs(run_dir, tmp_path, ("ndsm_resampled.glbr", "ndsm_ref.glbr"),
                                 population=True)
        path = tmp_path / "weights.glbw"
        network.write_weights(
            network.init_weights(network.ModelConfig(depth=1, base_filters=2)), path
        )
        raw = bytearray(path.read_bytes())
        struct.pack_into("<i", raw, 6, 0)  # the depth field
        path.write_bytes(bytes(raw))
        code = main(["--out", str(tmp_path), "predict", "--predictor", "network", *flags])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and err.startswith("ERROR stage=predict: ")
        assert "weights.glbw: bad model header" in err
        assert not (tmp_path / "predicted_heights.glbr").exists()

    def test_train_dataset_is_channels_then_target(self, run_dir, tmp_path, monkeypatch, stitch):
        # Each training pair is one tile: every channel but the last as the
        # input, and the normalized reference, the last channel, as the target;
        # every tile and target is a read-only view of one array, the stack.
        flags = self.copy_inputs(run_dir, tmp_path, ("ndsm_resampled.glbr", "ndsm_ref.glbr"),
                                 population=True)
        seen = []

        def train(weights, dataset, cfg):
            seen.extend(dataset)
            return weights, []

        monkeypatch.setattr(network, "train", train)
        code = main(["--out", str(tmp_path), "train", "--depth", "1", "--base-filters", "2",
                     "--epochs", "1", *flags])
        assert code == 0
        ndsm, _ = minmax_normalize(read_raster(tmp_path / "ndsm_resampled.glbr"))
        target, _ = minmax_normalize(read_raster(tmp_path / "ndsm_ref.glbr"))
        assert len(seen) == len(tiler.windows(target)) == 1
        assert all(x.shape[-1] == 3 for x, _ in seen)
        stack = seen[0][0].base
        for part in seen:
            for a in part:
                assert np.shares_memory(a, stack) and not a.flags.writeable
        for expected, part in ((ndsm, [x[..., 0] for x, _ in seen]),
                               (target, [y for _, y in seen])):
            back = stitch(target, np.stack(part))
            assert back.values.tobytes() == expected.values.tobytes()

    def test_train_target_not_aligned_exit_2(self, run_dir, tmp_path, capsys):
        flags = self.copy_inputs(run_dir, tmp_path, ("ndsm_resampled.glbr",), population=True)
        ref = read_raster(run_dir / "ndsm_ref.glbr")
        write_raster(
            Raster(width=320, height=320, origin_x=ref.origin_x, origin_y=ref.origin_y,
                   cell_size=ref.cell_size, nodata=ref.nodata,
                   values=np.zeros((320, 320), dtype=np.float32)),
            tmp_path / "ndsm_ref.glbr",
        )
        code = main(["--out", str(tmp_path), "train", "--depth", "1", "--base-filters", "2",
                     "--epochs", "1", *flags])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and err.startswith("ERROR stage=train: ")
        first, moved = tmp_path / "ndsm_resampled.glbr", tmp_path / "ndsm_ref.glbr"
        assert f"{first} and {moved} not aligned" in err
        assert not (tmp_path / "weights.glbw").exists()

    @pytest.mark.parametrize("stage", ["train", "predict"])
    def test_first_fault_in_read_order_reported(self, run_dir, tmp_path, capsys, stage):
        # A nodata cell in the first raster read is reported, not the
        # missing second one: each raster is checked before the next is read.
        flags = self.copy_inputs(run_dir, tmp_path, ("ndsm_resampled.glbr", "ndsm_ref.glbr"))
        network.write_weights(
            network.init_weights(network.ModelConfig(depth=1, base_filters=2)),
            tmp_path / "weights.glbw",
        )
        r = read_raster(tmp_path / "ndsm_resampled.glbr")
        r.values[3, 4] = r.nodata
        write_raster(r, tmp_path / "ndsm_resampled.glbr")
        before = tree_digest(tmp_path)
        code = main(["--out", str(tmp_path), stage, "--predictor", "network", "--depth", "1",
                     "--base-filters", "2", "--epochs", "1", *flags])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and err.startswith(f"ERROR stage={stage}: ")
        assert "ndsm_resampled.glbr: 1 nodata cells" in err
        assert tree_digest(tmp_path) == before


    def test_read_keeps_no_yielded_raster(self, run_dir):
        # A raster the caller drops is freed before the generator resumes, so
        # the first one does not stay alive beside what is built from it.
        rasters = pipeline._read(PipelineConfig(out=str(run_dir)), "ndsm_resampled", "ndsm_ref")
        first = weakref.ref(next(rasters))
        assert first() is None
        (second,) = rasters
        assert second.values.shape == read_raster(run_dir / "ndsm_ref.glbr").values.shape

    @pytest.mark.parametrize(
        "stage, name, cell, message",
        [("train", "ndsm_resampled.glbr", np.nan, "1 non-finite cells"),
         ("predict", "ndsm_ref.glbr", -9999.0, "1 nodata cells")],
    )
    def test_bad_cell_in_network_input_exit_2(self, run_dir, tmp_path, capsys,
                                              stage, name, cell, message):
        flags = self.copy_inputs(run_dir, tmp_path, ("ndsm_resampled.glbr", "ndsm_ref.glbr"),
                                 population=True)
        network.write_weights(
            network.init_weights(network.ModelConfig(depth=1, base_filters=2)),
            tmp_path / "weights.glbw",
        )
        r = read_raster(tmp_path / name)
        r.values[7, 9] = cell
        write_raster(r, tmp_path / name)
        before = tree_digest(tmp_path)
        code = main(["--out", str(tmp_path), stage, "--predictor", "network", "--depth", "1",
                     "--base-filters", "2", "--epochs", "1", *flags])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and err.startswith(f"ERROR stage={stage}: ")
        assert f"{name}: {message}" in err
        assert tree_digest(tmp_path) == before


    def test_weights_for_other_channel_count_exit_2(self, run_dir, tmp_path, capsys):
        flags = self.copy_inputs(run_dir, tmp_path, ("ndsm_resampled.glbr", "ndsm_ref.glbr"),
                                 population=True)
        path = tmp_path / "weights.glbw"
        network.write_weights(
            network.init_weights(network.ModelConfig(depth=1, base_filters=2, in_channels=2)),
            path,
        )
        before = tree_digest(tmp_path)
        code = main(["--out", str(tmp_path), "predict", "--predictor", "network", *flags])
        err = capsys.readouterr().err
        assert code == 2
        assert err == (f"ERROR stage=predict: {path}: 2 input channels; "
                       "the pipeline gives 3\n")
        assert tree_digest(tmp_path) == before

    @pytest.mark.parametrize("stage", ["train", "predict"])
    def test_unset_population_exit_2(self, run_dir, tmp_path, capsys, stage):
        flags = self.copy_inputs(run_dir, tmp_path, ("ndsm_resampled.glbr", "ndsm_ref.glbr"))
        before = tree_digest(tmp_path)
        code = main(["--out", str(tmp_path), stage, "--predictor", "network", "--depth", "1",
                     "--base-filters", "2", "--epochs", "1", *flags])
        assert code == 2
        assert capsys.readouterr().err == (
            f"ERROR stage={stage}: {tmp_path / 'population.glbr'}: population file not found\n")
        assert tree_digest(tmp_path) == before

    def test_population_with_nodata_cell_exit_2(self, run_dir, tmp_path, capsys):
        flags = self.copy_inputs(run_dir, tmp_path, ("ndsm_resampled.glbr", "ndsm_ref.glbr"))
        pop = read_raster(run_dir / "population.glbr")
        pop.values[1, 2] = pop.nodata
        path = tmp_path / "pop.glbr"
        write_raster(pop, path)
        before = tree_digest(tmp_path)
        code = main(["--out", str(tmp_path), "train", "--depth", "1", "--base-filters", "2",
                     "--epochs", "1", "--population", str(path), *flags])
        assert code == 2
        assert capsys.readouterr().err == (
            f"ERROR stage=train: {path}: 1 nodata cells; resampling needs gap-free input\n")
        assert tree_digest(tmp_path) == before

    def test_population_on_another_grid_exit_2(self, run_dir, tmp_path, capsys):
        flags = self.copy_inputs(run_dir, tmp_path, ("ndsm_resampled.glbr", "ndsm_ref.glbr"))
        path = tmp_path / "pop.glbr"
        write_raster(on_coarser_grid(read_raster(run_dir / "population.glbr")), path)
        code = main(["--out", str(tmp_path), "train", "--depth", "1", "--base-filters", "2",
                     "--epochs", "1", "--population", str(path), *flags])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and err.startswith("ERROR stage=train: ")
        assert f"{tmp_path / 'ndsm_resampled.glbr'} and {path} resampled to 1 m not aligned" in err
        assert not (tmp_path / "weights.glbw").exists()


class TestMissingEarlierOutput:
    @pytest.mark.parametrize("stage, copied, missing", [
        ("ndsm", (), "dsm.glbr"),
        ("lod1", (), "predicted_heights.glbr"),
        ("ucp", ("predicted_heights.glbr",), "lod1_pred.geojson"),
        ("validate", ("predicted_heights.glbr",), "ucp_pred_100m/ucp_table.csv"),
        ("predict", ("ndsm_resampled.glbr", "ndsm_ref.glbr"), "weights.glbw"),
    ])
    def test_names_the_file_not_a_config_key(self, run_dir, tmp_path, capsys,
                                             stage, copied, missing):
        out = tmp_path / "o"
        out.mkdir()
        for name in copied:
            shutil.copy(run_dir / name, out / name)
        code = main(["--out", str(out), stage, "--predictor", "network", "--resolutions", "100",
                     "--footprints", str(run_dir / "footprints.geojson"),
                     "--population", str(run_dir / "population.glbr")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and err.startswith(f"ERROR stage={stage}: {out / missing}")
        assert "config key" not in err
        assert sorted(p.name for p in out.iterdir()) == sorted(copied)


class TestResampleInputs:
    def test_coarse_with_nodata_cell_exit_2(self, run_dir, tmp_path, capsys):
        coarse = read_raster(run_dir / "coarse_ndsm.glbr")
        coarse.values[2, 3] = coarse.nodata
        path = tmp_path / "c.glbr"
        write_raster(coarse, path)
        code = main(["--out", str(tmp_path / "o"), "resample", "--coarse-ndsm", str(path)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"ERROR stage=resample: {path}: 1 nodata cells; resampling needs gap-free input\n")
        assert not (tmp_path / "o").exists()

    def test_writes_only_the_resampled_ndsm(self, run_dir, tmp_path):
        out = tmp_path / "o"
        assert main(["--out", str(out), "resample",
                     "--coarse-ndsm", str(run_dir / "coarse_ndsm.glbr")]) == 0
        assert os.listdir(out) == ["ndsm_resampled.glbr"]
        assert (out / "ndsm_resampled.glbr").read_bytes() == (
            run_dir / "ndsm_resampled.glbr").read_bytes()


class TestNoBuildings:
    @pytest.mark.parametrize("predictor", ["baseline", "network"])
    def test_run_exit_0_with_empty_metrics(self, tmp_path, capsys, predictor):
        out = tmp_path / "o"
        code = main(["--out", str(out), "run", *TINY_RUN, "--n-buildings", "0",
                     "--predictor", predictor, "--epochs", "1", "--depth", "1",
                     "--base-filters", "2"])
        assert code == 0, capsys.readouterr().err
        np.testing.assert_array_equal(read_raster(out / "ndsm_ref.glbr").values, 0.0)
        assert "  mean,0,nan,nan,0\n" in (out / "report.txt").read_text()


class TestErrorHandling:
    def test_missing_input_exit_2_names_key(self, tmp_path, capsys):
        code = main(["--out", str(tmp_path / "o"),
                     "rasterize-points", "--points", "/no/such/file.csv"])
        captured = capsys.readouterr()
        assert code == 2
        assert "ERROR stage=rasterize-points" in captured.err
        assert "points" in captured.err

    def test_directory_as_input_exit_2(self, tmp_path, capsys):
        code = main(["--out", str(tmp_path / "o"), "rasterize-points", "--points", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err == f"ERROR stage=rasterize-points: {tmp_path}: points file not found\n"

    def test_line_break_in_value_stays_one_line(self, tmp_path, capsys):
        code = main(["--out", str(tmp_path / "o"), "report", "--resolutions=1\r\n2"])
        err = capsys.readouterr().err
        assert code == 2
        assert err == "ERROR stage=report: bad resolutions '1\\r\\n2'\n"

    def test_unset_input_exit_2(self, tmp_path, capsys):
        code = main(["--out", str(tmp_path / "o"), "predict"])
        captured = capsys.readouterr()
        assert code == 2
        assert "ERROR stage=predict" in captured.err

    def test_unknown_config_key_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("nonsense_key = 1\n")
        code = main(["--config", str(cfg), "--out", str(tmp_path / "o"), "synth"])
        captured = capsys.readouterr()
        assert code == 2
        assert "nonsense_key" in captured.err

    @pytest.mark.parametrize("stage", ["ucp"])
    def test_missing_lod1_exit_2(self, tmp_path, capsys, stage):
        code = main(["--out", str(tmp_path / "o"), stage])
        captured = capsys.readouterr()
        assert code == 2
        assert f"ERROR stage={stage}" in captured.err
        assert "lod1_pred" in captured.err

    @pytest.mark.parametrize("stage", ["ucp"])
    def test_lod1_footprint_mismatch_exit_2(self, run_dir, tmp_path, capsys, stage):
        for name in ("predicted_heights.glbr", "lod1_pred.geojson", "lod1_ref.geojson"):
            shutil.copy(run_dir / name, tmp_path / name)
        ref_path = tmp_path / "lod1_ref.geojson"
        ref = json.loads(ref_path.read_text())
        ring = ref["features"][0]["geometry"]["coordinates"][0]
        ring[1] = [ring[1][0] + 0.5, ring[1][1]]
        ref_path.write_text(json.dumps(ref))
        code = main(["--out", str(tmp_path), stage])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("ERROR") == 1 and err.startswith(f"ERROR stage={stage}: ")
        assert "lod1_pred.geojson" in err and "lod1_ref.geojson" in err
        assert "Traceback" not in err

    def test_ucp_feature_without_id_names_file_and_feature(self, run_dir, tmp_path, capsys):
        for name in ("predicted_heights.glbr", "lod1_pred.geojson", "lod1_ref.geojson"):
            shutil.copy(run_dir / name, tmp_path / name)
        ref_path = tmp_path / "lod1_ref.geojson"
        ref = json.loads(ref_path.read_text())
        del ref["features"][1]["properties"]["id"]
        ref_path.write_text(json.dumps(ref))
        code = main(["--out", str(tmp_path), "ucp"])
        err = capsys.readouterr().err
        assert code == 2
        assert err == (f"ERROR stage=ucp: {ref_path}: features[1]: "
                       "feature missing required 'id' property\n")
        assert not any(tmp_path.glob("ucp_*"))

    @pytest.mark.parametrize("damage", ["missing", "malformed", "cells", "columns-differ"])
    def test_validate_bad_table_exit_2(self, run_dir, tmp_path, capsys, damage):
        shutil.copy(run_dir / "predicted_heights.glbr", tmp_path / "predicted_heights.glbr")
        for kind in ("pred", "ref"):
            shutil.copytree(run_dir / f"ucp_{kind}_100m", tmp_path / f"ucp_{kind}_100m")
        table = tmp_path / "ucp_ref_100m" / "ucp_table.csv"
        lines = table.read_text().splitlines(keepends=True)
        if damage == "missing":
            table.unlink()
        elif damage == "malformed":
            table.write_text("".join(lines).replace("\n0,", "\nabc,", 1))
        elif damage == "cells":
            table.write_text("".join(lines[:-1]))
        else:  # a table of its own, one height bin short of the pred table's
            table.write_text("".join(line.rsplit(",", 1)[0] + "\n" for line in lines))
        code = main(["--out", str(tmp_path), "validate", "--resolutions", "100"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and err.startswith("ERROR stage=validate: ")
        assert "ucp_ref_100m" in err and "Traceback" not in err
        assert not any(tmp_path.glob("validation_*"))

    def test_validate_reads_every_table_before_writing(self, run_dir, tmp_path, capsys):
        # The 100 m pair is whole; the 200 m pair is missing.
        shutil.copy(run_dir / "predicted_heights.glbr", tmp_path / "predicted_heights.glbr")
        for kind in ("pred", "ref"):
            shutil.copytree(run_dir / f"ucp_{kind}_100m", tmp_path / f"ucp_{kind}_100m")
        code = main(["--out", str(tmp_path), "validate", "--resolutions", "100,200"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and "ucp_pred_200m" in err
        assert not any(tmp_path.glob("validation_*"))

    @pytest.mark.parametrize(
        "flags",
        [["--n-buildings", "-1"], ["--predictor", "network", "--epochs", "0"]],
        ids=["n_buildings", "epochs"],
    )
    def test_rejected_run_value_exit_2(self, tmp_path, capsys, flags):
        code = main(["--out", str(tmp_path / "o"), "run",
                     "--extent", "64", "--n-buildings", "2",
                     "--footprint-min", "8", "--footprint-max", "12",
                     "--coarse-factor", "8", *flags])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("ERROR stage=run: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("under_file", [False, True], ids=["file", "under-file"])
    def test_out_path_not_a_directory_exit_2(self, tmp_path, capsys, under_file):
        (tmp_path / "f").write_text("x")
        out = tmp_path / "f" / "o" if under_file else tmp_path / "f"
        code = main(["--out", str(out), "synth", *TINY_RUN])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and err.startswith("ERROR stage=synth: ")
        assert (tmp_path / "f").read_text() == "x"

    def test_report_creates_out(self, tmp_path, capsys):
        out = tmp_path / "new"
        assert main(["--out", str(out), "report"]) == 0
        assert "(no validation output)" in (out / "report.txt").read_text()

    @pytest.mark.parametrize("stage", ["synth", "run"])
    def test_more_buildings_than_cells_exit_2(self, tmp_path, capsys, stage):
        out = tmp_path / "o"
        code = main(["--out", str(out), stage, *TINY_RUN, "--n-buildings", str(10**12)])
        err = capsys.readouterr().err
        assert code == 2
        assert err == (f"ERROR stage={stage}: bad n_buildings {10**12}: more than the "
                       "4096 cells of a 64 m scene\n")
        assert not out.exists()

    def test_unset_points_exit_2(self, tmp_path, capsys):
        code = main(["--out", str(tmp_path / "o"), "rasterize-points"])
        assert code == 2
        assert capsys.readouterr().err == (
            f"ERROR stage=rasterize-points: {tmp_path / 'o' / 'points.glbp'}: "
            "points file not found\n")

    def test_unplaceable_building_exit_1(self, tmp_path, capsys):
        # Four 100 m slots, and every draw is wider than 100 m.
        out = tmp_path / "o"
        code = main(["--out", str(out), "run", "--extent", "200", "--n-buildings", "4",
                     "--footprint-min", "100", "--footprint-max", "1000"])
        assert code == 1
        assert capsys.readouterr().err == (
            "ERROR stage=run: could not place a 100.0-1000.0 m building in a 100.0 m slot "
            "after 25 tries\n")
        assert not out.exists()

    def test_bad_predictor_exit_2(self, tmp_path, capsys):
        code = main(["--out", str(tmp_path / "o"), "predict", "--predictor", "oracle"])
        assert code == 2

    def test_outputs_printed(self, tmp_path, capsys):
        code = main(["--out", str(tmp_path / "o"), "synth",
                     "--extent", "64", "--n-buildings", "2",
                     "--footprint-min", "8", "--footprint-max", "12",
                     "--coarse-factor", "8"])
        captured = capsys.readouterr()
        assert code == 0
        assert "footprints\t" in captured.out
        assert "points\t" in captured.out


def write_csv(path, labels, *xyz):
    """A points CSV with ``repr`` numbers, which read back exactly."""
    names = np.array(["ground", "building", "other"])[labels].tolist()
    rows = zip(*(column.tolist() for column in xyz), names)
    Path(path).write_text(
        "x,y,z,label\n" + "".join(f"{x!r},{y!r},{z!r},{name}\n" for x, y, z, name in rows)
    )


class TestPointFormats:
    def test_glbp_and_csv_points_give_identical_rasters(self, run_dir, tmp_path):
        pc = read_points_csv(run_dir / "points.glbp")
        write_csv(tmp_path / "points.csv", *next(pc.blocks(len(pc))))
        rasters = []
        for name in ("points.glbp", "points.csv"):
            out = tmp_path / name.replace(".", "_")
            out.mkdir()
            shutil.copy(run_dir / "ndsm_resampled.glbr", out)
            points = run_dir / name if name.endswith(".glbp") else tmp_path / name
            assert main(["--out", str(out), "rasterize-points", "--points", str(points)]) == 0
            rasters.append([(out / f).read_bytes() for f in ("dsm.glbr", "dem.glbr")])
        assert rasters[0] == rasters[1]

    @pytest.mark.parametrize("kind", ["glbp", "csv"])
    def test_elevation_beyond_bound_exit_2(self, run_dir, tmp_path, capsys, kind):
        # One ground elevation of 1e39, beyond float32's range: one error that
        # names the points file, and no DSM or DEM.
        pc = read_points_csv(run_dir / "points.glbp")
        labels, xs, ys, zs = next(pc.blocks(len(pc)))
        cloud = PointCloud(xs, ys, zs, labels)
        cloud.zs[np.argmax(labels == 0)] = 1e39  # after PointCloud's own check
        points = tmp_path / f"points.{kind}"
        if kind == "glbp":
            write_glbp_pieces(points, len(cloud), [(0, cloud)])
        else:
            write_csv(points, labels, xs, ys, cloud.zs)
        shutil.copy(run_dir / "ndsm_resampled.glbr", tmp_path)
        code = main(["--out", str(tmp_path), "rasterize-points", "--points", str(points)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1
        assert err.startswith(f"ERROR stage=rasterize-points: {points}")
        assert "elevation" in err and "out of range" in err
        assert not (tmp_path / "dem.glbr").exists() and not (tmp_path / "dsm.glbr").exists()


class TestAsciiNodata:
    def test_resample_nodata_beyond_float32_exit_2(self, tmp_path, capsys):
        path = tmp_path / "coarse.asc"
        path.write_text("ncols 1\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 30\n"
                        "NODATA_value 1e50\n5\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["--out", str(tmp_path / "out"), "resample",
                         "--coarse-ndsm", str(path), "--population", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert not caught
        assert err.count("\n") == 1 and err.startswith("ERROR stage=resample: ")
        assert "coarse.asc: malformed raster (nodata sentinel must be finite)" in err


class TestStagewiseEqualsRun:
    def test_stage_by_stage_matches_run(self, tmp_path):
        cfg_path = write_config(tmp_path)
        out_a = tmp_path / "a"
        assert main(["--config", cfg_path, "--out", str(out_a), "run"]) == 0

        out_b = tmp_path / "b"
        base = ["--config", cfg_path, "--out", str(out_b)]
        assert main(base + ["synth"]) == 0
        inputs = [
            "--points", str(out_b / "points.glbp"),
            "--footprints", str(out_b / "footprints.geojson"),
            "--coarse-ndsm", str(out_b / "coarse_ndsm.glbr"),
            "--population", str(out_b / "population.glbr"),
        ]
        for stage in ["resample", "rasterize-points", "ndsm", "predict",
                      "lod1", "ucp", "validate", "report"]:
            assert main(base + [stage] + inputs) == 0, stage
        assert tree_digest(out_a) == tree_digest(out_b)

    def test_stage_by_stage_without_input_flags_matches_run(self, run_dir, tmp_path):
        # Each later stage finds synth's files in --out by their keys.
        base = ["--config", write_config(tmp_path), "--out", str(tmp_path / "b")]
        for stage in pipeline.RUN_ORDER:
            assert main(base + [stage]) == 0, stage
        assert tree_digest(tmp_path / "b") == tree_digest(run_dir)

    @pytest.mark.parametrize("key", pipeline.INPUTS)
    def test_run_with_an_input_key_set_exit_2(self, run_dir, tmp_path, capsys, key):
        out = tmp_path / "o"
        path = run_dir / pipeline.FILES[key]
        code = main(["--out", str(out), "run", *TINY_RUN, f"--{key.replace('_', '-')}", str(path)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"ERROR stage=run: config key '{key}' is set, but a run reads the {key} synth writes\n")
        assert not out.exists()


def tree_files(root):
    """The path of every file under ``root``, relative to it."""
    return {os.path.relpath(os.path.join(d, name), root)
            for d, _, names in os.walk(root) for name in names}


def declared_names(cfg, keys):
    """The names in --out of the files of ``keys``, one per resolution for a
    ``{res}`` key."""
    return {pipeline.FILES[key].format(res=f"{res:g}")
            for key in keys for res in cfg.resolution_list()}


class TestDeclaredStageFiles:
    @pytest.mark.parametrize("predictor", pipeline.PREDICTORS)
    def test_each_stage_touches_only_its_declared_files(self, tmp_path, monkeypatch, predictor):
        # Two resolutions, so that each {res} key has two files.
        cfg = build_config(parse_config_file(write_config(tmp_path)), {
            "out": str(tmp_path / "out"), "resolutions": "50,100", "predictor": predictor,
            "epochs": 1, "depth": 1, "base_filters": 2})
        opened = []
        real_open = builtins.open

        def spy(file, mode="r", *args, **kwargs):
            opened.append((os.path.relpath(file, cfg.out).split(os.sep)[0], mode))
            return real_open(file, mode, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", spy)
        stages = list(pipeline.STAGES)
        if predictor == "baseline":
            stages.remove("train")
        for stage in stages:
            before = tree_files(cfg.out)
            opened.clear()
            outputs = pipeline.STAGES[stage](cfg)
            reads, writes = pipeline.STAGE_FILES[stage]
            if isinstance(reads, dict):
                reads = reads[predictor]
            created = {p.split(os.sep)[0] for p in tree_files(cfg.out) - before}
            assert {name for name, mode in opened if mode in ("r", "rb")} == (
                declared_names(cfg, reads)), stage
            assert {name for name, mode in opened if mode not in ("r", "rb")} == created, stage
            assert created == declared_names(cfg, writes), stage
            assert {os.path.basename(p) for p in outputs.values()} == created, stage


# mallopt parameters, as glibc's <malloc.h> numbers them.
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3

# ``run_all`` in a fresh process on the config given as JSON, with the memory
# policy or with it replaced by a no-op ("off"); prints the run's minor page
# faults.
_FRESH_RUN = """
import json, resource, sys
from urbanmorph import pipeline
if sys.argv[2] == "off":
    pipeline.reuse_freed_memory = lambda: None
cfg = pipeline.PipelineConfig(**json.loads(sys.argv[1]))
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
pipeline.run_all(cfg)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


class TestReuseFreedMemory:
    def test_glibc_thresholds_set(self, monkeypatch):
        calls = []
        monkeypatch.setattr(pipeline.platform, "libc_ver", lambda: ("glibc", "2.36"))
        monkeypatch.setattr(pipeline.ctypes, "CDLL", lambda name: SimpleNamespace(
            mallopt=lambda param, value: calls.append((param, value)) or 1))
        pipeline.reuse_freed_memory()
        assert calls == [(M_MMAP_THRESHOLD, 32 * 2**20), (M_TRIM_THRESHOLD, -1)]

    @pytest.mark.parametrize("libc", [("", ""), ("musl", "1.2")])
    def test_no_call_elsewhere(self, monkeypatch, libc):
        opened = []
        monkeypatch.setattr(pipeline.platform, "libc_ver", lambda: libc)
        monkeypatch.setattr(pipeline.ctypes, "CDLL", opened.append)
        pipeline.reuse_freed_memory()
        assert opened == []

    def test_called_once_per_run_and_command(self, tmp_path, monkeypatch):
        calls = []
        for module in (pipeline, cli):
            monkeypatch.setattr(module, "reuse_freed_memory", lambda: calls.append(1))
        cfg_path = write_config(tmp_path)
        run_all(build_config(parse_config_file(cfg_path), {"out": str(tmp_path / "a")}))
        assert len(calls) == 1
        base = ["--config", cfg_path, "--out", str(tmp_path / "b")]
        assert main(base + ["run"]) == 0
        assert len(calls) == 2
        assert main(base + ["resample", "--coarse-ndsm",
                            str(tmp_path / "b" / "coarse_ndsm.glbr")]) == 0
        assert main(base + ["report"]) == 0
        assert len(calls) == 4

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="a glibc malloc policy")
    def test_same_bytes_fewer_faults_in_fresh_process(self, tmp_path, criterion5, child_env):
        faults, digests = {}, {}
        for mode in ("on", "off"):
            out = tmp_path / mode
            # The 720 m recipe of ``reference_path_peaks`` (test_pointcloud.py).
            cfg = json.dumps(vars(criterion5(out, extent=720.0, seed=1)))
            done = subprocess.run([sys.executable, "-c", _FRESH_RUN, cfg, mode], env=child_env,
                                  capture_output=True, text=True, timeout=300)
            assert done.returncode == 0, done.stderr
            faults[mode], digests[mode] = int(done.stdout), tree_digest(out)
        assert digests["on"] and digests["on"] == digests["off"]
        # 4,900 against 18,400 faults when measured (a ratio of 0.27).
        assert faults["on"] < 0.5 * faults["off"], faults


def on_coarser_grid(r):
    """``r`` on a grid of twice its cell size, over about the same extent."""
    return Raster(width=r.width // 2, height=r.height // 2, origin_x=r.origin_x,
                  origin_y=r.origin_y, cell_size=2 * r.cell_size, nodata=r.nodata,
                  values=r.values[: r.height // 2 * 2 : 2, : r.width // 2 * 2 : 2])


class TestOneGridPerStage:
    @pytest.mark.parametrize("stage, first, moved", [
        ("ndsm", "dsm.glbr", "dem.glbr"),
        ("lod1", "predicted_heights.glbr", "ndsm_ref.glbr"),
    ])
    def test_raster_on_another_grid_exit_2(self, run_dir, tmp_path, capsys, stage, first, moved):
        shutil.copy(run_dir / first, tmp_path / first)
        write_raster(on_coarser_grid(read_raster(run_dir / moved)), tmp_path / moved)
        before = tree_digest(tmp_path)
        code = main(["--out", str(tmp_path), stage,
                     "--footprints", str(run_dir / "footprints.geojson")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and err.startswith(f"ERROR stage={stage}: ")
        assert f"{tmp_path / first} and {tmp_path / moved} not aligned" in err
        assert tree_digest(tmp_path) == before

    @pytest.mark.parametrize("rows", ["", "1.5,1.5,10.0,other\n"],
                             ids=["header-only", "other-only"])
    def test_no_ground_point_exit_2(self, run_dir, tmp_path, capsys, rows):
        shutil.copy(run_dir / "ndsm_resampled.glbr", tmp_path / "ndsm_resampled.glbr")
        points = tmp_path / "points.csv"
        points.write_text("x,y,z,label\n" + rows)
        before = tree_digest(tmp_path)
        code = main(["--out", str(tmp_path), "rasterize-points", "--points", str(points)])
        err = capsys.readouterr().err
        assert code == 2
        assert err == (f"ERROR stage=rasterize-points: {points}: no ground point on the grid "
                       f"of {tmp_path / 'ndsm_resampled.glbr'}\n")
        assert tree_digest(tmp_path) == before


class TestRejectedBeforeWork:
    def test_lod1_bad_footprint_value_exit_2(self, run_dir, tmp_path, capsys):
        for name in ("predicted_heights.glbr", "ndsm_ref.glbr"):
            shutil.copy(run_dir / name, tmp_path / name)
        fc = json.loads((run_dir / "footprints.geojson").read_text())
        fc["features"][1]["properties"]["id"] = "abc"
        bad = tmp_path / "footprints.geojson"
        bad.write_text(json.dumps(fc))
        code = main(["--out", str(tmp_path), "lod1", "--footprints", str(bad)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and err.startswith("ERROR stage=lod1: ")
        assert "footprints.geojson: features[1]: bad value" in err
        assert not (tmp_path / "lod1_pred.geojson").exists()

    @pytest.mark.parametrize(
        "rings",
        [[[[0, 0], [2, 2], [2, 0], [0, 2], [0, 0]]],
         "zero-area hole", "collinear hole", "hole over exterior"],
        ids=["bowtie", "zero-area-hole", "collinear-hole", "hole-over-exterior"],
    )
    def test_predict_bad_footprint_geometry_exit_2(self, run_dir, tmp_path, capsys, rings):
        shutil.copy(run_dir / "ndsm_resampled.glbr", tmp_path / "ndsm_resampled.glbr")
        fc = json.loads((run_dir / "footprints.geojson").read_text())
        coords = fc["features"][1]["geometry"]["coordinates"]
        (x, y), *_ = coords[0]
        if rings == "zero-area hole":
            rings = [coords[0], [[x + 1, y + 1], [x + 2, y + 2], [x + 3, y + 3]]]
        elif rings == "collinear hole":
            # A shoelace residue of -1.8e-12 m², which an absolute 1e-12 floor let pass.
            rings = [coords[0], [[263.4, 66.8], [264.4, 67.8], [265.4, 68.8]]]
        elif rings == "hole over exterior":
            rings = [coords[0], [[-1, -1], [999, -1], [999, 999], [-1, 999]]]
        fc["features"][1]["geometry"]["coordinates"] = rings
        bad = tmp_path / "footprints.geojson"
        bad.write_text(json.dumps(fc))
        code = main(["--out", str(tmp_path), "predict", "--footprints", str(bad)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and err.startswith("ERROR stage=predict: ")
        assert "footprints.geojson: features[1]: bad value" in err
        assert not (tmp_path / "predicted_heights.glbr").exists()

    def test_lod1_duplicate_footprint_id_exit_2(self, run_dir, tmp_path, capsys):
        for name in ("predicted_heights.glbr", "ndsm_ref.glbr"):
            shutil.copy(run_dir / name, tmp_path / name)
        fc = json.loads((run_dir / "footprints.geojson").read_text())
        fid = fc["features"][1]["properties"]["id"]
        fc["features"][2]["properties"]["id"] = fid
        bad = tmp_path / "footprints.geojson"
        bad.write_text(json.dumps(fc))
        code = main(["--out", str(tmp_path), "lod1", "--footprints", str(bad)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and err.startswith("ERROR stage=lod1: ")
        assert f"footprints.geojson: features[2]: duplicate id {fid} " in err
        assert not (tmp_path / "lod1_pred.geojson").exists()

    def test_lod1_empty_coordinates_exit_2(self, run_dir, tmp_path, capsys):
        for name in ("predicted_heights.glbr", "ndsm_ref.glbr"):
            shutil.copy(run_dir / name, tmp_path / name)
        fc = json.loads((run_dir / "footprints.geojson").read_text())
        fc["features"][1]["geometry"]["coordinates"] = []
        fid = fc["features"][1]["properties"]["id"]
        bad = tmp_path / "footprints.geojson"
        bad.write_text(json.dumps(fc))
        code = main(["--out", str(tmp_path), "lod1", "--footprints", str(bad)])
        err = capsys.readouterr().err
        assert code == 2
        assert err == f"ERROR stage=lod1: {bad}: features[1]: feature {fid}: empty coordinates\n"
        assert not (tmp_path / "lod1_pred.geojson").exists()

    def test_network_settings_checked_before_first_stage(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = main(["--out", str(out), "run", "--extent", "64", "--n-buildings", "2",
                     "--footprint-min", "8", "--footprint-max", "12",
                     "--coarse-factor", "8", "--predictor", "network", "--epochs", "0"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("ERROR stage=run: ")
        assert not out.exists() or not any(out.rglob("*"))


TINY_RUN = ["--extent", "64", "--n-buildings", "2", "--footprint-min", "8",
            "--footprint-max", "12", "--coarse-factor", "8"]


class TestRunValuesCheckedFirst:
    @pytest.mark.parametrize(
        "flags",
        [["--statistic", "mode"], ["--predictor", "oracle"], ["--resolutions", "0"],
         ["--directions", "abc"], ["--resolutions", "inf"], ["--resolutions", "nan"],
         ["--directions", "nan"], ["--height-cap", "nan"], ["--height-cap", "-5"],
         ["--extent", "nan"], ["--fine-cell-size", "nan"], ["--fine-cell-size", "0"],
         ["--bin-width", "0"], ["--learning-rate", "inf"],
         # Finite, but the bin count or a grid would be beyond the declared bounds.
         ["--bin-width", "1e-300"], ["--height-cap", "1e+300"], ["--resolutions", "1e300"],
         ["--fine-cell-size", "0.001"],
         # Not a whole number of 1 m fine cells.
         ["--resolutions", "0.1"],
         # 2001 x 2001 cells of 1 m, each with 9869 histogram bins.
         ["--bin-width", "0.0076", "--resolutions", "1", "--extent", "2000"],
         # 64 x 64 cells with 9869 bins: 4.0e7 entries, about 1.6 GB.
         ["--bin-width", "0.0076", "--resolutions", "1"],
         # A MAPE floor of 0 would divide by zero references.
         ["--min-reference", "0"],
         # numpy takes no negative seed, and GLBW stores the network's as an int64.
         ["--seed", "-1"],
         ["--seed", "9223372036854775808", "--predictor", "network", "--epochs", "1"],
         # A 64 m extent rounded up to whole coarse cells of 100 km.
         ["--coarse-factor", "100000"],
         # A U-Net whose step on one tile would hold about 1.1e13 values.
         ["--base-filters", "100000", "--predictor", "network"],
         # Elevations beyond MAX_ELEVATION: past the float range, past the
         # float32 range of the rasters, and where float32 rounding of terrain
         # plus height erases the buildings.
         ["--terrain-slope", "1e+307"], ["--terrain-slope", "1e+37"],
         ["--terrain-slope", "1000000000.0"], ["--terrain-slope", "-200.0"],
         ["--height-min", "1e+39", "--height-max", "1e+39"],
         ["--height-min", "1000000000000.0", "--height-max", "1000000000000.0"]],
        ids=["statistic", "predictor", "resolutions", "directions", "resolutions-inf",
             "resolutions-nan", "directions-nan", "height_cap-nan", "height_cap-negative",
             "extent-nan", "fine_cell_size-nan", "fine_cell_size-0", "bin_width-0",
             "learning_rate-inf", "bin_width-tiny", "height_cap-huge", "resolutions-huge",
             "fine_cell_size-tiny", "resolutions-fraction", "histograms-huge",
             "histograms-64m", "min_reference-0", "seed-negative", "seed-beyond-int64",
             "coarse_factor-huge", "base_filters-huge", "terrain_slope-overflow",
             "terrain_slope-float32-overflow", "terrain_slope-rounding", "terrain_slope-negative",
             "heights-float32-overflow", "heights-rounding"],
    )
    def test_run_exit_2_before_any_stage(self, tmp_path, capsys, flags):
        out = tmp_path / "o"
        code = main(["--out", str(out), "run", *TINY_RUN, *flags])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and err.startswith("ERROR stage=run: ")
        assert flags[1] in err
        assert "Traceback" not in err
        assert not out.exists() or not any(out.rglob("*"))

    @pytest.mark.parametrize(
        "key, value, first, second",
        [("directions", "45,45.0000001", "45.0", "45.0000001"),
         ("directions", "0,90,0", "0.0", "0.0"),
         ("directions", "0,-0", "0.0", "-0.0"),
         ("resolutions", "32,32.00000000001", "32.0", "32.00000000001")],
        ids=["directions-6-digits", "directions-repeat", "directions-signed-zero",
             "resolutions-6-digits"],
    )
    def test_run_colliding_output_names_exit_2(self, tmp_path, capsys, key, value, first, second):
        # Outputs carry each value with ``:g``: these two would write one name.
        out = tmp_path / "o"
        code = main(["--out", str(out), "run", *TINY_RUN, f"--{key}", value])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and err.startswith(f"ERROR stage=run: bad {key} '{value}': ")
        assert f"{first} and {second} name the same outputs" in err
        assert not out.exists()

    @pytest.mark.parametrize("stage", ["synth", "run"])
    @pytest.mark.parametrize("lo, hi", [(8.0, 12.0), (40.0, 50.0)])
    def test_snapped_scene_without_size_exit_2(self, tmp_path, capsys, stage, lo, hi):
        # No multiple of the 30 m coarse cell lies between lo and hi.
        out = tmp_path / "o"
        code = main(["--out", str(out), stage, "--extent", "300", "--n-buildings", "4",
                     "--footprint-min", repr(lo), "--footprint-max", repr(hi),
                     "--coarse-factor", "30", "--snap-to-coarse", "1"])
        assert code == 2
        assert capsys.readouterr().err == (
            f"ERROR stage={stage}: bad footprint_min {lo!r} and footprint_max {hi!r}: no "
            "multiple of coarse_factor 30 between them for a snapped footprint\n")
        assert not out.exists()

    @pytest.mark.parametrize("key, at_bound", [("slope", (MAX_ELEVATION - 130.0) / 64),
                                               ("height", MAX_ELEVATION - 100.0)])
    def test_run_at_elevation_bound(self, tmp_path, capsys, key, at_bound):
        # TINY_RUN is 64 m with height_max 30, and its terrain is 100 m at
        # x = 0: each value puts the scene's peak elevation at MAX_ELEVATION
        # exactly.  The run succeeds there and is rejected one float further.
        def flags(value):
            v = repr(value)
            return ["--terrain-slope", v] if key == "slope" else ["--height-min", v, "--height-max", v]

        past = float(np.nextafter(at_bound, np.inf))
        assert main(["--out", str(tmp_path / "at"), "run", *TINY_RUN, *flags(at_bound)]) == 0
        assert main(["--out", str(tmp_path / "past"), "run", *TINY_RUN, *flags(past)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ERROR stage=run: ") and repr(past) in err
        assert not (tmp_path / "past").exists()

    @pytest.mark.parametrize("flags", [["--extent", "1e6"], ["--seed", "-1"]],
                             ids=["extent-huge", "seed-negative"])
    def test_synth_exit_2_before_any_work(self, tmp_path, capsys, flags):
        code = main(["--out", str(tmp_path), "synth", *flags])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and err.startswith("ERROR stage=synth: ")
        assert flags[0][2:] in err and "Traceback" not in err
        assert not any(tmp_path.iterdir())

    def test_ucp_bad_directions_exit_2(self, run_dir, tmp_path, capsys):
        for name in ("predicted_heights.glbr", "lod1_pred.geojson", "lod1_ref.geojson"):
            shutil.copy(run_dir / name, tmp_path / name)
        code = main(["--out", str(tmp_path), "ucp", "--directions", "abc"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and err.startswith("ERROR stage=ucp: ")
        assert "directions" in err
        assert not any(tmp_path.glob("ucp_*"))

    def test_ucp_colliding_directions_exit_2(self, run_dir, tmp_path, capsys):
        for name in ("predicted_heights.glbr", "lod1_pred.geojson", "lod1_ref.geojson"):
            shutil.copy(run_dir / name, tmp_path / name)
        code = main(["--out", str(tmp_path), "ucp", "--directions", "45,45.0000001"])
        assert code == 2
        assert capsys.readouterr().err == (
            "ERROR stage=ucp: bad directions '45,45.0000001': 45.0 and 45.0000001 "
            "name the same outputs ('45')\n")
        assert not any(tmp_path.glob("ucp_*"))

    @pytest.mark.parametrize("flags", [["--bin-width", "0"], ["--height-cap", "-1"]])
    def test_ucp_bad_histogram_value_exit_2(self, run_dir, tmp_path, capsys, flags):
        for name in ("predicted_heights.glbr", "lod1_pred.geojson", "lod1_ref.geojson"):
            shutil.copy(run_dir / name, tmp_path / name)
        code = main(["--out", str(tmp_path), "ucp", *flags])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and err.startswith("ERROR stage=ucp: ")
        assert flags[0][2:].replace("-", "_") in err
        assert not any(tmp_path.glob("ucp_*"))

    @pytest.mark.parametrize("value", ["1e300", "0.1"])
    def test_ucp_bad_resolution_exit_2(self, run_dir, tmp_path, capsys, value):
        for name in ("predicted_heights.glbr", "lod1_pred.geojson", "lod1_ref.geojson"):
            shutil.copy(run_dir / name, tmp_path / name)
        code = main(["--out", str(tmp_path), "ucp", "--resolutions", value])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and err.startswith(f"ERROR stage=ucp: bad resolutions '{value}'")
        assert not any(tmp_path.glob("ucp_*"))

    def test_ucp_histograms_beyond_bound_exit_2(self, run_dir, tmp_path, capsys):
        # 400 x 400 cells of 1 m, each with 9869 bins: rejected before any
        # footprint is rasterized or any histogram allocated.
        for name in ("lod1_pred.geojson", "lod1_ref.geojson"):
            shutil.copy(run_dir / name, tmp_path / name)
        pred = read_raster(run_dir / "predicted_heights.glbr")
        write_raster(Raster(width=400, height=400, origin_x=pred.origin_x,
                            origin_y=pred.origin_y, cell_size=1.0, nodata=pred.nodata,
                            values=np.zeros((400, 400), np.float32)),
                     tmp_path / "predicted_heights.glbr")
        code = main(["--out", str(tmp_path), "ucp", "--resolutions", "1",
                     "--bin-width", "0.0076"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and err.startswith("ERROR stage=ucp: bad bin_width 0.0076")
        assert not any(tmp_path.glob("ucp_*"))

    @pytest.mark.parametrize("stage", ["ucp", "validate"])
    def test_histogram_bytes_beyond_bound_exit_2(self, tiny_run_dir, tmp_path, capsys, stage):
        # 64 x 64 cells of 1 m with 9869 bins each: 4.0e7 entries of about
        # 40 bytes, 1.6 GB, rejected before anything is read or written.
        for name in ("predicted_heights.glbr", "lod1_pred.geojson", "lod1_ref.geojson"):
            shutil.copy(tiny_run_dir / name, tmp_path / name)
        code = main(["--out", str(tmp_path), stage, "--resolutions", "1",
                     "--bin-width", "0.0076"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1
        assert err.startswith(f"ERROR stage={stage}: bad bin_width 0.0076")
        assert "more than 268435456" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "lod1_pred.geojson", "lod1_ref.geojson", "predicted_heights.glbr"]

    def test_ucp_zero_height_cap_is_one_bin(self, run_dir, tmp_path):
        for name in ("predicted_heights.glbr", "lod1_pred.geojson", "lod1_ref.geojson"):
            shutil.copy(run_dir / name, tmp_path / name)
        assert main(["--out", str(tmp_path), "ucp", "--height-cap", "0"]) == 0
        header = (tmp_path / "ucp_pred_300m" / "ucp_table.csv").read_text().split("\n")[0]
        assert [c for c in header.split(",") if c.startswith("hist")] == ["hist_bin_0"]

    def test_resample_grid_bound_exit_2(self, run_dir, tmp_path, capsys):
        # 200 m at 0.01 mm is 4e14 cells: rejected before any array is built.
        code = main(["--out", str(tmp_path), "resample", "--fine-cell-size", "1e-5",
                     "--coarse-ndsm", str(run_dir / "coarse_ndsm.glbr"),
                     "--population", str(run_dir / "population.glbr")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and err.startswith("ERROR stage=resample: ")
        assert "fine_cell_size 1e-05" in err
        assert not any(tmp_path.iterdir())

    def test_resample_zero_cell_size_exit_2(self, run_dir, tmp_path, capsys):
        code = main(["--out", str(tmp_path), "resample", "--fine-cell-size", "0",
                     "--coarse-ndsm", str(run_dir / "coarse_ndsm.glbr"),
                     "--population", str(run_dir / "population.glbr")])
        err = capsys.readouterr().err
        assert code == 2
        assert err == "ERROR stage=resample: bad fine_cell_size 0.0: must be > 0\n"
        assert not any(tmp_path.iterdir())

    def test_lod1_bad_statistic_exit_2(self, run_dir, tmp_path, capsys):
        for name in ("predicted_heights.glbr", "ndsm_ref.glbr"):
            shutil.copy(run_dir / name, tmp_path / name)
        code = main(["--out", str(tmp_path), "lod1", "--statistic", "mode",
                     "--footprints", str(run_dir / "footprints.geojson")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and err.startswith("ERROR stage=lod1: ")
        assert "statistic 'mode'" in err
        assert not (tmp_path / "lod1_pred.geojson").exists()


class TestSeedFlag:
    @pytest.mark.parametrize("argv", [["--seed", "7", "run"], ["run", "--seed", "7"],
                                      ["--seed", "7", "synth"]])
    def test_global_and_subcommand_forms(self, argv):
        assert _config_from_args(build_parser().parse_args(argv)).seed == 7

    def test_global_seed_reaches_report(self, tmp_path):
        out = tmp_path / "o"
        assert main(["--seed", "7", "--out", str(out), "run", *TINY_RUN]) == 0
        assert "\nseed: 7\n" in (out / "report.txt").read_text()

    def test_seed_beyond_int64_runs_baseline(self, tmp_path):
        # Only the network's seed goes into an int64 field.
        out = tmp_path / "o"
        assert main(["--seed", str(2**64), "--out", str(out), "run", *TINY_RUN]) == 0
        assert f"\nseed: {2**64}\n" in (out / "report.txt").read_text()


class TestSubcommands:
    def test_readme_lists_every_subcommand(self):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        assert readme.split("\ncommands:", 1)[1].split("```", 1)[0].split() == list(sub.choices)

    def test_tile_is_not_a_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["tile"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err and "'tile'" in err


class TestOneFineGrid:
    @pytest.mark.parametrize("flags", [["--fine-cell-size", "0.5", "--resolutions", "0.5"],
                                       ["--fine-cell-size", "3", "--resolutions", "6"]])
    def test_reference_on_prediction_grid(self, tmp_path, capsys, flags):
        out = tmp_path / "o"
        assert main(["--out", str(out), "run", *TINY_RUN, *flags]) == 0, capsys.readouterr().err
        ref = read_raster(out / "ndsm_ref.glbr")
        assert ref.same_geometry(read_raster(out / "predicted_heights.glbr"))
        assert ref.cell_size == float(flags[1])


@pytest.fixture(scope="module")
def tiny_run_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("tiny") / "out"
    assert main(["--out", str(out), "run", *TINY_RUN]) == 0
    return out


def _is_number(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


# Junk text that is no number, and values that are out of range for most keys.
_JUNK = st.one_of(st.text(st.characters(blacklist_categories=("Cs",)), max_size=8)
                  .filter(lambda t: not _is_number(t)),
                  st.sampled_from(["nan", "inf", "-inf", "0", "-1", "-0.5", "1e-9"]))
# Values in range for each key.  The size-driving ones (resolutions,
# directions, bin_width, height_cap) keep every array of the 64 m scene to a
# few MB.
_IN_RANGE = {
    "fine_cell_size": ["0.5", "1", "2"],
    "resolutions": ["8", "16,64", "300"],
    "directions": ["0", "0,90", "45,135,270"],
    "predictor": ["baseline", "network"],
    "epochs": ["1", "2"],
    "learning_rate": ["0.001", "0.1"],
    "depth": ["1", "2"],
    "base_filters": ["2", "4"],
    "seed": ["0", "7"],
    "statistic": ["mean", "median"],
    "bin_width": ["1", "5", "10"],
    "height_cap": ["0", "10", "75"],
    "min_reference": ["0", "1", "5"],
    "footprints": [".", "out", "out/footprints.geojson", "out/lod1_ref.geojson", "out/dsm.glbr"],
    "snap_to_coarse": ["yes", "0"],
    "extent": ["64"],
    "coarse_factor": ["8"],
}
_FLAGS = st.lists(
    st.sampled_from(sorted(_IN_RANGE)).flatmap(
        lambda key: st.tuples(st.just(key), st.one_of(_JUNK, st.sampled_from(_IN_RANGE[key])))
    ),
    min_size=1, max_size=4,
)


class TestCliFuzz:
    def test_read_side_stage_ends_in_exit_code(self, tiny_run_dir, tmp_path, capsys,
                                               monkeypatch):
        # Relative paths among the drawn values resolve beside the copy, ``out``.
        monkeypatch.chdir(tmp_path)

        @settings(max_examples=200, deadline=None,
                  suppress_health_check=[HealthCheck.function_scoped_fixture])
        @given(stage=st.sampled_from(["ndsm", "predict", "lod1", "ucp", "validate", "report"]),
               flags=_FLAGS)
        def check(stage, flags):
            out = tmp_path / "out"
            shutil.rmtree(out, ignore_errors=True)
            shutil.copytree(tiny_run_dir, out)
            argv = ["--out", str(out), stage, "--footprints", str(out / "footprints.geojson"),
                    *(f"--{key.replace('_', '-')}={value}" for key, value in flags)]
            capsys.readouterr()
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejected the command line
                assert exc.code == 2
                return
            err = capsys.readouterr().err
            assert code in (0, 1, 2)
            if code:
                assert err.count("\n") == 1 and err.startswith(f"ERROR stage={stage}: "), err

        check()
