import argparse
import hashlib
import json
import os
import shutil
import struct
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from urbanmorph import network, pipeline, tiler
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
from urbanmorph.pointcloud import read_points_csv
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
            "population_resampled.glbr",
            "predicted_heights.glbr",
            "lod1_pred.geojson",
            "lod1_ref.geojson",
            "report.txt",
        ]:
            assert (run_dir / name).exists(), name
        assert (run_dir / "ucp_pred_100m" / "ucp_mean_100m.glbr").exists()
        assert (run_dir / "ucp_ref_100m" / "ucp_table.csv").exists()
        assert (run_dir / "validation_100m" / "metrics.csv").exists()

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
    def copy_inputs(run_dir, tmp_path, names):
        for name in names:
            shutil.copy(run_dir / name, tmp_path / name)
        return ["--footprints", str(run_dir / "footprints.geojson")]

    def test_bad_weights_header_exit_2(self, run_dir, tmp_path, capsys):
        flags = self.copy_inputs(run_dir, tmp_path, (
            "ndsm_resampled.glbr", "population_resampled.glbr", "ndsm_ref.glbr"))
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

    def test_train_dataset_is_channels_then_target(self, run_dir, tmp_path, monkeypatch):
        # Each training pair is one tile: every channel but the last as the
        # input, and the normalized reference, the last channel, as the target.
        flags = self.copy_inputs(run_dir, tmp_path, (
            "ndsm_resampled.glbr", "population_resampled.glbr", "ndsm_ref.glbr"))
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
        grid, tiles = tiler.split([target])
        assert len(seen) == len(tiles) == 1 and all(x.shape[-1] == 3 for x, _ in seen)
        for expected, part in ((ndsm, [x[..., 0] for x, _ in seen]),
                               (target, [y for _, y in seen])):
            back = tiler.stitch(grid, np.stack(part))
            assert back.values.tobytes() == expected.values.tobytes()

    def test_train_target_not_aligned_exit_2(self, run_dir, tmp_path, capsys):
        flags = self.copy_inputs(run_dir, tmp_path, (
            "ndsm_resampled.glbr", "population_resampled.glbr"))
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


    @pytest.mark.parametrize(
        "stage, name, cell, message",
        [("train", "ndsm_resampled.glbr", np.nan, "1 non-finite cells"),
         ("predict", "ndsm_ref.glbr", -9999.0, "1 nodata cells")],
    )
    def test_bad_cell_in_network_input_exit_2(self, run_dir, tmp_path, capsys,
                                              stage, name, cell, message):
        flags = self.copy_inputs(run_dir, tmp_path, (
            "ndsm_resampled.glbr", "population_resampled.glbr", "ndsm_ref.glbr"))
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
        assert err == f"ERROR stage=rasterize-points: config key 'points': file not found: {tmp_path}\n"

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


class TestPointFormats:
    def test_glbp_and_csv_points_give_identical_rasters(self, run_dir, tmp_path):
        pc = read_points_csv(run_dir / "points.glbp")
        names = np.array(["ground", "building", "other"])[pc.labels].tolist()
        rows = zip(pc.xs.tolist(), pc.ys.tolist(), pc.zs.tolist(), names)
        (tmp_path / "points.csv").write_text(
            "x,y,z,label\n" + "".join(f"{x!r},{y!r},{z!r},{name}\n" for x, y, z, name in rows)
        )
        rasters = []
        for name in ("points.glbp", "points.csv"):
            out = tmp_path / name.replace(".", "_")
            out.mkdir()
            shutil.copy(run_dir / "ndsm_resampled.glbr", out)
            points = run_dir / name if name.endswith(".glbp") else tmp_path / name
            assert main(["--out", str(out), "rasterize-points", "--points", str(points)]) == 0
            rasters.append([(out / f).read_bytes() for f in ("dsm.glbr", "dem.glbr")])
        assert rasters[0] == rasters[1]


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
