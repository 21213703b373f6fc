import hashlib
import json
import os
import shutil
import struct
from collections import Counter

import numpy as np
import pytest

from urbanmorph import network, pipeline
from urbanmorph.cli import main
from urbanmorph.lod1 import read_lod1
from urbanmorph.pipeline import (
    PipelineConfig,
    build_config,
    parse_config_file,
    run_all,
)
from urbanmorph.errors import ConfigError
from urbanmorph.raster import Raster, read_raster, write_raster

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

    def test_bad_value(self):
        with pytest.raises(ConfigError, match="seed"):
            build_config({"seed": "not-a-number"}, {})

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
            "points.csv",
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

        def counting_read_lod1(path):
            reads.append(os.path.basename(path))
            return read_lod1(path)

        monkeypatch.setattr(pipeline.lod1_mod, "read_lod1", counting_read_lod1)
        cfg = build_config(
            {"resolutions": "100,300", "directions": "0,90"}, {"out": str(tmp_path)}
        )
        for stage in ("ucp", "validate"):
            reads.clear()
            outputs = pipeline.STAGES[stage](cfg)
            assert len(outputs) == {"ucp": 4, "validate": 2}[stage]
            assert sorted(reads) == ["lod1_pred.geojson", "lod1_ref.geojson"], stage


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
        assert calls == {"predict": 1, "lod1": 1, "ucp": 1, "validate": 1}


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

    def test_train_target_not_aligned_exit_1(self, run_dir, tmp_path, capsys):
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
        assert code == 1
        assert err.count("\n") == 1 and err.startswith("ERROR stage=train: channels not aligned")
        assert not (tmp_path / "weights.glbw").exists()


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

    @pytest.mark.parametrize("stage", ["ucp", "validate"])
    def test_missing_lod1_exit_2(self, tmp_path, capsys, stage):
        code = main(["--out", str(tmp_path / "o"), stage])
        captured = capsys.readouterr()
        assert code == 2
        assert f"ERROR stage={stage}" in captured.err
        assert "lod1_pred" in captured.err

    @pytest.mark.parametrize("stage", ["ucp", "validate"])
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


class TestStagewiseEqualsRun:
    def test_stage_by_stage_matches_run(self, tmp_path):
        cfg_path = write_config(tmp_path)
        out_a = tmp_path / "a"
        assert main(["--config", cfg_path, "--out", str(out_a), "run"]) == 0

        out_b = tmp_path / "b"
        base = ["--config", cfg_path, "--out", str(out_b)]
        assert main(base + ["synth"]) == 0
        inputs = [
            "--points", str(out_b / "points.csv"),
            "--footprints", str(out_b / "footprints.geojson"),
            "--coarse-ndsm", str(out_b / "coarse_ndsm.glbr"),
            "--population", str(out_b / "population.glbr"),
        ]
        for stage in ["rasterize-points", "ndsm", "resample", "predict",
                      "lod1", "ucp", "validate", "report"]:
            assert main(base + [stage] + inputs) == 0, stage
        assert tree_digest(out_a) == tree_digest(out_b)


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
         "zero-area hole", "hole over exterior"],
        ids=["bowtie", "zero-area-hole", "hole-over-exterior"],
    )
    def test_predict_bad_footprint_geometry_exit_2(self, run_dir, tmp_path, capsys, rings):
        shutil.copy(run_dir / "ndsm_resampled.glbr", tmp_path / "ndsm_resampled.glbr")
        fc = json.loads((run_dir / "footprints.geojson").read_text())
        coords = fc["features"][1]["geometry"]["coordinates"]
        (x, y), *_ = coords[0]
        if rings == "zero-area hole":
            rings = [coords[0], [[x + 1, y + 1], [x + 2, y + 2], [x + 3, y + 3]]]
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
         ["--directions", "abc"]],
        ids=["statistic", "predictor", "resolutions", "directions"],
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

    def test_ucp_bad_directions_exit_2(self, run_dir, tmp_path, capsys):
        for name in ("predicted_heights.glbr", "lod1_pred.geojson", "lod1_ref.geojson"):
            shutil.copy(run_dir / name, tmp_path / name)
        code = main(["--out", str(tmp_path), "ucp", "--directions", "abc"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and err.startswith("ERROR stage=ucp: ")
        assert "directions" in err
        assert not any(tmp_path.glob("ucp_*"))

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
