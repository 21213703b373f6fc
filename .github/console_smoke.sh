#!/usr/bin/env bash
# Smoke runs of the installed console script, from the repository root.
# Tests call cli.main directly; this runs the [project.scripts] entry point.
set -eo pipefail

# expect_error CODE PATTERN CMD...: CMD exits with CODE and writes one line to
# stderr, kept in smoke-error.err, that matches the grep pattern PATTERN.
expect_error() {
  local want=$1 pattern=$2 code=0
  shift 2
  "$@" 2> smoke-error.err || code=$?
  cat smoke-error.err
  test "$code" -eq "$want"
  test "$(wc -l < smoke-error.err)" -eq 1
  grep -q "$pattern" smoke-error.err
}

# The global --seed form, at two resolutions and four directions; a
# RuntimeWarning anywhere in the run fails it.
PYTHONWARNINGS=error::RuntimeWarning urbanmorph --seed 7 --out smoke run --extent 64 --n-buildings 2 --footprint-min 8 --footprint-max 12 --coarse-factor 8 --resolutions 32,64 --directions 0,45,90,135
grep -qx 'seed: 7' smoke/report.txt

# The network predictor, about 2 s; a RuntimeWarning anywhere in the run fails it.
PYTHONWARNINGS=error::RuntimeWarning urbanmorph --out smoke-network run --extent 64 --n-buildings 2 --footprint-min 8 --footprint-max 12 --coarse-factor 8 --resolutions 64 --predictor network --epochs 1
grep -qx 'predictor: network' smoke-network/report.txt

# The network resamples the population itself: no run writes a resampled copy.
test ! -e smoke/population_resampled.glbr
test ! -e smoke-network/population_resampled.glbr

# synth, then each later stage in the same --out with no input flag: each
# finds synth's files by their names in --out, and the tree is the run's.
TINY="--extent 64 --n-buildings 2 --footprint-min 8 --footprint-max 12 --coarse-factor 8 --resolutions 32,64"
urbanmorph --seed 7 --out smoke-chain-run run $TINY > /dev/null
urbanmorph --seed 7 --out smoke-chain synth $TINY > /dev/null
for stage in resample rasterize-points ndsm predict lod1 ucp validate report; do
  urbanmorph --seed 7 --out smoke-chain $stage $TINY > /dev/null
done
diff -r smoke-chain-run smoke-chain

# A run with an input flag: exit 2, one ERROR line, and no --out, since a run
# reads the inputs that its synth stage writes.
expect_error 2 "^ERROR stage=run: config key 'points' is set" \
  urbanmorph --out smoke-set-input run $TINY --points smoke/points.glbp
test ! -e smoke-set-input

# A stage whose earlier stage has not run in --out: exit 2, and one ERROR line
# that names the missing output, not a config key.
mkdir -p smoke-empty
expect_error 2 '^ERROR stage=ndsm: smoke-empty/dsm.glbr' urbanmorph --out smoke-empty ndsm
if grep -q 'config key' smoke-error.err; then exit 1; fi

# A coarse raster with one nodata cell: exit 2, and one ERROR line naming it.
python - <<'PY'
from urbanmorph import read_raster, write_raster
r = read_raster("smoke/coarse_ndsm.glbr")
r.values[0, 0] = r.nodata
write_raster(r, "smoke-void.glbr")
PY
expect_error 2 '^ERROR stage=resample: smoke-void.glbr: 1 nodata cells' \
  urbanmorph --out smoke-void resample --coarse-ndsm smoke-void.glbr
test ! -e smoke-void

# A diverging network: exit 1, one ERROR line naming the divergence, and no
# weights file.
expect_error 1 '^ERROR stage=run: training diverged' \
  urbanmorph --out smoke-diverged run --extent 64 --n-buildings 2 --footprint-min 8 --footprint-max 12 --coarse-factor 8 --resolutions 64 --predictor network --epochs 1 --learning-rate 1e200
test ! -e smoke-diverged/weights.glbw

# A footprint file whose second feature repeats the first's id: exit 2, one
# ERROR line naming the feature, and no LoD-1 file.
mkdir -p smoke-dup
cp smoke/predicted_heights.glbr smoke/ndsm_ref.glbr smoke-dup/
python - <<'PY'
import json
with open("smoke/footprints.geojson") as f:
    fc = json.load(f)
fc["features"][1]["properties"]["id"] = fc["features"][0]["properties"]["id"]
with open("smoke-dup/footprints.geojson", "w") as f:
    json.dump(fc, f)
PY
expect_error 2 '^ERROR stage=lod1:.*features\[1\]: duplicate id' \
  urbanmorph --out smoke-dup lod1 --footprints smoke-dup/footprints.geojson
test ! -e smoke-dup/lod1_pred.geojson

# A point elevation beyond float32's range: exit 2, one ERROR line, and no
# DEM.  The first run's points get one ground z of 1e39.
mkdir -p smoke-elevation
cp smoke/points.glbp smoke/ndsm_resampled.glbr smoke-elevation/
python - <<'PY'
import struct
with open("smoke-elevation/points.glbp", "r+b") as f:
    raw = f.read()
    n, = struct.unpack_from("<Q", raw, 6)  # after the magic and the u16 version
    first_ground = raw.index(0, 14 + 24 * n) - (14 + 24 * n)  # labels follow x, y and z
    f.seek(14 + 16 * n + 8 * first_ground)
    f.write(struct.pack("<d", 1e39))
PY
expect_error 2 '^ERROR stage=rasterize-points:' \
  urbanmorph --out smoke-elevation rasterize-points --points smoke-elevation/points.glbp
test ! -e smoke-elevation/dem.glbr

# A directory as the config file, and an --out that is a file: exit 2 and
# one ERROR line each, not a traceback.
for args in "--config smoke report" "--out smoke/report.txt synth --extent 64 --n-buildings 2 --footprint-min 8 --footprint-max 12 --coarse-factor 8"; do
  expect_error 2 '^ERROR stage=' urbanmorph $args
done

# Two directions that name one output, and a snapped scene with no footprint
# size that is a multiple of the coarse cell: exit 2, one ERROR line each, and
# nothing written.
for args in "--directions 45,45.0000001" "--snap-to-coarse 1 --coarse-factor 30"; do
  expect_error 2 '^ERROR stage=run:' \
    urbanmorph --out smoke-rejected run --extent 64 --n-buildings 2 --footprint-min 8 --footprint-max 12 --coarse-factor 8 $args
  test ! -e smoke-rejected
done
