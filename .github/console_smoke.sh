#!/usr/bin/env bash
# Smoke runs of the installed console script, from the repository root.
# Tests call cli.main directly; this runs the [project.scripts] entry point.
set -eo pipefail

# The global --seed form, at two resolutions and four directions; a
# RuntimeWarning anywhere in the run fails it.
PYTHONWARNINGS=error::RuntimeWarning urbanmorph --seed 7 --out smoke run --extent 64 --n-buildings 2 --footprint-min 8 --footprint-max 12 --coarse-factor 8 --resolutions 32,64 --directions 0,45,90,135
grep -qx 'seed: 7' smoke/report.txt

# The network predictor, about 2 s; a RuntimeWarning anywhere in the run fails it.
PYTHONWARNINGS=error::RuntimeWarning urbanmorph --out smoke-network run --extent 64 --n-buildings 2 --footprint-min 8 --footprint-max 12 --coarse-factor 8 --resolutions 64 --predictor network --epochs 1
grep -qx 'predictor: network' smoke-network/report.txt

# A diverging network: exit 1, one ERROR line naming the divergence, and no
# weights file.
code=0
urbanmorph --out smoke-diverged run --extent 64 --n-buildings 2 --footprint-min 8 --footprint-max 12 --coarse-factor 8 --resolutions 64 --predictor network --epochs 1 --learning-rate 1e200 2> smoke-diverged.err || code=$?
cat smoke-diverged.err
test "$code" -eq 1
test "$(wc -l < smoke-diverged.err)" -eq 1
grep -q '^ERROR stage=run: training diverged' smoke-diverged.err
test ! -e smoke-diverged/weights.glbw
