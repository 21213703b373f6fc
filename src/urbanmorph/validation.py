"""Error metrics and comparison exports between predicted and reference grids."""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import AlignmentError, EmptySeriesError, InputError
from .ucp import UcpGrid

DEFAULT_MIN_REFERENCE = 1.0
COMPARED_FIELDS = ("mean", "std", "lambda_p", "lambda_b")
METRICS = "metrics.csv"  # the metrics table in an ``export_comparison`` directory


@dataclass
class PairedSeries:
    predicted: np.ndarray
    reference: np.ndarray
    cell_ids: list[tuple[int, int]]

    def __post_init__(self):
        self.predicted = np.asarray(self.predicted, dtype=np.float64)
        self.reference = np.asarray(self.reference, dtype=np.float64)
        if self.predicted.shape != self.reference.shape or self.predicted.ndim != 1:
            raise AlignmentError(
                f"paired series shapes differ: {self.predicted.shape} vs "
                f"{self.reference.shape}"
            )
        if len(self.cell_ids) != self.predicted.size:
            raise AlignmentError("cell id count does not match series length")
        if self.predicted.size and not (
            np.isfinite(self.predicted).all() and np.isfinite(self.reference).all()
        ):
            raise InputError("paired series contains non-finite values")

    def __len__(self) -> int:
        return self.predicted.size


class MapeResult(NamedTuple):
    value: float
    n: int
    excluded: int


def rmse(s: PairedSeries) -> float:
    """Root mean squared error between predicted and reference, 64-bit."""
    if len(s) == 0:
        raise EmptySeriesError("rmse of an empty series")
    d = s.predicted - s.reference
    return float(np.sqrt(np.mean(d * d)))


def mape(s: PairedSeries, min_reference: float = DEFAULT_MIN_REFERENCE) -> MapeResult:
    """Mean absolute percentage error over pairs with |reference| above a floor.

    Near-zero references are excluded (default floor 1 m) and the exclusion
    count is reported alongside the filtered N.
    """
    if len(s) == 0:
        raise EmptySeriesError("mape of an empty series")
    keep = np.abs(s.reference) >= min_reference
    excluded = int((~keep).sum())
    if not keep.any():
        raise EmptySeriesError(
            f"all {len(s)} pairs fall below the |reference| floor {min_reference}"
        )
    value = 100.0 * float(
        np.mean(np.abs(s.predicted[keep] - s.reference[keep]) / np.abs(s.reference[keep]))
    )
    return MapeResult(value=value, n=int(keep.sum()), excluded=excluded)


def pair_grids(pred: UcpGrid, ref: UcpGrid, field: str) -> PairedSeries:
    """Extract one named field from both grids as a paired series.

    Cells empty (zero building count) in both grids are excluded.
    """
    if pred.geom != ref.geom:
        raise AlignmentError("grids have different geometry")
    pv = pred.scalar_fields()[field]
    rv = ref.scalar_fields()[field]
    keep = (pred.count > 0) | (ref.count > 0)
    rows, cols = np.nonzero(keep)
    return PairedSeries(
        predicted=pv[keep].ravel(),
        reference=rv[keep].ravel(),
        cell_ids=[(int(r), int(c)) for r, c in zip(rows, cols)],
    )


def export_comparison(
    pred: UcpGrid,
    ref: UcpGrid,
    out_dir,
    min_reference: float = DEFAULT_MIN_REFERENCE,
) -> None:
    """Write scatter CSVs per field, a per-cell histogram comparison, and a
    metrics table.  Emits data only; plotting is left to external tools."""
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, METRICS), "w") as metrics:
        metrics.write("field,n,rmse,mape,excluded\n")
        for fname in COMPARED_FIELDS:
            series = pair_grids(pred, ref, fname)
            with open(os.path.join(out_dir, f"scatter_{fname}.csv"), "w") as f:
                f.write("cell_row,cell_col,predicted,reference\n")
                for (r, c), p, t in zip(series.cell_ids, series.predicted, series.reference):
                    f.write(f"{r},{c},{float(p)!r},{float(t)!r}\n")
            n, v_rmse, v_mape, excl = 0, float("nan"), float("nan"), 0
            if len(series):
                v_rmse = rmse(series)
                try:
                    m = mape(series, min_reference)
                    n, v_mape, excl = m.n, m.value, m.excluded
                except EmptySeriesError:
                    n = excl = len(series)
            metrics.write(f"{fname},{n},{v_rmse!r},{v_mape!r},{excl}\n")

    # Histogram comparison mirrored per cell: predicted vs reference fraction
    # for every height bin.
    with open(os.path.join(out_dir, "hist_comparison.csv"), "w") as f:
        f.write("cell_row,cell_col,bin,predicted_fraction,reference_fraction\n")
        keep = (pred.count > 0) | (ref.count > 0)
        for r, c in zip(*np.nonzero(keep)):
            for k in range(pred.nbins):
                f.write(
                    f"{r},{c},{k},"
                    f"{float(pred.hist[r, c, k])!r},{float(ref.hist[r, c, k])!r}\n"
                )
