"""Synthetic data generators and CSV ingestion.

Generators mirror the three experiment families the solvers are aimed
at: clustered regression lines, interleaved half-moon point clouds, and
piecewise-constant signals.  All randomness flows through numpy's
seeded Generator, so a fixed seed reproduces the data byte for byte.
"""

import csv
import json
import math
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .penalty import _as_blocks

__all__ = [
    "LabeledPoints",
    "SignalInstance",
    "gen_two_line_regression",
    "gen_half_moons",
    "gen_piecewise_signal",
    "save_csv",
    "load_csv",
    "resample",
    "save_signal_csv",
    "load_signal_csv",
]


@dataclass
class LabeledPoints:
    """Point cloud with optional ground-truth labels and responses.

    Labels go through the one label cast of the package: each must be
    an integer below 2**63 in magnitude."""

    points: np.ndarray
    labels: np.ndarray = None
    responses: np.ndarray = None

    def __post_init__(self):
        self.points = _as_blocks(self.points, "points")
        n = len(self.points)
        if self.labels is not None:
            self.labels = _int_labels(self.labels)
            if self.labels.shape != (n,):
                raise ValueError("need one label per point")
        if self.responses is not None:
            self.responses = np.asarray(self.responses, dtype=np.float64)
            if self.responses.shape != (n,):
                raise ValueError("need one response per point")

    @property
    def num_points(self):
        return len(self.points)


def _change_positions(values):
    """The indices i >= 1 where ``values[i]`` differs from
    ``values[i - 1]``: the jumps of a signal or of a chain's labels."""
    return np.flatnonzero(np.diff(values) != 0) + 1


@dataclass
class SignalInstance:
    """A piecewise-constant signal and its noisy observation."""

    original: np.ndarray
    noisy: np.ndarray
    noise_sd: float

    def __post_init__(self):
        self.original = np.asarray(self.original, dtype=np.float64)
        self.noisy = np.asarray(self.noisy, dtype=np.float64)
        if self.original.shape != self.noisy.shape:
            raise ValueError("original and noisy lengths differ")

    @property
    def jumps(self):
        """The indices where the clean signal changes value."""
        return _change_positions(self.original)

    @property
    def num_jumps(self):
        return len(self.jumps)


def gen_two_line_regression(n, slopes=(1.0, -1.0), intercepts=(0.0, 0.0),
                            x_range=(-1.0, 1.0), noise_sd=0.1, seed=0):
    """Samples around two latent regression lines.

    Each point carries a scalar input drawn uniformly from ``x_range``
    and a response on its line plus Gaussian noise.  For odd ``n`` the
    first line receives the extra point (ceil/floor split).  ``points``
    holds the inputs as a single column; ``responses`` the outputs.
    """
    if n < 2:
        raise ValueError("need at least two samples")
    if len(slopes) != 2 or len(intercepts) != 2:
        raise ValueError("exactly two lines are generated")
    lo, hi = float(x_range[0]), float(x_range[1])
    if not hi > lo:
        raise ValueError("empty input range")
    rng = np.random.default_rng(seed)
    sizes = (n - n // 2, n // 2)
    a = rng.uniform(lo, hi, size=n)
    labels = np.concatenate([np.full(sizes[0], 0, dtype=np.int64),
                             np.full(sizes[1], 1, dtype=np.int64)])
    b = np.empty(n)
    for c in (0, 1):
        mask = labels == c
        b[mask] = intercepts[c] + slopes[c] * a[mask]
    if noise_sd > 0:
        b = b + rng.normal(0.0, noise_sd, size=n)
    return LabeledPoints(points=a[:, None], labels=labels, responses=b)


def gen_half_moons(n, noise_sd=0.0, seed=0):
    """Two interleaved unit semicircles with Gaussian jitter.

    The first arc is the top half of the unit circle at the origin, the
    second the bottom half of a unit circle centered at (1, 0.5); this
    interleaves them.  Odd ``n`` puts the extra point on the first arc.
    """
    if n < 2:
        raise ValueError("need at least two samples")
    rng = np.random.default_rng(seed)
    n_top = n - n // 2
    n_bot = n // 2
    t_top = np.linspace(0.0, math.pi, n_top)
    t_bot = np.linspace(0.0, math.pi, n_bot)
    top = np.column_stack([np.cos(t_top), np.sin(t_top)])
    bot = np.column_stack([1.0 - np.cos(t_bot), 0.5 - np.sin(t_bot)])
    pts = np.vstack([top, bot])
    labels = np.concatenate([np.zeros(n_top, dtype=np.int64),
                             np.ones(n_bot, dtype=np.int64)])
    if noise_sd > 0:
        pts = pts + rng.normal(0.0, noise_sd, size=pts.shape)
    return LabeledPoints(points=pts, labels=labels)


def gen_piecewise_signal(n, levels, noise_sd=0.2, seed=0):
    """Constant segments plus i.i.d. Gaussian noise.

    ``levels`` is a list of (length, value) pairs whose lengths must sum
    to ``n``.  Jump positions are the indices where the clean signal
    changes value; consecutive segments sharing a value create no jump.
    """
    lengths = [int(l) for l, _ in levels]
    if any(l <= 0 for l in lengths):
        raise ValueError("segment lengths must be positive")
    if sum(lengths) != n:
        raise ValueError(
            f"segment lengths sum to {sum(lengths)}, expected {n}")
    original = np.concatenate([np.full(l, float(v)) for l, v in levels])
    rng = np.random.default_rng(seed)
    noise = rng.normal(0.0, noise_sd, size=n) if noise_sd > 0 \
        else np.zeros(n)
    return SignalInstance(original=original, noisy=original + noise,
                          noise_sd=float(noise_sd))


def _opened(target, mode):
    """A context manager over ``target`` itself when it is a stream, else
    over the file it names, opened in ``mode`` and closed on exit."""
    if hasattr(target, "write") or hasattr(target, "read"):
        return nullcontext(target)
    return open(Path(target), mode, newline="")


def _read_rows(source):
    """The non-empty rows of a CSV stream or file, as lists of cells."""
    with _opened(source, "r") as stream:
        return [row for row in csv.reader(stream) if row]


def _floats(rows):
    """The cells of ``rows`` as a float array; a row whose width differs
    from the first row's, or a cell that is not a finite number, is a
    ValueError naming its row."""
    rows = list(rows)
    for idx, row in enumerate(rows):
        if len(row) != len(rows[0]):
            raise ValueError(f"ragged row {idx}: {len(row)} cells, "
                             f"expected {len(rows[0])}")
    try:
        values = np.array([[float(c) for c in row] for row in rows])
    except ValueError as exc:
        raise ValueError(f"non-numeric cell: {exc}") from None
    bad = np.flatnonzero(~np.isfinite(values).all(axis=-1))
    if len(bad):
        raise ValueError(f"non-finite cell in row {bad[0]}")
    return values


def _write_rows(target, header, rows, start=None):
    """Write CSV to a stream or file: the ``header`` line unless it is
    None, then per row its values as ``repr`` floats, led by the row's
    index counted from ``start`` when that is given."""
    with _opened(target, "w") as stream:
        if header is not None:
            stream.write(header + "\n")
        for i, row in enumerate(rows, start or 0):
            cells = [repr(float(v)) for v in row]
            if start is not None:
                cells.insert(0, str(i))
            stream.write(",".join(cells) + "\n")


def _jsonify(value):
    """Make a value JSON-friendly, containers included; infinities
    become strings."""
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return value
    if isinstance(value, np.ndarray):
        return [_jsonify(v) for v in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonify(v) for k, v in value.items()}
    return value


def _json_text(doc):
    """The canonical JSON text of ``doc``: sorted keys, two-space
    indents and a final newline.  Every JSON artifact is this text."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _int_labels(values):
    """``values`` as int64 labels.  A value that is not an integer, or
    whose magnitude is 2**63 or more, is a ValueError: the cast would
    wrap it to another integer."""
    out_of_range = "labels must be integers below 2**63 in magnitude"
    try:
        values = np.asarray(values, dtype=np.float64)
    except OverflowError:  # a Python int beyond the float range
        raise ValueError(out_of_range) from None
    if not np.all(values == np.round(values)):
        raise ValueError("labels must be integral")
    if not np.all(np.abs(values) < 2.0 ** 63):
        raise ValueError(out_of_range)
    return values.astype(np.int64)


def save_csv(data, target):
    """Write a LabeledPoints as CSV with full float precision.

    Column order: point coordinates, then the response column if
    present, then the integer label column if present.  No header.
    """
    with _opened(target, "w") as stream:
        for i in range(data.num_points):
            cells = [repr(float(v)) for v in data.points[i]]
            if data.responses is not None:
                cells.append(repr(float(data.responses[i])))
            if data.labels is not None:
                cells.append(str(int(data.labels[i])))
            stream.write(",".join(cells) + "\n")


def load_csv(source, has_labels=False, has_responses=False):
    """Read a rectangular numeric CSV into LabeledPoints.

    The trailing columns are interpreted right to left: the last column
    is integer labels when ``has_labels``, the one before (or last,
    without labels) is the response when ``has_responses``.
    """
    rows = _read_rows(source)
    if not rows:
        raise ValueError("empty CSV")
    values = _floats(rows)
    width = len(rows[0])
    trailing = int(has_labels) + int(has_responses)
    if width <= trailing:
        raise ValueError("no point columns left after label/response "
                         "columns")
    labels = None
    responses = None
    end = width
    if has_labels:
        labels = values[:, end - 1]
        end -= 1
    if has_responses:
        responses = values[:, end - 1]
        end -= 1
    return LabeledPoints(points=values[:, :end], labels=labels,
                         responses=responses)


def resample(data, n, seed=0):
    """Draw ``n`` rows without replacement, preserving draw order."""
    if n > data.num_points:
        raise ValueError("cannot draw more rows than available")
    rng = np.random.default_rng(seed)
    idx = rng.choice(data.num_points, size=n, replace=False)
    return LabeledPoints(
        points=data.points[idx],
        labels=None if data.labels is None else data.labels[idx],
        responses=None if data.responses is None else data.responses[idx])


def save_signal_csv(signal, target):
    """Two-column CSV (original, noisy), full precision, no header."""
    _write_rows(target, None, zip(signal.original, signal.noisy))


def load_signal_csv(source, noise_sd=0.0):
    """Read a two-column signal CSV written by save_signal_csv."""
    rows = _read_rows(source)
    values = _floats(rows)
    if rows and len(rows[0]) != 2:
        raise ValueError("signal CSV must have exactly two columns")
    original, noisy = values.reshape(-1, 2).T
    return SignalInstance(original=original, noisy=noisy,
                          noise_sd=float(noise_sd))
