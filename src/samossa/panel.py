"""Multivariate panel data model, its time windows, and the CSV and JSON file formats.

A panel holds N aligned real-valued series of length T. Time indices are
abstract integers: column j of ``values`` is time ``t0 + j``. There is no
timestamp parsing; calendars are out of scope.

CSV conventions: UTF-8, comma-delimited, '.' decimal separator. Wide layout
is one column per series and one row per timestep, with an optional header
row of series names. Long layout is (series, t, value) triples. Every CSV
table the package writes is written here: reports by :func:`write_rows`,
through the ``csv`` module, and panels by :func:`save_csv`, whose header
goes through the ``csv`` module and whose body it joins from ``repr`` in
blocks of time steps, to the bytes the ``csv`` module would write. Every
JSON document it writes, the model file and each CLI output alike, goes
through :func:`write_json`, which encodes the whole document before it
opens the file.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    IngestError,
    ParseError,
    ShapeError,
    SplitError,
    _float_array,
    _integer,
)

__all__ = ["TimePanel", "SplitSpec", "load_csv", "save_csv", "split", "write_json", "write_rows"]


def _series_names(names, error: type[Exception]) -> tuple[str, ...]:
    """``names`` as a tuple, or ``error``: the names rule of panels and model files.

    Names are an iterable (not one string) of distinct strings, each of
    which encodes as UTF-8, so that every file that holds them can be written.
    """
    if isinstance(names, str) or not isinstance(names, Iterable):
        raise error(f"series names must be an iterable of strings, got {names!r}")
    names = tuple(names)
    for name in names:
        if not isinstance(name, str):
            raise error(f"series names must be strings, got {name!r}")
        try:
            name.encode("utf-8")
        except UnicodeEncodeError:
            raise error(f"series name {name!r} is not UTF-8 text") from None
    if len(set(names)) != len(names):
        duplicate = next(name for i, name in enumerate(names) if name in names[:i])
        raise error(f"duplicate series name {duplicate!r}")
    return names


@dataclass(frozen=True)
class TimePanel:
    """N aligned series of length T.

    ``values`` has one row per series. ``t0`` is the absolute time index of
    the first column (1 for a freshly loaded panel); windows produced by
    :meth:`window` and :func:`split` carry their absolute position so that
    downstream consumers can align forecasts with ground truth.

    Names must follow :func:`_series_names`, values be integers or floats,
    and ``t0`` an integer (numpy integers convert); anything else raises
    IngestError on construction. Instances are immutable and safe to
    share across threads.
    """

    series_names: tuple[str, ...]
    values: np.ndarray
    t0: int = 1

    def __post_init__(self):
        values = _float_array(self.values, "panel values", IngestError)
        if values.ndim != 2:
            raise ShapeError(f"panel values must be 2-D, got shape {values.shape}")
        n, _ = values.shape
        if n < 1:
            raise ShapeError("panel needs at least one series")
        names = _series_names(self.series_names, IngestError)
        if len(names) != n:
            raise ShapeError(f"{len(names)} names for {n} series")
        if not np.all(np.isfinite(values)):
            raise IngestError("panel values must be finite (no NaN/Inf)")
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "series_names", names)
        object.__setattr__(self, "t0", _integer(self.t0, "t0", error=IngestError))

    @property
    def n_series(self) -> int:
        return self.values.shape[0]

    @property
    def length(self) -> int:
        return self.values.shape[1]

    def window(self, lo: int, hi: int) -> TimePanel:
        """Columns ``lo`` up to ``hi`` (0-based, half-open) at their absolute time ``t0 + lo``.

        ShapeError unless both are integers and ``0 <= lo <= hi <= length``: a
        bound is never clamped.
        """
        lo, hi = (_integer(bound, "window bound", error=ShapeError) for bound in (lo, hi))
        if not 0 <= lo <= hi <= self.length:
            raise ShapeError(f"window [{lo}, {hi}) outside a panel of length {self.length}")
        return TimePanel(self.series_names, self.values[:, lo:hi], t0=self.t0 + lo)

    def values_at(self, lo: int, hi: int, what: str, needs: str) -> np.ndarray:
        """The values at absolute times t = lo..hi-1, as a read-only view.

        ShapeError unless both bounds are integers and the panel covers them,
        naming both ranges as "<what> covers t=..., <needs> needs t=...".
        """
        lo, hi = (_integer(bound, "time bound", error=ShapeError) for bound in (lo, hi))
        end = self.t0 + self.length
        if not self.t0 <= lo <= hi <= end:
            raise ShapeError(f"{what} covers t={self.t0}..{end - 1}, "
                             f"{needs} needs t={lo}..{hi - 1}")
        return self.values[:, lo - self.t0:hi - self.t0]


@dataclass(frozen=True)
class SplitSpec:
    """Train/validation/test boundaries, as 1-based inclusive end indices.

    Each end must be an integer (numpy integers convert), or SplitError on
    construction; :meth:`validate` checks their order against a panel length.
    """

    train_end: int
    valid_end: int
    test_end: int

    def __post_init__(self):
        for name in ("train_end", "valid_end", "test_end"):
            object.__setattr__(self, name, _integer(getattr(self, name), name, error=SplitError))

    def validate(self, length: int) -> None:
        ok = 1 <= self.train_end < self.valid_end <= self.test_end <= length
        if not ok:
            raise SplitError(
                f"invalid split ({self.train_end}, {self.valid_end}, "
                f"{self.test_end}) for T={length}"
            )


def _parse_cell(text: str, row: int, col: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ParseError(
            f"non-numeric cell {text!r} at row {row}, column {col}"
        ) from None
    if not np.isfinite(value):
        raise IngestError(f"non-finite value {text!r} at row {row}, column {col}")
    return value


def _read_rows(path) -> list[list[str]]:
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            return [row for row in csv.reader(fh)]
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise IngestError(f"cannot read {path}: {exc}") from exc


def _column_names(row: list[str]) -> tuple[tuple[str, ...], bool]:
    """The series names of a wide file whose first row is ``row``, and whether it is a header.

    A row with any non-numeric cell is a header of names; a row of numbers
    is data, and the series are named s1, s2, ...
    """
    for cell in row:
        try:
            float(cell)
        except ValueError:
            return tuple(cell.strip() for cell in row), True
    return tuple(f"s{i + 1}" for i in range(len(row))), False


class _NotPlain(Exception):
    """A wide file the one-call parse does not take; the csv-module path reads it."""


def _plain_line(line: str, limit: int) -> bool:
    # The csv module ends a line at \r, \n or \r\n, as file iteration with
    # newline="" does; a line holding only its end is blank. Without '"' it
    # splits a row at every comma. np.loadtxt strips \x1c-\x1f around a
    # number as whitespace where float() refuses them, a line past the field
    # limit may hold a field the csv module refuses, and the csv module of
    # Python 3.10 refuses NUL.
    return not (line[0] in "\r\n" or len(line) > limit or '"' in line or "\x00" in line
                or "\x1c" in line or "\x1d" in line or "\x1e" in line or "\x1f" in line)


def _load_wide_plain(path) -> TimePanel | None:
    """The wide panel in ``path`` from one np.loadtxt call, or None to use the csv path.

    Returns a panel only for a file that the csv path would load to the same
    names and bits: UTF-8, no quote character, no blank line, every row as
    wide as the first and every value finite. Any other file, malformed or
    merely unusual, returns None, so that the csv path names its error.
    """
    limit = csv.field_size_limit()
    rows = 0

    def data_lines(lines):
        nonlocal rows
        for line in lines:
            if not _plain_line(line, limit):
                raise _NotPlain
            rows += 1
            yield line
        if not rows:  # np.loadtxt would warn about an empty input
            raise _NotPlain

    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            first = next(fh, "")
            if not first or not _plain_line(first, limit):
                return None
            names, header = _column_names(first.rstrip("\r\n").split(","))
            lines = fh if header else itertools.chain([first], fh)
            values = np.loadtxt(data_lines(lines), delimiter=",", dtype=np.float64, ndmin=2,
                                comments=None, quotechar=None)
    except (OSError, ValueError, _NotPlain):  # ValueError: not UTF-8, not a number, ragged
        return None
    if values.shape != (rows, len(names)) or not np.isfinite(values).all():
        return None
    return TimePanel(series_names=names, values=values.T)


def _load_wide(rows: list[list[str]]) -> TimePanel:
    names, header = _column_names(rows[0])
    start = 1 if header else 0
    data_rows = rows[start:]
    if not data_rows:
        raise IngestError("CSV has a header but no data rows")
    width = len(names)
    out = np.empty((len(data_rows), width))
    for i, row in enumerate(data_rows):
        if len(row) != width:
            raise IngestError(
                f"ragged row {start + i + 1}: expected {width} cells, got {len(row)}"
            )
        for j, cell in enumerate(row):
            out[i, j] = _parse_cell(cell, row=start + i + 1, col=j + 1)
    return TimePanel(series_names=names, values=out.T)


def _long_header(row: list[str]) -> bool:
    # The series column is free text, so a header is recognized by a
    # non-numeric t or value column.
    if len(row) != 3:
        return True
    try:
        float(row[1])
        float(row[2])
    except ValueError:
        return True
    return False


def _time_index(text: str, lineno: int) -> int:
    """The time a non-literal spelling such as 3.0 or 1e3 names: its float, where
    that is an integer and equals the decimal value written, so no spelling
    silently names another time (9007199254740993.0 reads as ...992.0)."""
    from decimal import Decimal  # only non-literal spellings need it; keeps import time

    value = _parse_cell(text, row=lineno, col=2)
    if value != int(value):
        raise ParseError(f"non-integer time index {text!r} at row {lineno}") from None
    if Decimal(text) != value:
        raise ParseError(f"time index {text!r} at row {lineno} is not exact as a float; "
                         "write it as an integer") from None
    return int(value)


def _load_long(rows: list[list[str]]) -> TimePanel:
    start = 1 if _long_header(rows[0]) else 0
    triples: dict[str, dict[int, float]] = {}
    order: list[str] = []
    for i, row in enumerate(rows[start:]):
        lineno = start + i + 1
        if len(row) != 3:
            raise IngestError(
                f"ragged row {lineno}: long layout needs (series, t, value) triples"
            )
        name = row[0].strip()
        try:
            t = int(row[1])  # exact however large
        except ValueError:
            t = _time_index(row[1], lineno)
        value = _parse_cell(row[2], row=lineno, col=3)
        if name not in triples:
            triples[name] = {}
            order.append(name)
        if t in triples[name]:
            raise IngestError(f"duplicate (series, t) pair ({name!r}, {t}) at row {lineno}")
        triples[name][t] = value
    if not order:
        raise IngestError("no data rows")
    t_min = min(min(d) for d in triples.values())
    t_max = max(max(d) for d in triples.values())
    times = range(t_min, t_max + 1)
    for name in order:  # a gap is found before allocating, however wide the time range
        if len(triples[name]) != t_max - t_min + 1:
            t = next(t for t in times if t not in triples[name])
            raise IngestError(f"missing (series, t) pair ({name!r}, {t})")
    out = np.array([[triples[name][t] for t in times] for name in order])
    return TimePanel(series_names=tuple(order), values=out, t0=t_min)


def load_csv(path, layout: str = "wide") -> TimePanel:
    """Load a panel from a CSV file.

    ``layout`` is ``"wide"`` (one column per series, column order preserved)
    or ``"long"`` ((series, t, value) triples; every series must cover the
    full time range; gaps are rejected, imputation is out of scope). Any
    other layout raises ConfigError; a file that cannot be opened, is not
    UTF-8 or that the csv module rejects raises IngestError. One leading
    byte-order mark, as spreadsheet exports write, is dropped, so it reaches
    neither the first series name nor, in a headerless file, the first value.

    A wide file that is UTF-8 with no quote character, no blank line, every
    row as wide as the first and every value finite (what ``save_csv`` writes
    unless a series name needs quoting) is parsed by one ``np.loadtxt`` call.
    Every other file, and the long layout, is read cell by cell through the
    csv module, which alone reports errors. Both paths give the same names
    and the same bits, so values and errors do not depend on which one ran.
    """
    _check_layout(layout)
    if layout == "wide":
        panel = _load_wide_plain(path)
        if panel is not None:
            return panel
    rows = _read_rows(path)
    if not rows:
        raise IngestError("empty CSV")
    if layout == "wide":
        return _load_wide(rows)
    return _load_long(rows)


def _check_layout(layout: str) -> None:
    if layout not in ("wide", "long"):
        raise ConfigError(f"unknown layout {layout!r} (choose wide or long)")


def write_rows(path, header, rows) -> None:
    """Write one CSV table: UTF-8, ``\\r\\n`` line ends, ``header``, then ``rows``.

    ``rows``, any iterable of cell sequences, is consumed one row at a time.
    A Python float is written as its shortest round-trip text and None as an
    empty cell; turn numpy scalars into Python ones first (``tolist()``).
    This is the writer of reports; :func:`save_csv` writes a panel's body
    itself, to the same bytes.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_json(path, doc) -> None:
    """Write one JSON document: UTF-8, indent 1 and a final newline.

    ``doc`` is encoded before ``path`` is opened, so a document that cannot
    be encoded raises and leaves an existing file untouched.
    """
    text = json.dumps(doc, indent=1) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# Time steps per write in save_csv: the text of one block is in memory at a time.
_BLOCK = 1024


def _first_cell(text: str) -> str:
    """``text`` as the csv module writes it as the first of several cells, with its comma."""
    buf = io.StringIO()
    csv.writer(buf).writerow((text, ""))
    return buf.getvalue()[:-2]


def save_csv(panel: TimePanel, path, layout: str = "wide") -> None:
    """Write a panel to CSV, in the bytes :func:`write_rows` would write for its rows.

    The header goes through the ``csv`` module. The body is joined here from
    ``repr`` of each value, :data:`_BLOCK` time steps per write, so the
    file's text is never in memory at once. Those are the ``csv`` module's
    own bytes: it writes a float as its ``repr`` (shortest round-trip text)
    and never quotes one, and a panel's values are finite floats. The long
    layout quotes each series name once through the ``csv`` module. An
    unknown ``layout`` raises ConfigError, and a panel of no time steps or
    names that :func:`load_csv` would not give back raise IngestError
    (:func:`_check_savable`), before the file is opened.
    """
    _check_layout(layout)
    if not panel.length:
        raise IngestError(f"a panel of no time steps cannot be saved: the {layout} file would "
                          f"hold its header alone, and load_csv needs a data row")
    _check_savable(panel.series_names, layout)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(panel.series_names if layout == "wide"
                                else ("series", "t", "value"))
        # Rows come from tolist(): numpy 2 spells repr(np.float64(x)) "np.float64(x)".
        if layout == "wide":
            columns = panel.values.T
            for lo in range(0, panel.length, _BLOCK):
                fh.write("".join(",".join(map(repr, row)) + "\r\n"
                                 for row in columns[lo:lo + _BLOCK].tolist()))
        else:
            for name, row in zip(panel.series_names, panel.values):
                cell = _first_cell(name)
                for lo in range(0, panel.length, _BLOCK):
                    fh.write("".join(f"{cell}{t},{value!r}\r\n" for t, value
                                     in enumerate(row[lo:lo + _BLOCK].tolist(), panel.t0 + lo)))


def _check_savable(names: tuple[str, ...], layout: str) -> None:
    """IngestError unless :func:`load_csv` reads ``names`` back from a file in ``layout``.

    The readers strip each name, so a name with surrounding whitespace would
    come back changed. A wide header whose every cell parses as a number
    would be read as a data row, and a byte-order mark opening a wide file
    is dropped as one.
    """
    for name in names:
        if name != name.strip():
            raise IngestError(f"series name {name!r} has surrounding whitespace, which "
                              f"load_csv strips: it cannot be saved in the {layout} layout")
    if layout == "wide" and not _column_names(list(names))[1]:
        raise IngestError(f"series names {list(names)!r} all read as numbers, so a wide header "
                          f"of them would load as data: save them in the long layout")
    if layout == "wide" and names[0].startswith("\ufeff"):
        raise IngestError(f"series name {names[0]!r} opens with a byte-order mark, which "
                          f"load_csv drops: it cannot be saved first in the wide layout")


def split(panel: TimePanel, spec: SplitSpec) -> tuple[TimePanel, TimePanel, TimePanel]:
    """Cut a panel into contiguous train/validation/test windows.

    The windows cover [1, train_end], (train_end, valid_end], and
    (valid_end, test_end] in the panel's own 1-based indexing; each carries
    an absolute ``t0``. The test window may be empty (``valid_end ==
    test_end``), in which case its panel has zero columns.
    """
    spec.validate(panel.length)
    a, b, c = spec.train_end, spec.valid_end, spec.test_end
    return panel.window(0, a), panel.window(a, b), panel.window(b, c)
