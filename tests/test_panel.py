import re
import string
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import samossa
from samossa import (ConfigError, IngestError, ParseError, SamossaError, ShapeError, SplitError,
                     SplitSpec, TimePanel)
from samossa import panel as panel_module
from samossa.panel import load_csv, save_csv, split, write_json, write_rows

GOLDEN = Path(__file__).parent / "data" / "cli_golden"


def write(tmp_path, text, name="panel.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadWide:
    def test_header_and_values(self, tmp_path):
        panel = load_csv(write(tmp_path, "a,b\n1,4\n2,5\n3,6\n"))
        assert panel.series_names == ("a", "b")
        assert panel.values.shape == (2, 3)
        assert panel.values.tolist() == [[1, 2, 3], [4, 5, 6]]

    def test_headerless_names_generated(self, tmp_path):
        panel = load_csv(write(tmp_path, "1,4\n2,5\n"))
        assert panel.series_names == ("s1", "s2")
        assert panel.length == 2

    def test_non_numeric_cell_reports_row(self, tmp_path):
        with pytest.raises(ParseError, match="row 3"):
            load_csv(write(tmp_path, "a\n1\nx\n"))

    def test_ragged_row(self, tmp_path):
        with pytest.raises(IngestError, match="ragged"):
            load_csv(write(tmp_path, "a,b\n1,2\n3\n"))

    def test_empty_file(self, tmp_path):
        with pytest.raises(IngestError):
            load_csv(write(tmp_path, ""))

    def test_nan_rejected(self, tmp_path):
        with pytest.raises(IngestError):
            load_csv(write(tmp_path, "a\n1\nnan\n"))

    @pytest.mark.parametrize("content, detail", [
        ("caf\u00e9\n1\n".encode("latin-1"), "utf-8"),
        (b"a\n" + b"1" * 200_000 + b"\n", "field limit"),
    ])
    def test_unreadable_text(self, tmp_path, content, detail):
        path = tmp_path / "bad.csv"
        path.write_bytes(content)
        with pytest.raises(IngestError, match=detail):
            load_csv(path)

    @pytest.mark.parametrize("text, names, values", [
        # Spreadsheet exports start with a UTF-8 byte-order mark; one is stripped.
        ("\ufeffa,b\n1,2\n3,4\n", ("a", "b"), [[1, 3], [2, 4]]),
        ("\ufeff1,2\n3,4\n", ("s1", "s2"), [[1, 3], [2, 4]]),
        ("\ufeff\ufeffa\n1\n", ("\ufeffa",), [[1]]),
    ])
    def test_leading_byte_order_mark(self, tmp_path, text, names, values):
        path = write(tmp_path, text)
        panel = load_csv(path)
        assert (panel.series_names, panel.values.tolist()) == (names, values)
        assert_same_as_csv_module(path)


def load_by_csv_module(path):
    """``load_csv(path)`` read by the csv-module path alone."""
    with mock.patch.object(panel_module, "_load_wide_plain", return_value=None):
        return load_csv(path)


def outcome(load, path):
    try:
        return load(path)
    except SamossaError as exc:
        return type(exc), str(exc)


def assert_same_as_csv_module(path):
    want, got = outcome(load_by_csv_module, path), outcome(load_csv, path)
    if isinstance(want, tuple):
        assert got == want
        return
    assert isinstance(got, TimePanel), got
    assert (got.series_names, got.t0) == (want.series_names, want.t0)
    assert np.array_equal(got.values, want.values)
    assert np.array_equal(np.signbit(got.values), np.signbit(want.values))


FINITE = st.floats(allow_nan=False, allow_infinity=False)
DIGITS = "0123456789"
LITERALS = st.one_of(
    FINITE.map(repr),
    FINITE.map(lambda v: f"{v:.17g}"),
    st.floats(-1e300, 1e300).map(lambda v: f"{v:.3e}"),  # rounds to a finite value
    st.sampled_from(["-0.0", "-0", "+1", "5e-324", "2.2250738585072009e-308", "1e-310",
                     ".5", "7.", "1E5", "00012", " 2.5 ", "\t3"]),
    st.text(DIGITS, min_size=17, max_size=17).map(lambda d: f"{d[0]}.{d[1:]}"),
    st.text(DIGITS, min_size=400, max_size=400).map(lambda d: f"-0.{d}"),
)
NAMES = st.text(string.ascii_letters + "_ ", max_size=4).map(lambda tail: "v" + tail)
LINE_ENDS = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def wide_parts(draw):
    """A well-formed wide file as parts: header (or None), cell rows, line ends, final end.

    A header holds at least one name, may mix names with numbers, and has
    no two cells alike once stripped (names are distinct).
    """
    width, length = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    rows = [[draw(LITERALS) for _ in range(width)] for _ in range(length)]
    header = draw(st.none() | st.lists(NAMES | LITERALS, min_size=width, max_size=width,
                                       unique_by=str.strip)
                  .filter(lambda cells: any(cell.startswith("v") for cell in cells)))
    return header, rows, draw(LINE_ENDS), draw(st.booleans())


def render(header, rows, end, final) -> str:
    lines = ([] if header is None else [header]) + rows
    return end.join(",".join(cells) for cells in lines) + (end if final else "")


# Cells the csv-module path rejects or reads its own way.
ODD_CELLS = ["1_0", "\u0661\u0662", "\u0661.5", "nan", "-inf", "Infinity", "1e400", "-1e400",
             "", "x", "0x10", "1e", "1d5", " ", "\ufeff1"]
ODD_CHARS = ["\u2028", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\x0c", "\x0b", "\x00", '"',
             " ", "\t", "\xa0", ",", "\n", "\r"]


@st.composite
def malformed_files(draw) -> bytes:
    """A well-formed wide file with one malformation, as bytes."""
    header, rows, end, final = draw(wide_parts())
    i = draw(st.integers(0, len(rows) - 1))
    j = draw(st.integers(0, len(rows[i]) - 1))
    kind = draw(st.sampled_from(["cell", "char", "quote", "ragged", "blank", "blank_end",
                                 "bom", "header_only", "not_utf8"]))
    if kind == "cell":
        rows[i][j] = draw(st.sampled_from(ODD_CELLS))
    elif kind == "char":
        k = draw(st.integers(0, len(rows[i][j])))
        rows[i][j] = rows[i][j][:k] + draw(st.sampled_from(ODD_CHARS)) + rows[i][j][k:]
    elif kind == "quote":
        rows[i][j] = f'"{rows[i][j]}"'
    elif kind == "ragged":
        rows[i] = rows[i][:-1] if draw(st.booleans()) else rows[i] + ["1"]
    elif kind == "blank":
        rows.insert(i, [])
    elif kind == "blank_end":
        rows.append([])
        final = True
    elif kind == "header_only":
        header, rows = header or ["v"] * len(rows[0]), []
    text = render(header, rows, end, final)
    if kind == "bom":
        text = "\ufeff" + text
    data = text.encode("utf-8")
    if kind == "not_utf8":
        k = draw(st.integers(0, len(data)))
        data = data[:k] + draw(st.sampled_from([b"\xff", b"\xe9", b"\xc3"])) + data[k:]
    return data


class TestOneCallParse:
    """``load_csv`` parses a well-formed wide file with one np.loadtxt call and
    sends every other file to the csv-module path: the two give the same
    names, t0 and bits, or the same error."""

    @given(parts=wide_parts())
    @settings(max_examples=150)
    def test_hand_written_panels(self, parts, tmp_path_factory):
        path = tmp_path_factory.mktemp("plain") / "p.csv"
        path.write_text(render(*parts), encoding="utf-8", newline="")
        assert panel_module._load_wide_plain(path) is not None
        assert_same_as_csv_module(path)
        header, rows = parts[:2]
        want = (tuple(f"s{j + 1}" for j in range(len(rows[0]))) if header is None
                else tuple(cell.strip() for cell in header))
        assert load_csv(path).series_names == want

    @given(values=st.lists(st.lists(FINITE, min_size=1, max_size=4), min_size=1, max_size=5)
           .filter(lambda rows: len({len(r) for r in rows}) == 1),
           names=st.lists(NAMES.map(str.rstrip), min_size=5, max_size=5, unique=True))
    @settings(max_examples=100)
    def test_saved_panels(self, values, names, tmp_path_factory):
        path = tmp_path_factory.mktemp("saved") / "p.csv"
        save_csv(TimePanel(tuple(names[:len(values)]), np.array(values)), path)
        assert panel_module._load_wide_plain(path) is not None
        assert_same_as_csv_module(path)

    @given(parts=wide_parts())
    @settings(max_examples=50)
    def test_leading_byte_order_mark_is_stripped(self, parts, tmp_path_factory):
        folder = tmp_path_factory.mktemp("bom")
        plain, marked = folder / "plain.csv", folder / "marked.csv"
        plain.write_text(render(*parts), encoding="utf-8", newline="")
        marked.write_text("\ufeff" + render(*parts), encoding="utf-8", newline="")
        assert panel_module._load_wide_plain(marked) is not None
        assert_same_as_csv_module(marked)
        got, want = load_csv(marked), load_csv(plain)
        assert got.series_names == want.series_names
        assert np.array_equal(got.values, want.values)

    @given(data=malformed_files())
    @settings(max_examples=400)
    def test_malformed_files(self, data, tmp_path_factory):
        path = tmp_path_factory.mktemp("malformed") / "p.csv"
        path.write_bytes(data)
        assert_same_as_csv_module(path)

    @pytest.mark.parametrize("text, error, message", [
        # np.loadtxt skips a blank line, mid-file or at the end.
        ("a,b\n1,2\n\n3,4\n", IngestError, "ragged row 3: expected 2 cells, got 0"),
        ("a,b\n1,2\n\n", IngestError, "ragged row 3: expected 2 cells, got 0"),
        ("a,b\r\n1,2\r\n\r\n", IngestError, "ragged row 3: expected 2 cells, got 0"),
        # str.splitlines() would end a line at U+2028; the csv module does not.
        ("a,b\n1,2\u20283,4\n", IngestError, "ragged row 2: expected 2 cells, got 3"),
        # np.loadtxt strips \x1c-\x1f around a number; float() refuses them.
        ("a\n1\x1c\n", ParseError, "non-numeric cell '1\\x1c' at row 2, column 1"),
        # np.loadtxt reads non-finite values.
        ("a\n1\nnan\n", IngestError, "non-finite value 'nan' at row 3, column 1"),
        ("a,b\n1,inf\n", IngestError, "non-finite value 'inf' at row 2, column 2"),
        ("a\nInfinity\n", IngestError, "non-finite value 'Infinity' at row 2, column 1"),
        ("1e400\n", IngestError, "non-finite value '1e400' at row 1, column 1"),
    ])
    def test_named_traps(self, tmp_path, text, error, message):
        path = write(tmp_path, text)
        with pytest.raises(error) as info:
            load_csv(path)
        assert str(info.value) == message
        assert_same_as_csv_module(path)

    def test_field_limit(self, tmp_path):
        # A finite value longer than the csv module's field limit.
        path = tmp_path / "long.csv"
        path.write_bytes(b"a\n0." + b"0" * 200_000 + b"\n")
        with pytest.raises(IngestError, match="field larger than field limit"):
            load_csv(path)

    def test_golden_panel_skips_the_cell_parser(self, monkeypatch):
        want = load_by_csv_module(GOLDEN / "y.csv")

        def refuse(*args, **kwargs):
            raise AssertionError("_parse_cell called")

        monkeypatch.setattr(panel_module, "_parse_cell", refuse)
        got = load_csv(GOLDEN / "y.csv")
        assert got.series_names == want.series_names
        assert np.array_equal(got.values, want.values)


class TestLoadLong:
    def test_triples(self, tmp_path):
        text = "a,1,1\na,2,2\nb,1,4\nb,2,5\n"
        panel = load_csv(write(tmp_path, text), layout="long")
        assert panel.series_names == ("a", "b")
        assert panel.values.tolist() == [[1, 2], [4, 5]]

    def test_header_skipped(self, tmp_path):
        text = "series,t,value\na,1,1\na,2,2\n"
        panel = load_csv(write(tmp_path, text), layout="long")
        assert panel.values.tolist() == [[1, 2]]

    @pytest.mark.parametrize("text", ["\ufeffa,1,1\na,2,2\n",
                                      "\ufeffseries,t,value\na,1,1\na,2,2\n"])
    def test_leading_byte_order_mark(self, tmp_path, text):
        panel = load_csv(write(tmp_path, text), layout="long")
        assert (panel.series_names, panel.values.tolist()) == (("a",), [[1, 2]])

    def test_missing_pair(self, tmp_path):
        text = "a,1,1\na,2,2\nb,1,4\n"
        with pytest.raises(IngestError, match="missing"):
            load_csv(write(tmp_path, text), layout="long")

    @pytest.mark.parametrize("text, missing", [
        ("a,1,1\na,2,2\nb,2,4\nb,1,5\nc,1,6\n", "('c', 2)"),
        ("a,1,1\na,1e300,2\n", "('a', 2)"),  # a wide file read as long can span this
        ("a,-5e18,1\na,5e18,2\nb,1,3\n", "('a', -4999999999999999999)"),
    ])
    def test_gap_found_before_allocating(self, tmp_path, text, missing):
        with pytest.raises(IngestError, match=re.escape(f"missing (series, t) pair {missing}")):
            load_csv(write(tmp_path, text), layout="long")

    def test_duplicate_pair(self, tmp_path):
        text = "a,1,1\na,1,2\n"
        with pytest.raises(IngestError, match="duplicate"):
            load_csv(write(tmp_path, text), layout="long")

    def test_t0_from_data(self, tmp_path):
        panel = load_csv(write(tmp_path, "a,5,1\na,6,2\n"), layout="long")
        assert panel.t0 == 5


class TestRoundTrip:
    @given(
        rows=st.lists(
            st.lists(
                st.floats(min_value=-1e12, max_value=1e12, allow_nan=False),
                min_size=1,
                max_size=6,
            ),
            min_size=1,
            max_size=4,
        ).filter(lambda rows: len({len(r) for r in rows}) == 1)
    )
    @settings(max_examples=40, deadline=None)
    def test_wide_save_load_bit_exact(self, rows, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("roundtrip")
        panel = TimePanel(tuple(f"v{i}" for i in range(len(rows))), np.array(rows))
        path = tmp / "p.csv"
        save_csv(panel, path)
        back = load_csv(path)
        assert back.series_names == panel.series_names
        np.testing.assert_array_equal(back.values, panel.values)

    def test_decimal_literals_survive(self, tmp_path):
        text = "a\n0.1\n3.14159265358979\n-123456.789012345\n"
        path = write(tmp_path, text)
        first = load_csv(path)
        out = tmp_path / "out.csv"
        save_csv(first, out)
        np.testing.assert_array_equal(load_csv(out).values, first.values)

    def test_long_roundtrip(self, tmp_path):
        panel = TimePanel(("a", "b"), np.array([[1.5, 2.25], [0.1, -0.3]]), t0=7)
        path = tmp_path / "p.csv"
        save_csv(panel, path, layout="long")
        back = load_csv(path, layout="long")
        assert back.t0 == 7
        np.testing.assert_array_equal(back.values, panel.values)

    def test_unknown_layout_is_config_error(self, tmp_path):
        panel = TimePanel(("a",), np.array([[1.0, 2.0]]))
        path = tmp_path / "p.csv"
        with pytest.raises(ConfigError, match="unknown layout 'tall'"):
            save_csv(panel, path, layout="tall")
        assert not path.exists()
        save_csv(panel, path)
        with pytest.raises(ConfigError, match="unknown layout 'tall'"):
            load_csv(path, layout="tall")


# Names the readers strip, parse as numbers or drop a mark from, and names they keep.
TRAP_NAMES = ["1", "2", "1e3", "nan", "-inf", "1_0", "\u0661", " a", "a ", "a\n", "\ta", "\x1c",
              "\u2028a", "\ufeffa", "a\ufeff", "", "t", "series", "a,b", 'say "hi"', "two\nlines",
              "a\x00b", "s1"]


@st.composite
def any_panels(draw):
    """A panel TimePanel accepts, of 1-3 series and 0-4 time steps, its names often traps."""
    n, length = draw(st.integers(1, 3)), draw(st.integers(0, 4))
    names = draw(st.lists(st.sampled_from(TRAP_NAMES) | st.text(max_size=3), min_size=n,
                          max_size=n, unique=True))
    values = draw(st.lists(FINITE, min_size=n * length, max_size=n * length))
    return TimePanel(tuple(names), np.reshape(values, (n, length)),
                     t0=draw(st.integers(-2**80, 2**80)))


class TestSavedPanelsLoadBack:
    """``save_csv`` refuses, before it opens the file, a panel that ``load_csv``
    would not give back, a panel of no time steps among them; every other panel
    loads back with its names and bits."""

    @pytest.mark.parametrize("layout", ["wide", "long"])
    @given(panel=any_panels())
    @example(panel=TimePanel(("1", "2"), np.ones((2, 3))))
    @example(panel=TimePanel(("1e3",), np.ones((1, 3))))
    @example(panel=TimePanel((" a",), np.ones((1, 3))))
    @example(panel=TimePanel(("a\n",), np.ones((1, 3))))
    @example(panel=TimePanel(("a", "a "), np.ones((2, 3))))
    @example(panel=TimePanel(("\ufeffa", "b"), np.ones((2, 3))))
    @example(panel=TimePanel(("a", "b"), np.zeros((2, 0))))
    @example(panel=TimePanel(("a",), [[1.0, 2.0]], t0=2**53 + 1))  # past float's integers
    @example(panel=TimePanel(("a",), [[1.0, 2.0]], t0=2**70))  # both times one float
    @settings(max_examples=200, deadline=None)
    def test_saved_or_refused(self, layout, panel, tmp_path_factory):
        path = tmp_path_factory.mktemp("trip") / "p.csv"
        try:
            save_csv(panel, path, layout=layout)
        except IngestError:
            assert not path.exists()
            return
        assert panel.length, "a panel of no time steps was saved"
        back = load_csv(path, layout=layout)
        assert back.series_names == panel.series_names
        assert np.array_equal(back.values, panel.values)
        assert np.array_equal(np.signbit(back.values), np.signbit(panel.values))
        if layout == "long":
            assert back.t0 == panel.t0

    @pytest.mark.parametrize("names, layouts, message", [
        (("1", "2"), ["wide"], r"series names \['1', '2'\] all read as numbers.*long layout"),
        (("nan",), ["wide"], r"series names \['nan'\] all read as numbers"),
        ((" a",), ["wide", "long"], r"series name ' a' has surrounding whitespace.*the {} layout"),
        (("b", "a\n"), ["wide", "long"], r"series name 'a\\n' has surrounding whitespace"),
        (("\ufeffa",), ["wide"], r"series name '\\ufeffa' opens with a byte-order mark"),
    ])
    def test_refusals_name_the_series_and_the_layout(self, tmp_path, names, layouts, message):
        panel = TimePanel(names, np.ones((len(names), 2)))
        for layout in layouts:
            with pytest.raises(IngestError, match=message.format(layout)):
                save_csv(panel, tmp_path / "p.csv", layout=layout)
            assert not (tmp_path / "p.csv").exists()

    @pytest.mark.parametrize("layout", ["wide", "long"])
    def test_a_panel_of_no_time_steps_is_refused(self, tmp_path, layout):
        with pytest.raises(IngestError, match=f"no time steps.*the {layout} file"):
            save_csv(TimePanel(("a", "b"), np.zeros((2, 0))), tmp_path / "p.csv", layout=layout)
        assert not (tmp_path / "p.csv").exists()

    @pytest.mark.parametrize("names", [("1", "2"), ("\ufeffa",), ("1", "a"), ("a b", "")])
    def test_long_layout_keeps_what_the_wide_header_cannot(self, tmp_path, names):
        panel = TimePanel(names, np.arange(2.0 * len(names)).reshape(len(names), 2), t0=-3)
        save_csv(panel, tmp_path / "p.csv", layout="long")
        back = load_csv(tmp_path / "p.csv", layout="long")
        assert (back.series_names, back.t0) == (names, -3)
        assert np.array_equal(back.values, panel.values)


def csv_module_bytes(panel, path, layout):
    """The bytes ``write_rows`` (the csv module) writes for ``panel``: save_csv's oracle."""
    if layout == "wide":
        write_rows(path, panel.series_names, panel.values.T.tolist())
    else:
        write_rows(path, ("series", "t", "value"), (
            (name, panel.t0 + j, value)
            for name, row in zip(panel.series_names, panel.values)
            for j, value in enumerate(row.tolist())))
    return path.read_bytes()


BLOCK = panel_module._BLOCK
EDGE_FLOATS = [-0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 1e16, 1e-05, 0.1]
QUOTED_NAMES = ["a,b", 'say "hi"', "two\nlines", "in side", "café", "数据", ""]


@st.composite
def saved_panels(draw):
    """A panel of 1-3 series whose length may sit on either side of a write block
    (save_csv refuses a panel of no time steps)."""
    n = draw(st.integers(1, 3))
    savable = NAMES.filter(lambda name: name == name.strip())  # load_csv strips names
    names = draw(st.lists(st.sampled_from(QUOTED_NAMES) | savable, min_size=n, max_size=n,
                          unique=True))
    length = draw(st.sampled_from([1, 2, 5, BLOCK - 1, BLOCK, BLOCK + 1]))
    pool = draw(st.lists(st.sampled_from(EDGE_FLOATS) | FINITE, min_size=1, max_size=8))
    seed = draw(st.integers(0, 2**32 - 1))
    values = np.random.default_rng(seed).choice(pool, size=(n, length))
    return TimePanel(tuple(names), values, t0=draw(st.integers(-5, 10**6)))


class TestSaveCsvBytes:
    """``save_csv`` joins the body itself and writes the csv module's bytes."""

    @pytest.mark.parametrize("layout", ["wide", "long"])
    @given(panel=saved_panels())
    @example(panel=TimePanel(("x",), np.array([EDGE_FLOATS])))
    @example(panel=TimePanel(tuple(QUOTED_NAMES), np.zeros((len(QUOTED_NAMES), 1))))
    @example(panel=TimePanel(tuple(QUOTED_NAMES), np.resize(EDGE_FLOATS, (len(QUOTED_NAMES), 3))))
    @settings(max_examples=60, deadline=None)
    def test_same_bytes_as_the_csv_module(self, layout, panel, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("bytes")
        save_csv(panel, tmp / "got.csv", layout=layout)
        assert (tmp / "got.csv").read_bytes() == csv_module_bytes(panel, tmp / "want.csv", layout)

    @pytest.mark.parametrize("length", [BLOCK - 1, BLOCK, BLOCK + 1])
    @pytest.mark.parametrize("layout", ["wide", "long"])
    def test_block_edges(self, tmp_path, layout, length):
        panel = TimePanel(("a", "b,c"), np.random.default_rng(length).normal(size=(2, length)))
        save_csv(panel, tmp_path / "got.csv", layout=layout)
        assert (tmp_path / "got.csv").read_bytes() == csv_module_bytes(
            panel, tmp_path / "want.csv", layout)

    # The long layout writes a line per value; two series keep its run short.
    @pytest.mark.parametrize("layout, shape", [("wide", (25, 40_000)), ("long", (2, 40_000))])
    def test_file_text_is_never_in_memory_at_once(self, tmp_path, layout, shape):
        panel = TimePanel(tuple(f"s{i}" for i in range(shape[0])),
                          np.random.default_rng(0).normal(size=shape))
        tracemalloc.start()
        try:
            save_csv(panel, tmp_path / "p.csv", layout=layout)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = (tmp_path / "p.csv").stat().st_size
        assert peak < size / 4, (peak, size)


class TestSplit:
    def test_lengths(self):
        panel = TimePanel(("a",), np.arange(10, dtype=float)[None, :])
        train, valid, test = split(panel, SplitSpec(6, 8, 10))
        assert (train.length, valid.length, test.length) == (6, 2, 2)
        assert (train.t0, valid.t0, test.t0) == (1, 7, 9)

    def test_empty_validation_rejected(self):
        panel = TimePanel(("a",), np.arange(10, dtype=float)[None, :])
        with pytest.raises(SplitError):
            split(panel, SplitSpec(10, 10, 10))

    def test_minimal(self):
        panel = TimePanel(("a",), np.arange(3, dtype=float)[None, :])
        parts = split(panel, SplitSpec(1, 2, 3))
        assert [p.length for p in parts] == [1, 1, 1]

    def test_out_of_range(self):
        panel = TimePanel(("a",), np.arange(5, dtype=float)[None, :])
        with pytest.raises(SplitError):
            split(panel, SplitSpec(2, 4, 6))

    @pytest.mark.parametrize("ends", [(1.5, 3, 4), ("1", 3, 4), (1, None, 4), (1, 3, True)])
    def test_ends_must_be_integers(self, ends):
        with pytest.raises(SplitError, match="must be an integer"):
            SplitSpec(*ends)

    def test_concat_reproduces(self):
        rng = np.random.default_rng(3)
        panel = TimePanel(("a", "b"), rng.normal(size=(2, 12)))
        parts = split(panel, SplitSpec(5, 9, 12))
        glued = np.hstack([p.values for p in parts])
        np.testing.assert_array_equal(glued, panel.values)


class TestWindow:
    panel = TimePanel(("a", "b"), np.arange(20, dtype=float).reshape(2, 10), t0=5)

    def test_keeps_absolute_time(self):
        window = self.panel.window(3, 7)
        assert window.series_names == ("a", "b")
        assert window.t0 == 8
        np.testing.assert_array_equal(window.values, self.panel.values[:, 3:7])
        assert window.window(1, 3).t0 == 9

    @pytest.mark.parametrize("lo", [0, 4, 10])
    def test_length_zero(self, lo):
        window = self.panel.window(lo, lo)
        assert (window.n_series, window.length, window.t0) == (2, 0, 5 + lo)

    @pytest.mark.parametrize("lo, hi", [(-1, 3), (0, 11), (6, 5), (11, 11)])
    def test_out_of_range_raises(self, lo, hi):
        with pytest.raises(ShapeError, match="outside a panel of length 10"):
            self.panel.window(lo, hi)

    @pytest.mark.parametrize("lo, hi", [(0.5, 3), (0, 3.0), ("0", 3), (True, 3), (0, None)])
    def test_bounds_must_be_integers(self, lo, hi):
        with pytest.raises(ShapeError, match="window bound must be an integer"):
            self.panel.window(lo, hi)


class TestWriteRows:
    def test_cells(self, tmp_path):
        path = tmp_path / "t.csv"
        write_rows(path, ("a", "b", "c"), iter([(0.1, None, 3), ("x,y", 1e-300, -0.0)]))
        assert path.read_bytes() == b'a,b,c\r\n0.1,,3\r\n"x,y",1e-300,-0.0\r\n'

    def test_panel_owns_the_csv_format(self):
        # Every table is read and written in panel.py, so one module owns
        # the format.
        pattern = re.compile(r"\bcsv\.(writer|reader|DictWriter|DictReader)\b")
        sources = Path(samossa.__file__).parent.glob("*.py")
        owners = sorted(p.name for p in sources if pattern.search(p.read_text(encoding="utf-8")))
        assert owners == ["panel.py"]


class TestWriteJson:
    def test_unencodable_document_leaves_the_file(self, tmp_path):
        path = tmp_path / "d.json"
        write_json(path, {"k": 1})
        before = path.read_bytes()
        with pytest.raises(TypeError):
            write_json(path, {"k": {1, 2}})
        assert path.read_bytes() == before

    def test_panel_owns_the_json_format(self):
        # Every JSON document is written in panel.py, so one module owns
        # the format.
        pattern = re.compile(r"\bjson\.dumps?\b")
        sources = Path(samossa.__file__).parent.glob("*.py")
        owners = sorted(p.name for p in sources if pattern.search(p.read_text(encoding="utf-8")))
        assert owners == ["panel.py"]


class TestInvariants:
    def test_values_immutable(self):
        panel = TimePanel(("a",), np.ones((1, 3)))
        with pytest.raises(ValueError):
            panel.values[0, 0] = 2.0

    def test_name_count_mismatch(self):
        with pytest.raises(ShapeError):
            TimePanel(("a", "b"), np.ones((1, 3)))

    def test_nonfinite_rejected(self):
        with pytest.raises(IngestError):
            TimePanel(("a",), np.array([[1.0, np.inf]]))

    @pytest.mark.parametrize("names", [None, 1.5, "ab", "a"])
    def test_names_must_be_an_iterable_of_strings(self, names):
        with pytest.raises(IngestError, match="series names must be an iterable of strings"):
            TimePanel(names, np.ones((len(names) if isinstance(names, str) else 1, 3)))

    @pytest.mark.parametrize("names, detail", [
        (("a", "a"), "duplicate series name 'a'"),  # a long file of them would not load
        (("a", "\ud800"), "series name '\\ud800' is not UTF-8 text"),  # no file could hold it
    ])
    def test_names_are_distinct_utf8_text(self, names, detail):
        with pytest.raises(IngestError) as info:
            TimePanel(names, np.arange(6.0).reshape(2, 3))
        assert str(info.value) == detail

    def test_wide_header_with_a_repeated_name_is_refused(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("a,a,b\n1,2,3\n4,5,6\n")
        with pytest.raises(IngestError, match="duplicate series name 'a'"):
            load_csv(path)

    @pytest.mark.parametrize("values", [[["x", 1.0]], [[True, False]], [[None, 1.0]],
                                        [[1.0], [1.0, 2.0]]])
    def test_values_must_be_numbers(self, values):
        with pytest.raises(IngestError, match="panel values are not an array of numbers"):
            TimePanel(("a",) * len(values), values)
