import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import samossa
from samossa import ConfigError, IngestError, ParseError, ShapeError, SplitError, SplitSpec, TimePanel
from samossa.panel import load_csv, save_csv, split, write_rows


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

    def test_missing_pair(self, tmp_path):
        text = "a,1,1\na,2,2\nb,1,4\n"
        with pytest.raises(IngestError, match="missing"):
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
