"""Fuzzing the CLI boundary: every input ends in a documented exit code.

``cli.main`` runs in-process on generated argv (every subcommand of
``cli.COMMANDS``, each option omitted, given an edge or a bad value, or set
through a config file), generated CSV panels in both layouts with and
without damage, and mutations of the golden model file. Whatever the
input, the exit code is a documented one; a non-zero exit prints exactly
one ``samossa: error: Kind: detail`` line and no traceback; and an exit of
0 writes only finite numbers. Options that size the work (``--n``/``--t``
for synth, ``--nt``/``--seeds`` for fig2) are always given, from small
values, so that no example runs a full-size experiment.
"""

import contextlib
import copy
import csv
import io
import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from samossa.cli import COMMANDS, main

GOLDEN_MODEL = json.loads((Path(__file__).parent / "data" / "cli_golden" / "model.json")
                          .read_text())
EXIT_CODES = (0, 1, 2, 3)
ERROR_LINE = re.compile(r"samossa: error: [A-Za-z]+: ")

# Values per option (config-file key): ones its converter takes, and edge or
# bad ones. "@..." stands for a path in the example's directory.
_GOOD = {
    "input": ("@panel.csv",), "test": ("@panel.csv",), "model": ("@model.json",),
    "config": ("@config.json",), "truth_dir": ("@",), "out": ("@out",),
    "save_model": ("@saved.json",), "layout": ("wide", "long"), "L": ("auto", "2", "5"),
    "ratio": ("1", "3"), "r": ("1", "2"), "rank": ("energy:0.9", "fixed:2", "universal"),
    "ranks": ("universal,fixed:2", "energy:0.9"), "train_end": ("10", "20", "25"),
    "valid_end": ("30", "35"), "test_end": ("35", "40"), "valid_len": ("2", "5"),
    "p": ("1", "2"), "ps": ("0,1", "2"), "ratios": ("1,3", "1"), "steps": ("1", "3"),
    "seed": ("0", "1"), "min_r2": ("0.5", "-0.5"), "preset": ("fig2", "forecast"),
    "kind": ("harmonics", "harmonics_trend", "pure_ar"), "n": ("1", "3"), "t": ("3", "40"),
    "nt": ("300", "40,300"), "seeds": ("1", "2"),
    "lambda_star": ("0.3", "0.95"), "lambda_stars": ("0.3", "0.3,0.95"),
    "alpha": ("-0.5", "0.5,0.3"), "sigma2": ("0.2", "1e308"),
}
_BAD = {
    "input": ("@absent.csv", "@", "@model.json"), "test": ("@absent.csv", "@model.json"),
    "model": ("@panel.csv", "@absent.json", "@"), "config": ("@absent.json", "@panel.csv"),
    "truth_dir": ("@absent", "@model.json"), "out": ("@out/deeper/still", "@panel.csv/x"),
    "save_model": ("@model.json", "@"), "layout": ("tall",), "L": ("1", "0", "40", "x"),
    "ratio": ("0", "x"), "r": ("0",), "rank": ("fixed:0", "energy:2", "energy:nan", "x", ""),
    "ranks": ("fixed:1,x", ","), "train_end": ("1", "0", "30", "x"),
    "valid_end": ("10", "39", "100", "1.5"), "test_end": ("20", "100", "x"),
    "valid_len": ("1", "30", "x"), "p": ("grid", "0", "0,1", "-1", "1,,2", "x"),
    "ps": ("-1", "x"), "ratios": ("0", "x"), "steps": ("0", "x"),
    "seed": ("-1", "99999999999999999999", "x"), "min_r2": ("2", "nan", "x"),
    "preset": ("x",), "kind": ("x",), "n": ("0", "x"), "t": ("1", "0", "x"),
    "nt": ("2", "0", "x"), "seeds": ("0",),
    "lambda_star": ("1", "0", "nan", "x"), "lambda_stars": ("1", "x"), "alpha": ("2", "x"),
    "sigma2": ("0", "-1", "inf", "x"),
}
_ALWAYS = {"synth": ("n", "t", "out"), "fig2": ("nt", "seeds", "out")}
_BAD_CONFIGS = (b"[1]", b"not json", b"\xff", b'{"nokey": 1}', b'{"seed": true}', b'{"rank": 5}',
                b'{"layout": null}', b'{"input": []}')
_CELLS = ("nan", "inf", "-inf", "x", "", "1e999", " 1")
_NAMES = ("s1", "s2", "s3", "a b", 'q"x', "x,y", "é")


@st.composite
def argvs(draw, name):
    """(argv with "@" paths, config-file bytes) for subcommand ``name``.

    Every option is omitted or given a value its converter takes, except at
    most one, which is omitted even if required, or given an edge or bad value.
    """
    options = COMMANDS[name].options
    odd = draw(st.one_of(st.none(), st.sampled_from([o.dest for o in options])))
    argv = [name]
    for option in options:
        dest = option.dest
        if dest == odd and dest not in _ALWAYS.get(name, ()) and draw(st.booleans()):
            continue
        if not (option.required or dest in _ALWAYS.get(name, ()) or draw(st.integers(0, 2)) == 2):
            continue
        flag = draw(st.sampled_from(option.flags))
        if option.convert.__name__ == "_switch":
            argv.append(flag)
        else:
            argv += [flag, draw(st.sampled_from((_BAD if dest == odd else _GOOD)[dest]))]
    extra = draw(st.sampled_from((None,) * 18 + ("--bogus", "extra")))
    argv += [extra] if extra else []
    keys = [o.dest for o in options if o.dest in _GOOD and o.dest not in ("out", "save_model")]
    chosen = draw(st.lists(st.sampled_from(keys), max_size=3, unique=True))
    config = json.dumps({key: draw(st.sampled_from(_GOOD[key])) for key in chosen}).encode()
    if odd == "config":
        config = draw(st.sampled_from(_BAD_CONFIGS))
    return argv, config


@st.composite
def panels(draw, layout):
    """(CSV bytes, series count) of a small panel, mostly in ``layout``, maybe damaged."""
    other = "wide" if layout == "long" else "long"
    layout = draw(st.sampled_from((layout, layout, layout, other)))
    n_series = draw(st.sampled_from((3, 1, 2)))
    length = draw(st.sampled_from((40,) * 5 + (12, 3, 1)))
    kind = draw(st.sampled_from(("harmonic",) * 3 + ("constant", "huge", "tiny")))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    values = (np.sin(rng.uniform(0.2, 1.0, (n_series, 1)) * np.arange(length))
              + 0.3 * rng.normal(size=(n_series, length)))
    if kind == "constant":
        values = np.full((n_series, length), 2.5)
    elif kind in ("huge", "tiny"):
        values *= 1e300 if kind == "huge" else 1e-300
    names = draw(st.lists(st.sampled_from(_NAMES), min_size=n_series, max_size=n_series,
                          unique=True))
    if layout == "wide":
        rows = [[repr(v) for v in column] for column in values.T.tolist()]
        if draw(st.booleans()):
            rows.insert(0, names)
    else:
        t0 = draw(st.sampled_from((1, 5, -3)))
        rows = [[name, str(t0 + j), repr(v)] for name, row in zip(names, values.tolist())
                for j, v in enumerate(row)]
        if draw(st.booleans()):
            rows.insert(0, ["series", "t", "value"])
    damage = draw(st.sampled_from((None,) * 6 + ("cell", "ragged", "blank", "bytes", "truncate",
                                                 "empty", "bom")))
    pick = draw(st.integers(0, 10**6))
    if damage == "cell":
        row = rows[pick % len(rows)]
        row[pick % len(row)] = draw(st.sampled_from(_CELLS))
    elif damage == "ragged":
        rows[pick % len(rows)].pop()
    elif damage == "blank":
        rows.insert(pick % (len(rows) + 1), [])
    text = io.StringIO()
    csv.writer(text).writerows(rows)
    data = text.getvalue().encode()
    if damage == "bytes":
        data = data[:pick % (len(data) + 1)] + b"\xff\xfe" + data[pick % (len(data) + 1):]
    elif damage == "truncate":
        data = data[:pick % (len(data) + 1)]
    elif damage == "empty":
        data = b""
    elif damage == "bom":
        data = b"\xef\xbb\xbf" + data
    return data, n_series


def _leaves(doc, path=()):
    """Every path of keys and indices into a JSON document."""
    for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
        yield path + (key,)
        if isinstance(value, (dict, list)):
            yield from _leaves(value, path + (key,))


_LEAVES = list(_leaves(GOLDEN_MODEL))
_MODEL_VALUES = (None, True, -1, 0, 1, 2.5, 1e308, 10**30, "x", [], {}, [0.5], {"0": 1.0})


@st.composite
def model_files(draw):
    """The golden model file's text, unchanged or with one part set, deleted or cut."""
    doc = copy.deepcopy(GOLDEN_MODEL)
    how = draw(st.sampled_from((None, None, "set", "set", "delete", "truncate")))
    if how in ("set", "delete"):
        *parents, last = draw(st.sampled_from(_LEAVES))
        target = doc
        for key in parents:
            target = target[key]
        if how == "set":
            target[last] = draw(st.sampled_from(_MODEL_VALUES))
        else:
            del target[last]
    text = json.dumps(doc, indent=1).replace("1e+308", "1e999")  # parses to inf
    if how == "truncate":
        text = text[:draw(st.integers(0, len(text)))]
    return text


def _finite_csv(path: Path) -> None:
    with open(path, newline="", encoding="utf-8") as fh:
        for row in list(csv.reader(fh))[1:]:  # the first row is a header
            for cell in row:
                try:
                    value = float(cell)
                except ValueError:
                    continue  # a series name, or an empty cell for a missing value
                assert math.isfinite(value), (path, row)


def _finite_json(path: Path) -> None:
    def walk(value):
        if isinstance(value, float):
            assert math.isfinite(value), path
        for item in (value.values() if isinstance(value, dict)
                     else value if isinstance(value, list) else ()):
            walk(item)

    def refuse(token):
        raise AssertionError(f"{path} holds {token}")

    walk(json.loads(path.read_text(encoding="utf-8"), parse_constant=refuse))


def _files(root: Path) -> dict:
    return {path: path.read_bytes() for path in root.rglob("*") if path.is_file()}


@pytest.mark.parametrize("name", sorted(COMMANDS))
@settings(max_examples=25, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(model_text=model_files(), data=st.data())
def test_every_input_ends_in_a_documented_exit(capsys, name, model_text, data):
    argv, config = data.draw(argvs(name))
    layout = "long" if "long" in argv else "wide"
    csv_bytes, n_series = data.draw(panels(layout))
    alphas = data.draw(st.sampled_from(([[0.5]] * n_series, [[0.5]] * n_series, [[0.5]] * 4,
                                        [0.5], "{")))
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        root = Path(tmp)
        for name in ("panel.csv", "f.csv", "x.csv"):
            (root / name).write_bytes(csv_bytes)
        (root / "truth.json").write_text("{" if alphas == "{" else json.dumps({"alphas": alphas}))
        (root / "model.json").write_text(model_text)
        (root / "config.json").write_bytes(config)
        before = _files(root)
        argv = [str(root / arg[1:]) if arg.startswith("@") else arg for arg in argv]
        capsys.readouterr()
        code = main(argv)
        err = capsys.readouterr().err
        assert code in EXIT_CODES, (argv, code)
        assert "Traceback" not in err, (argv, err)
        errors = [line for line in err.splitlines() if line.startswith("samossa: error:")]
        if code != 0:
            assert len(errors) == 1 and ERROR_LINE.match(errors[0]), (argv, err)
            return
        assert not errors, (argv, err)
        for path, written in _files(root).items():
            if before.get(path) != written:  # written by the command: a model file or a table
                (_finite_json if written.startswith(b"{") else _finite_csv)(path)
