"""Every input type checks its own fields: a bad value is a typed error where it is made."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from dataclasses import replace

from samossa import (
    ArModel,
    BetaModel,
    ConfigError,
    FitError,
    GeneratorSpec,
    GeneratorTruth,
    IngestError,
    MetricError,
    ParseError,
    RankError,
    RankRule,
    SamossaConfig,
    SamossaError,
    SearchError,
    ShapeError,
    SpecError,
    SplitSpec,
    TimePanel,
    characteristic_roots,
    default_L,
    diagnostics,
    fit,
    fit_ar,
    fit_ar_rows,
    for_err,
    forecast_ar,
    generate,
    grid_search,
    hsvt,
    load_csv,
    load_model,
    r_squared,
    roll,
    rolling_eval,
    select_rank,
)
from samossa import cli

BAD = ("x", None, True, math.nan, math.inf, 1.5)

# type, valid keyword arguments, and per field the values of BAD it accepts
TABLE = [
    (TimePanel, dict(series_names=("a",), values=[[1.0, 2.0]], t0=1), {}),
    (SplitSpec, dict(train_end=1, valid_end=2, test_end=3), {}),
    (RankRule, dict(kind="fixed", k=2), {}),
    (RankRule, dict(kind="energy", fraction=0.9), {}),
    (SamossaConfig, dict(L=10, rank=RankRule.fixed(2), p=1, shape_ratio=1, valid_len=5),
     {"L": {None}, "valid_len": {None}}),
    (GeneratorSpec, dict(kind="harmonics", n_series=2, length=20, n_fundamentals=1,
                         freq_range=(0.1, 0.2), ar_order=1, lambda_star=0.5, alpha=None,
                         sigma2=0.2, seed=0),
     {"alpha": {None}, "sigma2": {1.5}}),
    (GeneratorSpec, dict(kind="harmonics", alpha=(0.5,), lambda_star=0.5),
     {"alpha": {None}, "lambda_star": {None}}),
    (ArModel, dict(alpha=[0.5], noise_var_hat=0.1, rank_deficient=False),
     {"noise_var_hat": {1.5}, "rank_deficient": {True}}),
    (BetaModel, dict(beta=[0.5], k_hat=1, resid_rms=0.0), {"resid_rms": {1.5}}),
]


def test_every_field_refuses_bad_values_with_a_typed_error():
    wrong = []
    for cls, valid, accepts in TABLE:
        cls(**valid)
        for field in valid:
            for value in BAD:
                accepted = value in accepts.get(field, ())
                try:
                    cls(**{**valid, field: value})
                except SamossaError:
                    if accepted:
                        wrong.append(f"{cls.__name__}({field}={value!r}) refused")
                except Exception as exc:  # an untyped error escaped
                    wrong.append(f"{cls.__name__}({field}={value!r}) raised {exc!r}")
                else:
                    if not accepted:
                        wrong.append(f"{cls.__name__}({field}={value!r}) constructed")
    assert wrong == []


@pytest.mark.parametrize("cls, kwargs, stored", [
    (ArModel, dict(alpha=[1, 2], noise_var_hat=np.float32(0.5)), ("noise_var_hat", 0.5)),
    (BetaModel, dict(beta=[1], k_hat=np.int64(2), resid_rms=np.float64(0.25)), ("k_hat", 2)),
    (SplitSpec, dict(train_end=np.int64(1), valid_end=2, test_end=3), ("train_end", 1)),
    (GeneratorSpec, dict(kind="harmonics", freq_range=[1, 2]), ("freq_range", (1.0, 2.0))),
    (GeneratorSpec, dict(kind="pure_ar", alpha=np.array([-0.5])), ("alpha", (-0.5,))),
])
def test_numbers_are_stored_as_plain_python_values(cls, kwargs, stored):
    field, expected = stored
    value = getattr(cls(**kwargs), field)
    assert value == expected and type(value) is type(expected)


# One spelling per configuration: a config keeps only the values its kind
# reads, so two configs that fit or draw the same thing compare equal.

@pytest.mark.parametrize("kind, fields", [
    ("fixed", dict(k=3, fraction=0.3)), ("energy", dict(fraction=0.9, k=3)),
    ("universal", dict(k=7)), ("universal", dict(fraction=0.5)),
])
def test_rank_rule_refuses_fields_its_kind_does_not_read(kind, fields):
    with pytest.raises(RankError, match=f"a {kind} rank rule takes no"):
        RankRule(kind, **fields)


def test_config_stores_only_what_the_fit_reads():
    assert SamossaConfig(p=2, valid_len=30) == SamossaConfig(p=2)
    assert SamossaConfig(p=[2], valid_len=30).valid_len is None
    assert SamossaConfig(p=(2, 1, 1), valid_len=30) == SamossaConfig(p=[1, 2], valid_len=30)
    assert SamossaConfig(p=(2, 1, 1)).p == (1, 2)
    assert SamossaConfig(p=[1, 1], valid_len=30) == SamossaConfig(p=1)
    assert SamossaConfig(p=[1, 1], valid_len=30).valid_len is None
    assert type(SamossaConfig(p=[np.int64(3), 3]).p) is int
    assert SamossaConfig(L=40, shape_ratio=3) == SamossaConfig(L=40)
    grid = SamossaConfig(p=(0, 1), shape_ratio=3, valid_len=30)
    assert (grid.shape_ratio, grid.valid_len) == (3, 30)
    assert replace(grid, p=1) == SamossaConfig(p=1, shape_ratio=3)  # order selection's candidates
    for bad in (dict(p=2, valid_len=1), dict(L=40, shape_ratio=0)):  # checked, then dropped
        with pytest.raises(ConfigError):
            SamossaConfig(**bad)


def test_explicit_alpha_owns_the_order_and_the_root():
    spec = GeneratorSpec(kind="harmonics", n_series=2, length=60, alpha=(0.5,))
    assert (spec.ar_order, spec.lambda_star) == (1, None)
    assert spec == replace(spec, ar_order=3, lambda_star=0.9)
    with pytest.raises(SpecError, match="lambda_star"):  # still checked beside alpha
        replace(spec, lambda_star=1.5)
    # AR(1) with root 0.5 is also what ar_order=1, lambda_star=0.5 draws.
    drawn = generate(spec)
    same = generate(GeneratorSpec(kind="harmonics", n_series=2, length=60, ar_order=1,
                                  lambda_star=0.5))
    for a, b in ((drawn.y, same.y), (drawn.f, same.f), (drawn.x, same.x)):
        assert a.values.tobytes() == b.values.tobytes()


@pytest.mark.parametrize("kind, unread", [
    ("pure_ar", dict(n_fundamentals=5, freq_range=(4.0, 5.0))),
])
def test_spec_stores_only_what_its_kind_draws(kind, unread):
    spec = GeneratorSpec(kind=kind, n_series=2, length=50)
    given = GeneratorSpec(kind=kind, n_series=2, length=50, **unread)
    assert given == spec and all(getattr(spec, name) is None for name in unread)
    assert replace(spec, seed=3).seed == 3  # None is a value of a field the kind does not read
    drawn, same = generate(spec), generate(given)
    for a, b in ((drawn.y, same.y), (drawn.f, same.f), (drawn.x, same.x)):
        assert a.values.tobytes() == b.values.tobytes()
    for name in unread:  # checked, then dropped
        with pytest.raises(SpecError, match=name):
            GeneratorSpec(kind=kind, **{name: "x"})
    trend = GeneratorSpec(kind="harmonics_trend", n_series=2, length=50)
    with pytest.raises(SpecError, match="freq_range"):  # a kind that reads it needs it
        replace(trend, freq_range=None)


_TRUTH = GeneratorTruth(f=TimePanel(("a",), [[0.0] * 4]), x=TimePanel(("a",), [[1.0] * 4]),
                       alphas=(np.array([0.5]),))


def _roll(values):
    panel = TimePanel(("a",), [np.sin(np.arange(40.0))])
    return roll(fit(panel, SamossaConfig(L=4, rank=RankRule.fixed(1), p=1)), values)


@pytest.mark.parametrize("make, error", [
    (lambda v: TimePanel(("a",), [v]), IngestError),
    (lambda v: ArModel(alpha=v, noise_var_hat=1.0), FitError),
    (lambda v: BetaModel(beta=v, k_hat=1, resid_rms=0.0), FitError),
    (lambda v: _roll([v]), IngestError),
    (lambda v: for_err([v], TimePanel(("a",), [[1.0, 2.0]], t0=3), _TRUTH), ShapeError),
    (lambda v: GeneratorSpec(kind="pure_ar", alpha=v), SpecError),
    (lambda v: GeneratorTruth(f=_TRUTH.f, x=_TRUTH.x, alphas=(v,)), ShapeError),
], ids=["TimePanel", "ArModel", "BetaModel", "roll", "for_err", "GeneratorSpec",
        "GeneratorTruth"])
@pytest.mark.parametrize("flag", [True, np.False_], ids=["bool", "numpy_bool"])
def test_a_boolean_anywhere_in_a_list_is_refused(make, error, flag):
    # numpy would promote [0.5, True] to floats; the error names the boolean.
    make([0.25, 0.5])  # the same call with numbers goes through
    with pytest.raises(error, match=f"need integers or floats, got {flag!r}"):
        make([0.5, flag])


def _written(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def _model_file(tmp_path, series_names):
    doc = json.loads((Path(__file__).parent / "data" / "cli_golden" / "model.json").read_text())
    return _written(tmp_path, "model.json", json.dumps({**doc, "series_names": series_names}))


def _fitted():
    return fit(TimePanel(("a",), [np.sin(np.arange(40.0))]),
               SamossaConfig(L=4, rank=RankRule.fixed(1), p=1))


# Guards of every layer: the call, the error type, and a fragment of its message.
GUARDS = {
    "fit_ar_2d": (lambda tmp: fit_ar(np.ones((2, 5)), 1),
                  ShapeError, "expects a 1-D residual series"),
    "fit_ar_strings": (lambda tmp: fit_ar(["a", "b", "c", "d"], 1),
                       FitError, "residuals are not an array of numbers"),
    "fit_ar_booleans": (lambda tmp: fit_ar(np.array([True, False, True, False]), 1),
                        FitError, "need integers or floats, got bool"),
    "fit_ar_complex": (lambda tmp: fit_ar(np.array([1.0, 2.0j, 3.0, 4.0]), 1),
                       FitError, "need integers or floats, got complex128"),
    "fit_ar_rows_1d": (lambda tmp: fit_ar_rows(np.ones(5), 1),
                       ShapeError, "expects an N x T residual array, got shape (5,)"),
    "fit_ar_rows_objects": (lambda tmp: fit_ar_rows([[1.0, None, 2.0]], 0),
                            FitError, "residuals are not an array of numbers"),
    "forecast_ar_string": (lambda tmp: forecast_ar(ArModel(alpha=[0.5], noise_var_hat=1.0), ["a"]),
                           ShapeError, "lagged residuals are not an array of numbers"),
    "forecast_ar_boolean": (lambda tmp: forecast_ar(ArModel(alpha=[0.5], noise_var_hat=1.0),
                                                    [True]),
                            ShapeError, "need integers or floats, got bool"),
    "forecast_ar_none": (lambda tmp: forecast_ar(ArModel(alpha=[0.5], noise_var_hat=1.0), [None]),
                         ShapeError, "need integers or floats, got object"),
    "forecast_ar_nan": (lambda tmp: forecast_ar(ArModel(alpha=[0.5], noise_var_hat=1.0),
                                                [math.nan]),
                        FitError, "non-finite lagged residuals"),
    "roots_of_nothing": (lambda tmp: characteristic_roots([]),
                         ShapeError, "coefficient vector of length >= 1"),
    "diagnostics_of_order_0": (lambda tmp: diagnostics(ArModel.zero()),
                               ShapeError, "model of order >= 1"),
    "hsvt_1d": (lambda tmp: hsvt(np.ones(3), 1), RankError, "expects a 2-D matrix"),
    "empty_spectrum": (lambda tmp: select_rank([], RankRule.fixed(1), (1, 1)),
                       RankError, "non-empty 1-D singular spectrum"),
    "increasing_spectrum": (lambda tmp: select_rank([1.0, 2.0], RankRule.fixed(1), (2, 2)),
                            RankError, "must be non-increasing"),
    "universal_empty_shape": (lambda tmp: select_rank([1.0], RankRule.universal(), (0, 5)),
                              RankError, "invalid shape (0, 5)"),
    "default_L_no_series": (lambda tmp: default_L(0, 5), ShapeError, "need N >= 1 and T >= 1"),
    "default_L_ratio_0": (lambda tmp: default_L(5, 5, ratio=0),
                          ShapeError, "shape ratio must be >= 1"),
    "panel_of_no_series": (lambda tmp: TimePanel((), np.ones((0, 3))),
                           ShapeError, "at least one series"),
    "long_fractional_t": (lambda tmp: load_csv(_written(tmp, "p.csv", "a,1.5,2.0\n"), "long"),
                          ParseError, "non-integer time index '1.5'"),
    "long_header_only": (lambda tmp: load_csv(_written(tmp, "p.csv", "series,t,value\n"), "long"),
                         IngestError, "no data rows"),
    "model_file_is_a_directory": (lambda tmp: load_model(tmp),
                                  ParseError, "cannot read model file"),
    "model_names_not_strings": (lambda tmp: load_model(_model_file(tmp, ["s1", 2, "s3"])),
                                ParseError, "series names must be strings, got 2"),
    "model_names_not_a_list": (lambda tmp: load_model(_model_file(tmp, "s1")),
                               ParseError, "series_names must be a list of strings"),
    "empty_grid": (lambda tmp: grid_search(None, None, []), SearchError, "empty grid"),
    "r_squared_one_point": (lambda tmp: r_squared([1.0], [2.0]),
                            MetricError, "need at least two points for R^2"),
    "rolling_eval_one_step": (lambda tmp: rolling_eval(_fitted(), TimePanel(("a",), [[0.5]], 41)),
                              MetricError, "need at least two points for R^2"),
    "beta_nan": (lambda tmp: BetaModel(beta=[math.nan], k_hat=1, resid_rms=0.0),
                 FitError, "non-finite regression coefficients"),
    "ar_nan": (lambda tmp: ArModel(alpha=[math.nan], noise_var_hat=1.0),
               FitError, "non-finite AR coefficients"),
    "cli_sigma2_nan": (lambda tmp: cli._resolve(cli._build_parser().parse_args(
        ["synth", "--sigma2", "nan", "-o", str(tmp)])),
                       cli._UsageError, "--sigma2 must be finite"),
}


@pytest.mark.parametrize("call, error, fragment", GUARDS.values(), ids=GUARDS.keys())
def test_every_guard_raises_its_typed_error(call, error, fragment, tmp_path):
    with pytest.raises(error) as info:
        call(tmp_path)
    assert fragment in str(info.value)
