"""Every input type checks its own fields: a bad value is a typed error where it is made."""

import math

import numpy as np
import pytest

from samossa import (
    ArModel,
    BetaModel,
    GeneratorSpec,
    RankRule,
    SamossaConfig,
    SamossaError,
    SplitSpec,
    TimePanel,
)

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
                         freq_range=(0.1, 0.2), phase_range=(0.0, 1.0), slope_range=(0.0, 0.0),
                         ar_order=1, lambda_star=0.5, alpha=None, sigma2=0.2, seed=0),
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
    (GeneratorSpec, dict(kind="pure_ar", freq_range=[1, 2]), ("freq_range", (1.0, 2.0))),
    (GeneratorSpec, dict(kind="pure_ar", alpha=np.array([-0.5])), ("alpha", (-0.5,))),
])
def test_numbers_are_stored_as_plain_python_values(cls, kwargs, stored):
    field, expected = stored
    value = getattr(cls(**kwargs), field)
    assert value == expected and type(value) is type(expected)
