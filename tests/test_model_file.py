"""Model files: bit-exact round trips and fail-closed loading.

``load_model`` validates every count and length against the number of
series, L and the per-series AR orders, and every number for finiteness, so
a corrupted file ends in ParseError instead of reaching the forecasters.
"""

import copy
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from samossa import ParseError, forecast_step, load_model, roll, save_model
from test_roll import assert_same_state, random_model, roll_cases


@settings(max_examples=60, deadline=None)
@given(roll_cases())
def test_save_load_roll_round_trip(case):
    L, ps, horizon, _, pending, seed = case
    rng = np.random.default_rng(seed)
    model = random_model(rng, L, ps)
    for n in pending:
        forecast_step(model, n)
    values = rng.normal(size=(len(ps), horizon))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        save_model(model, path)
        loaded = load_model(path)
    assert_same_state(loaded.state, model.state)
    assert np.array_equal(np.stack(roll(loaded, values)), np.stack(roll(model, values)))
    assert_same_state(loaded.state, model.state)


def _base_doc() -> dict:
    model = random_model(np.random.default_rng(7), 5, [0, 2, 3])
    forecast_step(model, 1)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        save_model(model, path)
        return json.loads(path.read_text())


BASE = _base_doc()
N = len(BASE["series_names"])
PER_SERIES = ("p_used", "series_names", "ar", "state.obs_lags", "state.resid_lags", "state.next_t")
REQUIRED = ("config", "L", "k_hat", "p_used", "series_names", "beta", "beta_resid_rms", "ar",
            "state", "state.obs_lags", "state.resid_lags", "state.next_t", "state.pending_f",
            "ar.alpha", "ar.p", "ar.noise_var")
BAD_NUMBERS = (float("nan"), float("inf"), float("-inf"), "1.5", None, True, [1.0], "BIG")


def _at(doc, dotted):
    *parents, last = dotted.split(".")
    for key in parents:
        doc = doc[key]
    return doc, last


def _numeric_slots(doc):
    """(container, key) for every number in the coefficient and state arrays."""
    slots = [(doc["beta"], i) for i in range(len(doc["beta"]))]
    for n in range(N):
        slots += [(doc["ar"][n]["alpha"], i) for i in range(len(doc["ar"][n]["alpha"]))]
        for buf in ("obs_lags", "resid_lags"):
            row = doc["state"][buf][n]
            slots += [(row, i) for i in range(len(row))]
        slots.append((doc["state"]["next_t"], n))
    slots += [(doc["ar"][n], "noise_var") for n in range(N)]
    slots += [(doc["state"]["pending_f"], k) for k in doc["state"]["pending_f"]]
    return slots + [(doc, "beta_resid_rms"), (doc, "L"), (doc, "k_hat")]


def _corrupt(kind, pick, doc):
    """Apply one corruption to ``doc``; return the file text."""
    if kind == "truncate":
        text = json.dumps(doc, indent=1)
        return text[: pick % (len(text) - 1)]
    if kind == "drop_series_entry":
        target, key = _at(doc, PER_SERIES[pick % len(PER_SERIES)])
        target[key].pop(pick % N)
    elif kind == "short_obs_row":
        doc["state"]["obs_lags"][pick % N].pop()
    elif kind == "long_obs_row":
        doc["state"]["obs_lags"][pick % N].append(0.5)
    elif kind == "resid_row_length":
        row = doc["state"]["resid_lags"][pick % N]
        row.pop() if row and pick % 2 else row.append(0.5)
    elif kind == "p_mismatch":
        doc["ar"][pick % N]["p"] += 1
    elif kind == "missing_field":
        dotted = REQUIRED[pick % len(REQUIRED)]
        if dotted.startswith("ar."):
            del doc["ar"][pick % N][dotted[3:]]
        else:
            target, key = _at(doc, dotted)
            del target[key]
    elif kind == "bad_number":
        slots = _numeric_slots(doc)
        container, key = slots[pick % len(slots)]
        container[key] = BAD_NUMBERS[pick % len(BAD_NUMBERS)]
    elif kind == "fractional_clock":
        doc["state"]["next_t"][pick % N] += 0.5
    elif kind == "pending_unknown_series":
        doc["state"]["pending_f"][str(N + pick % 3)] = 0.0
    # allow_nan writes NaN/Infinity tokens; "BIG" stands for a literal
    # that overflows to infinity when parsed.
    return json.dumps(doc, indent=1).replace('"BIG"', "1e999")


CORRUPTIONS = ("truncate", "drop_series_entry", "short_obs_row", "long_obs_row",
               "resid_row_length", "p_mismatch", "missing_field", "bad_number",
               "fractional_clock", "pending_unknown_series")


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(CORRUPTIONS), st.integers(0, 10**6))
def test_corrupted_file_is_parse_error(kind, pick):
    text = _corrupt(kind, pick, copy.deepcopy(BASE))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        path.write_text(text)
        with pytest.raises(ParseError):
            load_model(path)


class TestNamedCases:
    def write(self, tmp_path, doc):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc, indent=1))
        return path

    def test_base_loads(self, tmp_path):
        model = load_model(self.write(tmp_path, BASE))
        assert model.p_used == (0, 2, 3) and model.state.pending_f.keys() == {1}

    def test_truncated_obs_lags_is_not_uninitialized(self, tmp_path):
        doc = copy.deepcopy(BASE)
        doc["state"]["obs_lags"][0] = doc["state"]["obs_lags"][0][:2]
        with pytest.raises(ParseError, match=r"obs_lags\[0\] must be a list of 4 entries, got 2"):
            load_model(self.write(tmp_path, doc))

    def test_short_next_t(self, tmp_path):
        doc = copy.deepcopy(BASE)
        doc["state"]["next_t"].pop()
        with pytest.raises(ParseError, match="next_t must be a list of 3 entries"):
            load_model(self.write(tmp_path, doc))

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_tokens(self, tmp_path, token):
        doc = copy.deepcopy(BASE)
        doc["beta"][0] = "TOKEN"
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc, indent=1).replace('"TOKEN"', token))
        with pytest.raises(ParseError, match=f"non-finite number {token}"):
            load_model(path)
