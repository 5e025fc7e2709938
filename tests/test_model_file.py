"""Model files: bit-exact round trips and fail-closed loading.

``load_model`` validates every count and length against the number of
series, L and the per-series AR orders, and every number for finiteness, so
a corrupted file ends in ParseError instead of reaching the forecasters.
The fields a model is built from (panel names and t0, the configuration and
its rank rule) are checked where they are constructed, so whatever
constructs also fits, saves and loads back unchanged.
"""

import copy
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from samossa import (
    ArModel,
    BetaModel,
    ConfigError,
    IngestError,
    ParseError,
    RankError,
    RankRule,
    SamossaConfig,
    SamossaError,
    TimePanel,
    fit,
    forecast_step,
    load_model,
    roll,
    save_model,
)
from test_roll import ScalarProtocol, assert_same_state, random_model, roll_cases


@settings(max_examples=60, deadline=None)
@given(roll_cases())
def test_save_load_roll_round_trip(case):
    L, ps, horizon, _, pending, seed = case
    rng = np.random.default_rng(seed)
    model = random_model(rng, L, ps)
    oracle = ScalarProtocol(model)
    for n in pending:
        forecast_step(model, n)
        oracle.forecast(n)
    values = rng.normal(size=(len(ps), horizon))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        save_model(model, path)
        loaded = load_model(path)
    assert_same_state(loaded.state, model.state)
    oracle.assert_state(loaded.state)
    want = oracle.roll(values)
    assert np.array_equal(np.stack(roll(loaded, values)), want)
    assert np.array_equal(np.stack(roll(model, values)), want)
    assert_same_state(loaded.state, model.state)
    oracle.assert_state(loaded.state)


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

    @pytest.mark.parametrize("key, value", [
        ("p", "abc"), ("shape_ratio", -3), ("valid_len", "x"),
        ("L", 1), ("L", 2.5), ("p", []), ("p", [1, "x"]), ("p", -1), ("p", True),
        ("shape_ratio", 0), ("valid_len", 1), ("rank", "energy:2"),
    ])
    def test_bad_config(self, tmp_path, key, value):
        doc = copy.deepcopy(BASE)
        doc["config"][key] = value
        with pytest.raises(ParseError):
            load_model(self.write(tmp_path, doc))

    # BASE has L = 5 (four beta entries) and AR orders (0, 2, 3).
    @pytest.mark.parametrize("edit, message", [
        (lambda d: d.update(L=6), r"beta must be a list of 5 entries, got 4"),
        (lambda d: d["beta"].append(0.5), r"beta must be a list of 4 entries, got 5"),
        (lambda d: d.update(k_hat=-1), r"k_hat must be an integer >= 0, got -1"),
        (lambda d: d.update(k_hat=1.5), r"k_hat must be an integer >= 0, got 1.5"),
        (lambda d: d.update(k_hat=True), r"k_hat must be an integer >= 0, got True"),
        (lambda d: d["ar"][1].update(p=3), r"ar\[1\].p = 3 but p_used\[1\] = 2"),
        (lambda d: d["p_used"].__setitem__(1, 3), r"ar\[1\].p = 2 but p_used\[1\] = 3"),
        (lambda d: (d["p_used"].__setitem__(1, 3), d["ar"][1].update(p=3)),
         r"ar\[1\].alpha must be a list of 3 entries, got 2"),
        (lambda d: d["ar"][2]["alpha"].pop(), r"ar\[2\].alpha must be a list of 3 entries, got 2"),
        (lambda d: d["beta"].__setitem__(2, True), r"beta\[2\] must be a finite number, got True"),
        (lambda d: d["ar"][2]["alpha"].__setitem__(1, "1"),
         r"ar\[2\].alpha\[1\] must be a finite number, got '1'"),
        (lambda d: d["state"]["obs_lags"][0].__setitem__(3, 1e308 * 10),
         r"obs_lags\[0\]\[3\] must be a finite number, got inf"),
    ], ids=["L-above-beta", "beta-above-L", "k-negative", "k-float", "k-bool", "ar-p",
            "p-used", "alpha-short-of-both", "alpha-short", "bool-in-beta", "text-in-alpha",
            "inf-in-obs-lags"])
    def test_copies_checked_against_coefficients(self, tmp_path, edit, message):
        doc = copy.deepcopy(BASE)
        edit(doc)
        text = json.dumps(doc, indent=1).replace("Infinity", "1e999")
        path = tmp_path / "model.json"
        path.write_text(text)
        with pytest.raises(ParseError, match=message):
            load_model(path)

    def test_golden_model_config(self):
        model = load_model(Path(__file__).parent / "data" / "cli_golden" / "model.json")
        assert (model.config.L, model.config.p, model.config.valid_len) == (None, (0, 1, 2, 3), 25)


def _panel(names=("a", "b", "c"), t0=1) -> TimePanel:
    rng = np.random.default_rng(5)
    t = np.arange(60)
    smooth = rng.normal(size=(3, 2)) @ np.array([np.sin(0.3 * t), np.cos(0.7 * t)])
    return TimePanel(names, smooth + 0.1 * rng.normal(size=(3, 60)), t0=t0)


def _save_load(model, directory):
    path = Path(directory) / "model.json"
    save_model(model, path)
    return load_model(path)


def _bits(array) -> bytes:
    return np.asarray(array, dtype=np.float64).tobytes()


def assert_same_model(a, b):
    """Every fitted fact and the state agree bit for bit, the config field for field."""
    assert (a.config, a.L, a.k_hat, a.p_used, a.series_names) == \
        (b.config, b.L, b.k_hat, b.p_used, b.series_names)
    assert _bits(a.beta_model.beta) == _bits(b.beta_model.beta)
    for x, y in zip(a.ar_models, b.ar_models, strict=True):
        assert (_bits(x.alpha), _bits(x.noise_var_hat)) == (_bits(y.alpha), _bits(y.noise_var_hat))
    for x, y in ((a.state.obs_lags, b.state.obs_lags), (a.state.resid_lags, b.state.resid_lags)):
        assert x.shape == y.shape and _bits(x) == _bits(y)
    assert (a.state.next_t, a.state.pending_f) == (b.state.next_t, b.state.pending_f)


class TestFieldsCheckedAtConstruction:
    @pytest.mark.parametrize("make, error", [
        (lambda: SamossaConfig(p=()), ConfigError),
        (lambda: SamossaConfig(L=10.5), ConfigError),
        (lambda: SamossaConfig(shape_ratio=1.5), ConfigError),
        (lambda: SamossaConfig(rank="energy:0.9"), ConfigError),
        (lambda: SamossaConfig(p=True), ConfigError),
        (lambda: SamossaConfig(L=1), ConfigError),
        (lambda: SamossaConfig(valid_len=1), ConfigError),
        (lambda: SamossaConfig(p=[1, -1]), ConfigError),
        (lambda: RankRule.fixed(True), RankError),
        (lambda: RankRule.fixed(2.0), RankError),
        (lambda: RankRule.energy(True), RankError),
        (lambda: RankRule.energy("0.9"), RankError),
        (lambda: TimePanel((1, 2, 3), np.zeros((3, 4))), IngestError),
        (lambda: TimePanel(("a",), np.zeros((1, 4)), t0=1.5), IngestError),
        (lambda: TimePanel(("a",), np.zeros((1, 4)), t0=True), IngestError),
    ], ids=["empty-grid", "float-L", "float-ratio", "text-rank", "bool-p", "L-1", "valid-len-1",
            "negative-order", "bool-k", "float-k", "bool-fraction", "text-fraction", "int-names",
            "float-t0", "bool-t0"])
    def test_refused(self, make, error):
        with pytest.raises(error):
            make()

    @pytest.mark.parametrize("text", [5, None, b"universal", "fixed:x", "fixed:1.5", "energy:",
                                      "energy:nan", "fixed:0", "energy:2", "fixed:" + "9" * 5000])
    def test_parse_raises_only_rank_error(self, text):
        with pytest.raises(RankError):
            RankRule.parse(text)

    def test_numpy_integer_order_fits(self):
        config = SamossaConfig(rank=RankRule.fixed(2), p=np.int64(1))
        assert type(config.p) is int
        assert fit(_panel(), config).p_used == (1, 1, 1)

    def test_one_order_has_one_spelling(self, tmp_path):
        for p in ([2], (2,), [np.int64(2)]):
            assert SamossaConfig(p=p).p == 2 and type(SamossaConfig(p=p).p) is int
        assert SamossaConfig(p=[2, 2]).p == 2  # a grid of one distinct order is that order
        model = fit(_panel(), SamossaConfig(rank=RankRule.fixed(2), p=[2]))
        path = tmp_path / "model.json"
        save_model(model, path)
        assert json.loads(path.read_text())["config"]["p"] == 2
        assert load_model(path).config == model.config == SamossaConfig(rank=RankRule.fixed(2),
                                                                         p=2)

    def test_numpy_integers_round_trip(self, tmp_path):
        config = SamossaConfig(L=np.int64(6), rank=RankRule.fixed(np.int32(2)),
                               p=[np.int64(0), 1], shape_ratio=np.int16(2),
                               valid_len=np.uint8(10))
        assert config == SamossaConfig(L=6, rank=RankRule.fixed(2), p=(0, 1), shape_ratio=2,
                                       valid_len=10)
        model = fit(_panel(t0=np.int64(4)), config)
        assert model.state.next_t == [64] * 3
        assert_same_model(_save_load(model, tmp_path), model)

    def test_model_facts_have_one_owner(self):
        model = fit(_panel(), SamossaConfig(rank=RankRule.fixed(2), p=[1, 2], valid_len=10))
        beta, ar = model.beta_model, model.ar_models
        assert (model.L, model.k_hat) == (beta.L, beta.k_hat) == (len(beta.beta) + 1, 2)
        assert model.p_used == tuple(m.p for m in ar) == tuple(len(m.alpha) for m in ar)
        for obj, name in ((model, "L"), (model, "k_hat"), (model, "p_used"), (beta, "L"),
                          (ar[0], "p")):
            with pytest.raises(AttributeError):
                setattr(obj, name, 1)
        with pytest.raises(TypeError):
            ArModel(alpha=np.zeros(2), p=2, noise_var_hat=1.0)
        with pytest.raises(TypeError):
            BetaModel(beta=np.zeros(4), L=5, k_hat=1, resid_rms=0.0)

    def test_unencodable_model_leaves_the_file(self, tmp_path):
        model = fit(_panel(), SamossaConfig(rank=RankRule.fixed(2), p=1))
        path = tmp_path / "model.json"
        save_model(model, path)
        before = path.read_bytes()
        model.state.next_t[0] = np.int64(61)  # json cannot encode a numpy integer
        with pytest.raises(TypeError):
            save_model(model, path)
        assert path.read_bytes() == before


# Field values: ``_whole(low)`` draws integers >= low, plain and numpy;
# ``_ANY`` adds booleans, floats, text and values out of range.
def _whole(low):
    return st.one_of(st.integers(low, 4), st.integers(low, 4).map(np.int64),
                     st.integers(max(low, 0), 4).map(np.uint8))


def _grids(entry, min_size):
    grid = st.lists(entry, min_size=min_size, max_size=3)
    return st.one_of(entry, grid, grid.map(tuple))


@st.composite
def _raw_rank(draw):
    """("raw", kind, k, fraction) for RankRule(kind, k=k, fraction=fraction): the field the
    kind reads is valid, and half the time the field it does not read is set as well."""
    kind = draw(st.sampled_from(("fixed", "energy", "universal")))
    k, fraction, stray = draw(_whole(1)), draw(st.floats(0.01, 1.0)), draw(st.booleans())
    return ("raw", kind, k if stray or kind == "fixed" else None,
            fraction if stray or kind == "energy" else None)


_ANY = st.one_of(_whole(-1), st.booleans(), st.floats(-1.0, 4.0), st.just("2"))
_TEXT = st.lists(st.text(max_size=3), min_size=3, max_size=3)

# Per field: (values that must construct, values that may not).
_POOLS = {
    "names": (_TEXT, st.lists(st.one_of(st.text(max_size=3), st.integers(0, 9)),
                              min_size=3, max_size=3)),
    "t0": (st.one_of(_whole(-1), st.integers(-2**70, 2**70)), _ANY),
    "L": (st.one_of(st.none(), _whole(2), st.integers(5, 9)), _ANY),
    "p": (_grids(_whole(0), 1), _grids(_ANY, 0)),
    "shape_ratio": (_whole(1), _ANY),
    "valid_len": (st.one_of(st.none(), _whole(2), st.integers(5, 9)), _ANY),
    "rank": (st.one_of(st.tuples(st.just("fixed"), _whole(1)),
                       st.tuples(st.just("energy"), st.floats(0.01, 1.0)),
                       st.just(("universal",)), _raw_rank()),
             st.one_of(st.tuples(st.just("fixed"), _ANY),
                       st.tuples(st.just("energy"), st.one_of(
                           st.floats(), st.floats(0.0, 1.0).map(np.float32), st.booleans(),
                           st.integers(0, 2), st.just("0.9"))),
                       st.just(("text", "energy:0.9")))),
}


@st.composite
def _fields(draw):
    """Every field from its valid pool, except at most one from its other pool."""
    odd = draw(st.sampled_from((None, *_POOLS)))
    return {key: draw(pools[key == odd]) for key, pools in _POOLS.items()}


def _rank(spec):
    kind, *args = spec
    if kind == "raw":
        return RankRule(args[0], k=args[1], fraction=args[2])
    return args[0] if kind == "text" else getattr(RankRule, kind)(*args)


@settings(max_examples=150)
@given(_fields())
def test_constructed_fields_round_trip(fields):
    """Either construction raises a typed error, or the fit saves and loads bit for bit,
    its config to an equal config (a config holds no value its fit does not read)."""
    try:
        panel = _panel(fields["names"], fields["t0"])
        config = SamossaConfig(rank=_rank(fields["rank"]), **{
            key: fields[key] for key in ("L", "p", "shape_ratio", "valid_len")})
    except SamossaError:
        return
    for value in (panel.t0, config.L, config.shape_ratio, config.valid_len, config.rank.k,
                  *(config.p if isinstance(config.p, tuple) else (config.p,))):
        assert value is None or type(value) is int
    model = fit(panel, config)
    with tempfile.TemporaryDirectory() as tmp:
        assert_same_model(_save_load(model, tmp), model)
