"""The three parts of every workload, their input scales and their checks.

* ``search``: one ``evaluation.forecast_benchmark_run`` seed (grid search,
  ablation search, two refits, a test roll).
* ``estimate``: the fig2 point, ``ssa_estimator.decompose`` with ``fixed:6``
  and ``ar.fit_ar(p=2)`` on series 1.
* ``cli``: ``samossa fit --p grid`` and ``samossa observe-forecast
  --save-model`` on CSV files, each a fresh process, then the saved input
  model rolled in-process with ``evaluation.rolling_eval`` in chunks.

A workload times its own part at full scale; its traced run also runs the
other two at small scale, so that each layer does most of its work in one
workload and a little in the others. Inputs come only from the seeds handed in: the estimate and cli parts
build them with ``synth`` outside the timed regions, and
``forecast_benchmark_run`` draws its own panel from the seed it is given.
"""

from __future__ import annotations

import csv
import json
import math
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import calibrate
from samossa import ar, evaluation, pagemat, pipeline, ssa_estimator, synth
from samossa.lowrank import RankRule
from samossa.panel import TimePanel

HERE = Path(__file__).resolve().parent


@dataclass(frozen=True)
class SearchScale:
    n_series: int
    train_len: int
    valid_len: int = 25
    test_len: int = 25


@dataclass(frozen=True)
class EstimateScale:
    n_series: int
    length: int


@dataclass(frozen=True)
class CliScale:
    n_series: int
    train_len: int


# The cli part's test window is ROLL_CHUNKS consecutive chunks of CHUNK_LEN
# steps; the library rolls it ROLL_PASSES times, each from a fresh load.
ROLL_CHUNKS = 100
CHUNK_LEN = 50
ROLL_PASSES = 2


FULL = {
    "search": SearchScale(25, 10_000),
    "estimate": EstimateScale(10, 300_000),
    "cli": CliScale(25, 10_000),
}
SMALL = {
    "search": SearchScale(5, 2_000),
    "estimate": EstimateScale(10, 18_000),
    "cli": CliScale(5, 2_000),
}

# fig2 settings: lambda* = 0.3, sigma^2 = 0.04 (the acceptance scale), rank fixed:6, AR(2).
FIG2_LAMBDA = 0.3
FIG2_SIGMA2 = 0.04
FIG2_RANK = RankRule.fixed(6)
FIG2_P = 2
# Acceptance criterion 2's reference est_err levels by N*T; a run must land within x/÷5.
EST_ERR_REFERENCE = {180_000: 1.4e-3, 3_000_000: 3.4e-4}
# Acceptance criterion 3 bounds alpha_err by 5e-2 at N*T = 3e6; smaller panels
# scale the bound by the identification rate (N*T)^-1/2.
ALPHA_ERR_MAX_3E6 = 5e-2

# Known answers. The first repetition of the search and estimate parts in a
# run uses a pinned panel seed, and its outputs are compared with these
# values, recorded at 2 BLAS threads. Thread count alone moves the last bit,
# so they are compared within KNOWN_TOL (absolute for R^2, relative for errors).
KNOWN_SEARCH = {  # scale -> (seed, R^2, ablation R^2)
    SMALL["search"]: (1, 0.41944192696920435, 0.348058440719626),
    FULL["search"]: (0, 0.5366756589769571, 0.4596860484407167),
}
KNOWN_ESTIMATE = {  # scale -> (seed, k_hat, est_err, alpha_err)
    SMALL["estimate"]: (0, 6, 0.002024396243929609, 0.02243211208855405),
    FULL["estimate"]: (0, 6, 0.0005029537657803503, 0.005376226973337423),
}
KNOWN_TOL = 1e-6

# Tolerance between the CLI's rolling predictions and the library's.
ROLL_MATCH_TOL = 1e-12

CHECKS = (
    "setup.exit_code",
    "search.known_answer",
    "search.r2_valid",
    "estimate.known_answer",
    "estimate.residual_identity",
    "estimate.k_hat",
    "estimate.est_err_band",
    "estimate.alpha_err",
    "cli.exit_code",
    "cli.y_equals_f_plus_x",
    "cli.matches_library",
    "cli.next_t",
)


class CheckFailed(Exception):
    pass


class Recorder:
    """Operations attempted and failed, checks run, timings and output values.

    ``cal`` holds (end time, seconds) of every calibration unit run, by kind, and
    ``spans`` the (start, end) times of every sample in ``samples``, both on
    the ``time.perf_counter`` clock, which CLI children share on Linux.
    """

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.checks: dict[str, int] = defaultdict(int)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.spans: dict[str, list[tuple[float, float]]] = defaultdict(list)
        self.values: dict[str, list[float]] = defaultdict(list)
        self.cal: dict[str, list[tuple[float, float]]] = defaultdict(list)

    def sample(self, name: str, value: float, span: float | None = None) -> None:
        """Record a timing that ended now and took ``span`` seconds of wall
        time (``value`` itself if not given)."""
        end = time.perf_counter()
        self.samples[name].append(value)
        self.spans[name].append((end - (value if span is None else span), end))

    def calibrate(self, kind: str, units: int | None = None) -> None:
        calibrate.run_units(kind, self.cal[kind], units)

    def clear(self) -> None:
        """Drop the timings and values taken so far (after a warm-up)."""
        for store in (self.samples, self.spans, self.values, self.cal):
            store.clear()

    def check(self, name: str, ok: bool, detail) -> None:
        self.checks[name] += 1
        if not ok:
            raise CheckFailed(f"{name}: {detail}")

    def attempt(self, label: str, fn, *args) -> bool:
        """Run one operation; any exception or failed check counts it as failed."""
        self.attempted += 1
        try:
            fn(*args)
        except Exception:  # noqa: BLE001 - every failure of the program is recorded
            self.failures.append(f"{label}: {traceback.format_exc()}")
            return False
        return True

    def skip(self, label: str) -> None:
        self.attempted += 1
        self.failures.append(f"{label}: not run after an earlier step failed")


class Context:
    """Where a run writes, how it starts CLI processes, and the tracer if any."""

    def __init__(self, recorder: Recorder, workdir: Path, env: dict, root: Path):
        self.rec = recorder
        self.workdir = workdir
        self.env = env
        self.root = root
        self.tracer = None  # set during the traced pass

    def run_cli(self, argv: list[str], part: str, metric: str) -> None:
        """One fresh ``samossa`` process; a non-zero exit fails the check.

        ``metric`` gets the time spent in ``cli.main``; ``<metric>_wall``
        gets the wall time of the whole process, start-up included, as a
        user pays it. Start-up alone is measured as ``setup_s``.
        """
        out = self.workdir / f"cli-{argv[0]}.json"
        cmd = [sys.executable, str(HERE / "samossa_cli.py"), "--out", str(out)]
        if self.tracer is not None:
            cmd += ["--trace-part", part]
        started = time.perf_counter()
        proc = subprocess.run(cmd + argv, env=self.env, cwd=self.root, capture_output=True,
                              text=True, timeout=170)
        wall = time.perf_counter() - started
        self.rec.check("cli.exit_code", proc.returncode == 0,
                       f"samossa {argv[0]} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
        with open(out, encoding="utf-8") as fh:
            doc = json.load(fh)
        if self.tracer is not None:
            self.tracer.merge(doc["trace"])
        self.rec.cal["interp"].extend(map(tuple, doc["cal"]))
        self.rec.sample(metric, doc["main_s"], span=wall)
        self.rec.samples[f"{metric}_wall"].append(wall)


def seed_stream(seed: int, part: str, scale):
    """Panel seeds for one part: the pinned known-answer seed of its scale,
    if it has one, then fresh seeds derived from the workload seed."""
    known = {"search": KNOWN_SEARCH, "estimate": KNOWN_ESTIMATE}.get(part, {}).get(scale)
    if known is not None:
        yield known[0]
    rng = np.random.default_rng([seed, int.from_bytes(part.encode(), "little")])
    while True:
        yield int(rng.integers(2**31))


def setup_rep(ctx: Context) -> None:
    """Fresh interpreter plus ``import samossa``: paid by every CLI call.

    Calibration units run just before and just after, to scale it by."""
    ctx.rec.calibrate("interp")
    started = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", "import samossa"], env=ctx.env, cwd=ctx.root,
                          capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - started
    ctx.rec.check("setup.exit_code", proc.returncode == 0, proc.stderr.strip()[-500:])
    ctx.rec.sample("setup_s", elapsed)
    ctx.rec.calibrate("interp")


# ---------------------------------------------------------------------------
# search


def search_rep(ctx: Context, scale: SearchScale, seed: int) -> None:
    ctx.rec.calibrate("blas")
    started = time.perf_counter()
    r2, r2_ablation = evaluation.forecast_benchmark_run(
        seed, n_series=scale.n_series, train_len=scale.train_len,
        valid_len=scale.valid_len, test_len=scale.test_len)
    elapsed = time.perf_counter() - started
    gap = r2 - r2_ablation
    ctx.rec.check("search.r2_valid",
                  math.isfinite(r2) and math.isfinite(r2_ablation) and r2 <= 1.0 and r2_ablation <= 1.0,
                  f"R^2 {r2!r}, ablation R^2 {r2_ablation!r}")
    known = KNOWN_SEARCH.get(scale)
    if known is not None and seed == known[0]:
        ctx.rec.check("search.known_answer",
                      abs(r2 - known[1]) <= KNOWN_TOL and abs(r2_ablation - known[2]) <= KNOWN_TOL,
                      f"got ({r2!r}, {r2_ablation!r}), recorded {known[1:]} for seed {seed}")
    ctx.rec.sample("search_s", elapsed)
    ctx.rec.calibrate("blas")
    ctx.rec.values["mean_r2"].append(r2)
    ctx.rec.values["r2_gap"].append(gap)


# ---------------------------------------------------------------------------
# estimate


def _estimate(scale: EstimateScale, seed: int):
    spec = replace(synth.estimation_spec(FIG2_LAMBDA, n_series=scale.n_series,
                                         length=scale.length, seed=seed), sigma2=FIG2_SIGMA2)
    truth = synth.generate(spec)
    L = pagemat.default_L(scale.n_series, scale.length)
    started = time.perf_counter()
    decomp = ssa_estimator.decompose(truth.y, L, FIG2_RANK)
    model = ar.fit_ar(decomp.x_hat[0], FIG2_P)
    return truth, decomp, model, time.perf_counter() - started


def _fig2_errors(truth, decomp, model) -> tuple[float, float]:
    err = ssa_estimator.est_err(decomp, truth.f, n=0)
    return err, float(np.linalg.norm(model.alpha - truth.alphas[0]))


def estimate_rep(ctx: Context, scale: EstimateScale, seed: int) -> None:
    ctx.rec.calibrate("blas")
    truth, decomp, model, elapsed = _estimate(scale, seed)
    err, alpha_err = _fig2_errors(truth, decomp, model)
    known = KNOWN_ESTIMATE.get(scale)
    if known is not None and seed == known[0]:
        _, want_k, want_err, want_alpha = known
        ok = (decomp.k_hat == want_k and abs(err - want_err) <= KNOWN_TOL * want_err
              and abs(alpha_err - want_alpha) <= KNOWN_TOL * want_alpha)
        ctx.rec.check("estimate.known_answer", ok,
                      f"got ({decomp.k_hat}, {err!r}, {alpha_err!r}), recorded {known[1:]}")
    retained = truth.y.values[:, decomp.origin:]
    # x_hat is defined as retained - f_hat, so that identity is exact; the sum
    # f_hat + x_hat rounds back to the observations within an ulp.
    ulp = np.spacing(np.abs(retained).max())
    identity = (np.array_equal(decomp.x_hat, retained - decomp.f_hat)
                and np.abs(decomp.f_hat + decomp.x_hat - retained).max() <= 2 * ulp)
    ctx.rec.check("estimate.residual_identity", bool(identity), "f_hat + x_hat != retained y")
    nt = scale.n_series * scale.length
    ref = EST_ERR_REFERENCE[nt]
    alpha_max = ALPHA_ERR_MAX_3E6 * math.sqrt(3_000_000 / nt)
    ctx.rec.check("estimate.k_hat", decomp.k_hat == FIG2_RANK.k, f"k_hat {decomp.k_hat}")
    ctx.rec.check("estimate.est_err_band", ref / 5 <= err <= ref * 5,
                  f"est_err {err!r} outside x/÷5 of {ref} at N*T={nt}")
    ctx.rec.check("estimate.alpha_err", alpha_err <= alpha_max,
                  f"alpha_err {alpha_err!r} > {alpha_max:.3g} at N*T={nt}")
    ctx.rec.sample("estimate_s", elapsed)
    ctx.rec.calibrate("blas")
    ctx.rec.values["est_err"].append(err)
    ctx.rec.values["alpha_err"].append(alpha_err)


# ---------------------------------------------------------------------------
# cli


def _write_csv(path: Path, names, values: np.ndarray) -> None:
    lines = [",".join(names)]
    lines += [",".join(map(repr, row)) for row in values.T.tolist()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _read_csv(path: Path) -> np.ndarray:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return np.array([[float(cell) for cell in row] for row in rows[1:]]).T


def cli_rep(ctx: Context, scale: CliScale, seed: int, part: str) -> None:
    test_len = ROLL_CHUNKS * CHUNK_LEN
    truth = synth.generate(synth.forecasting_spec(
        n_series=scale.n_series, length=scale.train_len + test_len, seed=seed))
    names = truth.y.series_names
    values = truth.y.values
    work = Path(tempfile.mkdtemp(prefix=f"cli-{seed}-", dir=ctx.workdir))
    train_csv, test_csv = work / "train.csv", work / "test.csv"
    model_json, next_json, out_dir = work / "model.json", work / "model_next.json", work / "out"
    _write_csv(train_csv, names, values[:, :scale.train_len])
    _write_csv(test_csv, names, values[:, scale.train_len:])
    rec = ctx.rec

    def fit_call():
        ctx.run_cli(["fit", "--input", str(train_csv), "--p", "grid", "-o", str(model_json)],
                    part, "cli_fit_s")

    def roll_call():
        ctx.run_cli(["observe-forecast", "--model", str(model_json), "--test", str(test_csv),
                     "-o", str(out_dir), "--save-model", str(next_json)], part, "cli_roll_s")

    def library_roll():
        # The saved input model rolled in-process, as a library user would,
        # in consecutive chunks; a pass is repeated so that the chunk timings
        # cover more of the run than one second or so.
        y_hat, f_hat, x_hat = (_read_csv(out_dir / f"{name}.csv") for name in ("y_hat", "f_hat", "x_hat"))
        rec.check("cli.y_equals_f_plus_x", np.array_equal(y_hat, f_hat + x_hat),
                  "y_hat.csv differs from f_hat.csv + x_hat.csv")
        with open(next_json, encoding="utf-8") as fh:
            next_t = json.load(fh)["state"]["next_t"]
        want = scale.train_len + test_len + 1
        rec.check("cli.next_t", next_t == [want] * scale.n_series, f"next_t {next_t}, want {want}")
        chunk_s = []
        roll_started = time.perf_counter()
        for _ in range(ROLL_PASSES):
            model = pipeline.load_model(model_json)
            preds = np.empty((scale.n_series, test_len))
            for c in range(ROLL_CHUNKS):
                lo = c * CHUNK_LEN
                chunk = TimePanel(names, values[:, scale.train_len + lo: scale.train_len + lo + CHUNK_LEN],
                                  t0=scale.train_len + 1 + lo)
                started = time.perf_counter()
                report = evaluation.rolling_eval(model, chunk)
                chunk_s.append(time.perf_counter() - started)
                preds[:, lo: lo + CHUNK_LEN] = report.predictions
                rec.calibrate("interp", 1)
            gap = float(np.abs(y_hat - preds).max())
            rec.check("cli.matches_library", gap <= ROLL_MATCH_TOL,
                      f"CLI and library predictions differ by {gap!r}")
        rec.sample("lib_roll_s", sum(chunk_s), span=time.perf_counter() - roll_started)
        rec.samples["roll_us"].extend(x * 1e6 / (scale.n_series * CHUNK_LEN) for x in chunk_s)

    steps = (("cli fit", fit_call), ("cli observe-forecast", roll_call), ("library roll", library_roll))
    for i, (label, fn) in enumerate(steps):
        if not rec.attempt(f"{label} seed {seed}", fn):
            for later, _ in steps[i + 1:]:
                rec.skip(f"{later} seed {seed}")
            return
