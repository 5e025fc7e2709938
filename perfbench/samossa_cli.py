"""Run one samossa command the way its console script does, and time it.

    python3 perfbench/samossa_cli.py --out FILE [--trace-part PART] <subcommand> [options]

The benchmark starts every CLI call through this file, so each call is a
fresh interpreter that imports the package from the checkout (``PYTHONPATH``
names its ``src``). After the command returns, FILE receives JSON with
``main_s``, the wall time of ``samossa.cli.main`` alone:
interpreter start-up and ``import samossa.cli`` come before it and are
measured separately as the benchmark's set-up time. FILE also receives
``cal``, the (end time, seconds) of the ``interp`` calibration units run while the
command runs and just before and after it (see ``calibrate.py``); their
time is not in ``main_s``. With ``--trace-part``, the package's public
functions are wrapped by the tracer instead, no units run during the
command, and FILE also receives the span aggregates, labelled with PART.
"""

import contextlib
import json
import sys
import time


def _run(argv: list[str]) -> int:
    import calibrate
    import samossa.cli

    out_path, argv = argv[1], argv[2:]
    tracer = None
    if argv[:1] == ["--trace-part"]:
        from tracing import Tracer

        tracer = Tracer(argv[1]).install()
        argv = argv[2:]
    cal = []
    sampler = calibrate.Sampler()
    calibrate.run_units("interp", cal)
    with sampler if tracer is None else contextlib.nullcontext():
        started = time.perf_counter()
        code = samossa.cli.main(argv)
        main_s = time.perf_counter() - started - sampler.spent_s
    calibrate.run_units("interp", cal)
    doc = {"main_s": main_s, "cal": cal + sampler.units}
    if tracer is not None:
        doc["trace"] = tracer.to_json()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return code


if __name__ == "__main__":
    sys.exit(_run(sys.argv[1:]))
