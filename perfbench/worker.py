"""One workload in one fresh process: set up, run rounds, record.

Started by run.py with the BLAS thread pools pinned to one thread and
``src`` of the checkout on the import path.  Every subcommand is called in
process through ``forecast_ensembles.cli.main`` with stdout captured, so
a call's time is the subcommand's own work without interpreter start-up.
The worker times calls and hashes their outputs; checking the outputs
is run.py's job, after this process has ended, so that the checks add
nothing to the workload's memory or time.

A yardstick, a fixed piece of Python and numpy work, runs before and
after every call.  A call's seconds are its wall-clock seconds scaled by
the yardstick's reference time over the median yardstick time around the
call (see ``yardstick`` and ``Runner.scale``); the wall-clock seconds are
kept as ``wall_s``.

Writes ``worker.json`` into ``--workdir``:
  setup_s        scaled seconds of each set-up (all `synth` calls of the
                 plan), and setup_wall_s their wall-clock seconds
  calls          one record per subcommand call: pass, round, op, scaled
                 seconds, start, wall_s, exit code and a digest of its
                 stdout and output file
  picks          per op of the first round, [indices, stage weights] of
                 the rounds of every model a trainer call returned (one
                 per combine call, one per leave-one-out fold, in fold order)
  layers         per-layer summary of the traced pass (trace 1)
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import hashlib
import io
import json
import os
import shutil
import statistics
import sys
import time
import traceback
from array import array
from pathlib import Path

import numpy as np

import tracer
import workloads

# The yardstick's median seconds on the 2-vCPU machine of the README's
# reference figures.  Scaled seconds are the seconds a call would take on
# that machine in its usual state; changing this value rescales every
# end-to-end time, so a comparison between commits must use one value.
YARDSTICK_S = 0.0033

# The yardstick runs that scale a call are those from this many times its
# duration, plus SPEED_WINDOW_S, before it starts to as long after it ends.
# The machine switches between a fast and a slow speed every few seconds;
# a short call is scaled by the runs next to it, a long one, which spans
# switches, by the runs over a stretch as long as the switches it spans.
# Over ten runs of each workload this kept every time's quartile spread
# within 0.12; the runs next to a call alone let long calls reach 0.15,
# and a fixed two-second window let set-up reach 0.23.
SPEED_WINDOW = 2.0
SPEED_WINDOW_S = 0.05

_YARD_MATRIX = np.random.default_rng(0).random((300, 90))
_YARD_CSV = "\n".join(",".join(f"{x:.6f}" for x in row) for row in _YARD_MATRIX[:60])


def yardstick() -> float:
    """Seconds of a fixed piece of work like the program's own: parsing CSV
    text into floats, small numpy reductions and a dict-updating loop.

    This host switches every few seconds between two speeds about 1.6
    times apart, and the share of slow time moves whole runs: the medians
    of ten runs on ten seeds spread by up to a quarter.  The yardstick
    switches with the program, so a call's seconds over the yardstick's
    seconds around it hold still where the seconds alone do not.
    """
    start = time.perf_counter()
    rows = [[float(cell) for cell in line.split(",")] for line in _YARD_CSV.splitlines()]
    total = float(np.asarray(rows).sum())
    for _ in range(20):
        weights = _YARD_MATRIX @ _YARD_MATRIX[0]
        total += float(np.sort(weights)[10]) + float(np.log1p(_YARD_MATRIX).sum())
    sums: dict[int, float] = {}
    for i in range(3000):
        sums[i % 97] = sums.get(i % 97, 0.0) + i * 0.5
    return time.perf_counter() - start


def _digest(stdout: str, path: str | None) -> str:
    h = hashlib.sha256(stdout.encode())
    if path is not None:
        if os.path.exists(path):
            with open(path, "rb") as handle:
                for block in iter(lambda: handle.read(1 << 20), b""):
                    h.update(block)
        else:
            h.update(b"<no output file>")
    return h.hexdigest()


class PickRecorder:
    """Records the rounds of every model the trainers return while ``op``
    is set.  They are kept in typed arrays: as lists of pairs, the 70 400
    rounds of a paper-loo adaboost leave-one-out added 8 MB to the
    workload's peak memory."""

    def __init__(self) -> None:
        self.op: str | None = None
        self.picks: dict[str, list[tuple[array, array]]] = {}

    def install(self) -> None:
        from forecast_ensembles import combiners

        for name in ("adaboost_train", "realboost_train"):
            original = getattr(combiners, name)
            tracer.rebind(original, self._wrap(original))

    def _wrap(self, fn):
        @functools.wraps(fn)
        def recorded(*args, **kwargs):
            model = fn(*args, **kwargs)
            if self.op is not None:
                self.picks.setdefault(self.op, []).append(
                    (array("q", (i for i, _ in model.rounds)),
                     array("d", (weight for _, weight in model.rounds))))
            return model

        return recorded

    def as_json(self) -> dict[str, list[list[list]]]:
        return {op: [[list(indices), list(weights)] for indices, weights in models]
                for op, models in self.picks.items()}


class Runner:
    def __init__(self, cli_main, plan: workloads.Plan, workdir: Path) -> None:
        self.main = cli_main
        self.plan = plan
        self.tables = str(workdir / "tables")
        self.workdir = workdir
        self.calls: list[dict] = []
        self.recorder = PickRecorder()
        # Set, every call is made twice, untraced and traced (see _trace).
        self.spans: tracer.Tracer | None = None
        self.overhead = 0.0
        self._traced_first = False
        # (start, seconds) of every yardstick run
        self.readings: list[tuple[float, float]] = []
        os.makedirs(self.tables, exist_ok=True)
        yardstick()  # its first run in a process pays one-time costs

    def _call(self, argv: list[str]) -> tuple[float, float, object, str]:
        """(start, wall-clock seconds, exit code, stdout) of one call."""
        if self.spans is None:
            return self._timed(argv)
        # The order alternates from call to call, so that a drift of the
        # machine's speed over a pass cancels instead of adding up.
        self._traced_first = not self._traced_first
        made = {}
        for traced in (self._traced_first, not self._traced_first):
            if traced:
                self.spans.install()
            try:
                made[traced] = self._timed(argv)
            finally:
                self.spans.uninstall()
        self.overhead += made[True][1] - made[False][1]
        start, wall, rc, stdout = made[True]
        if made[False][2:] != (rc, stdout):
            rc = "the untraced and the traced call differ"
        return start, wall, rc, stdout

    def _yardstick(self) -> None:
        start = time.perf_counter()
        self.readings.append((start, yardstick()))

    def scale(self, start: float, end: float) -> float:
        """The yardstick's reference seconds over the median of its runs
        near the interval from ``start`` to ``end`` (see SPEED_WINDOW);
        every call has one run just before and one just after it."""
        margin = SPEED_WINDOW * (end - start) + SPEED_WINDOW_S
        near = [seconds for at, seconds in self.readings
                if start - margin <= at <= end + margin]
        return YARDSTICK_S / statistics.median(near)

    def _timed(self, argv: list[str]) -> tuple[float, float, object, str]:
        out = io.StringIO()
        # Each call starts from a collected heap, as a fresh CLI process does,
        # so that no call pays for collecting the garbage of the one before.
        gc.collect()
        self._yardstick()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                rc = self.main(argv)
        except Exception:  # a bare traceback is a failed call, not a failed run
            rc = "exception: " + traceback.format_exc(limit=-3)
        wall = time.perf_counter() - start
        self._yardstick()
        return start, wall, rc, out.getvalue()

    def setup(self) -> tuple[float, float, float]:
        """Write every table of the plan; returns when it started, when it
        ended and the wall-clock seconds of its calls."""
        calls = []
        for table in self.plan.tables:
            start, wall, rc, stdout = self._call(table.synth_argv(self.tables))
            if rc != 0:
                raise SystemExit(f"set-up failed: synth {table.name} returned {rc}")
            calls.append((start, wall))
        return calls[0][0], calls[-1][0] + calls[-1][1], sum(wall for _, wall in calls)

    def table_digest(self) -> str:
        h = hashlib.sha256()
        for table in self.plan.tables:
            for suffix in ("forecasts", "outcomes"):
                h.update(_digest("", f"{self.tables}/{table.name}.{suffix}.csv").encode())
        return h.hexdigest()

    def round(self, pass_name: str, index: int, once: bool = False) -> float:
        """One round of the plan; ``once`` makes each op once, not its repeats."""
        # The first round's outputs and picks stay for the checks; later
        # rounds share one directory and are compared to the first by digest.
        first = not self.calls
        directory = self.workdir / ("round1" if first else "later")
        os.makedirs(directory, exist_ok=True)
        schedule = self.plan.schedule()
        if once:
            schedule = list(dict.fromkeys(schedule))
        start = time.perf_counter()
        for op in schedule:
            argv = op.argv(self.tables, str(directory), self.plan.seed)
            if first and op.id not in self.recorder.picks:
                self.recorder.op = op.id
            called, wall, rc, stdout = self._call(argv)
            self.recorder.op = None
            # stdout names the output file, whose directory differs by round
            stdout = stdout.replace(str(directory), "<round>")
            self.calls.append({"pass": pass_name, "round": index, "op": op.id,
                               "start": called, "wall_s": wall, "rc": rc,
                               "digest": _digest(stdout, op.output(str(directory)))})
            if first and op.kind == "score":
                (directory / "score.stdout").write_text(stdout, encoding="utf-8")
        return time.perf_counter() - start


def _measure(runner: Runner, seconds: float) -> dict:
    setups = []
    digests = set()
    for _ in range(runner.plan.setup_repeats):
        setups.append(runner.setup())
        digests.add(runner.table_digest())
    if len(digests) != 1:
        raise SystemExit("set-up is not deterministic: the same seed wrote different tables")
    durations = []
    start = time.perf_counter()
    while True:
        durations.append(runner.round("untraced", len(durations) + 1))
        mean = sum(durations) / len(durations)
        if time.perf_counter() - start + mean > seconds:
            break
    return {"setup_s": [wall * runner.scale(start, end) for start, end, wall in setups],
            "setup_wall_s": [wall for _, _, wall in setups]}


def _trace(runner: Runner, spans_path: Path) -> dict:
    """A warm-up, then set-up and one round with every call made twice,
    untraced and traced.  The spans of the traced calls give the per-layer
    figures, and the summed wall-clock time of the traced calls minus that
    of the untraced ones is the tracing overhead.

    The warm-up (set-up and each op of a round once, untraced) takes the
    process's one-time costs, which would otherwise fall on whichever
    call of a pair came first: the first large numpy arrays of a process
    come from mmap, and its first adaboost training runs twice as slow.
    """
    runner.setup()
    runner.round("warm-up", 1, once=True)
    runner.spans = tracer.Tracer()
    runner.setup()
    runner.round("paired", 1)
    runner.spans.write(spans_path)
    layers = runner.spans.summary()
    layers["trace.overhead_s"] = runner.overhead
    return {"layers": layers}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans-out", required=True)
    args = parser.parse_args(argv)

    import forecast_ensembles
    from forecast_ensembles import cli

    source = Path("src").resolve()
    if source not in Path(forecast_ensembles.__file__).resolve().parents:
        raise SystemExit(f"forecast_ensembles was imported from {forecast_ensembles.__file__}, "
                         f"not from {source}")

    workdir = Path(args.workdir)
    runner = Runner(cli.main, workloads.plan(args.workload, args.seed, args.tiny), workdir)
    runner.recorder.install()
    if args.trace:
        result = _trace(runner, Path(args.spans_out))
    else:
        result = _measure(runner, args.seconds)
    for call in runner.calls:
        call["seconds"] = call["wall_s"] * runner.scale(call["start"],
                                                        call["start"] + call["wall_s"])
    result.update(calls=runner.calls, picks=runner.recorder.as_json())
    shutil.rmtree(workdir / "later", ignore_errors=True)
    with open(workdir / "worker.json", "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
