"""Seeded benchmark of the forecast-ensembles CLI and library.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper-loo --seed 0 --seconds 20 --trace 0

The workload runs in a fresh worker process (worker.py) with the BLAS
thread pools pinned to one thread and the checkout's ``src`` on the
import path.  When it has ended, this process checks the outputs of the
first round against computations made apart from the package
(checks.py), marks a call failed when its exit code, its output or its
agreement with the first round is wrong, and prints a behaviour digest
and, as the last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics and ``--trace 1`` the
per-layer ones of a traced pass.  Scratch files go under
``.bench_build/perfbench`` in the checkout; the spans of a traced pass
and the digest stay there, the rest is removed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent

# The worker must end inside the three minutes a run may take, leaving the
# checks after it the few seconds they need; the longest worker, a traced
# panel-pipeline run, takes about 110 s here.
WORKER_TIMEOUT_S = 170

# The outcome of the misuse call today: exit 2 once both CSVs are parsed,
# and no model file.  It counts as failed but leaves the run correct; any
# other failure of that call does not.
KNOWN_MISUSE_RC = 2


def metrics(trace: int) -> list[dict]:
    """The metrics a run reports, with their units, in BENCHMARK.json order."""
    spec = _load(HERE.parent / "BENCHMARK.json")
    return spec["per_layer" if trace else "end_to_end"]


def _worker_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    for pool in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[pool] = "1"
    env.update(PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0", LOG_LEVEL="error",
               PYTHONDONTWRITEBYTECODE="1")
    return env


def _load(path: Path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


class Checker:
    """Runs the output checks of one plan on the first round's outputs."""

    def __init__(self, plan: workloads.Plan, workdir: Path, root: Path,
                 picks: dict[str, list]) -> None:
        self.plan = plan
        self.picks = picks
        self.round = workdir / "round1"
        self.prefix = workdir / "tables"
        self.root = root
        self.rng = random.Random(plan.seed)
        self._tables: dict[str, checks.Table] = {}
        self._json: dict[str, object] = {}

    def table(self, name: str) -> checks.Table:
        if name not in self._tables:
            self._tables[name] = checks.Table(str(self.prefix / name))
        return self._tables[name]

    def load(self, name: str):
        """A JSON output of the first round, parsed once."""
        if name not in self._json:
            self._json[name] = _load(self.round / name)
        return self._json[name]

    def _reference(self):
        sys.path.insert(0, str(self.root / "tests"))
        try:
            import boost_reference
        finally:
            sys.path.pop(0)
        return boost_reference

    def problems(self) -> dict[str, list[str]]:
        """Problems per op id."""
        found: dict[str, list[str]] = {}
        loo_reports = {}
        for op in self.plan.ops:
            output = op.output(str(self.round))
            if op.kind != "misuse" and output is not None and not os.path.exists(output):
                found[op.id] = [f"{op.id}: no output file"]
                continue
            table = self.table(op.table)
            if op.kind in ("loo", "combine", "predict"):
                report = self.load(Path(output).name)
            if op.kind == "loo":
                loo_reports[op.method] = report
                found[op.id] = checks.check_loo(report, table, op.method)
                if op.method != "bagging" and self.plan.reference_folds:
                    folds = self.rng.sample(range(len(table.question_ids)),
                                            self.plan.reference_folds)
                    found[op.id] += checks.check_loo_reference(
                        report, table, op.method, self.plan.seed, folds,
                        self.picks.get(op.id, []), self._reference())
            elif op.kind == "combine":
                found[op.id] = checks.check_model(report, table, op.method, self.plan.seed,
                                                  op.iterations)
            elif op.kind == "predict":
                model = self.load(f"combine-{op.method}.json")
                found[op.id] = checks.check_predict(report, model, table)
            elif op.kind == "score":
                stdout = (self.round / "score.stdout").read_text(encoding="utf-8")
                sample = set(self.rng.sample(range(len(table.forecaster_ids)), 10))
                found[op.id] = checks.check_score(stdout, table, sample)
            else:
                found[op.id] = [f"{op.id}: wrote a model"] if os.path.exists(output) else []
        if self.plan.paper_properties:
            paper = checks.check_paper(loo_reports)
            for op in self.plan.ops:
                if op.kind == "loo":
                    found[op.id] += paper
        return found

    def digest(self) -> dict:
        """Selected indices of every model and fold, and every error count."""
        ops = {}
        for op in self.plan.ops:
            entry: dict = {"picks": [indices for indices, _ in self.picks.get(op.id, [])]}
            output = op.output(str(self.round))
            if op.kind in ("loo", "predict") and os.path.exists(output):
                report = self.load(Path(output).name)
                entry["errors"] = report.get("prediction_errors")
                entry["predicted"] = "".join("+" if r["predicted"] > 0 else "-"
                                             for r in report["per_question"])
                if op.kind == "loo":
                    entry["best_individual_errors"] = report["baseline"]["best_individual_errors"]
            ops[op.id] = entry
        return {"workload": self.plan.workload, "seed": self.plan.seed, "ops": ops}


def verdicts(plan: workloads.Plan, calls: list[dict],
             problems: dict[str, list[str]]) -> list[tuple[bool, bool]]:
    """Per call, (failed, known): whether it failed, and whether that is the
    misuse call's known failure.  The first call of each op is the one
    whose outputs were checked, and every later call must match it."""
    ops = {op.id: op for op in plan.ops}
    first: dict[str, str] = {}
    found = []
    for call in calls:
        op = ops[call["op"]]
        reference = first.setdefault(op.id, call["digest"])
        checked = not problems.get(op.id) and call["digest"] == reference
        failed = call["rc"] != op.expected_rc or not checked
        known = op.kind == "misuse" and call["rc"] == KNOWN_MISUSE_RC and checked
        found.append((failed, known))
    return found


def _time_medians(plan: workloads.Plan, result: dict, key: str,
                  setup_key: str) -> dict[str, float]:
    """Median seconds of the set-ups and of each op's calls, as recorded
    under ``setup_key`` and ``key``."""
    values = {"setup_s": statistics.median(result[setup_key])}
    for op in plan.ops:
        if op.metric is not None:
            values[op.metric] = statistics.median(
                call[key] for call in result["calls"] if call["op"] == op.id)
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Seeded forecast-ensembles benchmark.")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every table, for a smoke run")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be at least 0 and --seconds at least 1")

    root = Path.cwd()
    if not (root / "src" / "forecast_ensembles" / "__init__.py").is_file():
        print(f"error: no program source under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    scratch = root / ".bench_build" / "perfbench"
    name = f"{args.workload}-s{args.seed}" + ("-tiny" if args.tiny else "")
    workdir = scratch / f"run-{name}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        command = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--workdir", str(workdir),
                   "--spans-out", str(scratch / f"spans-{name}.jsonl.gz")]
        if args.tiny:
            command.append("--tiny")
        started = time.perf_counter()
        try:
            done = subprocess.run(command, cwd=root, env=_worker_env(root),
                                  stdout=sys.stderr, timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"error: the worker ran past {WORKER_TIMEOUT_S} s", file=sys.stderr)
            return 1
        if done.returncode != 0:
            print(f"error: the worker exited with {done.returncode}", file=sys.stderr)
            return 1
        peak_rss_mib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        result = _load(workdir / "worker.json")

        plan = workloads.plan(args.workload, args.seed, args.tiny)
        checker = Checker(plan, workdir, root, result["picks"])
        checked = time.perf_counter()
        problems = checker.problems()
        print(f"worker {checked - started:.1f} s, checks {time.perf_counter() - checked:.1f} s",
              file=sys.stderr)
        found = verdicts(plan, result["calls"], problems)
        correct = not any(failed and not known for failed, known in found)
        # The warm-up of a traced run makes each op once: its calls are
        # checked but not counted, so that failed calls are the same share
        # of attempted ones as in an untraced run.
        found = [v for v, call in zip(found, result["calls"]) if call["pass"] != "warm-up"]
        for listed in problems.values():
            for problem in listed[:5]:
                print(f"check failed: {problem}", file=sys.stderr)

        digest = checker.digest()
        with open(scratch / f"digest-{name}.json", "w", encoding="utf-8") as handle:
            json.dump(digest, handle, sort_keys=True)
        print("digest", hashlib.sha256(json.dumps(digest, sort_keys=True).encode()).hexdigest())

        model_path = workdir / "round1" / "combine-adaboost.json"
        wanted = metrics(args.trace)
        if args.trace:
            layers = dict(result["layers"])
            if model_path.exists():
                model = checker.load(model_path.name)
                layers["combiners.frozen_cells"] = len(model.get("frozen_imputations", []))
            # a layer that is never called reports 0
            values = {m["name"]: layers.get(m["name"], 0) for m in wanted}
        else:
            values = _time_medians(plan, result, "seconds", "setup_s")
            wall = _time_medians(plan, result, "wall_s", "setup_wall_s")
            print("wall-clock medians: " + ", ".join(f"{name} {value:.4g}"
                                                     for name, value in wall.items()),
                  file=sys.stderr)
            # a failed combine leaves no file, and the run is not correct
            values["adaboost_model_bytes"] = model_path.stat().st_size \
                if model_path.exists() else 0
            values["peak_rss_mib"] = peak_rss_mib
        print(json.dumps({
            "correct": correct,
            "attempted": len(found),
            "failed": sum(failed for failed, _ in found),
            "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                        for m in wanted},
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
