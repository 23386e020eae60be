"""Workload plans: which synthetic tables a run writes and which
subcommand calls make up one round.

Every workload reports every end-to-end metric, so every workload runs
every subcommand.  The calls a workload exists to stress run on its main
table; the rest run on a side table with the same forecasters and few
questions, which keeps them cheap (a leave-one-out over 500 questions
would take minutes).
"""

from __future__ import annotations

from dataclasses import dataclass

WORKLOADS = ("paper-loo", "panel-pipeline")

# Questions of the side table; a leave-one-out over it trains this many folds.
SIDE_QUESTIONS = 12


@dataclass(frozen=True)
class Table:
    """One `synth` call: type2 forecasters at noise 1.0."""

    name: str
    forecasters: int
    questions: int
    coverage: float
    seed: int

    def synth_argv(self, directory: str) -> list[str]:
        return ["synth", "--forecasters", str(self.forecasters),
                "--questions", str(self.questions), "--mode", "type2",
                "--noise", "1.0", "--coverage", str(self.coverage),
                "--seed", str(self.seed), "--out-prefix", f"{directory}/{self.name}"]


@dataclass(frozen=True)
class Op:
    """One kind of subcommand call, made ``repeats`` times per round.

    ``kind`` is loo, combine, predict, score or misuse; ``table`` names the
    input table.  A predict call applies the model written by this round's
    combine call of the same method.  ``metric`` is the end-to-end metric
    its call times feed; a misuse call feeds none.
    """

    kind: str
    method: str | None
    table: str
    repeats: int = 1
    iterations: int | None = None  # None: the CLI's default

    @property
    def id(self) -> str:
        return self.kind if self.method is None else f"{self.kind}-{self.method}"

    @property
    def metric(self) -> str | None:
        if self.kind == "misuse":
            return None
        return f"{self.id.replace('-', '_')}_s"

    @property
    def expected_rc(self) -> int:
        # A negative --seed is a usage error: exit 1, before any file is read.
        return 1 if self.kind == "misuse" else 0

    def output(self, directory: str) -> str | None:
        return None if self.kind == "score" else f"{directory}/{self.id}.json"

    def argv(self, tables: str, directory: str, seed: int) -> list[str]:
        inputs = ["--forecasts", f"{tables}/{self.table}.forecasts.csv",
                  "--outcomes", f"{tables}/{self.table}.outcomes.csv"]
        out = self.output(directory)
        if self.kind == "loo":
            return ["loo", "--method", self.method, *inputs, "--seed", str(seed),
                    "--report-out", out]
        if self.kind == "combine":
            rounds = [] if self.iterations is None else ["--iterations", str(self.iterations)]
            return ["combine", "--method", self.method, *inputs, *rounds, "--seed", str(seed),
                    "--model-out", out]
        if self.kind == "predict":
            return ["predict", "--model", f"{directory}/combine-{self.method}.json",
                    *inputs, "--report-out", out]
        if self.kind == "score":
            return ["score", *inputs]
        return ["combine", "--method", "adaboost", *inputs, "--seed", "-1",
                "--model-out", out]


@dataclass(frozen=True)
class Plan:
    workload: str
    seed: int
    tables: tuple[Table, ...]
    ops: tuple[Op, ...]
    # Set-ups per run with --trace 0; setup_s is their median.
    setup_repeats: int
    # Folds per boosting method replayed by the brute-force reference.
    reference_folds: int
    # The paper's claims are about its own shape, so they are checked there only.
    paper_properties: bool

    def schedule(self) -> list[Op]:
        """The calls of one round, in order.

        The repeats of each op are spread evenly over the round, so that
        its median does not come from one stretch of time on a machine
        whose speed drifts by several percent over seconds.  A predict
        call never comes before the first combine call of its method.
        """
        combine = {op.method: 0.5 / op.repeats for op in self.ops if op.kind == "combine"}
        calls = []
        for order, op in enumerate(self.ops):
            for j in range(op.repeats):
                at = (j + 0.5) / op.repeats
                if op.kind == "predict":
                    at = max(at, combine[op.method])
                calls.append((at, order, op))
        return [op for _, _, op in sorted(calls, key=lambda call: call[:2])]


def _shapes(workload: str, tiny: bool) -> list[tuple[str, int, int, float]]:
    if workload == "paper-loo":
        return [("main", 20, 10, 0.5)] if tiny else [("main", 338, 88, 0.5)]
    n, q = (25, 12) if tiny else (1000, 500)
    return [("main", n, q, 0.8), ("side", n, 6 if tiny else SIDE_QUESTIONS, 0.8)]


def plan(workload: str, seed: int, tiny: bool = False) -> Plan:
    """The tables and round of ``workload``; ``tiny`` shrinks every table
    for a smoke run and keeps the calls."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    tables = tuple(Table(name, n, q, coverage, seed + k)
                   for k, (name, n, q, coverage) in enumerate(_shapes(workload, tiny)))
    # Calls of a second or less are repeated more: the same call varies by
    # a fifth from one call to the next and by a third from one stretch of
    # seconds to another, and a median needs samples from the whole round.
    # Longer calls are made once to three times; a round takes 35-40 s.
    if workload == "paper-loo":
        ops = (Op("loo", "bagging", "main", 60), Op("loo", "realboost", "main", 2),
               Op("loo", "adaboost", "main"),
               Op("combine", "realboost", "main", 30), Op("combine", "adaboost", "main", 12),
               Op("predict", "realboost", "main", 28), Op("predict", "adaboost", "main", 14),
               Op("score", None, "main", 12))
        setups = 9
    else:
        # At this shape 23 of 56 seeds stopped adaboost early, between 243
        # and 629 rounds of 800, which moved the time of a combine call by
        # a quarter from seed to seed; 200 rounds stay below every stop
        # seen, and boosting is not what this workload measures.
        ops = (Op("combine", "realboost", "main", 2),
               Op("combine", "adaboost", "main", 3, iterations=200),
               Op("predict", "realboost", "main", 2), Op("predict", "adaboost", "main", 2),
               Op("score", None, "main", 3), Op("misuse", None, "main"),
               Op("loo", "bagging", "side", 60), Op("loo", "realboost", "side", 18),
               Op("loo", "adaboost", "side"))
        setups = 3
    # The brute-force reference replays folds of the paper's table only.
    return Plan(workload, seed, tables, ops, setup_repeats=setups,
                reference_folds=2 if workload == "paper-loo" else 0,
                paper_properties=workload == "paper-loo" and not tiny)
