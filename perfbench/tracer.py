"""Spans around the public functions of forecast_ensembles.

The wrappers are installed from outside the package: every public
function of every module is replaced wherever it is bound, including the
names other modules import directly (``cli`` imports ``load_table``,
``evaluation`` imports ``adaboost_train``), so a call is seen whichever
binding it goes through.  ``ForecastTable`` construction and
``without_question`` and ``LinkSpec.link`` / ``inverse_link`` are wrapped
on their classes, and each subcommand handler becomes a ``cli.<name>``
span.  ``uninstall`` puts the original bindings back, so that traced and
untraced calls can take turns in one process.

A span is (name, start, end, parent), kept in memory while the program
runs and written out at the end.  The run is single-threaded, so the
innermost open span is the parent of the next one.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import time
from collections import defaultdict

PACKAGE = "forecast_ensembles"
MODULES = ("cli", "combiners", "dataio", "domain", "evaluation", "links", "scoring")

# Counts taken from a call's arguments or result, reported beside the
# span counts: rows parsed, and leave-one-out folds evaluated.
_COUNTS = {
    "dataio.load_forecast_rows": ("rows", lambda args, result: len(result)),
    "evaluation.loo_evaluate": ("folds", lambda args, result: result.questions),
}


def modules() -> list:
    return [importlib.import_module(PACKAGE)] + [
        importlib.import_module(f"{PACKAGE}.{name}") for name in MODULES]


def rebind(original, replacement) -> list[tuple[object, str]]:
    """Replace every module-level binding of ``original`` in the package;
    returns the (module, name) pairs replaced."""
    replaced = []
    for module in modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                replaced.append((module, attr))
    return replaced


def _public_functions() -> dict[str, object]:
    """Span name -> function, for the functions each module defines and
    exports, plus the subcommand handlers."""
    found = {}
    for module in modules()[1:]:
        short = module.__name__.rsplit(".", 1)[1]
        names = getattr(module, "__all__", [])
        if short == "cli":
            names = [n for n in vars(module) if n.startswith("_cmd_")]
        for attr in names:
            value = getattr(module, attr)
            if inspect.isfunction(value) and value.__module__ == module.__name__:
                found[f"{short}.{attr.removeprefix('_cmd_')}"] = value
    return found


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._open: list[int] = []
        # (owner, name, original) of every binding the wrappers replaced
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        spans, open_spans = self.spans, self._open
        count = _COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0, open_spans[-1] if open_spans else -1]
            open_spans.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                open_spans.pop()
            if count is not None:
                self.counts[f"{name}.{count[0]}"] += count[1](args, result)
            return result

        return traced

    def install(self) -> None:
        from forecast_ensembles.domain import ForecastTable
        from forecast_ensembles.links import LinkSpec

        for name, fn in _public_functions().items():
            self._undo += [(module, attr, fn) for module, attr in rebind(fn, self.wrap(name, fn))]
        for cls, attr, name in ((ForecastTable, "__init__", "domain.table_build"),
                                (ForecastTable, "without_question", "domain.without_question"),
                                (LinkSpec, "link", "links.link"),
                                (LinkSpec, "inverse_link", "links.inverse_link")):
            self._undo.append((cls, attr, vars(cls)[attr]))
            setattr(cls, attr, self.wrap(name, vars(cls)[attr]))

    def uninstall(self) -> None:
        """Put back every binding ``install`` replaced; spans are kept."""
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo = []

    def summary(self) -> dict[str, float]:
        """Per span name: inclusive seconds (``.s``, outermost calls only),
        self seconds (``.self_s``, duration minus direct children) and
        ``.calls``; plus the counts taken from calls."""
        spans = self.spans
        children = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                children[parent] += end - start
        out: dict[str, float] = defaultdict(int)
        for i, (name, start, end, parent) in enumerate(spans):
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += (end - start) - children[i]
            while parent >= 0 and spans[parent][0] != name:
                parent = spans[parent][3]
            if parent < 0:
                out[f"{name}.s"] += end - start
        out.update(self.counts)
        return dict(out)

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for name, start, end, parent in self.spans:
                handle.write(json.dumps([name, start, end, parent]) + "\n")
