"""Instrumentation the benchmark installs around the package's functions.

Each wrapper is installed at every name that refers to its target in any
``adareg`` module, not only in the defining one: ``engine`` binds
``solve_regularizer`` and ``project`` with ``from ... import``, and ``cli``
binds ``best_fixed_comparator`` the same way, so patching the defining module
alone would miss those calls.  A target that no longer exists is reported as
absent rather than raising, so the package's internals can be renamed
without breaking the benchmark.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from collections import Counter, defaultdict
from contextlib import contextmanager

_clock = time.perf_counter

# (span name, module defining the target, attribute path of the target)
SPAN_TARGETS = (
    ("cli.main", "adareg.cli", "main"),
    ("engine.run", "adareg.engine", "run"),
    ("potentials.solve", "adareg.potentials", "solve_regularizer"),
    ("linalg.eig", "numpy.linalg", "eigh"),
    ("linalg.eig", "numpy.linalg", "eigvalsh"),
    ("linalg.accum", "adareg.linalg", "rank_one_update"),
    ("linalg.symmetric_matrix", "adareg.linalg", "SymmetricMatrix.__init__"),
    ("sets.project", "adareg.sets", "project"),
    ("problems.oracle", "adareg.problems", "AdvLinearProblem.loss_and_gradient"),
    ("problems.oracle", "adareg.problems", "RotQuadProblem.loss_and_gradient"),
    ("problems.oracle", "adareg.problems", "SqLossProblem.loss_and_gradient"),
    ("problems.oracle", "adareg.problems", "CoordSqProblem.loss_and_gradient"),
    ("problems.round_draw", "adareg.problems", "OnlineProblem.round_rng"),
    ("problems.comparator", "adareg.problems", "best_fixed_comparator"),
    ("problems.regret", "adareg.problems", "regret"),
    ("problems.setup", "adareg.problems", "make_problem"),
    ("presets.build", "adareg.presets", "adagrad_full"),
    ("presets.build", "adareg.presets", "adagrad_diag"),
    ("presets.build", "adareg.presets", "adaptive_ogd"),
    ("presets.build", "adareg.presets", "pnorm"),
    ("presets.build", "adareg.presets", "ons_full"),
    ("presets.build", "adareg.presets", "ons_diag"),
    ("presets.build", "adareg.presets", "sc_ogd"),
    ("presets.build", "adareg.presets", "make_preset"),
    ("presets.build", "adareg.presets", "optimal_pnorm_eta"),
    ("presets.build", "adareg.suites", "build_matched_preset"),
    ("presets.build", "adareg.suites", "oblivious_final_spectrum"),
    ("oracles.cert", "adareg.oracles", "regret_bound"),
    ("oracles.bound_series", "adareg.oracles", "bound_prefix_series"),
    ("oracles.numeric_argmin", "adareg.oracles", "numeric_potential_argmin"),
    ("oracles.ftl_btl", "adareg.oracles", "ftl_btl_check"),
    ("oracles.mirror_lemma", "adareg.oracles", "mirror_descent_lemma_check"),
    ("suites.lemmas", "adareg.suites", "lemma_suite"),
    ("suites.argmin", "adareg.suites", "argmin_suite"),
    ("suites.bounds", "adareg.suites", "bounds_suite"),
    ("suites.matrix", "adareg.suites", "matrix_suite"),
)


def _resolve(module_name, path):
    """(owner, attribute name) of a target, or None when it no longer exists."""
    owner = sys.modules.get(module_name)
    *outer, name = path.split(".")
    for part in outer:
        owner = vars(owner).get(part) if owner is not None else None
    if owner is None or name not in vars(owner):
        return None
    return owner, name


def _binding_sites(owner, name):
    """Every (module, name) in the package bound to the same object as owner.name."""
    sites = [(owner, name)]
    if isinstance(owner, types.ModuleType):
        target = vars(owner)[name]
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "adareg" or module_name.startswith("adareg.")):
                continue
            sites.extend(
                (module, bound)
                for bound, value in vars(module).items()
                if value is target and (module, bound) != (owner, name)
            )
    return sites


@contextmanager
def patched(replacements):
    """Install ``make(original)`` at every binding of each target, then restore.

    ``replacements`` is a list of ``(module name, attribute path, make)``.
    Yields the set of attribute paths that were absent.
    """
    saved = []
    absent = set()
    try:
        for module_name, path, make in replacements:
            found = _resolve(module_name, path)
            if found is None:
                absent.add(f"{module_name}:{path}")
                continue
            original = vars(found[0])[found[1]]
            replacement = make(original)
            for site, bound in _binding_sites(*found):
                saved.append((site, bound, vars(site)[bound]))
                setattr(site, bound, replacement)
        yield absent
    finally:
        for site, bound, value in reversed(saved):
            setattr(site, bound, value)


class Tracer:
    """Spans and counters recorded by wrappers around the package's functions.

    A span is ``[name, start, end, parent index, nested]``; ``nested`` is true
    when a span of the same name is already open, so inclusive times count
    only the outermost one.  Self time is a span's duration minus the
    durations of its children.  The benchmark leaves ``ADAREG_THREADS`` unset,
    so the package runs single-threaded and one stack serves all spans.
    """

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.installed = set()
        self._stack = []
        self._open = Counter()

    def reset(self):
        self.spans.clear()
        self.counts.clear()

    def wrap(self, name, fn, after=None):
        spans, stack, open_names, counts = self.spans, self._stack, self._open, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, open_names[name] > 0]
            stack.append(len(spans))
            spans.append(span)
            open_names[name] += 1
            span[1] = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = _clock()
                stack.pop()
                open_names[name] -= 1
            if after is not None:
                after(counts, args, result)
            return result

        return traced

    @contextmanager
    def tracing(self):
        """Install every span wrapper for the duration of the block."""
        replacements = [
            (module, path, functools.partial(self.wrap, span, after=_AFTER.get(span)))
            for span, module, path in SPAN_TARGETS
        ]
        with patched(replacements) as absent:
            self.installed = {
                span for span, module, path in SPAN_TARGETS if f"{module}:{path}" not in absent
            }
            yield absent

    def summary(self):
        """Per span name: inclusive time, self time and number of calls."""
        inclusive, own, calls = defaultdict(float), defaultdict(float), Counter()
        spans = self.spans
        for name, start, end, parent, nested in spans:
            duration = end - start
            calls[name] += 1
            own[name] += duration
            if not nested:
                inclusive[name] += duration
            if parent >= 0:
                own[spans[parent][0]] -= duration
        return inclusive, own, calls


def _count_active(counts, args, result):
    # project() returns its input unchanged when the point is already feasible.
    if result is not args[0]:
        counts["sets.project_active"] += 1


def _count_history(counts, args, result):
    counts["engine.rounds"] += result.horizon
    counts["engine.deferred_rounds"] += int((~result.h_defined).sum())
    counts["engine.history_bytes"] += sum(
        value.nbytes for value in vars(result).values() if hasattr(value, "nbytes")
    )


_AFTER = {"sets.project": _count_active, "engine.run": _count_history}


class RoundClock:
    """Pass-through problem that reads the clock around each oracle call.

    The gap between the oracle returning at round t and being called for
    round t+1 is the engine's turnaround for that round.  Only the engine
    calls ``loss_and_gradient`` through this object; every other attribute
    goes to the wrapped problem, whose own methods call it directly.
    """

    __slots__ = ("_problem", "_gaps", "_last_round", "_last_exit")

    def __init__(self, problem, gaps):
        self._problem = problem
        self._gaps = gaps
        self._last_round = None
        self._last_exit = 0.0

    def __getattr__(self, name):
        return getattr(self._problem, name)

    def loss_and_gradient(self, t, x):
        enter = _clock()
        if self._last_round is not None and t == self._last_round + 1:
            self._gaps.append(enter - self._last_exit)
        result = self._problem.loss_and_gradient(t, x)
        self._last_round = t
        self._last_exit = _clock()
        return result


@contextmanager
def round_clock(gaps):
    """Wrap every problem the package builds in a :class:`RoundClock`."""

    def make(original):
        @functools.wraps(original)
        def make_problem(*args, **kwargs):
            return RoundClock(original(*args, **kwargs), gaps)

        return make_problem

    with patched([("adareg.problems", "make_problem", make)]) as absent:
        if absent:
            raise RuntimeError(f"cannot time rounds: {sorted(absent)} no longer exist")
        yield


def round_clock_floor_us(rounds=20_000):
    """Median gap the clock wrapper reports when the engine does no work, in us."""

    class _Stub:
        def loss_and_gradient(self, t, x):
            return 0.0, x

    gaps = []
    clocked = RoundClock(_Stub(), gaps)
    for t in range(1, rounds + 1):
        clocked.loss_and_gradient(t, None)
    gaps.sort()
    return gaps[len(gaps) // 2] * 1e6
