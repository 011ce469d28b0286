"""Command-line harness: run experiments, verify invariants, reshape curves.

Subcommands:

* ``run``    play one algorithm against one problem, writing a per-round
             CSV and a key/value summary with a JSON block;
* ``verify`` execute the randomized verification suites, printing a
             failure manifest and exiting nonzero if anything fails;
* ``curves`` merge run CSVs into a tidy (run, t, regret, bound) table;
* ``list``   show registered algorithms, problems and suites.

Exit codes: 0 success, 1 verification or certificate failure (or an I/O
error), 2 usage error, 3 internal numerical failure (no convergence, a
value outside a domain, a singular matrix), printed as ``error: ...``
without a traceback.  Numeric CSV fields are rendered with 17 significant
digits and all file writes go through a temp-file-and-rename so readers
never see partial output.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import tempfile
import time

import numpy as np

from . import presets, suites
from .engine import run as engine_run
from .errors import AdaRegError, ValidationError
from .oracles import bound_prefix_series, regret_bound
from .problems import PROBLEM_FAMILIES, best_fixed_comparator, make_problem, regret
from .sets import Ball, Box

# Phases of ``run`` timed in the summary's ``metrics.phase_s``, in order.
_RUN_PHASES = ("setup", "run", "comparator", "regret", "bounds", "csv")

# Run flags that override a preset parameter or a problem constant.
_PRESET_FLAGS = sorted(set().union(*(spec.flags for spec in presets.ALGORITHMS.values())))

_RUN_KEYS = {
    "algo", "problem", "dim", "horizon", "seed", "set", "radius", "lower", "upper",
    "out", "summary_out", *_PRESET_FLAGS,
}


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".adareg-tmp-")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="adareg", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one algorithm against one problem")
    p_run.add_argument("--config", help="JSON file of run options; flags override it")
    p_run.add_argument("--algo", choices=sorted(presets.PRESET_BUILDERS))
    p_run.add_argument("--problem", choices=sorted(PROBLEM_FAMILIES))
    p_run.add_argument("--dim", type=int, default=10)
    p_run.add_argument("--horizon", type=int)
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--set", choices=("ball", "box"), default="ball")
    p_run.add_argument("--radius", type=float, default=1.0)
    p_run.add_argument("--lower", type=float, default=-0.5)
    p_run.add_argument("--upper", type=float, default=0.5)
    p_run.add_argument("--out", help="per-round CSV output path")
    p_run.add_argument("--summary-out", dest="summary_out", help="also write the summary here")
    for flag in _PRESET_FLAGS:
        p_run.add_argument(f"--{flag}", type=float)

    p_verify = sub.add_parser("verify", help="run verification suites")
    p_verify.add_argument(
        "--suite", choices=suites.SUITE_NAMES + ("all",), default="all"
    )
    p_verify.add_argument("--trials", type=int)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument(
        "--inject-fault",
        choices=("bound-shrink",),
        help="self-test hook: shrink every bound by 10%% so certificates must fail",
    )

    p_curves = sub.add_parser("curves", help="reshape run CSVs into a tidy table")
    p_curves.add_argument("--in", dest="inputs", nargs="+", required=True)
    p_curves.add_argument("--out", required=True)

    sub.add_parser("list", help="show registered algorithms, problems and suites")
    return parser


def parse_config(argv) -> argparse.Namespace:
    """Parse argv, merging a JSON config file under explicit flags."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                loaded = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            parser.error(f"cannot read config file: {exc}")
        if not isinstance(loaded, dict):
            parser.error("config file must hold a JSON object")
        unknown = {key.replace("-", "_") for key in loaded} - _RUN_KEYS
        if unknown:
            parser.error(f"unknown config keys: {', '.join(sorted(unknown))}")
        # Splice the config entries in as flags ahead of the explicit ones;
        # argparse keeps the last occurrence, so the command line wins.
        spliced = []
        for key, value in loaded.items():
            spliced.append("--" + key.replace("_", "-"))
            spliced.append(str(value))
        where = list(argv).index("run") + 1
        args = build_parser().parse_args(list(argv[:where]) + spliced + list(argv[where:]))
    return args


def _build_set(args):
    d = args.dim
    if d < 1:
        raise ValidationError(f"dimension must be positive, got {d}")
    if getattr(args, "set") == "ball":
        return Ball(center=np.zeros(d), radius=args.radius)
    return Box(lower=np.full(d, args.lower), upper=np.full(d, args.upper))


def cmd_run(args, parser) -> int:
    for flag in ("algo", "problem", "horizon", "out"):
        if getattr(args, flag) is None:
            parser.error(f"run requires --{flag}")
    if args.horizon < 1:
        parser.error(f"--horizon must be at least 1, got {args.horizon}")
    # one perf_counter read at the end of each phase in _RUN_PHASES
    marks = [time.perf_counter()]
    fset = _build_set(args)
    overrides = {flag: getattr(args, flag) for flag in _PRESET_FLAGS}
    problem_kwargs = {}
    if args.problem == "adv-linear" and args.gamma is not None:
        # adv-linear consumes --gamma; sc-ogd reads it back from the problem
        problem_kwargs["gamma"] = overrides.pop("gamma")
    problem = make_problem(args.problem, args.dim, args.seed, fset, **problem_kwargs)
    preset = presets.build_preset(args.algo, fset, problem, horizon=args.horizon, **overrides)
    marks.append(time.perf_counter())
    result = engine_run(preset.config, problem, args.horizon)
    marks.append(time.perf_counter())
    x_star, flat = best_fixed_comparator(problem, args.horizon)
    marks.append(time.perf_counter())
    record = regret(result, problem, x_star)
    marks.append(time.perf_counter())
    cert = regret_bound(preset.algo_id, preset.bound_params, result, record.final_regret)
    prefix_bounds = bound_prefix_series(preset.algo_id, preset.bound_params, result)
    marks.append(time.perf_counter())

    lines = ["t,loss,cum_loss,cum_regret,delta_t,bound_prefix"]
    cum_loss = np.cumsum(result.losses)
    for i in range(result.horizon):
        lines.append(
            ",".join(
                (
                    str(i + 1),
                    _fmt(result.losses[i]),
                    _fmt(cum_loss[i]),
                    _fmt(record.cum_regret[i]),
                    _fmt(record.deltas[i]),
                    _fmt(prefix_bounds[i]),
                )
            )
        )
    _atomic_write(args.out, "\n".join(lines) + "\n")
    marks.append(time.perf_counter())

    wall = marks[-1] - marks[0]
    payload = {
        "algo": preset.algo_id,
        "problem": args.problem,
        "dim": args.dim,
        "horizon": args.horizon,
        "seed": args.seed,
        "comparator_flat": flat,
        "final_regret": record.final_regret,
        "bound": cert.bound,
        "certificate": "satisfied" if cert.satisfied else "violated",
        "out": args.out,
        "wall_time_s": round(wall, 3),
    }
    summary_lines = [f"{key}: {_plain(value)}" for key, value in payload.items()]
    payload["metrics"] = _run_metrics(result)
    payload["metrics"]["phase_s"] = {
        phase: round(end - begin, 6) for phase, begin, end in zip(_RUN_PHASES, marks, marks[1:])
    }
    summary_lines.append("json: " + json.dumps(payload, sort_keys=True))
    summary = "\n".join(summary_lines) + "\n"
    sys.stdout.write(summary)
    if args.summary_out:
        _atomic_write(args.summary_out, summary)
    return 0 if cert.satisfied else 1


def _run_metrics(result) -> dict:
    """Counts from the run's rounds and the spectra of G_t, for the JSON summary.

    ``g_min_eig`` and ``g_cond`` read the last defined row of ``g_spectra``
    (G_T as the domain sees it), and ``g_cond_max`` is the largest
    condition number over all defined rows; all three are null when every
    round deferred.  G_t only grows in PSD order, so its smallest
    eigenvalue only grows too: the final ``g_min_eig`` is already the
    largest over the run, and no worst-over-run key is needed for it.
    """
    metrics = {
        "projection_active": result.projection_active,
        "deferred_rounds": result.deferred_rounds,
        "g_min_eig": None,
        "g_cond": None,
        "g_cond_max": None,
    }
    # row extremes first, so only O(T) floats are copied
    lo = result.g_spectra.min(axis=1)[result.h_defined]
    if lo.size:
        cond = result.g_spectra.max(axis=1)[result.h_defined] / lo
        metrics["g_min_eig"] = float(lo[-1])
        metrics["g_cond"] = float(cond[-1])
        metrics["g_cond_max"] = float(cond.max())
    return metrics


def _plain(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return _fmt(value)
    return str(value)


def cmd_verify(args, parser) -> int:
    if args.trials is not None and args.trials < 1:
        parser.error("--trials must be a positive integer")
    names = suites.SUITE_NAMES if args.suite == "all" else (args.suite,)
    total_failures = []
    for name in names:
        kwargs = {"fault": args.inject_fault} if name == "bounds" else {}
        failures = suites.run_suite(name, trials=args.trials, seed=args.seed, **kwargs)
        status = "ok" if not failures else f"{len(failures)} failure(s)"
        print(f"suite {name}: {status}")
        total_failures.extend(failures)
    for failure in total_failures:
        print(failure.manifest_line())
    if total_failures:
        print(f"verify: {len(total_failures)} failing case(s)")
        return 1
    print("verify: all suites passed")
    return 0


_CURVE_COLUMNS = ("t", "cum_regret", "bound_prefix")


def cmd_curves(args) -> int:
    out_rows = ["run,t,regret,bound"]
    for path in args.inputs:
        run_id = os.path.splitext(os.path.basename(path))[0]
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            missing = [c for c in _CURVE_COLUMNS if c not in (reader.fieldnames or ())]
            if missing:
                raise ValidationError(f"{path} lacks trace column(s) {', '.join(missing)}")
            for row in reader:
                out_rows.append(
                    ",".join((run_id, row["t"], row["cum_regret"], row["bound_prefix"]))
                )
    _atomic_write(args.out, "\n".join(out_rows) + "\n")
    return 0


def cmd_list(_args) -> int:
    print("algorithms:")
    for name in sorted(presets.PRESET_BUILDERS):
        print(f"  {name}")
    print("problems:")
    for name in sorted(PROBLEM_FAMILIES):
        print(f"  {name}")
    print("verify suites:")
    for name in suites.SUITE_NAMES:
        print(f"  {name}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parse_config(argv if argv is not None else sys.argv[1:])
    try:
        if args.command == "run":
            return cmd_run(args, parser)
        if args.command == "verify":
            return cmd_verify(args, parser)
        if args.command == "curves":
            return cmd_curves(args)
        return cmd_list(args)
    except ValidationError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except AdaRegError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
