"""Command-line interface.

Subcommands:

- ``run``      one method on one dataset, aggregated over seeded trials
- ``compare``  several methods on shared seeds, with signed-rank comparison
- ``inspect``  dataset summary (shape, class balance, missing cells)

Flags may also come from a flat key-value config file (``--config``). Its keys
are the subcommand's own long flags; each ``key = value`` line is parsed as
``--key=value`` ahead of the command line, so the same parser converts and
checks it, and a flag given on the command line overrides it. Options left
unset are not passed on, so every default lives in ``ExperimentConfig`` and
``load_csv``. Exit codes: 0 success, 1 usage error, 2 data error,
3 experiment failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import harness
from .data import load_csv
from .errors import DataError, ExperimentError, UsageError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_EXPERIMENT = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def parse_grid(text: str) -> tuple[int, ...]:
    """Parse ``lo:hi:step`` or a comma list of integers, none above the training row cap."""
    text = text.strip()
    try:
        if ":" in text:
            parts = [int(p) for p in text.split(":")]
            if len(parts) == 2:
                lo, hi, step = parts[0], parts[1], 1
            elif len(parts) == 3:
                lo, hi, step = parts
            else:
                raise ValueError
            if step < 1 or hi < lo:
                raise ValueError
            top, values = hi, range(lo, hi + 1, step)  # checked before any value is built
        else:
            values = [int(p) for p in text.split(",") if p.strip()]
            top = max(values, default=0)
    except ValueError:
        raise UsageError(f"cannot parse grid {text!r}; use lo:hi:step or a comma list") from None
    if top > harness.MAX_TRAINING_ROWS:
        raise UsageError(f"grid {text!r} exceeds the row cap of {harness.MAX_TRAINING_ROWS}")
    return tuple(values)


def parse_balance_mode(text: str) -> tuple[str, float]:
    text = text.strip()
    if text in ("balance", harness.BALANCE_TO_MAJORITY):
        return harness.BALANCE_TO_MAJORITY, 1.0
    if text.startswith("ratio:"):
        try:
            return harness.RATIO_MODE, float(text.split(":", 1)[1])
        except ValueError:
            raise UsageError(f"cannot parse balance mode {text!r}") from None
    raise UsageError(f"unknown balance mode {text!r}; use 'balance' or 'ratio:<float>'")


def parse_label_column(text: str):
    try:
        return int(text)
    except ValueError:
        return text


def read_config_file(path: str) -> dict:
    """Flat ``key = value`` lines; keys mirror the long flag names."""
    values = {}
    try:
        with open(path, encoding="utf-8-sig") as fh:  # a leading BOM is dropped
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise UsageError(f"{path}:{lineno}: expected 'key = value'")
                key, value = line.split("=", 1)
                values[key.strip().replace("-", "_")] = value.strip()
    except (OSError, UnicodeDecodeError) as exc:  # a missing file, non-UTF-8 bytes
        raise UsageError(f"cannot read config file {path}: {exc}") from None
    return values


_DEFAULT = harness.ExperimentConfig()


def _add_data_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat key-value config file; flags override it")
    p.add_argument("--data", help="path to the CSV dataset")
    p.add_argument("--label-col", dest="label_col", type=parse_label_column,
                   help="label column name or index (default: last column)")
    p.add_argument("--missing-token", dest="missing_token",
                   help=f"cell text marking a missing value (default {_DEFAULT.missing_token!r})")


def _add_experiment_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--grid", type=parse_grid,
                   help="hyperparameter grid, 'lo:hi:step' or comma list (default per method)")
    p.add_argument("--trials", type=int,
                   help=f"number of seeded trials (default {_DEFAULT.trials})")
    p.add_argument("--seed", type=int,
                   help=f"base seed; trial t uses seed base+t (default {_DEFAULT.base_seed})")
    p.add_argument("--balance-mode", dest="balance_mode", type=parse_balance_mode,
                   help="'balance' (to majority count) or 'ratio:<float>' (default balance)")
    p.add_argument("--out-dir", dest="out_dir", help="directory for JSON/CSV reports")
    p.add_argument("--format", choices=tuple(_FORMATS["run"]), default="text",
                   help="stdout format (default text)")


def build_parser() -> _Parser:
    # no flag prefixes: a config key is parsed as a flag, and a misspelt key
    # that happens to be a prefix (``tri = 1``) must not pass as ``--trials``
    parser = _Parser(prog="opfsample", description=__doc__.split("\n")[0], allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one oversampling method", allow_abbrev=False)
    _add_data_flags(run)
    run.add_argument("--method", choices=harness.METHODS, help="oversampling method")
    _add_experiment_flags(run)

    cmp_p = sub.add_parser("compare", help="compare several methods on shared seeds",
                           allow_abbrev=False)
    _add_data_flags(cmp_p)
    cmp_p.add_argument("--method", dest="method",
                       help="comma-separated methods (default: all of %s)" % ",".join(harness.METHODS))
    _add_experiment_flags(cmp_p)

    ins = sub.add_parser("inspect", help="summarize a dataset", allow_abbrev=False)
    _add_data_flags(ins)
    ins.add_argument("--format", choices=tuple(_FORMATS["inspect"]), default="text",
                     help="stdout format (default text)")
    return parser


def _require_data(args) -> str:
    if not args.data:
        raise UsageError("--data is required (flag or config file)")
    return args.data


def _check_out_dir(args) -> None:
    """Fail before any trial runs when ``--out-dir`` cannot be made a directory."""
    if not args.out_dir:
        return
    for path in (Path(args.out_dir), *Path(args.out_dir).parents):
        if path.exists():
            if not path.is_dir():
                raise UsageError(f"--out-dir {args.out_dir}: {path} is not a directory")
            return


def _emit(args, write, result, write_files) -> int:
    """Print ``result`` and write its report files; an unwritable file is a usage error."""
    sys.stdout.write(write(result))
    if args.out_dir:
        try:
            write_files(result, args.out_dir)
        except OSError as exc:  # the error line names the path that failed
            raise UsageError(f"cannot write {exc.filename or args.out_dir}: {exc.strerror or exc}") from None
    return EXIT_OK


def _given(**values) -> dict:
    """The values that were set; the callee's own defaults fill the rest."""
    return {key: value for key, value in values.items() if value is not None}


def _base_config(args, method: str | None) -> harness.ExperimentConfig:
    mode, ratio = args.balance_mode or (None, None)
    try:
        return harness.ExperimentConfig(data_path=_require_data(args), **_given(
            label_column=args.label_col,
            missing_token=args.missing_token,
            method=method,
            grid=args.grid if method != "none" else None,
            trials=args.trials,
            base_seed=args.seed,
            balance_mode=mode,
            ratio=ratio,
        ))
    except ValueError as exc:  # out-of-range values, e.g. --trials 0 or --grid 0
        raise UsageError(str(exc)) from None


def _inspect_text(info: dict) -> str:
    return (
        f"{info['path']}: {info['samples']} samples x {info['features']} features\n"
        f"  labels: {info['count_label0']} zeros / {info['count_label1']} ones "
        f"(minority = {info['minority_label']}, {info['minority_fraction']:.1%})\n"
        f"  missing cells: {info['missing_cells']}\n"
    )


# command -> stdout format -> writer of the command's result. The harness
# writers are looked up on the module at call time.
_FORMATS = {
    "run": {
        "text": lambda r: harness.render_report_text(r),
        "json": lambda r: harness.report_to_json(r),
        "csv": lambda r: harness.trials_csv(r),
    },
    "compare": {
        "text": lambda c: harness.render_comparison_text(c),
        "json": lambda c: harness.comparison_to_json(c),
        "csv": lambda c: harness.comparison_csv(c),
    },
    "inspect": {
        "text": _inspect_text,
        "json": lambda info: json.dumps(info, indent=2, sort_keys=True) + "\n",
    },
}


def _cmd_run(args, write) -> int:
    _check_out_dir(args)
    report = harness.run_experiment(_base_config(args, args.method))
    return _emit(args, write, report, harness.write_experiment_files)


def _cmd_compare(args, write) -> int:
    listed = ",".join(harness.METHODS) if args.method is None else args.method
    methods = [m.strip() for m in listed.split(",") if m.strip()]
    if not methods:
        raise UsageError("--method names no method")
    if len(set(methods)) < len(methods):
        raise UsageError(f"--method {listed!r} names a method more than once")
    _check_out_dir(args)
    cmp_report = harness.compare_methods([_base_config(args, m) for m in methods])
    return _emit(args, write, cmp_report, harness.write_comparison_files)


def _cmd_inspect(args, write) -> int:
    given = _given(label_column=args.label_col, missing_token=args.missing_token)
    ds = load_csv(_require_data(args), **given)
    n0, n1 = ds.class_counts
    sys.stdout.write(write({
        "path": args.data,
        "samples": ds.n_samples,
        "features": ds.n_features,
        "feature_names": list(ds.feature_names),
        "count_label0": n0,
        "count_label1": n1,
        "minority_label": ds.minority_label,
        "minority_fraction": ds.minority_count / ds.n_samples,
        "missing_cells": ds.n_missing,
    }))
    return EXIT_OK


_COMMANDS = {"run": _cmd_run, "compare": _cmd_compare, "inspect": _cmd_inspect}


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
        if args.config:
            values = read_config_file(args.config)
            if "config" in values:
                raise UsageError(f"{args.config}: a config file cannot name another one")
            # file values go ahead of the command line's flags, which win
            file_flags = [f"--{key.replace('_', '-')}={value}" for key, value in values.items()]
            args = parser.parse_args([args.command, *file_flags, *argv[1:]])
        return _COMMANDS[args.command](args, _FORMATS[args.command][args.format])
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ExperimentError as exc:
        print(f"experiment failed: {exc}", file=sys.stderr)
        return EXIT_EXPERIMENT


if __name__ == "__main__":
    sys.exit(main())
