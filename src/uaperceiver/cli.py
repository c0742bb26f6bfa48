"""Command-line front end.

Verbs:

* ``train``          -- run the configured strategy, write checkpoints
* ``evaluate``       -- score a finished run on its test split
* ``sweep-ensemble`` -- deep-ensemble size sweep 1..M in one run
* ``report``         -- convert JSON reports to CSV (or merge several)

Config values come from a ``key = value`` file (``--config``); repeated
``--set key=value`` flags override file values, and ``--seed`` /
``--out-dir`` are shorthands for the corresponding keys. Ctrl-C or
SIGTERM ends a run with one ``interrupted`` line once its clean-up ran.
"""

from __future__ import annotations

import argparse
import signal
import sys

from .errors import ConfigError, UAPError
from .harness import (
    MetricsReport,
    RunConfig,
    emit_report,
    load_config,
    load_reports,
    parse_config,
    run_evaluate,
    run_train,
    sweep_ensemble,
)


def _config_from_args(args) -> RunConfig:
    overrides = {}
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        overrides[key.strip()] = value.strip()
    if args.seed is not None:
        overrides["seed"] = str(args.seed)
    if args.out_dir is not None:
        overrides["out_dir"] = args.out_dir
    if args.config:
        return load_config(args.config, overrides)
    return parse_config("", overrides)


def _add_config_flags(sub):
    sub.add_argument("--config", help="path to a key = value config file")
    sub.add_argument("--set", action="append", metavar="KEY=VALUE",
                     help="override a config key (repeatable; wins over file)")
    sub.add_argument("--seed", type=int, help="override the run seed")
    sub.add_argument("--out-dir", help="override the output directory")


def _print_report(report: MetricsReport) -> None:
    print(
        f"{report.variant} (M={report.ensemble_size}, seed={report.seed}): "
        f"accuracy={report.accuracy:.4f} nll={report.nll:.4f} "
        f"ece={report.ece:.4f} brier={report.brier:.4f}"
    )


def _terminate(signum, frame):  # SIGTERM as an interrupt, so clean-up runs
    raise KeyboardInterrupt(signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="uaperceiver",
        description="Train and evaluate uncertainty-aware Perceiver variants.",
    )
    subs = parser.add_subparsers(dest="verb", required=True)

    sub = subs.add_parser("train", help="train the configured strategy")
    _add_config_flags(sub)

    sub = subs.add_parser("evaluate", help="evaluate a finished run")
    sub.add_argument("--run-dir", required=True, help="directory written by train")
    sub.add_argument("--report", help="write the metrics report to this path")
    sub.add_argument("--format", choices=("json", "csv"), default="json")

    sub = subs.add_parser("sweep-ensemble",
                          help="deep-ensemble size sweep (sizes 1..M)")
    _add_config_flags(sub)
    sub.add_argument("--max-size", type=int, help="largest ensemble size")
    sub.add_argument("--report", help="write the report series to this path")
    sub.add_argument("--format", choices=("json", "csv"), default="json")

    sub = subs.add_parser("report", help="convert/merge JSON reports")
    sub.add_argument("--inputs", nargs="+", required=True)
    sub.add_argument("--format", choices=("json", "csv"), default="csv")
    sub.add_argument("--out", required=True)

    args = parser.parse_args(argv)
    previous = signal.signal(signal.SIGTERM, _terminate)
    try:
        if args.verb == "train":
            config = _config_from_args(args)
            result = run_train(config)
            print(f"wrote {len(result.member_files)} member checkpoint(s) "
                  f"to {result.out_dir}")
        elif args.verb == "evaluate":
            report = run_evaluate(args.run_dir)
            _print_report(report)
            if args.report:
                emit_report([report], args.format, args.report)
        elif args.verb == "sweep-ensemble":
            config = _config_from_args(args)
            reports = sweep_ensemble(config, args.max_size)
            for report in reports:
                _print_report(report)
            if args.report:
                emit_report(reports, args.format, args.report)
        elif args.verb == "report":
            merged = [report for source in args.inputs
                      for report in load_reports(source)]
            emit_report(merged, args.format, args.out)
            print(f"wrote {len(merged)} report row(s) to {args.out}")
    except UAPError as exc:
        print(f"{exc.category} error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # e.g. a config whose arrays cannot be allocated
        print(f"resource error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3
    except KeyboardInterrupt as exc:
        print("interrupted", file=sys.stderr)
        return 143 if exc.args == (signal.SIGTERM,) else 130  # 128 + the signal
    finally:
        signal.signal(signal.SIGTERM, previous)
    return 0


if __name__ == "__main__":
    sys.exit(main())
