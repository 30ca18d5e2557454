"""Command-line front end for the experiment pipelines.

One parser: the experiment (table1, fig1, fig2, single), --config <path>
and override flags whose dests are config keys; all values default to the
reference configuration.  `main` maps argv to a config and the rows to an
exit code; `experiments` owns the rest (the run, its files and which
point failed).  Exit codes: 0 success, 1 invalid config or an output file
that cannot be written, 2 numerical failure (every point failed), 3
partial success (some points failed, noted in the CSV); a point fails
when `ResultRow.failed` says so.

`main(argv)` is the library entry and leaves the garbage collector alone;
the process entry (`python -m tunneltime`, the `tunneltime` script) is
`tunneltime.__main__.run`, which runs `main` without the cyclic collector.
"""

from __future__ import annotations

import argparse
import sys

from .experiments import (
    EXPERIMENTS,
    ConfigError,
    ExperimentConfig,
    build_config,
    read_config_file,
    run_experiment,
    write_outputs,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERIC = 2
EXIT_PARTIAL = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # usage errors are config errors (exit 1)
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    # no flag has a type: each value is parsed once, by its _KEYS entry
    parser = _Parser(
        prog="tunneltime",
        description="Tunneling phase times for wave packets crossing a rectangular barrier.",
        epilog=(
            "experiments:\n"
            "  table1  peak times and transit velocities over a barrier-width grid\n"
            "  fig1    transit velocity vs width for several V0/E_M ratios\n"
            "  fig2    spm/new/numeric phase times vs sqrt(V0/E_M) at fixed width\n"
            "  single  one (lambda, W) point, optionally with a density trace"
        ),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("experiment", choices=EXPERIMENTS, help="one of the experiments below")
    parser.add_argument("--config", help="flat key = value config file")
    parser.add_argument("--lambda", help="comma-separated k_M*L grid")
    parser.add_argument("--w-ratio", help="comma-separated sqrt(V0/E_M) grid")
    parser.add_argument("--kappa0", help="spectrum center k0/k_M")
    parser.add_argument("--delta", help="spectrum localization k_M*d")
    parser.add_argument("--out", help="output CSV path")
    parser.add_argument("--trace", action="store_true", default=None,
                        help="also write the exit-density time series (single)")
    parser.add_argument("--plot-script", action="store_true", default=None,
                        help="emit a companion gnuplot script next to the CSV")
    return parser


def _configure(args: argparse.Namespace) -> ExperimentConfig:
    # every other flag's dest is a config key; unset flags parse to None
    overrides = vars(args)
    path = overrides.pop("config")
    file_values = read_config_file(path) if path else {}
    return build_config(overrides.pop("experiment"), file_values, overrides)


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        config = _configure(args)
    except (ConfigError, OSError) as exc:
        print(f"tunneltime: invalid config: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    rows, _ = run_experiment(config)
    try:
        out = write_outputs(config, rows)
    except OSError as exc:
        print(f"tunneltime: cannot write {exc.filename}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_CONFIG

    failed = sum(r.failed for r in rows)
    print(f"{config.experiment}: wrote {len(rows)} rows to {out}" +
          (f" ({failed} failed)" if failed else ""))
    if failed == len(rows):
        return EXIT_NUMERIC
    if failed:
        return EXIT_PARTIAL
    return EXIT_OK

