"""Command-line front end for the experiment pipelines.

Subcommands: table1, fig1, fig2, single.  Each accepts --config <path>
plus individual override flags; all values default to the reference
configuration.  Exit codes: 0 success, 1 invalid config, 2 numerical
failure, 3 partial success (some sweep points failed, noted in the CSV).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .experiments import (
    ConfigError,
    ExperimentConfig,
    build_config,
    read_config_file,
    run_experiment,
    trace_path,
    write_plot_script,
    write_rows,
    write_trace,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERIC = 2
EXIT_PARTIAL = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # usage errors are config errors (exit 1)
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tunneltime",
        description="Tunneling phase times for wave packets crossing a rectangular barrier.",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name, help_text in (
        ("table1", "peak times and transit velocities over a barrier-width grid"),
        ("fig1", "transit velocity vs width for several V0/E_M ratios"),
        ("fig2", "spm/new/numeric phase times vs sqrt(V0/E_M) at fixed width"),
        ("single", "one (lambda, W) point, optionally with a density trace"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", type=Path, help="flat key = value config file")
        p.add_argument("--lambda", help="comma-separated k_M*L grid")
        p.add_argument("--w-ratio", help="comma-separated sqrt(V0/E_M) grid")
        p.add_argument("--kappa0", type=float, help="spectrum center k0/k_M")
        p.add_argument("--delta", type=float, help="spectrum localization k_M*d")
        p.add_argument("--out", type=Path, help="output CSV path")
        p.add_argument(
            "--trace",
            action="store_true",
            default=None,
            help="also write the exit-density time series (single)",
        )
        p.add_argument(
            "--plot-script",
            action="store_true",
            default=None,
            help="emit a companion gnuplot script next to the CSV",
        )
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

    rows, trace = run_experiment(config)

    out = config.out or Path(f"{config.experiment}.csv")
    write_rows(out, rows)
    if trace is not None:
        write_trace(trace_path(out), trace)
    if config.plot_script:
        write_plot_script(out.with_suffix(out.suffix + ".gnuplot"), out, config.experiment)

    failed = sum(
        1 for r in rows if r.note.startswith(("failed:", "window_hit"))
    )
    print(f"{config.experiment}: wrote {len(rows)} rows to {out}" +
          (f" ({failed} failed)" if failed else ""))
    if failed == len(rows):
        return EXIT_NUMERIC
    if failed:
        return EXIT_PARTIAL
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
