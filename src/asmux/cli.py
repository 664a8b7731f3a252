"""Command-line front end.

Subcommands: eval, optimize, find-n, scan-strategies, sweep, table1,
stability, mc-validate.  Each command declares the options it reads,
once each (``_COMMANDS``); that one list builds both the command's flags
and the keys its config file may set.  A run resolves its configuration
from the defaults, an optional config file (flat ``key = value`` lines
or JSON) and the flags, in that order of precedence; a config-file value
is converted exactly as the same text given as a flag would be.  The
resolved configuration is embedded in every output file.  Output files
carry no timestamps, so a fixed config reproduces them byte for byte;
wall-clock timing goes to a ``<out>.log`` sidecar.

Exit codes: 0 success, 2 configuration error, 3 domain error,
4 validation failure.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import experiments as exp
from .exceptions import ParameterError, TruncationError
from .montecarlo import (
    McSettings,
    VALIDATION_CORPUS,
    compare_with_analytic,
    corpus_case,
    expected_exceedances,
)
from .multiplexer import MultiplexerSpec
from .optimize import (
    OptimizationMode,
    OptimizerSettings,
    find_optimal_n,
    optimize_sizes,
    strategy_scan,
)
from .statistics import (
    DetectionStrategy,
    PumpProfile,
    TruncationPolicy,
    output_distribution,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DOMAIN = 3
EXIT_VALIDATION = 4


class ConfigError(Exception):
    """Unusable configuration: bad syntax, unknown or missing keys."""


# ----------------------------------------------------------------------
# options
# ----------------------------------------------------------------------

def _boolean(text: str) -> bool:
    if text.lower() not in ("true", "false"):
        raise argparse.ArgumentTypeError(f"expected true or false, got {text!r}")
    return text.lower() == "true"


def _items(text: str) -> list[str]:
    """The nonblank items of a comma list."""
    return [item for item in text.split(",") if item.strip()]


def _strategy_items(text: str) -> list[str]:
    """The strategies of a comma list; an integer item continues a ``set:``."""
    items: list[str] = []
    for item in _items(text):
        if items and items[-1].strip().lower().startswith("set:") and item.strip().isdigit():
            items[-1] += "," + item
        else:
            items.append(item)
    return items


def _checked(
    parse: Callable, split: Callable[[str], list[str]] | None = None
) -> Callable[[str], str]:
    """Converter that checks ``parse`` accepts the text (each item of the
    list that ``split`` makes of it, if given) and keeps the text as given."""

    def convert(text: str) -> str:
        try:
            for item in split(text) if split else [text]:
                parse(item)
        except ParameterError as err:
            raise argparse.ArgumentTypeError(str(err)) from None
        return text

    return convert


@dataclass(frozen=True)
class _Option:
    """One option: its config key ``dest``, its flag and how its text is read.

    ``action`` is the argparse action of a flag that takes no value
    (``store_true``, ``store_false``) or may repeat (``append``).
    """

    dest: str
    flag: str
    type: Callable[[str], object] = str
    default: object = None
    choices: tuple[str, ...] | None = None
    action: str | None = None
    help: str | None = None

    def add_to(self, parser: argparse.ArgumentParser) -> None:
        if self.action in ("store_true", "store_false"):
            parser.add_argument(self.flag, dest=self.dest, action=self.action, help=self.help)
        else:
            parser.add_argument(
                self.flag, dest=self.dest, type=self.type, choices=self.choices,
                action=self.action, help=self.help,
            )

    def read(self, value):
        """A config-file value, converted as the flag converts its text.

        JSON ``null`` leaves an option without a default unset.
        """
        if value is None and self.default is None:
            return None
        if self.action == "append":
            return [self._read_one(v) for v in (value if isinstance(value, list) else [value])]
        return self._read_one(value)

    def _read_one(self, value):
        text = value if isinstance(value, str) else json.dumps(value)
        try:
            out = self.type(text)
        except argparse.ArgumentTypeError as err:
            raise ConfigError(f"{self.dest}: {err}") from None
        except ValueError:
            kind = " (an integer)" if self.type is int else ""
            raise ConfigError(f"{self.dest} must be a number{kind}, got {value!r}") from None
        if self.choices is not None and out not in self.choices:
            raise ConfigError(
                f"{self.dest} must be one of {', '.join(self.choices)}, got {value!r}"
            )
        return out


_CONFIG = _Option("config", "--config", help="config file (key = value lines or JSON)")
_OUT = _Option("out", "--out", help="output file path")
_IO = (
    _CONFIG,
    _OUT,
    _Option("format", "--format", default="json", choices=("csv", "json"), help="output format"),
)
_SPEC = (
    _Option("v_r", "--v-r", float, help="router reflection efficiency"),
    _Option("v_t", "--v-t", float, 0.985, help="router through transmission"),
    _Option("v_b", "--v-b", float, help="pre-multiplexer transmission"),
    _Option("v_d", "--v-d", float, help="detector efficiency"),
    _Option("source", "--source", default="poisson", choices=("poisson", "thermal"),
            help="pair statistics"),
)
_N = _Option("n", "--n", int, help="number of multiplexed units")
_TRUNC = (
    _Option("tail_epsilon", "--tail-epsilon", float, 1e-12,
            help="largest neglected tail mass of the pair-number series"),
    _Option("l_hard_cap", "--l-hard-cap", int, 400, help="largest series cutoff"),
)
_STRATEGY = _Option("strategy", "--strategy", _checked(DetectionStrategy.parse), "spd",
                    help="spd | thd | upto:J | set:a,b,...")
_MODE = _Option("mode", "--mode", default="per-unit",
                choices=tuple(m.value for m in OptimizationMode), help="pump mode")
_UPPER = _Option("lambda_upper", "--lambda-upper", float, 5.0, help="largest pump mean")
_SEARCH = (
    _Option("n_ref", "--n-ref", int, 100, help="saturation reference size"),
    _Option("threshold", "--threshold", float, 1e-3, help="saturation threshold on p1"),
)

_KEY_ALIASES = {"lambda": "lam"}


# ----------------------------------------------------------------------
# configuration resolution
# ----------------------------------------------------------------------

def _parse_config_text(text: str) -> dict:
    stripped = text.strip()
    if stripped.startswith("{"):
        try:
            data = json.loads(stripped)
        except json.JSONDecodeError as err:
            raise ConfigError(f"config file is not valid JSON: {err}") from None
        if not isinstance(data, dict):
            raise ConfigError("JSON config must be an object")
        return {_KEY_ALIASES.get(k, k).replace("-", "_"): v for k, v in data.items()}
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):  # a '#' after the start is part of the value
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"config line {lineno} has no '=': {raw!r}")
        key = _KEY_ALIASES.get(key.strip(), key.strip()).replace("-", "_")
        value = value.strip()
        try:
            out[key] = json.loads(value)
        except json.JSONDecodeError:
            out[key] = value
    return out


def resolve_run_config(args: argparse.Namespace) -> dict:
    """Resolved run configuration: defaults, then config file, then flags."""
    options = {o.dest: o for o in _COMMANDS[args.command][2]}
    cfg = {dest: o.default for dest, o in options.items()}
    flags = {k: v for k, v in vars(args).items() if k != "command"}
    path = flags.get("config")
    if path is not None:
        try:
            text = Path(path).read_text()
        except OSError as err:
            raise ConfigError(f"cannot read config file: {err}") from None
        except UnicodeError as err:
            raise ConfigError(f"cannot read config file {path!r}: {err}") from None
        file_values = _parse_config_text(text)
        unknown = set(file_values) - set(options)
        if unknown:
            raise ConfigError(
                f"unknown config keys for '{args.command}': {sorted(unknown)}"
            )
        cfg.update((k, options[k].read(v)) for k, v in file_values.items())
    cfg.update(flags)
    cfg["command"] = args.command
    return cfg


def _require(cfg: dict, *keys: str) -> None:
    missing = [k for k in keys if cfg.get(k) is None]
    if missing:
        raise ConfigError(f"missing required parameter(s): {', '.join(missing)}")


def _build_spec(cfg: dict) -> MultiplexerSpec:
    """The multiplexer; commands without an ``n`` option get one unit."""
    _require(cfg, "v_r", "v_b", "v_d", *(["n"] if "n" in cfg else []))
    return MultiplexerSpec(
        v_r=cfg["v_r"],
        v_b=cfg["v_b"],
        v_d=cfg["v_d"],
        n_units=cfg.get("n", 1),
        v_t=cfg["v_t"],
        source=cfg["source"],
    )


def _build_trunc(cfg: dict) -> TruncationPolicy:
    return TruncationPolicy(tail_epsilon=cfg["tail_epsilon"], l_hard_cap=cfg["l_hard_cap"])


def _search_args(cfg: dict) -> dict:
    """The keywords of every size search: optimizer settings, saturation
    reference size and threshold, and truncation policy."""
    return dict(
        settings=OptimizerSettings(lambda_upper=cfg["lambda_upper"]),
        n_ref=cfg["n_ref"],
        threshold=cfg["threshold"],
        trunc=_build_trunc(cfg),
    )


def _load_pump_file(path: str) -> tuple[float, ...]:
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, UnicodeError, json.JSONDecodeError) as err:
        raise ConfigError(f"cannot read pump file {path!r}: {err}") from None
    try:
        if isinstance(data, dict):
            if "lambdas" in data:
                return tuple(float(x) for x in data["lambdas"])
            rows = data.get("rows")
            if rows:
                return tuple(float(x) for x in rows[0]["lambdas"])
    except (KeyError, TypeError, ValueError):
        raise ConfigError(f"pump file {path!r} holds malformed 'lambdas'") from None
    raise ConfigError(f"pump file {path!r} holds no 'lambdas'")


def _build_pump(cfg: dict, n_units: int) -> PumpProfile:
    if cfg.get("pump_file"):
        return PumpProfile(_load_pump_file(cfg["pump_file"]))
    lam = cfg.get("lam")
    if lam is None:
        raise ConfigError("specify --lambda or --pump-file")
    try:
        values = [float(p) for p in _items(lam)]
    except ValueError:
        raise ConfigError(f"cannot parse pump means {lam!r}") from None
    if len(values) == 1:
        return PumpProfile.uniform(values[0], n_units)
    return PumpProfile(tuple(values))


def _write_rows(cfg: dict, rows: list) -> tuple[int, int]:
    out = cfg.get("out")
    if out:
        write = exp.write_csv if cfg["format"] == "csv" else exp.write_json
        write(rows, out, config=cfg)
    return EXIT_OK, len(rows)


def _write_log(out: str, elapsed: float, n_rows: int) -> None:
    stamp = time.strftime("%Y-%m-%dT%H:%M:%S")
    with open(str(out) + ".log", "a") as handle:
        handle.write(f"{stamp} wrote {n_rows} row(s) in {elapsed:.3f}s\n")


# ----------------------------------------------------------------------
# subcommand handlers: each returns (exit code, records written)
# ----------------------------------------------------------------------

def _cmd_eval(cfg: dict) -> tuple[int, int]:
    spec = _build_spec(cfg)
    pump = _build_pump(cfg, spec.n_units)
    strategy = DetectionStrategy.parse(cfg["strategy"])
    trunc = _build_trunc(cfg)
    dist = output_distribution(spec, pump, strategy, i_max=cfg["i_max"], trunc=trunc)
    for i, p in enumerate(dist.probs):
        print(f"P_{i} {float(p)!r}")
    print(f"truncation_mass {float(dist.truncation_mass)!r}")

    out = cfg.get("out")
    if out:
        if cfg["format"] == "csv":
            with open(out, "w") as handle:
                handle.write(exp._config_lines(cfg))
                handle.write(f"# truncation_mass = {float(dist.truncation_mass)!r}\n")
                handle.write("i,probability\n")
                for i, p in enumerate(dist.probs):
                    handle.write(f"{i},{float(p)!r}\n")
        else:
            payload = {
                "config": cfg,
                "probs": [float(p) for p in dist.probs],
                "truncation_mass": dist.truncation_mass,
                "lambdas": list(pump.lambdas),
            }
            exp._dump_json(payload, out)
    return EXIT_OK, len(dist.probs)


def _cmd_optimize(cfg: dict) -> tuple[int, int]:
    spec = _build_spec(cfg)
    strategy = DetectionStrategy.parse(cfg["strategy"])
    (report,) = optimize_sizes(
        spec, strategy, [spec.n_units], OptimizerSettings(lambda_upper=cfg["lambda_upper"]),
        mode=cfg["mode"], trunc=_build_trunc(cfg),
    )
    print(f"p1 {report.best_p1!r}")
    print(f"n_units {report.n_units}")
    print("lambdas " + ",".join(repr(x) for x in report.best_pump.lambdas))
    return _write_rows(cfg, [exp._row_from_report(spec, report)])


def _cmd_find_n(cfg: dict) -> tuple[int, int]:
    spec = _build_spec(cfg)
    strategy = DetectionStrategy.parse(cfg["strategy"])
    result = find_optimal_n(spec, strategy, mode=cfg["mode"], **_search_args(cfg))
    n_opt = result.n_opt
    print(f"n_opt {n_opt}")
    print(f"p1 {result.p1_max!r}")
    reports = result.reports if cfg.get("full_curve") else [result.reports[n_opt - 1]]
    rows = [
        exp._row_from_report(spec, r, n_opt if r.n_units == n_opt else None) for r in reports
    ]
    return _write_rows(cfg, rows)


def _cmd_scan_strategies(cfg: dict) -> tuple[int, int]:
    spec = _build_spec(cfg)
    results = strategy_scan(
        spec, mode=cfg["mode"], max_accept=cfg["max_j"], **_search_args(cfg)
    )
    rows = []
    for result in results:
        print(f"{result.strategy.key} n_opt={result.n_opt} p1={result.p1_max!r}")
        report = result.reports[result.n_opt - 1]
        rows.append(exp._row_from_report(spec, report, result.n_opt))
    return _write_rows(cfg, rows)


def _parse_axis(text: str) -> exp.Axis:
    try:
        name, rng = text.split("=", 1)
        start, stop, step = (float(x) for x in rng.split(":"))
    except ValueError:
        raise ConfigError(
            f"bad axis {text!r}; expected name=start:stop:step"
        ) from None
    return exp.Axis(name=name.strip().replace("-", "_"), start=start, stop=stop, step=step)


def _cmd_sweep(cfg: dict) -> tuple[int, int]:
    axes = tuple(_parse_axis(a) for a in cfg["axis"])
    axis_names = {a.name for a in axes}
    fixed = []
    for name in ("v_r", "v_d", "v_b"):
        if name in axis_names:
            continue
        if cfg.get(name) is None:
            raise ConfigError(f"parameter {name} is neither an axis nor fixed")
        fixed.append((name, cfg[name]))
    strategies = tuple(map(DetectionStrategy.parse, _strategy_items(cfg["strategies"])))
    modes = tuple(map(OptimizationMode.coerce, _items(cfg["modes"])))
    grid = exp.SweepGrid(
        axes=axes,
        fixed=tuple(fixed),
        strategies=strategies,
        modes=modes,
        v_t=cfg["v_t"],
        source=cfg["source"],
    )
    out = cfg.get("out")
    use_csv = bool(out) and cfg["format"] == "csv"
    rows = exp.run_sweep(
        grid, out_csv=out if use_csv else None, config=cfg, resume=cfg["resume"],
        **_search_args(cfg),
    )
    print(f"cells {len(rows)}")
    if out and not use_csv:
        exp.write_json(rows, out, config=cfg)
    return EXIT_OK, len(rows)


def _cmd_table1(cfg: dict) -> tuple[int, int]:
    combos = None
    if cfg.get("rows"):
        combos = []
        for chunk in cfg["rows"].split(";"):
            try:
                combo = tuple(float(p) for p in _items(chunk))
            except ValueError:
                combo = ()
            if len(combo) != 3:
                raise ConfigError(f"bad table row {chunk!r}; expected v_r,v_d,v_b")
            combos.append(combo)
    rows = exp.reproduce_table1(combos=combos, **_search_args(cfg))
    for row in rows:
        lam = f" lambda={row.lambda_uniform!r}" if row.lambda_uniform is not None else ""
        print(
            f"v_r={row.v_r} v_d={row.v_d} v_b={row.v_b} {row.mode}: "
            f"n_opt={row.n_opt} p1={row.p1:.4f}{lam}"
        )
    return _write_rows(cfg, rows)


def _cmd_stability(cfg: dict) -> tuple[int, int]:
    spec = _build_spec(cfg)
    strategy = DetectionStrategy.parse(cfg["strategy"])
    row = exp.stability_report(
        spec, strategy, resolution=cfg["resolution"], **_search_args(cfg)
    )
    print(f"interval [{row.delta_minus!r}, {row.delta_plus!r}]")
    print(f"p1 {row.p1!r}")
    print(f"baseline_p1 {row.baseline_p1!r}")
    return _write_rows(cfg, [row])


def _cmd_mc_validate(cfg: dict) -> tuple[int, int]:
    trunc = _build_trunc(cfg)
    sigma = cfg["sigma"]
    if not 0.0 < sigma < math.inf:
        raise ParameterError(f"sigma must be positive and finite, got {sigma!r}")
    if cfg["max_count"] > trunc.l_hard_cap:
        # no output count can exceed the pair-number cutoff; higher buckets are zero
        raise ParameterError(
            f"max_count must not exceed l_hard_cap ({trunc.l_hard_cap}), got {cfg['max_count']}"
        )
    entries = VALIDATION_CORPUS
    if cfg["cases"] is not None:
        if cfg["cases"] < 1:
            raise ParameterError(f"cases must be >= 1, got {cfg['cases']}")
        entries = entries[: cfg["cases"]]
    mc_base = dict(trials=cfg["trials"], max_count=cfg["max_count"])
    report = []
    failures = 0
    for index, entry in enumerate(entries):
        spec, pump, strategy, case_seed = corpus_case(entry)
        mc = McSettings(seed=case_seed + cfg["seed"], **mc_base)
        comparison = compare_with_analytic(spec, pump, strategy, mc, trunc=trunc)
        ok = comparison.within(sigma)
        failures += 0 if ok else 1
        worst = float(
            np.max(
                comparison.deviations
                / np.maximum(comparison.analytic_std_errors, 1e-300)
            )
        )
        print(f"case {index:02d} {'PASS' if ok else 'FAIL'} (worst z={worst:.2f})")
        report.append(
            {
                "case": index,
                "pass": ok,
                "worst_z": worst,
                "estimates": comparison.result.estimates.tolist(),
                "analytic": comparison.analytic.tolist(),
                "seed": mc.seed,
            }
        )
    buckets = len(report) * (cfg["max_count"] + 1)
    print(
        f"expected buckets beyond {sigma} sigma if the model holds: "
        f"{expected_exceedances(buckets, sigma):.3g} of {buckets}"
    )
    out = cfg.get("out")
    if out:
        exp._dump_json({"config": cfg, "cases": report}, out)
    if failures:
        print(f"{failures} case(s) beyond {sigma} sigma", file=sys.stderr)
    return (EXIT_VALIDATION if failures else EXIT_OK), len(report)


# ----------------------------------------------------------------------
# commands and parser
# ----------------------------------------------------------------------

_COMMANDS = {
    "eval": (_cmd_eval, "evaluate the output photon-number distribution", (
        *_IO, *_SPEC, _N, *_TRUNC, _STRATEGY,
        _Option("i_max", "--i-max", int, 10, help="largest reported photon count"),
        _Option("lam", "--lambda", help="pump mean(s): scalar or comma list"),
        _Option("pump_file", "--pump-file", help="JSON file with a 'lambdas' entry"),
    )),
    "optimize": (_cmd_optimize, "maximize p1 at a fixed system size", (
        *_IO, *_SPEC, _N, *_TRUNC, _STRATEGY, _MODE, _UPPER,
    )),
    "find-n": (_cmd_find_n, "search the optimal number of units", (
        *_IO, *_SPEC, *_TRUNC, _STRATEGY, _MODE, _UPPER, *_SEARCH,
        _Option("full_curve", "--full-curve", _boolean, False, action="store_true",
                help="emit one row per system size instead of only the optimum"),
    )),
    "scan-strategies": (_cmd_scan_strategies, "compare detection strategies", (
        *_IO, *_SPEC, *_TRUNC, _MODE, _UPPER, *_SEARCH,
        _Option("max_j", "--max-j", int, 6, help="largest accept-up-to ceiling"),
    )),
    "sweep": (_cmd_sweep, "optimize over a loss-parameter grid", (
        *_IO, *_SPEC, *_TRUNC, _UPPER, *_SEARCH,
        _Option("axis", "--axis", default=(), action="append",
                help="swept axis, name=start:stop:step (max 2)"),
        _Option("strategies", "--strategies", _checked(DetectionStrategy.parse, _strategy_items),
                "spd", help="comma list of strategies"),
        _Option("modes", "--modes", _checked(OptimizationMode.coerce, _items),
                "per-unit", help="comma list of pump modes"),
        _Option("resume", "--no-resume", _boolean, True, action="store_false",
                help="overwrite existing sweep output instead of resuming"),
    )),
    "table1": (_cmd_table1, "reproduce the reference result table", (
        *_IO, *_TRUNC, _UPPER, *_SEARCH,
        _Option("rows", "--rows", help="subset 'v_r,v_d,v_b;v_r,v_d,v_b;...'"),
    )),
    "stability": (_cmd_stability, "tolerable deviation around the optimum", (
        *_IO, *_SPEC, *_TRUNC, _STRATEGY, _UPPER, *_SEARCH,
        _Option("resolution", "--resolution", float, 1e-4,
                help="bisection resolution of the interval"),
    )),
    "mc-validate": (_cmd_mc_validate, "check the model against sampling", (
        _CONFIG, _OUT, *_TRUNC,
        _Option("seed", "--seed", int, 0,
                help="offset added to every case's sampler seed; each sum must be >= 0"),
        _Option("trials", "--trials", int, 10_000_000, help="trials per case"),
        _Option("max_count", "--max-count", int, 10, help="largest tallied photon count"),
        _Option("sigma", "--sigma", float, 4.0, help="allowed deviation in standard errors"),
        _Option("cases", "--cases", int, help="run only the first K corpus cases"),
    )),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="asmux",
        description="Photon statistics and pump optimization of an asymmetric "
        "spatially multiplexed heralded single-photon source.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, options) in _COMMANDS.items():
        # no abbreviations: a removed flag must not silently match a longer one
        p = sub.add_parser(
            name, help=help_text, argument_default=argparse.SUPPRESS, allow_abbrev=False
        )
        for option in options:
            option.add_to(p)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_info:
        code = exit_info.code
        return code if isinstance(code, int) else EXIT_CONFIG
    try:
        cfg = resolve_run_config(args)
        started = time.perf_counter()  # the .log time covers the whole command
        code, records = _COMMANDS[args.command][0](cfg)
        if cfg.get("out"):
            _write_log(cfg["out"], time.perf_counter() - started, records)
        return code
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as err:  # input files raise ConfigError, so this is --out or its .log
        print(f"config error: cannot write output: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (ParameterError, TruncationError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DOMAIN
    except MemoryError:
        print("error: out of memory; try a smaller problem (such as a lower --n-ref)",
              file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
