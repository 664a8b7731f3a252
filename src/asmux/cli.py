"""Command-line front end.

Subcommands: eval, optimize, find-n, scan-strategies, sweep, table1,
stability, mc-validate.  Every run resolves its configuration from
defaults, an optional config file (flat ``key = value`` lines or JSON)
and command-line flags, in that order of precedence; the resolved
configuration is embedded in every output file.  Output files carry no
timestamps, so a fixed config reproduces them byte for byte; wall-clock
timing goes to a ``<out>.log`` sidecar.

Exit codes: 0 success, 2 configuration error, 3 domain error,
4 validation failure.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import experiments as exp
from .exceptions import ParameterError, TruncationError
from .montecarlo import McSettings, VALIDATION_CORPUS, compare_with_analytic, corpus_case
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


_COMMON_DEFAULTS = {
    "config": None,
    "out": None,
    "format": "json",
    "threads": 1,
}

_SPEC_DEFAULTS = {
    "v_r": None,
    "v_t": 0.985,
    "v_b": None,
    "v_d": None,
    "n": None,
    "source": "poisson",
}

_TRUNC_DEFAULTS = {"i_max": 10, "tail_epsilon": 1e-12, "l_hard_cap": 400}

_OPT_DEFAULTS = {
    "strategy": "spd",
    "mode": "per-unit",
    "lambda_lower": 0.0,
    "lambda_upper": 5.0,
}

_SEARCH_DEFAULTS = {"n_ref": 100, "threshold": 1e-3}

_DEFAULTS_BY_COMMAND = {
    "eval": {**_COMMON_DEFAULTS, **_SPEC_DEFAULTS, **_TRUNC_DEFAULTS,
             "lam": None, "pump_file": None, "strategy": "spd"},
    "optimize": {**_COMMON_DEFAULTS, **_SPEC_DEFAULTS, **_TRUNC_DEFAULTS, **_OPT_DEFAULTS},
    "find-n": {**_COMMON_DEFAULTS, **_SPEC_DEFAULTS, **_TRUNC_DEFAULTS, **_OPT_DEFAULTS,
               **_SEARCH_DEFAULTS, "full_curve": False},
    "scan-strategies": {**_COMMON_DEFAULTS, **_SPEC_DEFAULTS, **_TRUNC_DEFAULTS,
                        **_OPT_DEFAULTS, **_SEARCH_DEFAULTS, "max_j": 6},
    "sweep": {**_COMMON_DEFAULTS, **_SPEC_DEFAULTS, **_TRUNC_DEFAULTS, **_OPT_DEFAULTS,
              **_SEARCH_DEFAULTS, "axis": [], "strategies": "spd", "modes": "per-unit",
              "resume": True},
    "table1": {**_COMMON_DEFAULTS, **_TRUNC_DEFAULTS, **_OPT_DEFAULTS, **_SEARCH_DEFAULTS,
               "rows": None},
    "stability": {**_COMMON_DEFAULTS, **_SPEC_DEFAULTS, **_TRUNC_DEFAULTS, **_OPT_DEFAULTS,
                  **_SEARCH_DEFAULTS, "resolution": 1e-4},
    "mc-validate": {**_COMMON_DEFAULTS, **_TRUNC_DEFAULTS, "seed": 0,
                    "trials": 10_000_000, "max_count": 10, "sigma": 4.0,
                    "cases": None, "chunk_trials": 500_000},
}

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
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        sep = "=" if "=" in line else (":" if ":" in line else None)
        if sep is None:
            raise ConfigError(f"config line {lineno} has no '=': {raw!r}")
        key, value = line.split(sep, 1)
        key = _KEY_ALIASES.get(key.strip(), key.strip()).replace("-", "_")
        value = value.strip()
        try:
            out[key] = json.loads(value)
        except json.JSONDecodeError:
            out[key] = value
    return out


def resolve_run_config(args: argparse.Namespace) -> dict:
    """Resolved run configuration: defaults, then config file, then flags."""
    command = args.command
    defaults = dict(_DEFAULTS_BY_COMMAND[command])
    flags = {k: v for k, v in vars(args).items() if k not in ("command", "func")}
    cfg = dict(defaults)
    path = flags.get("config", None)
    if path is not None:
        try:
            text = Path(path).read_text()
        except OSError as err:
            raise ConfigError(f"cannot read config file: {err}") from None
        file_values = _parse_config_text(text)
        unknown = set(file_values) - set(defaults)
        if unknown:
            raise ConfigError(
                f"unknown config keys for '{command}': {sorted(unknown)}"
            )
        cfg.update(file_values)
    cfg.update(flags)
    cfg["command"] = command
    return cfg


def _require(cfg: dict, *keys: str) -> None:
    missing = [k for k in keys if cfg.get(k) is None]
    if missing:
        raise ConfigError(f"missing required parameter(s): {', '.join(missing)}")


def _num(cfg: dict, key: str, kind: type = float):
    """Config value ``key`` as a number; anything else is a config error."""
    try:
        return kind(cfg[key])
    except (TypeError, ValueError):
        raise ConfigError(f"{key} must be a number, got {cfg[key]!r}") from None


def _strategy(text: str) -> DetectionStrategy:
    try:
        return DetectionStrategy.parse(text)
    except ParameterError as err:
        raise ConfigError(str(err)) from None


def _build_spec(cfg: dict, need_n: bool = True) -> MultiplexerSpec:
    _require(cfg, "v_r", "v_b", "v_d")
    if need_n:
        _require(cfg, "n")
    n = _num(cfg, "n", int) if cfg.get("n") is not None else 1
    return MultiplexerSpec(
        v_r=_num(cfg, "v_r"),
        v_b=_num(cfg, "v_b"),
        v_d=_num(cfg, "v_d"),
        n_units=n,
        v_t=_num(cfg, "v_t"),
        source=cfg["source"],
    )


def _build_trunc(cfg: dict) -> TruncationPolicy:
    return TruncationPolicy(
        tail_epsilon=_num(cfg, "tail_epsilon"), l_hard_cap=_num(cfg, "l_hard_cap", int)
    )


def _build_settings(cfg: dict) -> OptimizerSettings:
    return OptimizerSettings(
        lambda_lower=_num(cfg, "lambda_lower"), lambda_upper=_num(cfg, "lambda_upper")
    )


def _load_pump_file(path: str) -> tuple[float, ...]:
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as err:
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
    if isinstance(lam, (int, float)):
        return PumpProfile.uniform(float(lam), n_units)
    parts = [p for p in str(lam).split(",") if p.strip()]
    try:
        values = [float(p) for p in parts]
    except ValueError:
        raise ConfigError(f"cannot parse pump means {lam!r}") from None
    if len(values) == 1:
        return PumpProfile.uniform(values[0], n_units)
    return PumpProfile(tuple(values))


def _provenance(cfg: dict) -> dict:
    out = {}
    for key, value in sorted(cfg.items()):
        if key in ("func",):
            continue
        if isinstance(value, (str, int, float, bool, list)) or value is None:
            out[key] = value
        else:
            out[key] = str(value)
    return out


def _write_rows(cfg: dict, rows: list, elapsed: float) -> None:
    out = cfg.get("out")
    if not out:
        return
    provenance = _provenance(cfg)
    if cfg["format"] == "csv":
        exp.write_csv(rows, out, config=provenance)
    else:
        exp.write_json(rows, out, config=provenance)
    _write_log(out, elapsed, len(rows))


def _write_log(out: str, elapsed: float, n_rows: int) -> None:
    stamp = time.strftime("%Y-%m-%dT%H:%M:%S")
    with open(str(out) + ".log", "a") as handle:
        handle.write(f"{stamp} wrote {n_rows} row(s) in {elapsed:.3f}s\n")


# ----------------------------------------------------------------------
# subcommand handlers
# ----------------------------------------------------------------------

def _cmd_eval(cfg: dict) -> int:
    spec = _build_spec(cfg)
    pump = _build_pump(cfg, spec.n_units)
    strategy = _strategy(cfg["strategy"])
    trunc = _build_trunc(cfg)
    started = time.perf_counter()
    dist = output_distribution(spec, pump, strategy, i_max=_num(cfg, "i_max", int), trunc=trunc)
    for i, p in enumerate(dist.probs):
        print(f"P_{i} {float(p)!r}")
    print(f"truncation_mass {float(dist.truncation_mass)!r}")

    out = cfg.get("out")
    if out:
        provenance = _provenance(cfg)
        if cfg["format"] == "csv":
            with open(out, "w") as handle:
                for key in sorted(provenance):
                    handle.write(f"# {key} = {json.dumps(provenance[key], sort_keys=True)}\n")
                handle.write(f"# truncation_mass = {float(dist.truncation_mass)!r}\n")
                handle.write("i,probability\n")
                for i, p in enumerate(dist.probs):
                    handle.write(f"{i},{float(p)!r}\n")
        else:
            payload = {
                "config": provenance,
                "probs": [float(p) for p in dist.probs],
                "truncation_mass": dist.truncation_mass,
                "lambdas": list(pump.lambdas),
            }
            with open(out, "w") as handle:
                json.dump(payload, handle, indent=2, sort_keys=True)
                handle.write("\n")
        _write_log(out, time.perf_counter() - started, len(dist.probs))
    return EXIT_OK


def _cmd_optimize(cfg: dict) -> int:
    spec = _build_spec(cfg)
    strategy = _strategy(cfg["strategy"])
    settings = _build_settings(cfg)
    trunc = _build_trunc(cfg)
    started = time.perf_counter()
    (report,) = optimize_sizes(
        spec, strategy, [spec.n_units], settings, mode=cfg["mode"], trunc=trunc
    )
    elapsed = time.perf_counter() - started
    print(f"p1 {report.best_p1!r}")
    print(f"n_units {report.n_units}")
    print("lambdas " + ",".join(repr(x) for x in report.best_pump.lambdas))
    row = exp._row_from_report(spec, report, n_opt=None, wall_time_s=elapsed)
    _write_rows(cfg, [row], elapsed)
    return EXIT_OK


def _cmd_find_n(cfg: dict) -> int:
    spec = _build_spec(cfg, need_n=False)
    strategy = _strategy(cfg["strategy"])
    mode = OptimizationMode.coerce(cfg["mode"])
    settings = _build_settings(cfg)
    trunc = _build_trunc(cfg)
    started = time.perf_counter()
    result = find_optimal_n(
        spec,
        strategy,
        settings,
        n_ref=_num(cfg, "n_ref", int),
        threshold=_num(cfg, "threshold"),
        mode=mode,
        trunc=trunc,
    )
    elapsed = time.perf_counter() - started
    print(f"n_opt {result.n_opt}")
    print(f"p1 {result.p1_max!r}")
    if cfg.get("full_curve"):
        rows = [
            exp._row_from_report(
                spec.with_units(r.n_units), r,
                n_opt=result.n_opt if r.n_units == result.n_opt else None,
                wall_time_s=0.0,
            )
            for r in result.reports
        ]
    else:
        report = result.reports[result.n_opt - 1]
        rows = [
            exp._row_from_report(
                spec.with_units(result.n_opt), report, n_opt=result.n_opt, wall_time_s=elapsed
            )
        ]
    _write_rows(cfg, rows, elapsed)
    return EXIT_OK


def _cmd_scan_strategies(cfg: dict) -> int:
    spec = _build_spec(cfg, need_n=False)
    mode = OptimizationMode.coerce(cfg["mode"])
    settings = _build_settings(cfg)
    trunc = _build_trunc(cfg)
    started = time.perf_counter()
    entries = strategy_scan(
        spec,
        settings,
        mode=mode,
        n_ref=_num(cfg, "n_ref", int),
        threshold=_num(cfg, "threshold"),
        max_accept=_num(cfg, "max_j", int),
        trunc=trunc,
    )
    elapsed = time.perf_counter() - started
    rows = []
    for entry in entries:
        print(f"{entry.strategy.key} n_opt={entry.n_opt} p1={entry.p1_max!r}")
        report = entry.result.reports[entry.n_opt - 1]
        rows.append(
            exp._row_from_report(
                spec.with_units(entry.n_opt), report, n_opt=entry.n_opt, wall_time_s=0.0
            )
        )
    _write_rows(cfg, rows, elapsed)
    return EXIT_OK


def _parse_axis(text: str) -> exp.Axis:
    try:
        name, rng = text.split("=", 1)
        start, stop, step = (float(x) for x in rng.split(":"))
    except ValueError:
        raise ConfigError(
            f"bad axis {text!r}; expected name=start:stop:step"
        ) from None
    return exp.Axis(name=name.strip().replace("-", "_"), start=start, stop=stop, step=step)


def _cmd_sweep(cfg: dict) -> int:
    axis_specs = cfg.get("axis") or []
    if isinstance(axis_specs, str):
        axis_specs = [axis_specs]
    axes = tuple(_parse_axis(a) for a in axis_specs)
    axis_names = {a.name for a in axes}
    fixed = []
    for name in ("v_r", "v_d", "v_b"):
        if name in axis_names:
            continue
        if cfg.get(name) is None:
            raise ConfigError(f"parameter {name} is neither an axis nor fixed")
        fixed.append((name, _num(cfg, name)))
    strategies = tuple(_strategy(s) for s in str(cfg["strategies"]).split(",") if s.strip())
    modes = tuple(
        OptimizationMode.coerce(m) for m in str(cfg["modes"]).split(",") if m.strip()
    )
    grid = exp.SweepGrid(
        axes=axes,
        fixed=tuple(fixed),
        strategies=strategies,
        modes=modes,
        v_t=_num(cfg, "v_t"),
        source=cfg["source"],
    )
    settings = _build_settings(cfg)
    trunc = _build_trunc(cfg)
    out = cfg.get("out")
    use_csv = bool(out) and cfg["format"] == "csv"
    started = time.perf_counter()
    rows = exp.run_sweep(
        grid,
        settings,
        n_ref=_num(cfg, "n_ref", int),
        threshold=_num(cfg, "threshold"),
        out_csv=out if use_csv else None,
        config=_provenance(cfg),
        resume=bool(cfg["resume"]),
        threads=_num(cfg, "threads", int),
        trunc=trunc,
    )
    elapsed = time.perf_counter() - started
    print(f"cells {len(rows)}")
    if out and not use_csv:
        exp.write_json(rows, out, config=_provenance(cfg))
    if out:
        _write_log(out, elapsed, len(rows))
    return EXIT_OK


def _cmd_table1(cfg: dict) -> int:
    combos = None
    if cfg.get("rows"):
        combos = []
        for chunk in str(cfg["rows"]).split(";"):
            parts = [p for p in chunk.split(",") if p.strip()]
            try:
                combo = tuple(float(p) for p in parts)
            except ValueError:
                combo = ()
            if len(combo) != 3:
                raise ConfigError(f"bad table row {chunk!r}; expected v_r,v_d,v_b")
            combos.append(combo)
    settings = _build_settings(cfg)
    trunc = _build_trunc(cfg)
    started = time.perf_counter()
    rows = exp.reproduce_table1(
        settings,
        combos=combos,
        n_ref=_num(cfg, "n_ref", int),
        threshold=_num(cfg, "threshold"),
        trunc=trunc,
    )
    elapsed = time.perf_counter() - started
    for row in rows:
        lam = f" lambda={row.lambda_uniform!r}" if row.lambda_uniform is not None else ""
        print(
            f"v_r={row.v_r} v_d={row.v_d} v_b={row.v_b} {row.mode}: "
            f"n_opt={row.n_opt} p1={row.p1:.4f}{lam}"
        )
    _write_rows(cfg, rows, elapsed)
    return EXIT_OK


def _cmd_stability(cfg: dict) -> int:
    spec = _build_spec(cfg, need_n=False)
    strategy = _strategy(cfg["strategy"])
    settings = _build_settings(cfg)
    trunc = _build_trunc(cfg)
    started = time.perf_counter()
    row = exp.stability_report(
        spec,
        strategy,
        settings,
        n_ref=_num(cfg, "n_ref", int),
        threshold=_num(cfg, "threshold"),
        resolution=_num(cfg, "resolution"),
        trunc=trunc,
    )
    elapsed = time.perf_counter() - started
    print(f"interval [{row.delta_minus!r}, {row.delta_plus!r}]")
    print(f"p1 {row.p1!r}")
    print(f"baseline_p1 {row.baseline_p1!r}")
    _write_rows(cfg, [row], elapsed)
    return EXIT_OK


def _cmd_mc_validate(cfg: dict) -> int:
    trunc = _build_trunc(cfg)
    sigma = _num(cfg, "sigma")
    entries = VALIDATION_CORPUS
    if cfg.get("cases") is not None:
        entries = entries[: _num(cfg, "cases", int)]
    seed = _num(cfg, "seed", int)
    mc_base = dict(
        trials=_num(cfg, "trials", int),
        max_count=_num(cfg, "max_count", int),
        chunk_trials=_num(cfg, "chunk_trials", int),
    )
    started = time.perf_counter()
    report = []
    failures = 0
    for index, entry in enumerate(entries):
        spec, pump, strategy, case_seed = corpus_case(entry)
        mc = McSettings(seed=case_seed + seed, **mc_base)
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
    elapsed = time.perf_counter() - started
    out = cfg.get("out")
    if out:
        payload = {"config": _provenance(cfg), "cases": report}
        with open(out, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        _write_log(out, elapsed, len(report))
    if failures:
        print(f"{failures} case(s) beyond {sigma} sigma", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------

def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="config file (key = value lines or JSON)")
    parser.add_argument("--out", help="output file path")
    parser.add_argument("--format", choices=("csv", "json"), help="output format")
    parser.add_argument("--threads", type=int, help="worker processes for sweeps")


def _add_spec(parser: argparse.ArgumentParser, with_n: bool = True) -> None:
    parser.add_argument("--v-r", dest="v_r", type=float, help="router reflection efficiency")
    parser.add_argument("--v-t", dest="v_t", type=float, help="router through transmission")
    parser.add_argument("--v-b", dest="v_b", type=float, help="pre-multiplexer transmission")
    parser.add_argument("--v-d", dest="v_d", type=float, help="detector efficiency")
    if with_n:
        parser.add_argument("--n", type=int, help="number of multiplexed units")
    parser.add_argument("--source", choices=("poisson", "thermal"), help="pair statistics")


def _add_trunc(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--i-max", dest="i_max", type=int, help="largest reported photon count")
    parser.add_argument("--tail-epsilon", dest="tail_epsilon", type=float)
    parser.add_argument("--l-hard-cap", dest="l_hard_cap", type=int)


def _add_optimizer(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--strategy", help="spd | thd | upto:J | set:a,b,...")
    parser.add_argument("--mode", choices=[m.value for m in OptimizationMode])
    parser.add_argument("--lambda-lower", dest="lambda_lower", type=float)
    parser.add_argument("--lambda-upper", dest="lambda_upper", type=float)


def _add_search(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n-ref", dest="n_ref", type=int, help="saturation reference size")
    parser.add_argument("--threshold", type=float, help="saturation threshold on p1")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="asmux",
        description="Photon statistics and pump optimization of an asymmetric "
        "spatially multiplexed heralded single-photon source.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, handler, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text, argument_default=argparse.SUPPRESS)
        p.set_defaults(func=handler)
        _add_common(p)
        return p

    p = command("eval", _cmd_eval, "evaluate the output photon-number distribution")
    _add_spec(p)
    _add_trunc(p)
    p.add_argument("--lambda", dest="lam", help="pump mean(s): scalar or comma list")
    p.add_argument("--pump-file", dest="pump_file", help="JSON file with a 'lambdas' entry")
    p.add_argument("--strategy", help="spd | thd | upto:J | set:a,b,...")

    p = command("optimize", _cmd_optimize, "maximize p1 at a fixed system size")
    _add_spec(p)
    _add_trunc(p)
    _add_optimizer(p)

    p = command("find-n", _cmd_find_n, "search the optimal number of units")
    _add_spec(p, with_n=False)
    _add_trunc(p)
    _add_optimizer(p)
    _add_search(p)
    p.add_argument("--full-curve", dest="full_curve", action="store_true",
                   help="emit one row per system size instead of only the optimum")

    p = command("scan-strategies", _cmd_scan_strategies, "compare detection strategies")
    _add_spec(p, with_n=False)
    _add_trunc(p)
    _add_optimizer(p)
    _add_search(p)
    p.add_argument("--max-j", dest="max_j", type=int, help="largest accept-up-to ceiling")

    p = command("sweep", _cmd_sweep, "optimize over a loss-parameter grid")
    _add_spec(p, with_n=False)
    _add_trunc(p)
    _add_optimizer(p)
    _add_search(p)
    p.add_argument("--axis", action="append", help="swept axis, name=start:stop:step (max 2)")
    p.add_argument("--strategies", help="comma list of strategies")
    p.add_argument("--modes", help="comma list of pump modes")
    p.add_argument("--no-resume", dest="resume", action="store_false",
                   help="overwrite existing sweep output instead of resuming")

    p = command("table1", _cmd_table1, "reproduce the reference result table")
    _add_trunc(p)
    _add_optimizer(p)
    _add_search(p)
    p.add_argument("--rows", help="subset 'v_r,v_d,v_b;v_r,v_d,v_b;...'")

    p = command("stability", _cmd_stability, "tolerable deviation around the optimum")
    _add_spec(p, with_n=False)
    _add_trunc(p)
    _add_optimizer(p)
    _add_search(p)
    p.add_argument("--resolution", type=float, help="bisection resolution of the interval")

    p = command("mc-validate", _cmd_mc_validate, "check the model against sampling")
    _add_trunc(p)
    p.add_argument("--seed", type=int, help="offset added to every case's sampler seed")
    p.add_argument("--trials", type=int)
    p.add_argument("--max-count", dest="max_count", type=int)
    p.add_argument("--sigma", type=float, help="allowed deviation in standard errors")
    p.add_argument("--cases", type=int, help="run only the first K corpus cases")
    p.add_argument("--chunk-trials", dest="chunk_trials", type=int)

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
        return args.func(cfg)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (ParameterError, TruncationError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
