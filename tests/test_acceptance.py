"""Acceptance suite: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS/FAIL
line per criterion.  The optimizers run with their default search
bounds.
"""
import numpy as np
import pytest
from scipy.stats import poisson

from asmux.experiments import (
    fixed_n_curve,
    stability_report,
    vb_crossover,
)
from asmux.montecarlo import (
    McSettings,
    VALIDATION_CORPUS,
    compare_with_analytic,
    corpus_case,
    expected_exceedances,
)
from asmux.multiplexer import MultiplexerSpec
from asmux.optimize import (
    OptimizationMode,
    OptimizerSettings,
    find_optimal_n,
    optimize_pump,
    optimize_scaled_reference,
    optimize_uniform,
)
from asmux.statistics import (
    DetectionStrategy,
    PumpProfile,
    acceptance_weights,
    output_distribution,
    required_lmax,
    source_pmf,
)

SPD = DetectionStrategy.single_photon()
THD = DetectionStrategy.threshold()
S12 = DetectionStrategy.accept_up_to(2)
SETTINGS = OptimizerSettings()

# golden targets: (v_r, v_d, v_b) -> (p1_per_unit, n_opt_per_unit,
#                                     n_tol, lambda_uniform)
GOLDEN = {
    (0.99, 0.98, 0.98): (0.935, 16, 1, 0.667),
    (0.90, 0.80, 0.80): (0.622, 13, 1, 0.859),
    (0.95, 0.90, 0.90): (0.771, 14, 1, 0.719),
    (0.99, 0.80, 0.80): (0.732, 23, 2, 0.344),
    (0.90, 0.90, 0.90): (0.716, 12, 1, 0.868),
}


def _criterion(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def golden_results():
    """Size searches for the golden table rows, both pump modes."""
    out = {}
    for (v_r, v_d, v_b) in GOLDEN:
        spec = MultiplexerSpec(v_r=v_r, v_b=v_b, v_d=v_d, n_units=1)
        per_unit = find_optimal_n(spec, SPD, SETTINGS, n_ref=100)
        uniform = find_optimal_n(spec, SPD, SETTINGS, n_ref=100, mode="uniform")
        out[(v_r, v_d, v_b)] = (per_unit, uniform)
    return out


def test_criterion_1_golden_table_rows(golden_results):
    checks = []
    for combo, (p1_target, n_target, n_tol, lam_target) in GOLDEN.items():
        per_unit, uniform = golden_results[combo]
        lam_opt = uniform.reports[uniform.n_opt - 1].best_pump.lambdas[0]
        ok = (
            abs(per_unit.p1_max - p1_target) <= 0.002
            and abs(per_unit.n_opt - n_target) <= n_tol
            and abs(lam_opt - lam_target) <= 0.005
        )
        checks.append(ok)
        if not ok:
            print(
                f"  row {combo}: p1={per_unit.p1_max:.4f} (target {p1_target}), "
                f"n_opt={per_unit.n_opt} (target {n_target}±{n_tol}), "
                f"lam={lam_opt:.4f} (target {lam_target})"
            )
    _criterion(1, all(checks), f"{sum(checks)}/{len(checks)} golden rows within tolerance")


def test_criterion_2_headline_maximum(golden_results):
    per_unit, _ = golden_results[(0.99, 0.98, 0.98)]
    ok = abs(per_unit.p1_max - 0.935) <= 0.002
    _criterion(2, ok, f"state-of-the-art point reaches p1={per_unit.p1_max:.4f} (target 0.935±0.002)")


def test_criterion_3_delta_surface_extremes():
    # the v_r = 0.8 chain is dead beyond ~30 units; a 60-unit reference
    # already sits at saturation
    n_ref = 60

    def p1_max(v_r, v_d, v_b, strategy, mode):
        spec = MultiplexerSpec(v_r=v_r, v_b=v_b, v_d=v_d, n_units=1)
        return find_optimal_n(spec, strategy, SETTINGS, n_ref=n_ref, mode=mode).p1_max

    thd_gap = (
        p1_max(0.8, 0.8, 0.98, THD, OptimizationMode.PER_UNIT)
        - p1_max(0.8, 0.8, 0.98, THD, OptimizationMode.UNIFORM)
    )
    spd_gap = (
        p1_max(0.8, 0.8, 0.98, SPD, OptimizationMode.PER_UNIT)
        - p1_max(0.8, 0.8, 0.98, SPD, OptimizationMode.UNIFORM)
    )
    s12_gap = (
        p1_max(0.8, 0.8, 0.8, S12, OptimizationMode.PER_UNIT)
        - p1_max(0.8, 0.8, 0.8, SPD, OptimizationMode.PER_UNIT)
    )
    ok = (
        abs(thd_gap - 0.0225) <= 0.003
        and abs(spd_gap - 0.006) <= 0.002
        and abs(s12_gap - 0.007) <= 0.002
    )
    _criterion(
        3,
        ok,
        f"gaps: thd per-unit-uniform={thd_gap:.4f} (0.0225±0.003), "
        f"spd={spd_gap:.4f} (0.006±0.002), s12-spd={s12_gap:.4f} (0.007±0.002)",
    )


def test_criterion_4_strategy_crossovers():
    spec = MultiplexerSpec(v_r=0.8, v_b=0.8, v_d=0.85, n_units=1)
    sizes = range(2, 11)
    spd_curve = [
        optimize_uniform(spec.with_units(n), SPD, SETTINGS).best_p1 for n in sizes
    ]
    s12_curve = [
        optimize_uniform(spec.with_units(n), S12, SETTINGS).best_p1 for n in sizes
    ]
    crossover = next(
        (n for n, a, b in zip(sizes, spd_curve, s12_curve) if a >= b), None
    )
    below_ok = all(
        b > a for n, a, b in zip(sizes, spd_curve, s12_curve) if n < crossover
    )
    vb_star = vb_crossover(SETTINGS)
    ok = (
        crossover is not None
        and abs(crossover - 7) <= 1
        and below_ok
        and abs(vb_star - 0.837) <= 0.01
    )
    _criterion(
        4,
        ok,
        f"uniform {{1,2}}/spd crossover at N={crossover} (7±1), "
        f"spd takes over at v_b={vb_star:.4f} (0.837±0.01)",
    )


def test_criterion_5_stability_intervals():
    row_a = stability_report(
        MultiplexerSpec(v_r=0.99, v_b=0.98, v_d=0.9, n_units=1), SPD, SETTINGS, n_ref=100
    )
    row_b = stability_report(
        MultiplexerSpec(v_r=0.90, v_b=0.98, v_d=0.8, n_units=1), SPD, SETTINGS, n_ref=100
    )
    ok_a = (
        abs(row_a.delta_minus - (-0.05)) <= 0.01
        and abs(row_a.delta_plus - 0.057) <= 0.01
        and abs(row_a.p1 - 0.9059) <= 0.001
        and abs(row_a.baseline_p1 - 0.9052) <= 0.001
    )
    ok_b = (
        abs(row_b.delta_minus - (-0.129)) <= 0.015
        and abs(row_b.delta_plus - 0.15) <= 0.015
    )
    _criterion(
        5,
        ok_a and ok_b,
        f"intervals [{row_a.delta_minus:.3f},{row_a.delta_plus:.3f}] "
        f"(maxima {row_a.p1:.4f}/{row_a.baseline_p1:.4f}) and "
        f"[{row_b.delta_minus:.3f},{row_b.delta_plus:.3f}]",
    )


def _random_model(rng):
    n = int(rng.integers(1, 16))
    spec = MultiplexerSpec(
        v_r=rng.uniform(0.8, 0.99),
        v_b=rng.uniform(0.8, 0.98),
        v_d=rng.uniform(0.8, 0.98),
        n_units=n,
        v_t=rng.uniform(0.9, 1.0),
        source="thermal" if rng.random() < 0.25 else "poisson",
    )
    pump = PumpProfile(tuple(rng.uniform(0.0, 1.5, size=n)))
    pick = rng.random()
    if pick < 0.4:
        strategy = SPD
    elif pick < 0.6:
        strategy = THD
    elif pick < 0.8:
        strategy = DetectionStrategy.accept_up_to(int(rng.integers(2, 5)))
    else:
        strategy = DetectionStrategy.explicit({1, 3})
    return spec, pump, strategy


def test_criterion_6_property_suite():
    failures = []

    # normalization over 1000 randomized configurations
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        spec, pump, strategy = _random_model(rng)
        dist = output_distribution(spec, pump, strategy)
        worst = max(worst, abs(float(dist.probs.sum()) + dist.truncation_mass - 1.0))
    if worst > 1e-9:
        failures.append(f"normalization off by {worst:.2e}")

    # threshold equals a ceiling at the series cap
    spec = MultiplexerSpec(v_r=0.9, v_b=0.9, v_d=0.85, n_units=5)
    pump = PumpProfile((0.4, 0.7, 1.0, 1.3, 1.6))
    thd = output_distribution(spec, pump, THD)
    capped = output_distribution(spec, pump, DetectionStrategy.accept_up_to(400))
    if np.max(np.abs(thd.probs - capped.probs)) > 1e-10:
        failures.append("threshold != accept-up-to(cap)")

    # detector thinning identity
    worst = 0.0
    for _ in range(100):
        lam = rng.uniform(0.0, 2.0)
        v_d = rng.uniform(0.0, 1.0)
        j = int(rng.integers(0, 6))
        l_max = required_lmax("poisson", lam)
        if j:
            weights = acceptance_weights(DetectionStrategy.explicit({j}), v_d, l_max)
        else:
            weights = 1.0 - acceptance_weights(THD, v_d, l_max)
        series = source_pmf("poisson", lam, l_max) @ weights
        worst = max(worst, abs(series - poisson.pmf(j, lam * v_d)))
    if worst > 1e-10:
        failures.append(f"thinning identity off by {worst:.2e}")

    # dominance of richer search spaces
    for v_r, v_b, v_d, n in ((0.99, 0.98, 0.9, 12), (0.9, 0.85, 0.8, 8), (0.8, 0.8, 0.85, 6)):
        spec = MultiplexerSpec(v_r=v_r, v_b=v_b, v_d=v_d, n_units=n)
        per_unit = optimize_pump(spec, SPD, SETTINGS).best_p1
        uniform_n = optimize_uniform(spec, SPD, SETTINGS).best_p1
        uniform_1 = optimize_uniform(spec.with_units(1), SPD, SETTINGS).best_p1
        scaled = optimize_scaled_reference(spec, SPD, SETTINGS).best_p1
        if not (per_unit >= uniform_n - 1e-6 and per_unit >= scaled - 1e-6):
            failures.append(f"dominance broken at {(v_r, v_b, v_d, n)}")
        if not uniform_n >= uniform_1 - 1e-6:
            failures.append(f"uniform lower bound broken at {(v_r, v_b, v_d, n)}")

    # seed determinism, bit for bit
    spec = MultiplexerSpec(v_r=0.95, v_b=0.9, v_d=0.9, n_units=6)
    rep_a = optimize_pump(spec, SPD, SETTINGS)
    rep_b = optimize_pump(spec, SPD, SETTINGS)
    if rep_a.best_pump.lambdas != rep_b.best_pump.lambdas or rep_a.best_p1 != rep_b.best_p1:
        failures.append("optimizer not seed-deterministic")

    # pump-profile shapes: monotone growth in the low-loss chain,
    # an interior peak in the lossy one
    monotone = optimize_pump(
        MultiplexerSpec(v_r=0.99, v_b=0.98, v_d=0.9, n_units=21), SPD, SETTINGS
    ).best_pump.lambdas
    if not np.all(np.diff(monotone) >= -1e-6):
        failures.append("low-loss profile not nondecreasing")
    lossy = MultiplexerSpec(v_r=0.8, v_b=0.8, v_d=0.85, n_units=1)
    spd_search = find_optimal_n(lossy, SPD, SETTINGS, n_ref=60)
    s12_search = find_optimal_n(lossy, S12, SETTINGS, n_ref=60)
    spd_peak = int(np.argmax(spd_search.reports[spd_search.n_opt - 1].best_pump.lambdas)) + 1
    s12_peak = int(np.argmax(s12_search.reports[s12_search.n_opt - 1].best_pump.lambdas)) + 1
    if abs(spd_peak - 8) > 1:
        failures.append(f"spd profile peak at {spd_peak}, expected 8±1")
    if abs(s12_peak - 6) > 1:
        failures.append(f"{{1,2}} profile peak at {s12_peak}, expected 6±1")

    _criterion(6, not failures, "; ".join(failures) or
               "normalization, threshold ceiling, thinning, dominance, "
               "determinism and profile shapes all hold")


def test_criterion_7_monte_carlo_oracle():
    bad = []
    for index, entry in enumerate(VALIDATION_CORPUS):
        spec, pump, strategy, seed = corpus_case(entry)
        mc = McSettings(trials=10_000_000, seed=seed)
        comparison = compare_with_analytic(spec, pump, strategy, mc)
        if not comparison.within(3.0):
            worst = float(
                np.max(comparison.deviations / np.maximum(comparison.analytic_std_errors, 1e-300))
            )
            bad.append(f"case {index} (z={worst:.2f})")
    buckets = len(VALIDATION_CORPUS) * (McSettings().max_count + 1)
    expected = (
        f"; {expected_exceedances(buckets, 3.0):.2f} of {buckets} buckets expected "
        "beyond 3 sigma if the model holds"
    )
    _criterion(
        7,
        not bad,
        ("all 20 corpus cases within 3 sigma at 1e7 trials" if not bad else ", ".join(bad))
        + expected,
    )


def test_criterion_8_suboptimal_size_enhancement():
    spec = MultiplexerSpec(v_r=0.99, v_b=0.98, v_d=0.8, n_units=1)
    rows = fixed_n_curve(
        spec,
        SPD,
        [OptimizationMode.PER_UNIT, OptimizationMode.UNIFORM],
        range(9, 14),
        SETTINGS,
    )
    per_unit = {r.n_units: r.p1 for r in rows if r.mode == "per-unit"}
    uniform = {r.n_units: r.p1 for r in rows if r.mode == "uniform"}
    gaps = {n: per_unit[n] - uniform[n] for n in per_unit}
    ok = all(g > 0.01 for g in gaps.values()) and abs(per_unit[11] - 0.846) <= 0.003
    _criterion(
        8,
        ok,
        f"per-unit-uniform gap in [{min(gaps.values()):.4f}, {max(gaps.values()):.4f}] "
        f"for N=9..13 (all >0.01), p1(N=11)={per_unit[11]:.4f} (0.846±0.003)",
    )
