import csv
import itertools
import math
from dataclasses import fields

import numpy as np
import pytest

import asmux.experiments
from asmux.exceptions import ParameterError
from asmux.experiments import (
    _READERS,
    CSV_COLUMNS,
    ResultRow,
    TABLE1_VB,
    TABLE1_VD,
    TABLE1_VR,
    Axis,
    SweepGrid,
    fixed_n_curve,
    read_csv,
    reproduce_table1,
    run_sweep,
    stability_report,
    vb_crossover,
    write_csv,
    write_json,
)
from asmux.multiplexer import MultiplexerSpec
from asmux.optimize import OptimizationMode, find_optimal_n
from asmux.statistics import DetectionStrategy

SPD = DetectionStrategy.single_photon()


class TestGridTypes:
    def test_axis_values_inclusive(self):
        axis = Axis("v_r", 0.8, 0.9, 0.05)
        assert np.allclose(axis.values(), [0.8, 0.85, 0.9])

    def test_axis_validation(self):
        with pytest.raises(ParameterError):
            Axis("v_q", 0.8, 0.9, 0.05)
        with pytest.raises(ParameterError):
            Axis("v_r", 0.9, 0.8, 0.05)
        for start, stop, step in [
            (0.8, 0.82, math.nan),
            (math.nan, 0.9, 0.01),
            (0.8, math.nan, 0.01),
            (0.8, 0.82, math.inf),
            (0.8, math.inf, 0.01),
            (-math.inf, 0.9, 0.01),
            (0.8, 0.82, 1e-300),  # more cells than an array can index
        ]:
            with pytest.raises(ParameterError):
                Axis("v_d", start, stop, step)

    def test_grid_must_pin_all_parameters(self):
        with pytest.raises(ParameterError):
            SweepGrid(axes=(Axis("v_r", 0.8, 0.9, 0.1),), fixed=(("v_d", 0.9),))

    def test_grid_rejects_extra_or_repeated_axes_and_empty_choices(self):
        r, d, b = (Axis(name, 0.8, 0.9, 0.05) for name in ("v_r", "v_d", "v_b"))
        with pytest.raises(ParameterError, match="at most two axes"):
            SweepGrid(axes=(r, d, b), fixed=())
        with pytest.raises(ParameterError, match="distinct"):
            SweepGrid(axes=(d, d), fixed=(("v_r", 0.9), ("v_b", 0.9)))
        fixed = (("v_r", 0.9), ("v_d", 0.9), ("v_b", 0.9))
        for empty in ({"strategies": ()}, {"modes": ()}):
            with pytest.raises(ParameterError, match="at least one strategy and one mode"):
                SweepGrid(axes=(), fixed=fixed, **empty)

    def test_grid_range_guard(self):
        with pytest.raises(ParameterError):
            SweepGrid(
                axes=(Axis("v_r", 0.5, 0.9, 0.1),),
                fixed=(("v_d", 0.9), ("v_b", 0.9)),
            )

    def test_two_axis_cells(self):
        grid = SweepGrid(
            axes=(Axis("v_r", 0.8, 0.9, 0.1), Axis("v_d", 0.8, 0.9, 0.05)),
            fixed=(("v_b", 0.9),),
        )
        cells = grid.cells()
        assert len(cells) == 2 * 3
        assert all(set(c) == {"v_r", "v_d", "v_b"} for c in cells)
        # row-major in axis order, fixed keys first
        assert [list(c.items()) for c in cells] == [
            [("v_b", 0.9), ("v_r", v_r), ("v_d", v_d)]
            for v_r in (0.8, 0.9)
            for v_d in (0.8, 0.85, 0.9)
        ]


class TestRows:
    def test_row_reevaluates_exactly(self):
        rows = reproduce_table1(combos=[(0.9, 0.9, 0.9)], n_ref=25)
        for row in rows:
            assert row.reevaluate() == row.p1

    def test_default_table_searches_every_combination(self, monkeypatch):
        # the full table, with the search replaced by a recorder: the order,
        # modes and strategy of its 126 rows, without running one search
        calls = []

        def recording(spec, strategy, mode, settings, n_ref, threshold):
            calls.append(((spec.v_r, spec.v_d, spec.v_b), mode, strategy))
            return len(calls)

        monkeypatch.setattr(asmux.experiments, "_search_row", recording)
        rows = reproduce_table1()
        combos = list(itertools.product(TABLE1_VR, TABLE1_VD, TABLE1_VB))
        modes = [OptimizationMode.PER_UNIT, OptimizationMode.UNIFORM]
        assert len(combos) == 63
        assert rows == list(range(1, 127))
        assert calls == [(combo, mode, SPD) for combo in combos for mode in modes]

    def test_csv_round_trip(self, tmp_path):
        rows = fixed_n_curve(
            MultiplexerSpec(v_r=0.9, v_b=0.9, v_d=0.9, n_units=1),
            SPD,
            [OptimizationMode.PER_UNIT, OptimizationMode.UNIFORM],
            range(1, 4),
        )
        path = tmp_path / "rows.csv"
        write_csv(rows, path, config={"purpose": "round-trip"})
        loaded = read_csv(path)
        assert len(loaded) == len(rows)
        for original, parsed in zip(rows, loaded):
            assert parsed.p1 == original.p1
            assert parsed.lambdas == original.lambdas
            assert parsed.strategy == original.strategy
            assert parsed.mode == original.mode
        text = path.read_text()
        assert text.startswith("# purpose")

    def test_json_embeds_config(self, tmp_path):
        import json

        rows = fixed_n_curve(
            MultiplexerSpec(v_r=0.9, v_b=0.9, v_d=0.9, n_units=1),
            SPD,
            [OptimizationMode.UNIFORM],
            [2],
        )
        path = tmp_path / "rows.json"
        write_json(rows, path, config={"seed": 42})
        payload = json.loads(path.read_text())
        assert payload["config"] == {"seed": 42}
        assert payload["rows"][0]["lambdas"] == list(rows[0].lambdas)


class TestSweep:
    def test_degenerate_sweep_matches_direct_search(self, tmp_path):
        grid = SweepGrid(axes=(), fixed=(("v_r", 0.9), ("v_d", 0.9), ("v_b", 0.9)))
        rows = run_sweep(grid, n_ref=25, out_csv=tmp_path / "sweep.csv")
        assert len(rows) == 1
        direct = find_optimal_n(
            MultiplexerSpec(v_r=0.9, v_b=0.9, v_d=0.9, n_units=1), SPD, n_ref=25
        )
        assert rows[0].n_opt == direct.n_opt
        assert rows[0].p1 == direct.p1_max
        assert rows[0].lambdas == direct.reports[direct.n_opt - 1].best_pump.lambdas

    def test_returned_rows_equal_rows_read_back(self, tmp_path):
        # the wall time is not row content: a timed row equals its CSV record
        grid = SweepGrid(axes=(), fixed=(("v_r", 0.9), ("v_d", 0.9), ("v_b", 0.9)))
        path = tmp_path / "sweep.csv"
        rows = run_sweep(grid, n_ref=10, out_csv=path)
        assert rows[0].wall_time_s > 0.0
        assert rows == read_csv(path)

    def test_resume_skips_finished_cells(self, tmp_path):
        grid = SweepGrid(
            axes=(Axis("v_d", 0.85, 0.9, 0.05),),
            fixed=(("v_r", 0.9), ("v_b", 0.9)),
        )
        path = tmp_path / "sweep.csv"
        first = run_sweep(grid, n_ref=20, out_csv=path)
        stamp = path.read_text()
        second = run_sweep(grid, n_ref=20, out_csv=path)
        assert path.read_text() == stamp  # nothing re-run, file untouched
        assert [r.p1 for r in second] == [r.p1 for r in first]

    def test_resume_after_torn_write(self, tmp_path):
        grid = SweepGrid(
            axes=(Axis("v_d", 0.85, 0.9, 0.05),),
            fixed=(("v_r", 0.9), ("v_b", 0.9)),
        )
        fresh = tmp_path / "fresh.csv"
        torn = tmp_path / "torn.csv"
        run_sweep(grid, n_ref=5, out_csv=fresh, config={"n_ref": 5})
        whole = fresh.read_bytes()
        torn.write_bytes(whole[: whole.rindex(b"\n", 0, len(whole) - 1) + 40])
        run_sweep(grid, n_ref=5, out_csv=torn, config={"n_ref": 5})
        assert torn.read_bytes() == whole
        # a last record with the wrong field count is redone as well
        head = whole[: whole.rindex(b"\n", 0, len(whole) - 1) + 1]
        torn.write_bytes(head + b"0.9,0.985\r\n")
        run_sweep(grid, n_ref=5, out_csv=torn, config={"n_ref": 5})
        assert torn.read_bytes() == whole

    def test_resume_refuses_other_columns(self, tmp_path):
        grid = SweepGrid(axes=(), fixed=(("v_r", 0.9), ("v_d", 0.85), ("v_b", 0.9)))
        path = tmp_path / "old.csv"
        old = b"v_r,v_t,seed\r\n0.9,0.985,7\r\n"
        path.write_bytes(old)
        with pytest.raises(ParameterError):
            run_sweep(grid, n_ref=5, out_csv=path)
        assert path.read_bytes() == old

    def test_resume_of_a_file_without_records_starts_afresh(self, tmp_path):
        grid = SweepGrid(axes=(), fixed=(("v_r", 0.9), ("v_d", 0.85), ("v_b", 0.9)))
        fresh, comments = tmp_path / "fresh.csv", tmp_path / "comments.csv"
        run_sweep(grid, n_ref=5, out_csv=fresh, config={"n_ref": 5})
        comments.write_text("# n_ref = 5\n# interrupted before its column header\n")
        rows = run_sweep(grid, n_ref=5, out_csv=comments, config={"n_ref": 5})
        assert len(rows) == 1
        assert comments.read_bytes() == fresh.read_bytes()

    def test_sweep_deterministic(self):
        grid = SweepGrid(axes=(), fixed=(("v_r", 0.9), ("v_d", 0.85), ("v_b", 0.9)))
        a = run_sweep(grid, n_ref=20)
        b = run_sweep(grid, n_ref=20)
        assert a[0].p1 == b[0].p1
        assert a[0].lambdas == b[0].lambdas

    def test_threads_keyword_changes_nothing(self, tmp_path):
        grid = SweepGrid(
            axes=(Axis("v_d", 0.85, 0.9, 0.05),),
            fixed=(("v_r", 0.9), ("v_b", 0.9)),
        )
        plain = run_sweep(grid, n_ref=15)
        threaded = run_sweep(grid, n_ref=15, threads=2, out_csv=tmp_path / "sweep.csv")
        assert [r.p1 for r in threaded] == [r.p1 for r in plain]
        assert [r.lambdas for r in threaded] == [r.lambdas for r in plain]

    # another valid value of each column that keys a job, none of which
    # this grid runs
    FOREIGN = [("v_r", "0.95"), ("v_t", "0.9"), ("v_b", "0.95"), ("v_d", "0.8"),
               ("source", "thermal"), ("strategy", "upto:2"), ("mode", "uniform")]

    @pytest.mark.parametrize("column,value", FOREIGN)
    def test_resume_refuses_a_row_of_another_job(self, tmp_path, column, value):
        grid = SweepGrid(axes=(Axis("v_d", 0.85, 0.9, 0.05),), fixed=(("v_r", 0.9), ("v_b", 0.9)))
        path = tmp_path / "sweep.csv"
        run_sweep(grid, n_ref=5, out_csv=path)
        _corrupt_last_field(path, column, value)
        edited = path.read_bytes()
        with pytest.raises(ParameterError, match="does not run"):
            run_sweep(grid, n_ref=5, out_csv=path)
        assert path.read_bytes() == edited

    def test_resume_refuses_a_row_of_another_job_before_cutting_a_torn_one(self, tmp_path):
        grid = SweepGrid(axes=(Axis("v_d", 0.85, 0.9, 0.05),), fixed=(("v_r", 0.9), ("v_b", 0.9)))
        path = tmp_path / "sweep.csv"
        run_sweep(grid, n_ref=5, out_csv=path)
        _corrupt_last_field(path, "v_t", "0.9")
        path.write_bytes(path.read_bytes() + b"0.9,0.985,0.9")
        edited = path.read_bytes()
        with pytest.raises(ParameterError, match="does not run"):
            run_sweep(grid, n_ref=5, out_csv=path)
        assert path.read_bytes() == edited

    def test_resume_refuses_other_config(self, tmp_path):
        grid = SweepGrid(axes=(), fixed=(("v_r", 0.9), ("v_d", 0.85), ("v_b", 0.9)))
        path = tmp_path / "sweep.csv"
        run_sweep(grid, n_ref=5, out_csv=path, config={"n_ref": 5})
        written = path.read_bytes()
        for config in ({"n_ref": 9}, None):
            with pytest.raises(ParameterError, match="another configuration"):
                run_sweep(grid, n_ref=9, out_csv=path, config=config)
            assert path.read_bytes() == written


def _corrupt_last_field(path, column, value):
    """Set one field of the last record to ``value``, or to ``value(field)`` if callable."""
    lines = path.read_text().splitlines(keepends=True)
    fields = next(csv.reader([lines[-1]]))
    i = CSV_COLUMNS.index(column)
    fields[i] = value(fields[i]) if callable(value) else value
    lines[-1] = ",".join(fields) + "\r\n"
    path.write_text("".join(lines))


class TestReadCsv:
    @pytest.fixture
    def sweep_csv(self, tmp_path):
        grid = SweepGrid(axes=(Axis("v_d", 0.8, 0.9, 0.05),), fixed=(("v_r", 0.9), ("v_b", 0.9)))
        path = tmp_path / "sweep.csv"
        run_sweep(grid, n_ref=20, out_csv=path)
        assert len(read_csv(path)) == 3
        return path

    def test_cut_record(self, sweep_csv):
        sweep_csv.write_bytes(sweep_csv.read_bytes()[:-30])
        with pytest.raises(ParameterError, match="line 4"):
            read_csv(sweep_csv)

    @pytest.mark.parametrize(
        "column,value",
        [("p1", "abc"), ("n_units", "1.5"), ("n_units", "2"), ("strategy", "upto:x"),
         ("mode", "foo"), ("source", "laser"), ("v_r", "nan"), ("v_t", "1.5"),
         ("lambdas", lambda text: ";".join(["-1.0", *text.split(";")[1:]]))],
        ids=lambda value: "first-mean-negative" if callable(value) else None,
    )
    def test_bad_field(self, sweep_csv, column, value):
        _corrupt_last_field(sweep_csv, column, value)
        with pytest.raises(ParameterError, match="line 4"):
            read_csv(sweep_csv)

    def test_wrong_header(self, tmp_path):
        path = tmp_path / "other.csv"
        path.write_text("# n_ref = 5\nv_r,v_t,seed\r\n0.9,0.985,7\r\n")
        with pytest.raises(ParameterError, match="line 2: expected the columns"):
            read_csv(path)

    def test_wrong_field_count(self, sweep_csv):
        sweep_csv.write_text(sweep_csv.read_text() + "0.9,0.985\r\n")
        with pytest.raises(ParameterError, match="line 5"):
            read_csv(sweep_csv)


POINT = MultiplexerSpec(v_r=0.95, v_b=0.9, v_d=0.9, n_units=1)
# rows of each kind the files hold
ROW_KINDS = {
    "size-search": lambda: reproduce_table1(combos=[(0.95, 0.9, 0.9)], n_ref=20)[:1],
    "fixed-size": lambda: fixed_n_curve(POINT, SPD, [OptimizationMode.PER_UNIT], [3]),
    "uniform": lambda: fixed_n_curve(POINT, SPD, [OptimizationMode.UNIFORM], [4]),
    "stability": lambda: [stability_report(POINT, SPD, n_ref=20)],
    "1-unit": lambda: fixed_n_curve(POINT, SPD, list(OptimizationMode), [1]),
    "60-unit": lambda: fixed_n_curve(POINT, SPD, list(OptimizationMode), [60]),
}


class TestCsvSchema:
    def test_every_column_type_has_a_reader(self):
        # a new column of a known type needs no parser edit
        assert {f.type for f in fields(ResultRow) if f.compare} <= set(_READERS)

    @pytest.mark.parametrize("kind", sorted(ROW_KINDS))
    def test_round_trip_keeps_every_byte(self, tmp_path, kind):
        rows = ROW_KINDS[kind]()
        filled = {
            "size-search": rows[0].n_opt is not None,
            "fixed-size": rows[0].n_opt is None and rows[0].lambda_uniform is None,
            "uniform": rows[0].lambda_uniform is not None,
            "stability": None not in (rows[0].delta_minus, rows[0].baseline_p1),
            "1-unit": len(rows[0].lambdas) == 1,
            "60-unit": len(rows[0].lambdas) == 60,
        }
        assert filled[kind]
        first, second = tmp_path / "first.csv", tmp_path / "second.csv"
        write_csv(rows, first, config={"n_ref": 20})
        back = read_csv(first)
        assert back == rows
        write_csv(back, second, config={"n_ref": 20})
        assert second.read_bytes() == first.read_bytes()


class TestCurvesAndDeltas:
    def test_fixed_n_curve_monotone(self):
        rows = fixed_n_curve(
            MultiplexerSpec(v_r=0.9, v_b=0.9, v_d=0.9, n_units=1),
            SPD,
            [OptimizationMode.PER_UNIT],
            range(1, 9),
        )
        p1s = [r.p1 for r in rows]
        assert all(b >= a - 1e-3 for a, b in zip(p1s, p1s[1:]))

    # a float size was truncated and a string parsed: [2.5, "3"] gave sizes 2 and 3
    @pytest.mark.parametrize(
        "n_range", [[], range(0), [0, 3], [-2], [2.5, "3"], [2.5], ["3"], [np.float64(3.0)]]
    )
    def test_fixed_n_curve_refuses_sizes_that_are_not_positive(self, n_range):
        spec = MultiplexerSpec(v_r=0.9, v_b=0.9, v_d=0.9, n_units=1)
        if all(isinstance(n, int) for n in n_range):
            message = "n_range must contain positive sizes"
        else:
            message = "each size in n_range must be an integer, got "
        with pytest.raises(ParameterError, match=message):
            fixed_n_curve(spec, SPD, [OptimizationMode.PER_UNIT], n_range)

    def test_fixed_n_curve_takes_numpy_integer_sizes_as_ints(self):
        spec = MultiplexerSpec(v_r=0.9, v_b=0.9, v_d=0.9, n_units=1)
        ours = fixed_n_curve(spec, SPD, ["uniform"], [np.int64(3), np.uint8(2)])
        plain = fixed_n_curve(spec, SPD, ["uniform"], [3, 2])
        assert ours == plain
        assert [type(r.n_units) for r in ours] == [int, int]

    def test_vb_crossover_refuses_a_bracket_that_does_not_straddle(self, monkeypatch):
        # single-photon detection wins at both ends of the bracket
        class Report:
            def __init__(self, strategy):
                self.best_p1 = 0.5 if strategy == SPD else 0.25

        monkeypatch.setattr(
            asmux.experiments, "optimize_pump", lambda spec, strategy, settings: Report(strategy)
        )
        with pytest.raises(ParameterError) as refused:
            vb_crossover()
        assert str(refused.value) == (
            "bracket [0.8, 0.9] does not straddle the crossover (advantages -0.2500, -0.2500)"
        )


class TestStabilityReport:
    def test_report_fields(self):
        row = stability_report(
            MultiplexerSpec(v_r=0.95, v_b=0.9, v_d=0.9, n_units=1), SPD, n_ref=25
        )
        assert row.delta_minus <= 0.0 <= row.delta_plus
        assert row.baseline_p1 is not None
        assert row.p1 >= row.baseline_p1
        assert row.reevaluate() == row.p1

    @pytest.mark.parametrize("resolution", [0.0, -0.01, math.nan, math.inf])
    def test_resolution_checked_before_the_searches(self, monkeypatch, resolution):
        # a bad resolution used to be refused only after both optima were found
        def no_search(*args, **kwargs):
            raise AssertionError("searched before checking the resolution")

        monkeypatch.setattr(asmux.experiments, "find_optimal_n", no_search)
        monkeypatch.setattr(asmux.experiments, "optimize_pump", no_search)
        spec = MultiplexerSpec(v_r=0.95, v_b=0.9, v_d=0.9, n_units=1)
        with pytest.raises(ParameterError, match="resolution must be positive and finite"):
            stability_report(spec, SPD, n_ref=25, resolution=resolution)
