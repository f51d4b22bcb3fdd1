"""End-to-end runs of the console entry point, in process."""

import argparse
import contextlib
import dataclasses
import decimal
import io
import json
import math
import re
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from otto3 import cli
from otto3.cli import (CYCLES_HEADER, SCAN_HEADER, TIMESERIES_HEADER,
                       load_config, main)
from otto3.engine import CycleRecord, Engine
from otto3.errors import ConfigError

from helpers import assert_numbers_close

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

RATIO_BASELINE = 0.9098591162635316

PUBLISHED_BOX = {"alpha12": [0.038, 0.038], "alpha23": [1e-4, 1e-4],
                 "tau_h": [0.59, 0.59], "tau_c": [0.9996, 0.9996],
                 "tau_comp": [85.02, 85.02]}


def write_cfg(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def base_config(**engine):
    doc = {"schema_version": 1,
           "preparation": {"family": "thermal", "beta1": 0.01, "omega3": 0.1},
           "engine": {"alpha12": 0.0, "alpha23": 0.0, "tau_comp": 1.0,
                      "tau_h": 0.1, "tau_c": 0.1, "ramp": "quasistatic",
                      "stop": {"rule": "fixed_cycles", "n": 1}}}
    doc["engine"].update(engine)
    return doc


def simulate(cfg_path, out_dir, *extra):
    return main(["simulate", "--config", cfg_path, "--out", str(out_dir),
                 *extra])


def read_rows(path):
    header, *rows = Path(path).read_text().splitlines()
    return header, [r.split(",") for r in rows]


class TestConfigRejection:
    def test_unknown_top_level_key(self, tmp_path):
        cfg = write_cfg(tmp_path, {"schema_version": 1, "bogus": 1})
        assert simulate(cfg, tmp_path / "o") == 2

    def test_schema_version(self, tmp_path):
        cfg = write_cfg(tmp_path, {"schema_version": 2})
        assert simulate(cfg, tmp_path / "o") == 2
        cfg = write_cfg(tmp_path, {}, "empty.json")
        assert simulate(cfg, tmp_path / "o") == 2

    def test_config_must_be_an_object(self, tmp_path):
        cfg = write_cfg(tmp_path, [1, 2])
        assert simulate(cfg, tmp_path / "o") == 2

    def test_unreadable_or_malformed_file(self, tmp_path):
        assert simulate(str(tmp_path / "missing.json"), tmp_path / "o") == 2
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert simulate(str(bad), tmp_path / "o") == 2

    def test_load_config_raises_for_library_callers(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(str(tmp_path / "missing.json"))

    def test_unknown_engine_key(self, tmp_path):
        doc = base_config()
        doc["engine"]["coupling"] = 0.1
        assert simulate(write_cfg(tmp_path, doc), tmp_path / "o") == 2

    def test_negative_coupling(self, tmp_path):
        doc = base_config(alpha12=-0.1)
        assert simulate(write_cfg(tmp_path, doc), tmp_path / "o") == 2

    def test_non_finite_engine_value(self, tmp_path):
        for field in ("alpha12", "tau_comp"):
            doc = base_config(**{field: float("nan")})
            assert simulate(write_cfg(tmp_path, doc), tmp_path / "o") == 2
        doc = base_config(tau_h=float("inf"))
        assert simulate(write_cfg(tmp_path, doc), tmp_path / "o") == 2

    def test_non_numeric_engine_value(self, tmp_path):
        doc = base_config(tau_h="fast")
        assert simulate(write_cfg(tmp_path, doc), tmp_path / "o") == 2
        doc = base_config(tau_h=True)
        assert simulate(write_cfg(tmp_path, doc), tmp_path / "o") == 2

    def test_unknown_ramp(self, tmp_path):
        doc = base_config(ramp="adiabatic")
        assert simulate(write_cfg(tmp_path, doc), tmp_path / "o") == 2

    def test_bad_stop_rules(self, tmp_path):
        for stop in ({"rule": "until_dawn"}, 5,
                     {"rule": "fixed_cycles", "n": 2.5},
                     {"rule": "fixed_cycles", "n": True},
                     {"rule": "work_non_negative", "n": 3}):
            doc = base_config(stop=stop)
            assert simulate(write_cfg(tmp_path, doc), tmp_path / "o") == 2

    def test_r1_only_applies_to_squeezed_family(self, tmp_path):
        doc = base_config()
        doc["preparation"]["r1"] = 1.0
        assert simulate(write_cfg(tmp_path, doc), tmp_path / "o") == 2

    def test_unknown_family(self, tmp_path):
        doc = base_config()
        doc["preparation"]["family"] = "coherent"
        assert simulate(write_cfg(tmp_path, doc), tmp_path / "o") == 2

    def test_scan_sample_count_must_be_integer(self, tmp_path):
        doc = {"schema_version": 1, "scan": {"n_samples": True}}
        cfg = write_cfg(tmp_path, doc)
        assert main(["scan", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_optimize_rejections(self, tmp_path):
        out = str(tmp_path / "o")
        for section in ({"target": "work"},
                        {"omega3": 0.5, "box": {"tau_h": [1, 2, 3]}},
                        {"omega3_sweep": []}):
            cfg = write_cfg(tmp_path, {"schema_version": 1, "optimize": section})
            assert main(["optimize", "--config", cfg, "--out", out]) == 2


def run_quietly(argv):
    """main(argv) with its output captured: (exit code, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


NAN, INF = float("nan"), float("inf")

# Each value the package refuses exits 2 with a message naming its key; a
# value refused while a scan runs is named as the library names it.
REFUSED = [
    ("optimize", {"optimize": {"objective": "bogus", "budget": 4}}, "optimize.objective"),
    ("optimize", {"optimize": {"family": "bogus", "budget": 4}}, "optimize.family"),
    ("scan", {"scan": {"family": "bogus", "n_samples": 2}}, "scan.family"),
    ("optimize", {"optimize": {"omega3": 0.1, "budget": "x"}}, "optimize.budget"),
    ("optimize", {"optimize": {"omega3": 0.1, "budget": 2.5}}, "optimize.budget"),
    ("optimize", {"optimize": {"omega3": 0.1, "budget": 4, "restarts": "x"}},
     "optimize.restarts"),
    ("scan", {"seed": "x", "scan": {"n_samples": 2}}, "seed"),
    ("optimize", {"seed": 1.5, "optimize": {"omega3": 0.1, "budget": 4}}, "seed"),
    ("scan", {"scan": {"n_samples": 2, "max_cycles": "x"}}, "scan.max_cycles"),
    ("scan", {"scan": {"n_samples": 2, "max_cycles": 2.7}}, "scan.max_cycles"),
    ("simulate", {"engine": {"max_cycles": 2.7}}, "engine.max_cycles"),
    # cycle limits past the float range, which int64 columns cannot hold
    ("simulate", {"engine": {"max_cycles": 10**333}}, r"max_cycles must be below 2\*\*63"),
    ("simulate", {"engine": {"stop": {"rule": "fixed_cycles", "n": 10**333}}},
     r"cycle count must be below 2\*\*63"),
    ("scan", {"scan": {"n_samples": 2, "max_cycles": 10**333}}, "max_cycles must be below"),
    ("optimize", {"optimize": {"omega3": 1.0, "budget": 4}}, "optimize.omega3 must lie"),
    ("optimize", {"optimize": {"omega3_sweep": [0.1, 1.0], "budget": 4}},
     "optimize.omega3_sweep must lie"),
    ("scan", {"scan": {"n_samples": 2, "beta1": -1}}, "scan.beta1 must be > 0"),
    ("optimize", {"optimize": {"omega3": 0.1, "beta1": -1, "budget": 4}},
     "optimize.beta1 must be > 0"),
    ("simulate", {"engine": []}, "engine must be an object"),
    ("optimize", {"optimize": []}, "optimize must be an object"),
    ("scan", {"scan": {"n_samples": 2, "min_alpha23_tau_c": NAN}}, "min_alpha23_tau_c"),
    ("scan", {"scan": {"n_samples": 2, "min_alpha23_tau_c": 1.0}}, "min_alpha23_tau_c"),
    ("simulate", {"engine": {"stop": {"rule": "work_non_negative", "eps_stop": NAN}}},
     "eps_stop"),
    ("scan", {"scan": {"n_samples": 2, "box": {"tau_h": [0.0, INF]}}},
     "tau_h interval .* non-finite endpoint"),
    # a box that draws tau_comp = 0 under a finite-time ramp: the batch of
    # draws refuses its first engine with the lone engine's text
    ("scan", {"scan": {"n_samples": 3, "ramp": "airy", "box": {"tau_comp": [0.0, 0.0]}}},
     "finite-time ramps need tau_comp > 0"),
]


class TestRefusedValues:
    @pytest.mark.parametrize("command, doc, names", REFUSED,
                             ids=[names.split(" ")[0] for _, _, names in REFUSED])
    def test_exits_2_naming_the_key(self, tmp_path, command, doc, names):
        cfg = write_cfg(tmp_path, {"schema_version": 1, **doc})
        start = time.perf_counter()
        code, err = run_quietly([command, "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 2, err
        assert re.search(names, err), err
        assert time.perf_counter() - start < 10.0


def small_copy(name):
    """A shipped config cut down to a fraction of a second of work."""
    doc = json.loads((CONFIGS / f"{name}.json").read_text())
    if "engine" in doc:
        doc["engine"]["max_cycles"] = 2
        if doc["engine"]["stop"]["rule"] == "fixed_cycles":
            doc["engine"]["stop"]["n"] = 2
    if "scan" in doc:
        doc["scan"].update(n_samples=2, max_cycles=2)
    if "optimize" in doc:
        doc["optimize"].update(budget=8, restarts=2,
                               omega3_sweep=doc["optimize"]["omega3_sweep"][:2])
    return doc


def key_paths(doc, prefix=()):
    for key, value in doc.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from key_paths(value, prefix + (key,))


FUZZ_CONFIGS = {"recurrence_140": "simulate", "optimized_run": "simulate",
                "zero_coupling": "simulate", "thermal_scan": "scan",
                "ratio_sweep": "optimize"}
# Wrong JSON types, a float where an integer belongs, non-finite and
# out-of-range numbers, and a list or a string in place of a section.
BAD_VALUES = ["x", True, None, [], [1.0], 1.5, NAN, INF, -INF, -1, 0, 1e308]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_config_fuzz_keeps_the_exit_code_contract(data):
    name = data.draw(st.sampled_from(sorted(FUZZ_CONFIGS)), label="config")
    doc = small_copy(name)
    path = data.draw(st.sampled_from(list(key_paths(doc))), label="key")
    value = data.draw(st.sampled_from(BAD_VALUES), label="value")
    section = doc
    for key in path[:-1]:
        section = section[key]
    section[path[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "cfg.json"
        cfg.write_text(json.dumps(doc))
        code, err = run_quietly([FUZZ_CONFIGS[name], "--config", str(cfg),
                                 "--out", str(Path(tmp) / "o")])
    assert code in (0, 2, 3), err
    assert "Traceback" not in err


class TestSimulate:
    def test_zero_coupling_run(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert simulate(str(CONFIGS / "zero_coupling.json"), out) == 0
        assert capsys.readouterr().out.startswith("simulate: 5 cycles")

        header, rows = read_rows(out / "cycles.csv")
        assert header == CYCLES_HEADER
        assert len(rows) == 5
        cols = dict(zip(CYCLES_HEADER.split(","), zip(*rows)))
        assert cols["cycle"] == ("0", "1", "2", "3", "4")
        zero = "0.000000000000e+00"
        for name in ("Q1", "Q2", "dU", "W_cycle", "W_cum"):
            assert cols[name][0] == zero
            # later cycles pick up rotation round-off at the 1e-16 level
            assert all(abs(float(v)) <= 1e-14 for v in cols[name])
        assert set(cols["W1"]) == {"4.500000000000e-01"}
        assert cols["eta"][0] == "nan"  # no heat moved, so no efficiency

        ts_header, ts_rows = read_rows(out / "timeseries.csv")
        assert ts_header == TIMESERIES_HEADER
        assert float(ts_rows[0][0]) == 0.0

        summary = json.loads((out / "summary.json").read_text())
        assert summary["schema_version"] == 1
        assert summary["n_cycles"] == 5
        assert summary["stop_reason"] == "fixed_cycles"
        assert abs(summary["totals"]["W_total"]) <= 1e-14
        assert abs(summary["ratio"]) <= 1e-15
        assert abs(summary["covariance_distance"]) <= 1e-12
        assert set(summary["discord_max"]) == {"D12", "D23", "D13"}
        assert all(abs(v) <= 1e-12 for v in summary["discord_max"].values())

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = str(CONFIGS / "zero_coupling.json")
        a, b = tmp_path / "a", tmp_path / "b"
        assert simulate(cfg, a) == 0
        assert simulate(cfg, b) == 0
        for name in ("cycles.csv", "timeseries.csv", "summary.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_cycles_override(self, tmp_path):
        cfg = str(CONFIGS / "zero_coupling.json")
        out = tmp_path / "o"
        assert simulate(cfg, out, "--cycles", "3") == 0
        _, rows = read_rows(out / "cycles.csv")
        assert len(rows) == 3

    def test_ramp_override_changes_the_compression_work(self, tmp_path):
        cfg = str(CONFIGS / "zero_coupling.json")
        qs, airy = tmp_path / "qs", tmp_path / "airy"
        assert simulate(cfg, qs) == 0
        assert simulate(cfg, airy, "--ramp", "airy") == 0
        w1 = [float(read_rows(d / "cycles.csv")[1][0][1]) for d in (qs, airy)]
        assert abs(w1[0] - w1[1]) > 1e-3

    def test_default_config_is_an_immediate_stop(self, tmp_path):
        out = tmp_path / "o"
        assert main(["simulate", "--out", str(out)]) == 0
        _, rows = read_rows(out / "cycles.csv")
        assert rows == []
        summary = json.loads((out / "summary.json").read_text())
        assert summary["n_cycles"] == 0
        assert summary["stop_reason"] == "work_non_negative"

    def test_best_known_point_summary(self, tmp_path):
        out = tmp_path / "o"
        assert simulate(str(CONFIGS / "optimized_run.json"), out) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["stop_reason"] == "work_non_negative"
        assert 69 <= summary["n_cycles"] <= 71
        assert_allclose(summary["ratio"], RATIO_BASELINE, rtol=1e-6)

        header, rows = read_rows(out / "cycles.csv")
        cols = dict(zip(header.split(","), zip(*rows)))
        w_sum = sum(float(v) for v in cols["W_cycle"])
        assert_allclose(w_sum, summary["totals"]["W_total"], atol=1e-9)
        assert_allclose(float(cols["W_cum"][-1]), summary["totals"]["W_total"],
                        rtol=1e-12)

        _, ts_rows = read_rows(out / "timeseries.csv")
        e3 = [float(r[3]) for r in ts_rows]
        assert max(e3) - min(e3) <= 1e-4  # leakage floor, ~3e-8 in practice


class TestScan:
    CFG = {"schema_version": 1, "seed": 7,
           "scan": {"n_samples": 8, "family": "thermal",
                    "ramp": "quasistatic"}}

    def run(self, cfg, out, *extra):
        return main(["scan", "--config", cfg, "--out", str(out), *extra])

    def test_outputs_and_determinism(self, tmp_path):
        cfg = write_cfg(tmp_path, self.CFG)
        a, b, c = (tmp_path / k for k in "abc")
        assert self.run(cfg, a) == 0
        assert self.run(cfg, b) == 0
        assert self.run(cfg, c, "--workers", "2") == 0
        header, rows = read_rows(a / "scan.csv")
        assert header == SCAN_HEADER
        assert len(rows) == 8
        assert (a / "scan.csv").read_bytes() == (b / "scan.csv").read_bytes()
        assert (a / "scan.csv").read_bytes() == (c / "scan.csv").read_bytes()

    def test_seed_override_changes_the_draws(self, tmp_path):
        cfg = write_cfg(tmp_path, self.CFG)
        a, b = tmp_path / "a", tmp_path / "b"
        assert self.run(cfg, a) == 0
        assert self.run(cfg, b, "--seed", "99") == 0
        assert (a / "scan.csv").read_bytes() != (b / "scan.csv").read_bytes()


class TestOptimize:
    def test_pinned_point(self, tmp_path):
        doc = {"schema_version": 1, "seed": 0,
               "optimize": {"omega3": 0.1, "budget": 4, "restarts": 1,
                            "box": PUBLISHED_BOX}}
        cfg = write_cfg(tmp_path, doc)
        out = tmp_path / "o"
        assert main(["optimize", "--config", cfg, "--out", str(out)]) == 0

        best = json.loads((out / "best_params.json").read_text())
        assert best["converged"] is True
        assert best["objective"] == "total_work"
        assert best["evaluations"] == 1
        assert_allclose(best["ratio"], RATIO_BASELINE, rtol=1e-6)
        assert best["best_params"]["omega3"] == 0.1
        assert best["best_params"]["alpha12"] == 0.038
        assert best["best_params"]["ramp"] == "quasistatic"

        header, rows = read_rows(out / "trace.csv")
        assert header == "evaluation,best_value"
        assert rows[0][0] == "1"
        assert_allclose(float(rows[0][1]), best["w_total"], rtol=1e-12)

    def test_sweep_mode(self, tmp_path):
        doc = {"schema_version": 1, "seed": 0,
               "optimize": {"omega3_sweep": [0.1], "budget": 4, "restarts": 1,
                            "objective": "work_ergotropy_ratio",
                            "box": PUBLISHED_BOX}}
        cfg = write_cfg(tmp_path, doc)
        out = tmp_path / "o"
        assert main(["optimize", "--config", cfg, "--out", str(out)]) == 0
        header, rows = read_rows(out / "ratio_vs_omega3.csv")
        assert header == "omega3,ratio,w_total,cycles,evaluations,converged"
        assert len(rows) == 1
        assert_allclose(float(rows[0][1]), RATIO_BASELINE, rtol=1e-6)
        assert rows[0][5] == "1"

    def test_without_omega3_searches_the_default_omega3_interval(self, tmp_path):
        doc = {"schema_version": 1, "seed": 0,
               "optimize": {"budget": 4, "restarts": 1, "box": PUBLISHED_BOX}}
        out = tmp_path / "o"
        assert main(["optimize", "--config", write_cfg(tmp_path, doc), "--out", str(out)]) == 0
        best = json.loads((out / "best_params.json").read_text())
        assert best["evaluations"] == 4
        assert 0.01 <= best["best_params"]["omega3"] <= 0.99
        assert best["best_params"]["alpha12"] == 0.038


class TestParser:
    def test_one_parser_serves_every_call_and_keeps_no_state(self, capsys):
        parser = cli.build_parser()
        assert cli.build_parser() is parser
        first = parser.parse_args(["scan", "--workers", "2", "--seed", "7"])
        with pytest.raises(SystemExit):
            parser.parse_args(["scan", "--cycles", "3"])  # not a scan flag
        again = parser.parse_args(["scan"])
        assert (first.workers, first.seed) == (2, 7)
        assert (again.workers, again.seed, again.command) == (1, None, "scan")
        assert parser.parse_args(["validate"]).command == "validate"

    def test_main_runs_the_command_bound_at_call_time(self, monkeypatch, tmp_path):
        # a tracer or a test that rebinds cmd_simulate must see the call
        calls = []
        original = cli.cmd_simulate

        def wrapper(args):
            calls.append(args.command)
            return original(args)

        monkeypatch.setattr(cli, "cmd_simulate", wrapper)
        cfg = str(CONFIGS / "zero_coupling.json")
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        assert calls == ["simulate"]


class TestValidate:
    def test_all_checks_pass(self, capsys):
        assert main(["validate"]) == 0
        out = capsys.readouterr().out
        assert out.count("[PASS]") == 5
        assert "[FAIL]" not in out
        assert "all checks passed" in out

    def test_negative_control_breaks_the_symplectic_check(self, capsys):
        assert main(["validate", "--perturb", "1e-3"]) == 3
        out = capsys.readouterr().out
        assert "[FAIL] ramp symplectic defect" in out


class TestNumericalFailureExit:
    def test_unphysical_squeezing_exits_3(self, tmp_path, capsys):
        doc = base_config()
        doc["preparation"] = {"family": "squeezed", "r1": 400.0,
                              "omega3": 0.1}
        assert simulate(write_cfg(tmp_path, doc), tmp_path / "o") == 3
        assert "numerical error" in capsys.readouterr().err

    def test_missing_subcommand_is_an_argparse_exit(self):
        with pytest.raises(SystemExit):
            main([])

    @pytest.mark.parametrize("argv", [
        ["simulate", "--seed", "1"],
        ["optimize", "--workers", "2"],
        ["scan", "--ramp", "airy"],
        ["validate", "--config", "/nonexistent"],
    ], ids=lambda argv: argv[0])
    def test_flag_the_subcommand_does_not_read_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {argv[1]}" in capsys.readouterr().err


class TestRampAndSampleRejection:
    def test_unknown_ramp_in_scan_config(self, tmp_path):
        cfg = write_cfg(tmp_path, {"schema_version": 1,
                                   "scan": {"n_samples": 2, "ramp": "adiabatic"}})
        assert main(["scan", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_unknown_ramp_in_optimize_config(self, tmp_path):
        for ramp in ("adiabatic", ["quasistatic"]):
            cfg = write_cfg(tmp_path, {"schema_version": 1,
                                       "optimize": {"omega3": 0.1, "budget": 2,
                                                    "ramp": ramp}})
            assert main(["optimize", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_too_fine_sample_dt(self, tmp_path):
        doc = base_config(sample_dt=1e-7, tau_h=0.59)
        assert simulate(write_cfg(tmp_path, doc), tmp_path / "o") == 2


class TestCsvWriter:
    """One writer formats every artifact; its bytes are those of the
    per-value f-string formatting it replaced."""

    EDGES = [math.nan, 0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324,
             2.2250738585072014e-308 / 3, 1.7976931348623157e308,
             -1.7976931348623157e308, 1e-300, 123456.789012345678, -1.0 / 3]

    @staticmethod
    def reference(header, columns, integer):
        lines = [header]
        for row in zip(*columns):
            lines.append(",".join(f"{v}" if j in integer else f"{v:.12e}"
                                  for j, v in enumerate(row)))
        return "".join(line + "\n" for line in lines)

    def test_edge_values_and_integer_columns(self, tmp_path):
        rng = np.random.default_rng(3)
        n = 2 * cli._BLOCK_ROWS + 17
        floats = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
        floats[:len(self.EDGES)] = self.EDGES
        edges_late = np.resize(self.EDGES, n)
        ints = rng.integers(-2**52, 2**52, n)
        ints[:4] = [0, -1, 2**53 - 1, -(2**53 - 1)]
        columns = [np.arange(n), floats, ints, edges_late]
        path = tmp_path / "t.csv"
        cli._write_csv(path, "i,x,k,y", columns)
        want = self.reference("i,x,k,y", [c.tolist() for c in columns], {0, 2})
        assert path.read_bytes() == want.encode()

    def test_no_rows_writes_the_header_only(self, tmp_path):
        path = tmp_path / "t.csv"
        cli._write_csv(path, "a,b", [np.empty(0, dtype=int), np.empty(0)])
        assert path.read_bytes() == b"a,b\n"

    def test_record_columns_keep_integers_and_map_none_to_nan(self):
        class Rec:
            def __init__(self, index, eta):
                self.index, self.eta = index, eta

        @dataclasses.dataclass
        class Row:
            index: int
            eta: "float | None"

        cols = cli._field_columns([Rec(3, None), Rec(4, 0.5)], Row)
        assert cols[0].dtype.kind == "i" and cols[0].tolist() == [3, 4]
        assert math.isnan(cols[1][0]) and cols[1][1] == 0.5

    def assert_float_column(self, values):
        """One float column, written whole, equals the f-string bytes."""
        x = np.asarray(values, dtype=float)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.csv"
            cli._write_csv(path, "x", [x])
            got = path.read_bytes()
        assert got == self.reference("x", [x.tolist()], set()).encode()

    @settings(max_examples=200)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
    def test_any_bit_pattern(self, bits):
        self.assert_float_column(np.array(bits, dtype=np.uint64).view(np.float64))

    def test_every_decimal_exponent_next_to_its_power_of_ten(self):
        values = []
        for k in range(-323, 309):
            power = float(f"1e{k}")
            for toward in (0.0, math.inf):
                v = power
                for _ in range(4):
                    v = math.nextafter(v, toward)
                    values.append(v)
            values.append(power)
            # up to 1e-13 below a large power, log10 can round onto the power
            # while the 13 digits are 9999999999999 of the exponent below
            values += [power * (1 + j * 1e-15) for j in range(-100, 101, 5)]
        self.assert_float_column(values + [-v for v in values])

    def test_exact_ties_go_to_python_and_round_half_even(self, monkeypatch):
        # m / 2**14 for odd m in [1639, 16384) has exactly 14 significant
        # digits ending in 5: a tie at 13
        ties = [1234567890123.5, 1234567890124.5] + [m / 2**14 for m in range(1639, 16384, 2)]
        for v in ties:
            digits = decimal.Decimal(v).normalize().as_tuple().digits
            assert len(digits) == 14 and digits[-1] == 5
        assert [f"{v:.12e}" for v in ties[:2]] == ["1.234567890124e+12"] * 2
        put = []
        monkeypatch.setattr(cli, "_put_strings",
                            lambda cells, where, strings: put.append(where.tolist()))
        cli._float_cells(np.array(ties))
        assert put == [list(range(len(ties)))]
        monkeypatch.undo()
        self.assert_float_column(ties + [-v for v in ties])

    def test_special_values_raise_no_warning(self):
        values = [math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324,
                  -2.2250738585072014e-308 / 7, 1e-281, 1e281]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            self.assert_float_column(values)

    @pytest.mark.parametrize("rows", [1, 7, 1024])
    def test_bytes_do_not_depend_on_the_block_size(self, tmp_path, monkeypatch, rows):
        rng = np.random.default_rng(11)
        n = 60
        floats = rng.standard_normal(n) * 10.0 ** rng.integers(-20, 20, n)
        floats[:len(self.EDGES)] = self.EDGES
        columns = [np.arange(n) - 30, floats, rng.integers(-10**18, 10**18, n),
                   np.resize(self.EDGES, n)[::-1].copy()]
        monkeypatch.setattr(cli, "_BLOCK_ROWS", rows)
        path = tmp_path / "t.csv"
        cli._write_csv(path, "i,x,k,y", columns)
        want = self.reference("i,x,k,y", [c.tolist() for c in columns], {0, 2})
        assert path.read_bytes() == want.encode()

    def test_recurrence_artifacts_equal_the_reference(self, tmp_path):
        config = str(CONFIGS / "recurrence_140.json")
        assert simulate(config, tmp_path) == 0
        params = cli.build_engine_params(load_config(config),
                                         argparse.Namespace(ramp=None, cycles=None))
        result = Engine(params).run()
        cycles = cli._field_columns(result.records, CycleRecord)
        assert (tmp_path / "cycles.csv").read_bytes() == self.reference(
            CYCLES_HEADER, [c.tolist() for c in cycles], {0}).encode()
        series = [c.tolist() for c in result.timeseries.columns()]
        assert (tmp_path / "timeseries.csv").read_bytes() == self.reference(
            TIMESERIES_HEADER, series, set()).encode()


def test_artifacts_end_lines_with_newline_only(tmp_path, monkeypatch):
    """Text files opened without newline= would write "\\r\\n" on Windows;
    emulated here by opening them with newline="\\r\\n"."""
    def crlf_open(file, mode="r", *args, newline=None, **kwargs):
        if "b" not in mode and newline is None:
            newline = "\r\n"
        return open(file, mode, *args, newline=newline, **kwargs)

    monkeypatch.setattr(cli, "open", crlf_open, raising=False)
    assert simulate(str(CONFIGS / "zero_coupling.json"), tmp_path / "s") == 0
    doc = {"schema_version": 1, "seed": 0,
           "optimize": {"omega3": 0.1, "budget": 4, "restarts": 1, "box": PUBLISHED_BOX}}
    cfg = write_cfg(tmp_path, doc)
    assert main(["optimize", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    written = sorted((tmp_path / "s").iterdir()) + sorted((tmp_path / "o").iterdir())
    assert [p.name for p in written] == ["cycles.csv", "summary.json", "timeseries.csv",
                                         "best_params.json", "trace.csv"]
    for path in written:
        assert b"\r" not in path.read_bytes(), path.name


FROZEN_SIMULATE = Path(__file__).resolve().parent / "data" / "simulate_frozen.json"


def artifact_digest(out_dir):
    """Numeric contents of one simulate output directory: every summary
    number, and per CSV its row count, per-column sums of |value| and rows
    sampled at a fixed stride (plus the last row)."""
    out_dir = Path(out_dir)
    doc = {"summary": json.loads((out_dir / "summary.json").read_text())}
    for name in ("cycles", "timeseries"):
        header, *rows = (out_dir / f"{name}.csv").read_text().splitlines()
        table = np.array([[float(v) for v in row.split(",")] for row in rows])
        stride = max(1, len(rows) // 16)
        doc[name] = {"header": header, "rows": len(rows),
                     "abs_sum": np.abs(table).sum(axis=0).tolist(),
                     "sampled": table[::stride].tolist() + [table[-1].tolist()]}
    return doc


class TestPinnedSimulateContents:
    """simulate's numbers on three shipped configs, frozen from a reference
    run, at rtol 1e-10 (absolute 1e-12 near zero): a refactor that moves
    results by more than rounding fails here even when its reruns agree."""

    @pytest.mark.parametrize("config", ["zero_coupling", "optimized_run", "recurrence_140"])
    def test_contents_match_frozen(self, tmp_path, config):
        frozen = json.loads(FROZEN_SIMULATE.read_text())[config]
        assert simulate(str(CONFIGS / f"{config}.json"), tmp_path) == 0
        assert_numbers_close(artifact_digest(tmp_path), frozen, config)


class TestProductStateCorrelations:
    def test_zero_coupling_scores_exactly_zero(self, tmp_path):
        # no coupling keeps the three modes a product state: C = 0 in every pair
        assert simulate(str(CONFIGS / "zero_coupling.json"), tmp_path) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert set(summary["discord_max"].values()) == {0.0}
        assert set(summary["negativity_max"].values()) == {0.0}
        for name, first in (("cycles", "D12max"), ("timeseries", "D12")):
            header, *rows = (tmp_path / f"{name}.csv").read_text().splitlines()
            col = header.split(",").index(first)
            assert {float(v) for row in rows for v in row.split(",")[col:col + 6]} == {0.0}


class TestErgotropyFailureExit:
    def test_flat_spectrum_exits_3_with_convergence_error(self, tmp_path, capsys):
        # nbar = 1e17: nbar / (1 + nbar) rounds to 1, and the summary's
        # ergotropy refuses it instead of dividing by log(1.0); the failed
        # run writes no artifact
        doc = base_config()
        doc["preparation"]["beta1"] = 1e-17
        assert simulate(write_cfg(tmp_path, doc), tmp_path / "o") == 3
        assert "ConvergenceError" in capsys.readouterr().err
        assert list((tmp_path / "o").iterdir()) == []


class TestZeroTemperature:
    def test_hot_mode_past_the_overflow_point_runs(self, tmp_path):
        # beta1 * omega1 past expm1's overflow: an empty hot mode, not a failure
        doc = base_config()
        doc["preparation"]["beta1"] = 1e308
        assert simulate(write_cfg(tmp_path, doc), tmp_path / "o") == 0
        summary = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert summary["ergotropy"] == 0.0
