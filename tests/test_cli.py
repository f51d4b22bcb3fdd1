"""End-to-end runs of the console entry point, in process."""

import json
import math
from pathlib import Path

import pytest
from numpy.testing import assert_allclose

from otto3.cli import (CYCLES_HEADER, SCAN_HEADER, TIMESERIES_HEADER,
                       load_config, main)
from otto3.errors import ConfigError

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
