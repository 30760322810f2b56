"""Command-line interface: exit codes, schemas, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import thetacf
from thetacf import __version__
from thetacf.cli import main


def run(args):
    return main(args)


class TestValidation:
    def test_square_m_rejected(self, capsys):
        assert run(["expand", "--m", "4", "--x", "1/2"]) == 2
        assert "perfect square" in capsys.readouterr().err

    def test_point_outside_domain(self):
        assert run(["expand", "--m", "2", "--x", "0.99"]) == 2
        assert run(["expand", "--m", "2", "--x", "-1/3"]) == 2

    def test_bad_point_syntax(self):
        assert run(["expand", "--m", "2", "--x", "zebra"]) == 2

    def test_zero_samples(self):
        assert run(["ergodic", "--m", "2", "--samples", "0"]) == 2

    def test_too_few_samples_for_the_histogram(self, capsys):
        assert run(["ergodic", "--m", "2", "--samples", "10"]) == 2
        assert "--samples must be >= 10000" in capsys.readouterr().err

    def test_tolerance_must_be_finite(self, capsys):
        assert run(["constants", "--m", "2", "--tolerance", "nan"]) == 2
        assert run(["constants", "--m", "2", "--tolerance", "inf"]) == 2
        capsys.readouterr()

    def test_gk_degree_below_grid_minimum(self, capsys):
        assert run(["gk", "--m", "2", "--degree", "4"]) == 2
        assert "--degree" in capsys.readouterr().err

    def test_operator_degree_below_grid_minimum(self, capsys):
        assert run(["operator", "--m", "2", "--degree", "4"]) == 2
        assert "--degree" in capsys.readouterr().err

    def test_bad_subcommand(self, capsys):
        assert run(["frobnicate"]) == 2
        capsys.readouterr()

    def test_missing_m(self):
        assert run(["constants"]) == 2

    def test_flags_a_subcommand_does_not_read_are_rejected(self, capsys):
        # --tolerance belongs to constants and --seed to ergodic/operator
        assert run(["gk", "--m", "10", "--tolerance", "1e-6"]) == 2
        assert run(["expand", "--m", "2", "--x", "1/3", "--seed", "5"]) == 2
        capsys.readouterr()

    def test_success_exit_zero(self, tmp_path):
        assert run(["constants", "--m", "2", "--out", str(tmp_path / "c.json")]) == 0


class TestExpand:
    def test_digits_and_cylinder(self, tmp_path):
        out = tmp_path / "e.json"
        assert run(["expand", "--m", "2", "--x", "1/2", "--digits", "3", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["digits"] == [2, 2, 4]
        assert doc["terminated"] is False
        assert doc["version"] == __version__
        assert doc["cylinder"]["normalized_measure"] == "1/119"
        assert len(doc["convergents"]) == 3
        assert doc["convergents"][0]["q"]["b"] == "2"

    def test_decimal_input_snaps_with_notice(self, tmp_path):
        out = tmp_path / "e.json"
        assert run(["expand", "--m", "2", "--x", "0.33333333333333331", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["notice"] is not None

    def test_coefficient_input(self, tmp_path):
        out = tmp_path / "e.json"
        # x = 0 + (1/2)*theta
        assert run(["expand", "--m", "2", "--x", "0,1/2", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["x_value"]["b"] == "1/2"

    def test_float_backend(self, tmp_path):
        out = tmp_path / "e.json"
        assert run(["expand", "--m", "2", "--x", "1/2", "--backend", "float", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["digits"][:3] == [2, 2, 4]

    def test_csv_format(self, capsys):
        assert run(["expand", "--m", "2", "--x", "1/2", "--digits", "2", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "n,digit,p_float,q_float,ratio_float,error_float"
        assert len(lines) == 3

    def test_convergents_beyond_the_double_range(self, tmp_path, capsys):
        # q_n passes 1.8e308 well before these depths; the exact fields stay
        for m, x, digits in ((2, "1/3", 1500), (101, "1/50", 300)):
            out = tmp_path / f"deep{m}.json"
            assert run(["expand", "--m", str(m), "--x", x, "--digits", str(digits), "--out", str(out)]) == 0
            last = json.loads(out.read_text())["convergents"][-1]
            assert last["q"]["float"] is None and last["p"]["float"] is None
            assert len(last["q"]["a"]) + len(last["q"]["b"]) > 300
            assert 0.0 < last["ratio_float"] < 1.0
        assert run(["expand", "--m", "2", "--x", "1/3", "--digits", "1500", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1].split(",")[2:4] == ["", ""]
        assert float(lines[1].split(",")[3]) > 0.0  # early convergents keep their floats

    def test_decimal_below_resolution_is_rejected(self, tmp_path, capsys):
        assert run(["expand", "--m", "2", "--x", "1e-30", "--digits", "3"]) == 2
        err = capsys.readouterr().err
        assert "1e-9 resolution" in err and "'p/q,0'" in err and "x = 0" not in err
        out = tmp_path / "tiny.json"
        exact = "1/" + "1" + "0" * 30
        assert run(["expand", "--m", "2", "--x", exact + ",0", "--digits", "3", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["x_value"]["a"] == exact


class TestConstants:
    def test_quoted_values(self, tmp_path):
        out = tmp_path / "c.json"
        assert run(["constants", "--m", "10", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert abs(doc["theta"] - 0.316228) <= 1e-6
        assert abs(doc["q"] - 0.0533201) <= 5e-7
        assert doc["k_m"] == "1/11"
        assert doc["q_lt_theta"] is True
        assert set(doc["tolerances"]) == {"requested", "beta", "entropy", "khintchin_geo", "q"}

    def test_csv_format(self, capsys):
        assert run(["constants", "--m", "2", "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "key,value"
        assert any(line.startswith("q,") for line in out.splitlines())


class TestGk:
    def test_writes_csv_and_json(self, tmp_path):
        base = tmp_path / "gk10"
        assert run(["gk", "--m", "10", "--iterations", "6", "--out", str(base)]) == 0
        csv_lines = (tmp_path / "gk10.csv").read_text().splitlines()
        assert csv_lines[0] == "n,sup_error,ratio,M_n,q_reference"
        assert len(csv_lines) == 8  # header + 7 iterates
        doc = json.loads((tmp_path / "gk10.json").read_text())
        assert doc["monotone_to_floor"] is True
        assert doc["ratios_respect_q"] is True
        assert doc["config"]["start"] == "uniform"

    def test_gamma_start_sits_at_floor(self, tmp_path):
        base = tmp_path / "gkg"
        assert run(["gk", "--m", "10", "--iterations", "4", "--start", "gamma", "--out", str(base)]) == 0
        doc = json.loads((tmp_path / "gkg.json").read_text())
        assert all(e <= 1e-12 for e in doc["decay"]["sup_errors"])

    def test_custom_start_file(self, tmp_path):
        import numpy as np

        from thetacf import gamma_cdf, new_params
        from thetacf.operators import _cheb_machinery

        params = new_params(2)
        nodes = _cheb_machinery(2, 64)[0]
        mix = 0.5 * nodes / params.theta + 0.5 * gamma_cdf(nodes, params)
        start = tmp_path / "start.json"
        start.write_text(json.dumps({"values": list(mix)}))
        base = tmp_path / "gkc"
        assert run(["gk", "--m", "2", "--iterations", "5", "--start", str(start), "--out", str(base)]) == 0
        doc = json.loads((tmp_path / "gkc.json").read_text())
        errs = doc["decay"]["sup_errors"]
        assert errs[-1] < errs[0]

    def test_missing_start_file(self):
        assert run(["gk", "--m", "2", "--start", "/nonexistent/f.json"]) == 2

    def test_slow_contraction_still_monotone(self, tmp_path):
        base = tmp_path / "gk2"
        assert run(["gk", "--m", "2", "--iterations", "8", "--out", str(base)]) == 0
        doc = json.loads((tmp_path / "gk2.json").read_text())
        errs = doc["decay"]["sup_errors"]
        assert all(b < a for a, b in zip(errs, errs[1:]))
        assert doc["monotone_to_floor"] is True

    def test_non_default_degree(self, tmp_path):
        base = tmp_path / "gk32"
        assert run(["gk", "--m", "10", "--iterations", "6", "--degree", "32", "--out", str(base)]) == 0
        doc = json.loads((tmp_path / "gk32.json").read_text())
        assert doc["decay"]["degree"] == 32
        assert doc["monotone_to_floor"] is True

    def test_fast_contraction_verdicts_clean_at_large_m(self, tmp_path):
        # decay crosses the floor after ~4 steps; near-floor ratios must
        # not pollute the verdict
        base = tmp_path / "gk99"
        assert run(["gk", "--m", "99", "--iterations", "8", "--out", str(base)]) == 0
        doc = json.loads((tmp_path / "gk99.json").read_text())
        assert doc["monotone_to_floor"] is True
        assert doc["ratios_respect_q"] is True
        assert doc["first_below_floor"] is not None


class TestErgodic:
    def test_json_report(self, tmp_path):
        out = tmp_path / "e.json"
        assert (
            run(
                ["ergodic", "--m", "2", "--seeds", "3", "--n", "40", "--samples", "20000", "--seed", "3", "--out", str(out)]
            )
            == 0
        )
        doc = json.loads(out.read_text())
        assert doc["n_orbits"] == 3
        assert doc["float_digit_total"] >= 20000
        assert "two_beta" in doc["reference"]

    def test_histogram_csv_header(self, tmp_path):
        out = tmp_path / "h.csv"
        assert (
            run(
                ["ergodic", "--m", "2", "--seeds", "2", "--n", "30", "--samples", "15000", "--format", "csv", "--out", str(out)]
            )
            == 0
        )
        assert out.read_text().splitlines()[0] == "k,count,frequency,law,sigma"


class TestOperatorCommand:
    def test_check_table(self, tmp_path):
        out = tmp_path / "op.json"
        assert run(["operator", "--m", "2", "--count", "6", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["all_ok"] is True
        families = {c["family"] for c in doc["checks"]}
        assert families == {"normalization", "constant", "monotone", "lipschitz"}

    def test_single_family_csv(self, capsys):
        assert run(["operator", "--m", "2", "--family", "lipschitz", "--count", "4", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "family,label,metric,value,bound,ok"


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["ergodic", "--m", "2", "--seeds", "2", "--n", "30", "--samples", "15000", "--seed", "7"]
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_gk_byte_identical(self, tmp_path):
        r1, r2 = tmp_path / "r1", tmp_path / "r2"
        for r in (r1, r2):
            assert run(["gk", "--m", "2", "--iterations", "4", "--out", str(r)]) == 0
        assert (tmp_path / "r1.csv").read_bytes() == (tmp_path / "r2.csv").read_bytes()
        assert (tmp_path / "r1.json").read_bytes() == (tmp_path / "r2.json").read_bytes()


def test_runtime_imports_no_scipy():
    # numpy is the only runtime dependency; scipy serves the tests as a reference
    src = str(Path(thetacf.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, thetacf, thetacf.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
