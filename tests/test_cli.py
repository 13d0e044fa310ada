import json
import os

import numpy as np
import pytest

from persymdet.cli import main


def _write(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def _body(path):
    return path.read_bytes()


BASE = {"n": 8, "k": 16, "rho": 0.5, "cnr_db": 5.0}


class TestInvarianceCheck:
    def test_default_config_passes(self, tmp_path, capsys):
        cfg = _write(tmp_path / "c.json", {**BASE, "trials": 25})
        assert main(["invariance-check", "--config", cfg, "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "mis-invariance" in out and "PASS" in out and "FAIL" not in out
        assert "interlacing" in out and "subaction-factorization" in out

    def test_two_channels_is_config_error(self, tmp_path, capsys):
        cfg = _write(tmp_path / "c.json", {"n": 2, "k": 8, "trials": 5})
        assert main(["invariance-check", "--config", cfg]) == 2
        assert "degenerate" in capsys.readouterr().err.lower()

    def test_injected_noninvariant_fails(self, tmp_path, capsys):
        cfg = _write(tmp_path / "c.json", {**BASE, "trials": 5, "debug_noninvariant": True})
        assert main(["invariance-check", "--config", cfg]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_json_summary(self, tmp_path):
        cfg = _write(tmp_path / "c.json", {**BASE, "trials": 5})
        out = tmp_path / "summary.json"
        assert main(["invariance-check", "--config", cfg, "--out", str(out)]) == 0
        summary = json.loads(out.read_text())
        assert summary["all_passed"]
        assert len(summary["suites"]) == 10


class TestCfar:
    CFG = {**BASE, "trials": 2000, "pfa": 0.05,
           "gamma_grid": [0.5, 1.0], "rho_grid": [0.0, 0.9]}

    def test_headline_shape(self, tmp_path):
        cfg = _write(tmp_path / "c.json", self.CFG)
        out = tmp_path / "cfar.csv"
        code = main(["cfar", "--config", cfg, "--out", str(out), "--seed", "11"])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "detector,gamma,rho,pfa_hat,ci_lo,ci_hi,pass"
        assert len(lines) == 1 + 4 * 4  # four detectors x four cells

    def test_single_detector(self, tmp_path):
        cfg = _write(tmp_path / "c.json", {**self.CFG, "detector": "wald"})
        out = tmp_path / "cfar.csv"
        assert main(["cfar", "--config", cfg, "--out", str(out), "--seed", "1"]) == 0
        assert len(out.read_text().splitlines()) == 1 + 4

    def test_negative_control_exits_one(self, tmp_path):
        cfg = _write(tmp_path / "c.json", {**self.CFG, "gamma_grid": [0.25, 1.0],
                                           "detector": "trace-psi0"})
        out = tmp_path / "cfar.csv"
        assert main(["cfar", "--config", cfg, "--out", str(out), "--seed", "1"]) == 1

    def test_empty_grid_is_config_error(self, tmp_path):
        cfg = _write(tmp_path / "c.json", {**self.CFG, "gamma_grid": []})
        assert main(["cfar", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2

    def test_unwritable_output_is_io_error(self, tmp_path):
        cfg = _write(tmp_path / "c.json", self.CFG)
        assert main(["cfar", "--config", cfg, "--out", "/nonexistent/dir/x.csv"]) == 3

    def test_reruns_are_byte_identical_across_workers(self, tmp_path):
        cfg = _write(tmp_path / "c.json", self.CFG)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["cfar", "--config", cfg, "--out", str(a), "--seed", "5", "--workers", "1"])
        main(["cfar", "--config", cfg, "--out", str(b), "--seed", "5", "--workers", "3"])
        assert _body(a) == _body(b)

    def test_manifest_written(self, tmp_path):
        cfg = _write(tmp_path / "c.json", self.CFG)
        out = tmp_path / "cfar.csv"
        main(["cfar", "--config", cfg, "--out", str(out), "--seed", "5"])
        manifest = json.loads((tmp_path / "cfar.csv.manifest.json").read_text())
        assert manifest["command"] == "cfar"
        assert manifest["outputs"] == [str(out)]
        assert manifest["master_seed"] == 5

    def test_manifest_records_workers_and_environment(self, tmp_path):
        cfg = _write(tmp_path / "c.json", self.CFG)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["cfar", "--config", cfg, "--out", str(a), "--seed", "5", "--workers", "1"])
        main(["cfar", "--config", cfg, "--out", str(b), "--seed", "5", "--workers", "3"])
        manifest = json.loads((tmp_path / "b.csv.manifest.json").read_text())
        assert manifest["workers"] == 3
        env = manifest["environment"]
        assert set(env) == {"python", "numpy", "scipy", "blas", "blas_version", "cpu_count"}
        assert env["numpy"] == np.__version__ and env["cpu_count"] == os.cpu_count()
        assert env["blas"]
        # how a run was executed stays out of the results
        assert _body(a) == _body(b)
        assert np.__version__ not in b.read_text()

    @pytest.mark.parametrize("trials", [0, -5])
    def test_nonpositive_trials_is_config_error(self, tmp_path, capsys, trials):
        cfg = _write(tmp_path / "c.json", {**self.CFG, "trials": trials})
        out = tmp_path / "x.csv"
        assert main(["cfar", "--config", cfg, "--out", str(out)]) == 2
        assert "trials must be >= 1" in capsys.readouterr().err
        assert not out.exists()


class TestRoc:
    CFG = {**BASE, "trials": 2000, "pfa_grid": [0.05, 0.2], "sinr_db": 10.0,
           "detector": "glr"}

    def test_valid_run(self, tmp_path):
        cfg = _write(tmp_path / "c.json", self.CFG)
        out = tmp_path / "roc.csv"
        assert main(["roc", "--config", cfg, "--out", str(out), "--seed", "2"]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "detector,sinr_db,pfa,pd,ci_lo,ci_hi"
        assert len(lines) == 3

    def test_sinr_grid(self, tmp_path):
        payload = dict(self.CFG)
        payload.pop("sinr_db")
        payload["sinr_grid"] = [5.0, 15.0]
        cfg = _write(tmp_path / "c.json", payload)
        out = tmp_path / "roc.csv"
        assert main(["roc", "--config", cfg, "--out", str(out), "--seed", "2"]) == 0
        assert len(out.read_text().splitlines()) == 5

    def test_bad_pfa_grid(self, tmp_path):
        cfg = _write(tmp_path / "c.json", {**self.CFG, "pfa_grid": [0.5, 1.5]})
        assert main(["roc", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2

    def test_determinism(self, tmp_path):
        cfg = _write(tmp_path / "c.json", self.CFG)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["roc", "--config", cfg, "--out", str(a), "--seed", "9", "--workers", "1"])
        main(["roc", "--config", cfg, "--out", str(b), "--seed", "9", "--workers", "2"])
        assert _body(a) == _body(b)

    @pytest.mark.parametrize("trials", [0, -5])
    def test_nonpositive_trials_is_config_error(self, tmp_path, capsys, trials):
        cfg = _write(tmp_path / "c.json", {**self.CFG, "trials": trials})
        out = tmp_path / "x.csv"
        assert main(["roc", "--config", cfg, "--out", str(out)]) == 2
        assert "trials must be >= 1" in capsys.readouterr().err
        assert not out.exists()


class TestMisSample:
    CFG = {**BASE, "trials": 40}

    def test_row_count_and_invariant_ordering(self, tmp_path):
        cfg = _write(tmp_path / "c.json", self.CFG)
        out = tmp_path / "mis.csv"
        assert main(["mis-sample", "--config", cfg, "--out", str(out), "--seed", "4"]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "trial,hypothesis,t1,t2,t3,lambda1,lambda2,lambda3,lambda4"
        assert len(lines) == 1 + 40
        for line in lines[1:]:
            parts = line.split(",")
            assert parts[1] == "H0"
            t1, t2, t3 = float(parts[2]), float(parts[3]), float(parts[4])
            assert t1 >= t3 >= t2 >= 1.0 - 1e-10

    def test_h1_label(self, tmp_path):
        cfg = _write(tmp_path / "c.json", {**self.CFG, "sinr_db": 10.0})
        out = tmp_path / "mis.csv"
        main(["mis-sample", "--config", cfg, "--out", str(out)])
        assert out.read_text().splitlines()[1].split(",")[1] == "H1"

    def test_determinism(self, tmp_path):
        cfg = _write(tmp_path / "c.json", self.CFG)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["mis-sample", "--config", cfg, "--out", str(a), "--seed", "6"])
        main(["mis-sample", "--config", cfg, "--out", str(b), "--seed", "6", "--workers", "4"])
        assert _body(a) == _body(b)

    def test_two_channels_rejected(self, tmp_path):
        cfg = _write(tmp_path / "c.json", {"n": 2, "k": 8, "trials": 5})
        assert main(["mis-sample", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2

    @pytest.mark.parametrize("trials", [0, -5])
    def test_nonpositive_trials_is_config_error(self, tmp_path, capsys, trials):
        cfg = _write(tmp_path / "c.json", {**self.CFG, "trials": trials})
        out = tmp_path / "x.csv"
        assert main(["mis-sample", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "trials must be >= 1" in err and "Traceback" not in err
        assert not out.exists()

    def test_too_few_secondaries_is_config_error(self, tmp_path, capsys):
        cfg = _write(tmp_path / "c.json", {"n": 8, "k": 3, "trials": 5})
        assert main(["mis-sample", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert "2K >= N" in err and "Traceback" not in err


class TestConfigHandling:
    def test_missing_file(self, tmp_path):
        assert main(["cfar", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "x.csv")]) == 2

    def test_invalid_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["cfar", "--config", str(bad), "--out", str(tmp_path / "x.csv")]) == 2

    def test_unknown_key(self, tmp_path):
        cfg = _write(tmp_path / "c.json", {**BASE, "trials": 5, "typo_key": 1})
        assert main(["mis-sample", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2

    def test_alpha_and_sinr_conflict(self, tmp_path):
        cfg = _write(tmp_path / "c.json",
                     {**BASE, "trials": 5, "alpha_re": 1.0, "sinr_db": 3.0})
        assert main(["mis-sample", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2

    def test_missing_required_key(self, tmp_path):
        cfg = _write(tmp_path / "c.json", {"n": 8, "k": 16})
        assert main(["cfar", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2

    @pytest.mark.parametrize("workers", ["0", "-3"])
    @pytest.mark.parametrize("command", ["cfar", "roc", "mis-sample"])
    def test_nonpositive_workers_is_config_error(self, tmp_path, capsys, command, workers):
        cfg = _write(tmp_path / "c.json", {**BASE, "trials": 10})
        out = tmp_path / "x.csv"
        code = main([command, "--config", cfg, "--out", str(out), "--workers", workers])
        assert code == 2
        assert "--workers must be >= 1" in capsys.readouterr().err
        assert not out.exists()


# every numeric config field of each command, and the base config it is set in
_NUMERIC_FIELDS = {
    "invariance-check": ({**BASE, "trials": 5}, ("n", "k", "rho", "doppler_fc",
                          "cnr_db", "gamma", "nu", "alpha_re", "alpha_im", "trials")),
    "cfar": (TestCfar.CFG, ("pfa", "gamma_grid", "rho_grid", "sinr_db", "n", "rho")),
    "roc": (TestRoc.CFG, ("pfa_grid", "sinr_grid", "sinr_db", "alpha_re", "k", "gamma")),
    "mis-sample": ({**BASE, "trials": 5}, ("alpha_re", "alpha_im", "sinr_db", "cnr_db",
                    "nu", "trials")),
}
_GRIDS = {"gamma_grid", "rho_grid", "pfa_grid", "sinr_grid"}


@pytest.mark.parametrize(
    "command, field, value",
    [
        (command, field, value)
        for command, (_, fields) in _NUMERIC_FIELDS.items()
        for field in fields
        for value in ((5, "abc", ["x"], [None]) if field in _GRIDS else ("abc", None, [1.0]))
    ],
    ids=lambda v: v if isinstance(v, str) else json.dumps(v),
)
def test_non_numeric_field_is_config_error(tmp_path, capsys, command, field, value):
    base, _ = _NUMERIC_FIELDS[command]
    cfg = _write(tmp_path / "c.json", {**base, field: value})
    out = tmp_path / "x.out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err
    assert not out.exists()
