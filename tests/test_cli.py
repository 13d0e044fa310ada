import json
import os
import subprocess
import sys

import numpy as np
import pytest

from persymdet import detectors, group
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

    def test_nan_detector_fails(self, tmp_path, capsys, monkeypatch):
        # a NaN deviation is no invariance: it must fail, not drop out of a max
        values = detectors._values
        nan = lambda name, *a, **kw: float("nan") if name == "wald" else values(name, *a, **kw)
        monkeypatch.setattr(detectors, "_values", nan)
        cfg = _write(tmp_path / "c.json", {**BASE, "trials": 5})
        assert main(["invariance-check", "--config", cfg]) == 1
        wald = [line for line in capsys.readouterr().out.splitlines() if "[wald]" in line]
        assert len(wald) == 2 and all(line.endswith("FAIL") for line in wald)

    @pytest.mark.parametrize("debug", [False, True])
    def test_one_draw_per_action_and_reruns_identical(self, tmp_path, monkeypatch, debug):
        # 10 elements per statistic move every suite at once; 1 more for factorization
        calls = []
        sample = group.sample_group_element
        counted = lambda *a, **kw: calls.append(1) or sample(*a, **kw)
        monkeypatch.setattr(group, "sample_group_element", counted)
        cfg = _write(tmp_path / "c.json", {**BASE, "trials": 4, "debug_noninvariant": debug})
        for run in range(2):
            out = str(tmp_path / f"{run}.json")
            assert main(["invariance-check", "--config", cfg, "--out", out]) == int(debug)
        assert len(calls) == 2 * 11 * 4
        assert (tmp_path / "0.json").read_bytes() == (tmp_path / "1.json").read_bytes()

    def test_json_summary(self, tmp_path):
        cfg = _write(tmp_path / "c.json", {**BASE, "trials": 5})
        out = tmp_path / "summary.json"
        assert main(["invariance-check", "--config", cfg, "--out", str(out)]) == 0
        summary = json.loads(out.read_text())
        assert summary["all_passed"]
        assert len(summary["suites"]) == 11
        assert "form-identity[rao]" in [s["suite"] for s in summary["suites"]]


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

    @pytest.mark.parametrize(
        "change, message",
        [({"sinr_grid": []}, "sinr_grid must be nonempty"),
         ({"detector": "bogus"}, "unknown detector 'bogus'"),
         ({"sinr_grid": [], "detector": "bogus"}, "unknown detector 'bogus'")],
    )
    def test_empty_sinr_grid_or_unknown_detector(self, tmp_path, capsys, change, message):
        # no curve runs for an empty grid, so the detector is checked up front
        cfg = _write(tmp_path / "c.json", {**self.CFG, **change})
        out = tmp_path / "x.csv"
        assert main(["roc", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {message}")
        assert not out.exists()

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

    def test_overflowing_scatter_message_is_plain(self, tmp_path, capsys):
        # gamma = 1e308 overflows S; the Schur complement prints as a float
        cfg = _write(tmp_path / "c.json", {**self.CFG, "gamma": 1e308})
        out = tmp_path / "x.csv"
        with pytest.warns(RuntimeWarning, match="overflow"):
            assert main(["mis-sample", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "config error: trial 0: Schur complement of S22 is nan\n"
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

    @pytest.mark.parametrize(
        "command, field, value",
        [("cfar", "detector", v) for v in (5, None, [], ["glr", 5], {"glr": 1})]
        + [("roc", "detector", v) for v in (["glr"], 5, None)]
        + [("invariance-check", "debug_noninvariant", v) for v in ("false", 0, 1, None)],
        ids=lambda v: v if isinstance(v, str) else json.dumps(v),
    )
    def test_malformed_choice_is_config_error(self, tmp_path, capsys, command, field, value):
        base = {"cfar": TestCfar.CFG, "roc": TestRoc.CFG, "invariance-check": {**BASE, "trials": 5}}
        cfg = _write(tmp_path / "c.json", {**base[command], field: value})
        out = tmp_path / "x.out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {field} must be") and "Traceback" not in err
        assert not out.exists()

    def test_well_formed_choices_accepted(self, tmp_path):
        cfg = _write(tmp_path / "c.json", {**TestCfar.CFG, "detector": ["wald", "glr"]})
        out = tmp_path / "cfar.csv"
        assert main(["cfar", "--config", cfg, "--out", str(out), "--seed", "1"]) == 0
        rows = out.read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["wald"] * 4 + ["glr"] * 4
        cfg = _write(tmp_path / "i.json", {**BASE, "trials": 5, "debug_noninvariant": False})
        assert main(["invariance-check", "--config", cfg]) == 0


@pytest.mark.parametrize(
    "command, payload, drawn",
    [
        # a 2 x 2 grid holding the reference cell (gamma = 1, first rho):
        # calibration plus the three other cells; the reference reuses it
        ("cfar", TestCfar.CFG, 2000 + 2000 * (4 - 1)),
        # an H0 and an H1 sample per SINR
        ("roc", {**TestRoc.CFG, "trials": 100, "sinr_grid": [5.0, 15.0]}, 2 * 2 * 100),
        ("mis-sample", {**BASE, "trials": 40}, 40),
        ("invariance-check", {**BASE, "trials": 3}, 3),
    ],
)
def test_manifest_records_trials_drawn(tmp_path, command, payload, drawn):
    cfg = _write(tmp_path / "c.json", payload)
    out = tmp_path / "x.out"
    main([command, "--config", cfg, "--out", str(out), "--seed", "3"])
    manifest = json.loads((tmp_path / "x.out.manifest.json").read_text())
    assert manifest["trials"] == drawn
    assert manifest["trials_per_s"] == drawn / manifest["duration_seconds"]


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
_COUNTS = {"n", "k", "trials"}


def _bad_values(field):
    if field in _GRIDS:
        return (5, "abc", ["x"], [None], [True], ["0.5"])
    if field in _COUNTS:
        return ("abc", None, [1.0], 8.7, "8.5", "8", "50", True)
    return ("abc", None, [1.0], True, "0.5")


@pytest.mark.parametrize(
    "command, field, value",
    [
        (command, field, value)
        for command, (_, fields) in _NUMERIC_FIELDS.items()
        for field in fields
        for value in _bad_values(field)
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


@pytest.mark.parametrize(
    "command, field, value, named",
    [
        ("roc", "sinr_db", float("nan"), "sinr_db"),
        ("roc", "sinr_db", 1e5, "sinr_db"),
        ("roc", "sinr_grid", [5.0, float("nan")], "sinr_db"),
        ("roc", "cnr_db", 1e5, "cnr_db"),
        ("roc", "cnr_db", float("nan"), "cnr_db"),
        ("cfar", "cnr_db", float("inf"), "cnr_db"),
        ("cfar", "gamma_grid", [1.0, float("inf")], "gamma"),
        ("mis-sample", "gamma", float("inf"), "gamma"),
        ("mis-sample", "alpha_re", float("nan"), "alpha"),
    ],
    ids=lambda v: v if isinstance(v, str) else json.dumps(v),
)
def test_non_finite_level_is_config_error(tmp_path, capsys, command, field, value, named):
    base = {"cfar": TestCfar.CFG, "roc": TestRoc.CFG, "mis-sample": TestMisSample.CFG}
    cfg = _write(tmp_path / "c.json", {**base[command], field: value})
    out = tmp_path / "x.out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {named} must be") and "Traceback" not in err
    assert not out.exists()


def test_integer_past_float_range_is_config_error(tmp_path, capsys):
    cfg = _write(tmp_path / "c.json", {**TestMisSample.CFG, "gamma": 10**400})
    out = tmp_path / "x.out"
    assert main(["mis-sample", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: gamma must be a number") and "Traceback" not in err
    assert not out.exists()


def test_import_leaves_scipy_stats_and_linalg_unloaded():
    # both take most of the start-up time; only the calls that need them load them
    import persymdet

    src = os.path.dirname(os.path.dirname(persymdet.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import sys, persymdet, persymdet.cli; "
        "print([m for m in ('scipy.stats', 'scipy.linalg') if m in sys.modules])"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, check=True)
    assert done.stdout.strip() == "[]"
