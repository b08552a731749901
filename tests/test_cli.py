"""Config parsing, subcommand orchestration, and artifact emission tests."""

import os
import subprocess
import sys
import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bll.cli import _SCHEMA, ScenarioConfig, main, parse_config
from bll.errors import ConfigError
from bll.ob import TRACE_COLUMNS
from bll.thermo import EosParams

BASE = """\
[grid]
nx = 16
nz = 8

[forcing]
g = 1
theta_b_bottom = 0.2
theta_b_top = -0.2

[nsf]
eps = 0.2
t_end = 0.02

[ob]
dt = 0.001
t_end = 0.02

[output]
cadence = 0.01
formats = csv, dat
"""


def _write(tmp_path, text, name="scenario.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_parse_defaults_and_echo_roundtrip() -> None:
    cfg = parse_config("")
    assert isinstance(cfg, ScenarioConfig)
    assert (cfg.nx, cfg.nz, cfg.lx) == (32, 16, 1.0)
    assert cfg.eps == 0.1 and cfg.eps_list is None
    assert cfg.frame == "T" and cfg.formats == ("csv",)
    echo = cfg.echo()
    assert parse_config(echo) == cfg
    assert parse_config(echo).echo() == echo


def test_schema_fields_match_scenario_config() -> None:
    named = {name for keys in _SCHEMA.values() for (_, _, name) in keys.values() if name}
    assert {f.name for f in fields(ScenarioConfig)} == {"eos"} | named
    assert all(name is None for (_, _, name) in _SCHEMA["eos"].values())
    assert list(_SCHEMA["eos"]) == [f.name for f in fields(EosParams)]


def test_parse_forcing_spec_roundtrip() -> None:
    cfg = parse_config(
        "[forcing]\ntheta_b_bottom = 1\ntheta_b_top = -1\ntheta_b_cos = 0.5\n"
    )
    assert (cfg.theta_b_bottom, cfg.theta_b_top, cfg.theta_b_cos) == (1.0, -1.0, 0.5)
    again = parse_config(cfg.echo())
    assert again == cfg
    g = cfg.grid()
    wb, wt = cfg.wall_arrays(g)
    wave = 0.5 * np.cos(2.0 * np.pi * g.x_centers / cfg.lx)
    np.testing.assert_allclose(wb, 1.0 + wave, rtol=0, atol=1e-15)
    np.testing.assert_allclose(wt, -1.0 + wave, rtol=0, atol=1e-15)


def test_parse_errors_carry_line_numbers() -> None:
    cases = [
        ("[nsf]\neps = -0.1\n", 2, "eps must lie"),
        ("[grid]\nnx = four\n", 2, "expected int"),
        ("[grid]\n\nwidgets = 2\n", 3, "unknown key"),
        ("[widgets]\n", 1, "unknown section"),
        ("nx = 4\n", 1, "outside any"),
        ("[grid]\nnx = 8\nnx = 8\n", 3, "duplicate"),
        ("[grid\nnx = 8\n", 1, "malformed section"),
        ("[grid]\nnx 8\n", 2, "expected 'key = value'"),
    ]
    for text, line, fragment in cases:
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert err.value.line == line, text
        assert fragment in str(err.value), text


def test_parse_eps_list_validation() -> None:
    assert parse_config("[nsf]\neps_list = 0.2, 0.1\n").eps_list == (0.2, 0.1)
    for text in (
        "[nsf]\neps_list =\n",
        "[nsf]\neps_list = 0.1, 0.2\n",
        "[nsf]\neps_list = 0.2, 1.5\n",
    ):
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert err.value.line == 2


def test_parse_wall_positivity_cross_check() -> None:
    text = "[nsf]\neps = 0.9\n\n[forcing]\ntheta_b_bottom = -2\ntheta_b_top = -2\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert "non-positive" in str(err.value) and err.value.line == 2


def test_parse_cadence_and_t_end_multiples() -> None:
    with pytest.raises(ConfigError, match="multiple"):
        parse_config("[ob]\ndt = 0.002\n\n[output]\ncadence = 0.003\n")
    with pytest.raises(ConfigError, match="multiple"):
        parse_config("[ob]\ndt = 0.003\nt_end = 0.05\n")


def test_main_threads_flag_below_one_is_config_error(tmp_path, capsys) -> None:
    cfg_path = _write(tmp_path, BASE)
    out = tmp_path / "artifacts"
    for bad in ("0", "-2"):
        assert main(["thermo-check", "--config", cfg_path, "--out", str(out), "--threads", bad]) == 10
        assert "--threads must be at least 1" in capsys.readouterr().err
    assert not (out / "manifest.ini").exists()
    assert main(["thermo-check", "--config", cfg_path, "--out", str(out), "--threads", "2", "--quiet"]) == 0


def test_main_ignores_bll_threads_environment_variable(tmp_path, monkeypatch) -> None:
    # The variable is no longer read: a value that is not even an integer runs.
    monkeypatch.setenv("BLL_THREADS", "many")
    cfg_path = _write(tmp_path, BASE)
    assert main(["thermo-check", "--config", cfg_path, "--out", str(tmp_path / "o"), "--quiet"]) == 0


def test_main_thermo_check_writes_reports(tmp_path, capsys) -> None:
    cfg_path = _write(tmp_path, BASE)
    out = tmp_path / "artifacts"
    assert main(["thermo-check", "--config", cfg_path, "--out", str(out)]) == 0
    assert (out / "hypothesis_report.txt").exists()
    lines = (out / "limit_identities.csv").read_text().splitlines()
    assert lines[0] == "identity,residual"
    assert {ln.split(",")[0] for ln in lines[1:]} == {"r26", "r27", "r29", "gibbs_fd"}
    manifest = (out / "manifest.ini").read_text()
    assert parse_config(manifest) == parse_config(BASE)
    assert "limit identities" in capsys.readouterr().out


def test_main_run_ob_artifacts_deterministic(tmp_path) -> None:
    cfg_path = _write(tmp_path, BASE)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["run-ob", "--config", cfg_path, "--out", str(out), "--quiet"]) == 0
        outs.append(out)
    trace = (outs[0] / "ob_trace.csv").read_bytes()
    assert trace == (outs[1] / "ob_trace.csv").read_bytes()
    assert trace.splitlines()[0] == b"t,mean_T,Lambda,flux,s24_residual"
    assert trace.splitlines()[0].decode().split(",") == list(TRACE_COLUMNS)
    dat = (outs[0] / "ob_trace.dat").read_text().splitlines()
    assert dat[0] == "# t mean_T Lambda flux s24_residual"
    assert (outs[0] / "ob_final_profile.csv").exists()


def test_main_run_nsf_log_and_profile(tmp_path) -> None:
    cfg_path = _write(tmp_path, BASE)
    out = tmp_path / "nsf"
    assert main(["run-nsf", "--config", cfg_path, "--out", str(out), "--quiet"]) == 0
    lines = (out / "nsf_log.csv").read_text().splitlines()
    assert lines[0] == "t,mass,ballistic_energy,entropy_proxy,dt"
    first = np.array(lines[1].split(","), dtype=float)
    assert first[0] == 0.0 and first[4] == 0.0
    profile = (out / "nsf_final_profile.csv").read_text().splitlines()
    assert profile[0] == "z,rho_mean,theta_mean"


def test_main_sweep_table_artifacts(tmp_path) -> None:
    text = BASE.replace("eps = 0.2", "eps_list = 0.2, 0.1").replace(
        "t_end = 0.02", "t_end = 0.05"
    )
    cfg_path = _write(tmp_path, text)
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", cfg_path, "--out", str(out), "--quiet"]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "eps,err_rho,err_theta,err_mom"
    assert len([ln for ln in lines if not ln.startswith("#")]) == 3
    assert any(ln.startswith("# fitted_rate,") for ln in lines)
    dat = (out / "sweep.dat").read_text().splitlines()
    assert dat[0] == "# eps err_rho err_theta err_mom"

    single = tmp_path / "single"
    assert main(["sweep", "--config", _write(tmp_path, BASE, "single.ini"),
                 "--out", str(single), "--quiet"]) == 0
    lines = (single / "sweep.csv").read_text().splitlines()
    assert lines[0] == "eps,err_rho,err_theta,err_mom"
    assert len(lines) == 2 and lines[1].startswith("0.2")


def test_main_sweep_notes_failed_member_in_csv_and_dat(tmp_path, capsys) -> None:
    # g = 4 drives the eps = 1 member's initial density non-positive; the
    # failure is annotated in every table format, not only in the CSV.  A
    # sweep whose only member fails (theta_b_bottom = 5 at eps = 1) writes
    # the same annotated table but exits 12, as a failed run, with no manifest.
    partial = BASE.replace("g = 1", "g = 4").replace("eps = 0.2", "eps_list = 1, 0.2")
    failed = BASE.replace("theta_b_bottom = 0.2", "theta_b_bottom = 5").replace("eps = 0.2", "eps_list = 1")
    for name, text, code, rows in (("partial", partial, 0, 1), ("failed", failed, 12, 0)):
        out = tmp_path / name
        cfg_path = _write(tmp_path, text, f"{name}.ini")
        assert main(["sweep", "--config", cfg_path, "--out", str(out), "--quiet"]) == code
        assert (out / "manifest.ini").exists() is (code == 0)
        assert ("no sweep member finished" in capsys.readouterr().err) is (code == 12)
        for fname in ("sweep.csv", "sweep.dat"):
            lines = (out / fname).read_text().splitlines()
            assert len([ln for ln in lines[1:] if not ln.startswith("#")]) == rows, fname
            assert any(ln.startswith("# failed eps=1: ") and "positivity" in ln for ln in lines), fname


def test_main_dat_mirrors_csv_for_every_table(tmp_path) -> None:
    # One failing and two clean members, so sweep.* carries both kinds of note.
    text = BASE.replace("g = 1", "g = 4").replace("eps = 0.2", "eps_list = 1, 0.2, 0.1")
    cfg_path = _write(tmp_path, text)
    mirrored = []
    for cmd in ("thermo-check", "run-ob", "run-nsf", "sweep", "compare", "hydrostatic"):
        out = tmp_path / cmd
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # compare's coincidence warning
            assert main([cmd, "--config", cfg_path, "--out", str(out), "--quiet"]) == 0, cmd
        for csv_path in sorted(out.glob("*.csv")):
            dat_path = csv_path.with_suffix(".dat")
            if csv_path.stem in ("limit_identities", "compare"):
                assert not dat_path.exists(), csv_path.name  # CSV-only tables
                continue
            csv = csv_path.read_text().splitlines()
            dat = dat_path.read_text().splitlines()
            assert len(dat) == len(csv) >= 2, csv_path.name
            assert dat[0].startswith("# ") and dat[0][2:].split(" ") == csv[0].split(",")
            for c, d in zip(csv[1:], dat[1:]):
                if c.startswith("# "):  # notes: same tokens, separator aside
                    assert d.replace(" ", ",") == c.replace(" ", ","), csv_path.name
                    continue
                tokens = c.split(",")
                assert d.split(" ") == tokens, csv_path.name
                assert all(format(float(t), ".17g") == t for t in tokens), c
            mirrored.append(csv_path.stem)
    assert sorted(mirrored) == sorted([
        "ob_trace", "ob_final_profile", "nsf_log", "nsf_final_profile", "sweep",
        "hydrostatic_profile",
    ])
    notes = [ln for ln in (tmp_path / "sweep" / "sweep.dat").read_text().splitlines()[1:]
             if ln.startswith("#")]
    assert notes[0].startswith("# fitted_rate ") and notes[1].startswith("# failed eps=1: ")


def test_main_compare_symmetric_warns_and_reports(tmp_path) -> None:
    cfg_path = _write(tmp_path, BASE)
    out = tmp_path / "cmp"
    with pytest.warns(UserWarning, match="coincide"):
        code = main(["compare", "--config", cfg_path, "--out", str(out), "--quiet"])
    assert code == 0
    text = (out / "compare.txt").read_text()
    assert "ratio" in text and "coincide" in text
    lines = (out / "compare.csv").read_text().splitlines()
    assert lines[0] == "target,eps,err_rho,err_theta,err_mom"
    assert lines[1].startswith("modified,") and lines[2].startswith("naive,")
    ratio = float(next(ln for ln in lines if ln.startswith("# ratio_theta,")).split(",")[1])
    assert abs(ratio - 1.0) <= 0.05

    # outside pytest's warning capture the message lands on stderr; the child
    # imports bll from wherever this process did
    proc = subprocess.run(
        [sys.executable, "-m", "bll.cli", "compare", "--config", cfg_path,
         "--out", str(tmp_path / "cmp2"), "--quiet"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert proc.returncode == 0
    assert "coincide" in proc.stderr


def test_main_hydrostatic_profiles_and_validation_exit(tmp_path) -> None:
    cfg_path = _write(tmp_path, BASE)
    out = tmp_path / "hydro"
    assert main(["hydrostatic", "--config", cfg_path, "--out", str(out), "--quiet"]) == 0
    lines = (out / "hydrostatic_profile.csv").read_text().splitlines()
    assert lines[0] == "z,rho,theta,rho_hat,theta_hat"
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == 0.5 / 8 and min(first[1:]) > 0

    cfg2 = _write(tmp_path, BASE.replace("g = 1", "g = 1\ntheta_b_cos = 0.05"), "bumpy.ini")
    code = main(["hydrostatic", "--config", cfg2, "--out", str(tmp_path / "h2"), "--quiet"])
    assert code == 11
    assert not (tmp_path / "h2" / "manifest.ini").exists()


def test_main_hydrostatic_strongly_stratified_column(tmp_path) -> None:
    # The oracle brackets a bottom density of 14 rho_bar (exit 11 when it
    # widened its bracket only three times).
    text = (
        BASE.replace("nx = 16\nnz = 8", "nx = 4\nnz = 32")
        .replace("g = 1", "g = 10")
        .replace("theta_b_bottom = 0.2\ntheta_b_top = -0.2", "theta_b_bottom = -0.5\ntheta_b_top = 0.5")
        .replace("eps = 0.2", "eps = 1")
    )
    out = tmp_path / "hydro"
    assert main(["hydrostatic", "--config", _write(tmp_path, text), "--out", str(out), "--quiet"]) == 0
    rows = np.loadtxt(out / "hydrostatic_profile.csv", delimiter=",", skiprows=1)
    z, rho, theta, rho_hat, theta_hat = rows.T
    assert len(z) == 32 and rho_hat[0] > 11.2
    assert np.max(np.abs(rho - rho_hat) / rho_hat) <= 0.1
    assert np.max(np.abs(theta - theta_hat) / theta_hat) <= 0.1


def test_main_exit_codes_for_config_and_io(tmp_path, capsys) -> None:
    bad = _write(tmp_path, "[nsf]\neps = 2.5\n")
    assert main(["run-ob", "--config", bad, "--quiet"]) == 10
    assert "error: config:" in capsys.readouterr().err
    assert main(["run-ob", "--config", str(tmp_path / "missing.ini"), "--quiet"]) == 13
    assert "error: io:" in capsys.readouterr().err


def test_main_rejects_non_finite_config_values(tmp_path, capsys) -> None:
    for text in ("[ob]\nt_end = inf\n", "[forcing]\ng = nan\n", "[nsf]\neps_list = 0.2, -inf\n"):
        bad = _write(tmp_path, text)
        assert main(["run-ob", "--config", bad, "--out", str(tmp_path / "o"), "--quiet"]) == 10, text
        err = capsys.readouterr().err
        assert "line 2" in err and "must be finite" in err, text


@pytest.mark.parametrize(
    "text, message",
    [
        ("[ob]\ndt = 0.007\n", "integer multiple of dt"),
        ("[ob]\ndt = 0.3\nt_end = 0.3\n", "multiple of the ob dt"),
        ("[forcing]\ntheta_b_bottom = -20\n", "wall temperature non-positive"),
    ],
    ids=["t_end_from_dt", "cadence_from_dt", "wall_from_forcing"],
)
def test_config_error_of_a_defaulted_key_names_the_set_key_line(tmp_path, capsys, text, message) -> None:
    # The offending key keeps its default; the error names the line of the
    # key that was set: [ob] dt, or the [forcing] wall.
    bad = _write(tmp_path, text)
    assert main(["run-ob", "--config", bad, "--out", str(tmp_path / "o"), "--quiet"]) == 10
    err = capsys.readouterr().err
    assert "line 2" in err and message in err


_FLOAT_KEYS = [
    (section, key) for section, keys in _SCHEMA.items()
    for key, (kind, _, _) in keys.items() if kind in ("float", "floats")
]
_NUMERIC_TOKENS = st.one_of(
    st.floats().map(repr),
    st.integers(-10 ** 400, 10 ** 400).map(str),
    st.sampled_from(["inf", "-Infinity", "nan", "1e999", "-1e999", "5e-324", "1e308", "0"]),
)


@given(st.sampled_from(_FLOAT_KEYS), _NUMERIC_TOKENS)
@settings(max_examples=300, deadline=None)
def test_parse_any_numeric_float_value_returns_or_raises_config_error(where, token) -> None:
    section, key = where
    try:
        cfg = parse_config(f"[{section}]\n{key} = {token}\n")
    except ConfigError:
        return
    assert isinstance(cfg, ScenarioConfig)


def test_main_quiet_and_usage(tmp_path, capsys) -> None:
    cfg_path = _write(tmp_path, BASE)
    assert main(["thermo-check", "--config", cfg_path, "--out", str(tmp_path / "q"), "--quiet"]) == 0
    assert capsys.readouterr().out == ""
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", "--config", cfg_path])
    assert exc.value.code == 2


def test_main_out_flag_overrides_config_directory(tmp_path, monkeypatch) -> None:
    text = BASE.replace("cadence = 0.01", "cadence = 0.01\ndirectory = cfg_dir")
    cfg_path = _write(tmp_path, text)
    monkeypatch.chdir(tmp_path)
    override = tmp_path / "override"
    assert main(["thermo-check", "--config", cfg_path, "--out", str(override), "--quiet"]) == 0
    assert (override / "manifest.ini").exists()
    assert not (tmp_path / "cfg_dir").exists()
    assert main(["thermo-check", "--config", cfg_path, "--quiet"]) == 0
    assert (tmp_path / "cfg_dir" / "manifest.ini").exists()
