import json
import math
import subprocess
import sys

import numpy as np
import pytest

import invlab.cli as cli_module
from invlab import ControlField, TimeGrid, make_transitionless
from invlab.cli import main

FIG1 = ["--omega0", "4.0693", "--delta0", "5.2710"]


def run_cli(args):
    return main(list(args))


def test_protocol_flat_pi_stdout(capsys):
    assert run_cli(["protocol", "--kind", "flat_pi", "--alpha", "0", "--grid-steps", "5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "t,omega_r,omega_i,delta"
    assert len(lines) == 6
    row = lines[1].split(",")
    assert float(row[1]) == pytest.approx(math.pi, abs=1e-15)
    assert float(row[2]) == 0.0


def test_protocol_transitionless_matches_library(tmp_path):
    out = tmp_path / "field.csv"
    rc = run_cli(["protocol", "--kind", "transitionless", *FIG1,
                  "--grid-steps", "801", "--out", str(out)])
    assert rc == 0
    field = ControlField.read_csv(out)
    ref = make_transitionless(4.0693, 5.2710, TimeGrid(801))
    assert np.max(np.abs(field.omega_i - ref.omega_i)) < 1e-15
    assert np.max(np.abs(field.delta - ref.delta)) < 1e-15


def test_protocol_json_format(tmp_path):
    out = tmp_path / "field.json"
    assert run_cli(["protocol", "--kind", "flat_pi", "--grid-steps", "5",
                    "--format", "json", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["label"] == "flat_pi(alpha=0)"
    assert data["omega_r"] == pytest.approx([math.pi] * 5)


def test_protocol_duration_scaling(capsys):
    assert run_cli(["protocol", "--kind", "flat_pi", "--grid-steps", "3",
                    "--duration", "2.0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    last = lines[-1].split(",")
    assert float(last[0]) == 2.0                      # time scaled by T
    assert float(last[1]) == pytest.approx(math.pi / 2.0)  # rates scaled by 1/T


def test_protocol_optimal_systematic_zero_gauge(tmp_path):
    out = tmp_path / "field.csv"
    assert run_cli(["protocol", "--kind", "optimal_systematic", "--n", "1",
                    "--gauge", "zero-omega-i", "--grid-steps", "401",
                    "--out", str(out)]) == 0
    data = np.loadtxt(out, delimiter=",", skiprows=1)
    assert np.max(np.abs(data[:, 2])) < 1e-12        # omega_i vanishes in this gauge
    assert np.max(np.abs(data[:, 3])) > 1.0          # detuning channel is active
    assert np.max(np.abs(data[:, 3] + data[::-1, 3])) < 1e-9  # odd about T/2


def test_simulate_bloch_final_row(tmp_path):
    out = tmp_path / "traj.csv"
    assert run_cli(["simulate", "--kind", "flat_pi", "--grid-steps", "801",
                    "--out", str(out)]) == 0
    rows = out.read_text().splitlines()
    assert rows[0] == "t,r1,r2,r3"
    assert float(rows[-1].split(",")[3]) == pytest.approx(-1.0, abs=1e-6)


def test_simulate_bloch_noise_value(tmp_path):
    out = tmp_path / "traj.csv"
    assert run_cli(["simulate", "--kind", "flat_pi", "--lambda2", "0.25",
                    "--grid-steps", "801", "--out", str(out)]) == 0
    r3_final = float(out.read_text().splitlines()[-1].split(",")[3])
    assert 0.5 * (1.0 - r3_final) == pytest.approx(0.6456, abs=1e-4)


def test_simulate_sse_deterministic(tmp_path, monkeypatch):
    args = ["simulate", "--kind", "flat_pi", "--sse", "--lambda2", "0.09",
            "--n-traj", "300", "--dt", "0.0005", "--seed", "42", "--grid-steps", "2001"]
    out1, out2, out3 = (tmp_path / f"r{i}.json" for i in range(3))
    assert run_cli(args + ["--out", str(out1)]) == 0
    assert run_cli(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    monkeypatch.setenv("INVLAB_THREADS", "2")
    assert run_cli(args + ["--out", str(out3)]) == 0
    assert out1.read_bytes() == out3.read_bytes()
    payload = json.loads(out1.read_text())
    assert payload["n_traj"] == 300
    assert payload["seed"] == 42
    assert 0.0 <= payload["p2_mean"] <= 1.0


def test_sensitivity_flat_pi(tmp_path):
    out = tmp_path / "sens.json"
    assert run_cli(["sensitivity", "--kind", "flat_pi", "--grid-steps", "1001",
                    "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["q_n"] == pytest.approx(2.4674, abs=1e-4)
    assert data["q_s"] == pytest.approx(2.4674, abs=1e-4)
    assert data["method"] == "both"
    assert "finite_difference" in data
    assert data["finite_difference"]["q_n"] == pytest.approx(2.4674, rel=0.01)


def test_sensitivity_optimal_protocols(tmp_path):
    out = tmp_path / "sens.json"
    assert run_cli(["sensitivity", "--kind", "optimal_noise", "--n", "7",
                    "--method", "formula", "--grid-steps", "1001", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["q_n"] == pytest.approx(1.8242, abs=1e-3)
    assert run_cli(["sensitivity", "--kind", "optimal_systematic", "--n", "1",
                    "--method", "formula", "--grid-steps", "1001", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["q_s"] <= 1e-8


def test_sensitivity_duration_scaling(tmp_path):
    out = tmp_path / "sens.json"
    assert run_cli(["sensitivity", "--kind", "flat_pi", "--method", "formula",
                    "--grid-steps", "1001", "--duration", "2.0", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["q_n"] == pytest.approx(2.4674 / 2.0, abs=1e-4)  # units 1/T
    assert data["q_s"] == pytest.approx(2.4674, abs=1e-4)        # dimensionless


def test_sweep_figure2_reduced(tmp_path):
    base = tmp_path / "fig2"
    rc = run_cli(["sweep", "--figure", "2", "--grid-steps", "401",
                  "--axis1", "0.25,1.25,5", "--axis2", "0.25,1.25,5",
                  "--out", str(base)])
    assert rc == 0
    rows = (base.parent / "fig2.csv").read_text().splitlines()
    assert rows[0] == "omega0,delta0,q_n"
    assert len(rows) == 26
    side = json.loads((base.parent / "fig2.json").read_text())
    assert side["protocol_label"] == "transitionless"
    values = {}
    for row in rows[1:]:
        a, b, v = row.split(",")
        values[(float(a), float(b))] = float(v)
    assert values[(0.5, 0.5)] == pytest.approx(2.475, rel=0.02)
    assert min(values.values()) >= 1.82424


def test_sweep_figure4_emits_three_curves(tmp_path):
    base = tmp_path / "fig4"
    rc = run_cli(["sweep", "--figure", "4", "--grid-steps", "401",
                  "--axis1=-0.2,0.2,5", "--out", str(base)])
    assert rc == 0
    for slug in ("optimal_systematic", "transitionless", "optimal_noise"):
        assert (base.parent / f"fig4_{slug}.csv").exists()
        assert (base.parent / f"fig4_{slug}.json").exists()
    rows = (base.parent / "fig4_optimal_systematic.csv").read_text().splitlines()
    p2_at_edge = float(rows[-1].split(",")[1])
    assert p2_at_edge >= 0.95  # flat quadratic response


def test_sweep_axis_with_negative_minimum_parses_in_both_forms(tmp_path):
    outputs = []
    for name, form in (("spaced", ["--axis1", "-1,1,3"]), ("joined", ["--axis1=-1,1,3"])):
        base = tmp_path / name
        assert run_cli(["sweep", "--figure", "4", *form, "--out", str(base)]) == 0
        outputs.append([(base.parent / f"{base.name}_{slug}.csv").read_bytes()
                        for slug in ("optimal_systematic", "transitionless", "optimal_noise")])
    assert outputs[0] == outputs[1]
    rows = outputs[0][1].decode().splitlines()
    assert [float(r.split(",")[0]) for r in rows[1:]] == [-1.0, 0.0, 1.0]


def test_sweep_figure5_below_pi_pulse_plane(tmp_path):
    base = tmp_path / "fig5"
    rc = run_cli(["sweep", "--figure", "5", "--grid-steps", "401",
                  "--axis1", "0.5,6,4", "--axis2", "0.5,6,4", "--out", str(base)])
    assert rc == 0
    rows = (base.parent / "fig5.csv").read_text().splitlines()
    assert rows[0] == "omega0,delta0,q_s"
    values = [float(r.split(",")[2]) for r in rows[1:]]
    assert max(values) < 2.467


def test_sweep_figure7_emits_three_maps(tmp_path):
    base = tmp_path / "fig7"
    rc = run_cli(["sweep", "--figure", "7", "--grid-steps", "401",
                  "--axis1", "0,0.6,3", "--axis2=-0.4,0.4,3", "--out", str(base)])
    assert rc == 0
    made = sorted(p.name for p in base.parent.glob("fig7_*.csv"))
    assert made == ["fig7_optimal_noise.csv", "fig7_optimal_systematic.csv",
                    "fig7_transitionless.csv"]


def test_dump_config_round_trip(tmp_path, capsys):
    args = ["sensitivity", "--kind", "flat_pi", "--method", "formula",
            "--grid-steps", "501"]
    assert run_cli(args + ["--dump-config"]) == 0
    cfg_text = capsys.readouterr().out
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(cfg_text)
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli(args + ["--out", str(out1)]) == 0
    assert run_cli(["sensitivity", "--config", str(cfg_path), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_config_flag_override(tmp_path):
    cfg = {"protocol": {"kind": "flat_pi", "alpha": 0.0}, "grid": {"n_steps": 501}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "field.csv"
    assert run_cli(["protocol", "--config", str(cfg_path), "--grid-steps", "11",
                    "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 12  # flag overrides file


def test_config_unknown_keys_rejected(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"protocol": {"kind": "flat_pi", "bogus": 1}}))
    assert run_cli(["protocol", "--config", str(cfg_path)]) == 2
    cfg_path.write_text(json.dumps({"nonsense": {}}))
    assert run_cli(["protocol", "--config", str(cfg_path)]) == 2


def test_exit_codes(capsys):
    assert run_cli(["protocol", "--kind", "bogus"]) == 2
    assert run_cli(["protocol"]) == 2  # kind is required
    assert run_cli(["sweep"]) == 2  # figure is required
    assert run_cli(["simulate", "--kind", "transitionless", "--omega0", "1.0",
                    "--delta0", "0.0", "--grid-steps", "101"]) == 1  # singular CD term
    assert run_cli(["sensitivity", "--kind", "sinusoidal_adiabatic", *FIG1,
                    "--grid-steps", "401"]) == 1  # protocol does not invert
    assert run_cli([]) == 2


def test_console_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "invlab.cli", "protocol", "--kind", "flat_pi",
         "--grid-steps", "3"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "t,omega_r,omega_i,delta"


@pytest.mark.parametrize("section,key,value", [
    ("sensitivity", "method", "bogus"),
    ("sensitivity", "method", 5),
    ("simulate", "sse", "no"),
    ("grid", "n_steps", 10.7),
    ("grid", "n_steps", True),
    (None, "duration", True),
    ("protocol", "envelope", "bogus"),
    ("sweep", "figure", 3),
])
def test_config_values_are_type_checked(tmp_path, capsys, section, key, value):
    cfg = {"protocol": {"kind": "flat_pi"}, "grid": {"n_steps": 11}}
    if section is None:
        cfg[key] = value
    else:
        cfg.setdefault(section, {})[key] = value
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    command = "sweep" if section == "sweep" else "sensitivity"
    assert run_cli([command, "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    name = key if section is None else f"{section}.{key}"
    assert f"config {name} must be" in capsys.readouterr().err


def test_config_method_accepts_either_separator(tmp_path):
    outs = []
    for i, method in enumerate(("finite-difference", "finite_difference")):
        cfg_path = tmp_path / f"cfg{i}.json"
        cfg_path.write_text(json.dumps({"protocol": {"kind": "flat_pi"}, "grid": {"n_steps": 201},
                                        "sensitivity": {"method": method}}))
        outs.append(tmp_path / f"r{i}.json")
        assert run_cli(["sensitivity", "--config", str(cfg_path), "--out", str(outs[-1])]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_fault_inside_a_command_exits_1(monkeypatch, capsys):
    def broken(cfg):
        raise KeyError("missing")

    monkeypatch.setitem(cli_module._COMMANDS, "protocol", broken)
    assert run_cli(["protocol", "--kind", "flat_pi", "--grid-steps", "3"]) == 1
    assert "missing" in capsys.readouterr().err


def test_diverged_bloch_run_exits_1(capsys):
    assert run_cli(["simulate", "--kind", "flat_pi", "--lambda2", "1e6", "--grid-steps", "11",
                    "--format", "json"]) == 1
    assert "Bloch integration diverged" in capsys.readouterr().err


def test_unstable_sse_step_exits_2(capsys):
    assert run_cli(["simulate", "--kind", "flat_pi", "--sse", "--lambda2", "1e6", "--n-traj", "4",
                    "--grid-steps", "11", "--dt", "0.1"]) == 2
    assert "lambda2 * max|Omega|^2 * dt" in capsys.readouterr().err


@pytest.mark.parametrize("args, name", [
    (["--lambda2", "nan"], "lambda2"), (["--lambda2", "inf"], "lambda2"),
    (["--beta", "nan"], "beta"), (["--beta=-inf"], "beta"),
    (["--sse", "--lambda2", "nan", "--n-traj", "4", "--dt", "0.001"], "lambda2"),
    (["--sse", "--beta", "nan"], "beta"),
    (["--sse", "--dt", "nan"], "dt"), (["--sse", "--dt", "inf"], "dt")])
def test_non_finite_settings_exit_2(capsys, args, name):
    assert run_cli(["simulate", "--kind", "flat_pi", "--grid-steps", "11", *args]) == 2
    assert f"invlab: {name} must be finite" in capsys.readouterr().err
