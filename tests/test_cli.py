import json
import math
import re
import subprocess
import sys

import numpy as np
import pytest

import invlab.cli as cli_module
import invlab.sensitivity as sensitivity_module
from invlab import protocols, sweeps
from invlab import ControlField, TimeGrid, make_transitionless, qn_formula, qs_formula
from invlab.cli import main
from invlab.protocols import PROTOCOLS
from conftest import src_env

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


def _at_durations(tmp_path, args, suffix=".csv"):
    """The --out file of one command run at T = 1 and at --duration 2.5, as (unit, scaled)."""
    paths = []
    for T in ("1", "2.5"):
        paths.append(tmp_path / f"T{T}{suffix}")
        assert run_cli([*args, "--duration", T, "--out", str(paths[-1])]) == 0
    return paths


def test_protocol_duration_scaling(tmp_path, capsys):
    assert run_cli(["protocol", "--kind", "flat_pi", "--grid-steps", "3",
                    "--duration", "2.0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    last = lines[-1].split(",")
    assert float(last[0]) == 2.0                      # time scaled by T
    assert float(last[1]) == pytest.approx(math.pi / 2.0)  # rates scaled by 1/T
    # between --duration 2.5 and the unit run: t times T, channels over T, P2 the same
    for kind in (["--kind", "transitionless", *FIG1], ["--kind", "optimal_noise", "--n", "3"]):
        unit, scaled = (np.loadtxt(p, delimiter=",", skiprows=1) for p in
                        _at_durations(tmp_path, ["protocol", *kind, "--grid-steps", "101"]))
        assert np.array_equal(scaled[:, 0], unit[:, 0] * 2.5)
        assert np.array_equal(scaled[:, 1:], unit[:, 1:] / 2.5)
        unit, scaled = (np.loadtxt(p, delimiter=",", skiprows=1) for p in _at_durations(
            tmp_path, ["simulate", *kind, "--lambda2", "0.1", "--beta", "0.05",
                       "--grid-steps", "101"]))
        assert np.array_equal(scaled[:, 0], unit[:, 0] * 2.5)
        assert scaled[:, 1:].tobytes() == unit[:, 1:].tobytes()
    unit, scaled = (json.loads(p.read_text()) for p in _at_durations(
        tmp_path, ["simulate", "--kind", "flat_pi", "--sse", "--lambda2", "0.09", "--n-traj", "64",
                   "--grid-steps", "101", "--dt", "0.001"], ".json"))
    assert (scaled["p2_mean"], scaled["p2_stderr"]) == (unit["p2_mean"], unit["p2_stderr"])
    assert scaled["dt"] == unit["dt"] * 2.5
    unit, scaled = _at_durations(tmp_path, ["sweep", "--figure", "1", "--axis1", "0,0.6,3",
                                            "--grid-steps", "101"], "")
    for slug in ("optimal_noise", "flat_pi", "sinusoidal_adiabatic", "transitionless"):
        for ext in (".csv", ".json"):
            assert (tmp_path / f"{scaled.name}_{slug}{ext}").read_bytes() == \
                (tmp_path / f"{unit.name}_{slug}{ext}").read_bytes()


def test_protocol_optimal_systematic_zero_gauge(tmp_path):
    out = tmp_path / "field.csv"
    assert run_cli(["protocol", "--kind", "optimal_systematic", "--n", "1",
                    "--grid-steps", "401", "--out", str(out)]) == 0
    data = np.loadtxt(out, delimiter=",", skiprows=1)
    assert np.max(np.abs(data[:, 2])) < 1e-12        # the default alpha makes omega_i vanish
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


def test_simulate_sse_deterministic(tmp_path):
    args = ["simulate", "--kind", "flat_pi", "--sse", "--lambda2", "0.09",
            "--n-traj", "300", "--dt", "0.0005", "--seed", "42", "--grid-steps", "2001"]
    out1, out2, out3 = (tmp_path / f"r{i}.json" for i in range(3))
    assert run_cli(args + ["--out", str(out1)]) == 0
    assert run_cli(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
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
    # between --duration 2.5 and the unit run: q_N and its error over T, q_S the same
    for kind in (["--kind", "transitionless", *FIG1], ["--kind", "optimal_noise", "--n", "7"]):
        unit, scaled = (json.loads(p.read_text()) for p in _at_durations(
            tmp_path, ["sensitivity", *kind, "--method", "both", "--grid-steps", "401"], ".json"))
        for a, b in ((unit, scaled), (unit["finite_difference"], scaled["finite_difference"])):
            assert (b["q_n"], b["q_n_error"]) == (a["q_n"] / 2.5, a["q_n_error"] / 2.5)
            assert (b["q_s"], b["q_s_error"]) == (a["q_s"], a["q_s_error"])
    unit, scaled = _at_durations(tmp_path, ["sweep", "--figure", "5", *_AXES,
                                            "--grid-steps", "401"], "")
    for ext in (".csv", ".json"):
        assert (tmp_path / f"{scaled.name}{ext}").read_bytes() == \
            (tmp_path / f"{unit.name}{ext}").read_bytes()


def test_sweep_and_sensitivity_scale_q_n_alike(tmp_path):
    # both divide q_N by T, so a Fig. 2 cell is its field's reported q_n bit for bit
    base = tmp_path / "fig2"
    assert run_cli(["sweep", "--figure", "2", "--axis1=2,3,2", "--axis2=1,4,2",
                    "--grid-steps", "401", "--duration", "2.5", "--out", str(base)]) == 0
    rows = [line.split(",") for line in (tmp_path / "fig2.csv").read_text().splitlines()[1:]]
    assert len(rows) == 4
    for omega0, delta0, q_n in rows:
        out = tmp_path / "sens.json"
        assert run_cli(["sensitivity", "--kind", "transitionless", "--omega0", omega0,
                        "--delta0", delta0, "--method", "formula", "--grid-steps", "401",
                        "--duration", "2.5", "--out", str(out)]) == 0
        assert float(q_n) == json.loads(out.read_text())["q_n"]


@pytest.mark.parametrize("kind", PROTOCOLS)
def test_read_csv_reads_a_duration_file_in_units_of_t(tmp_path, kind):
    """A field written with --duration 2.5 reads back as the field the CLI computed with."""
    flags = FIG1 if kind in ("sinusoidal_adiabatic", "transitionless") else []
    unit, scaled = (ControlField.read_csv(p) for p in _at_durations(
        tmp_path, ["protocol", "--kind", kind, *flags, "--grid-steps", "201"]))
    assert scaled.grid == unit.grid == TimeGrid(201)
    for a, b in zip(scaled.stage_tables[0], unit.stage_tables[0]):
        assert np.all(np.abs(a - b) <= 2.0 * np.spacing(np.abs(b)))


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


@pytest.mark.parametrize("args", [
    ["simulate", "--kind", "flat_pi", "--beta", "nan", "--dump-config"],
    ["protocol", "--kind", "flat_pi", "--grid-steps", "3", "--format", "json",
     "--duration", "1e-310"]])
def test_non_finite_json_is_refused_as_bad_input(args, capsys):
    # JSON holds no NaN or inf: a dumped config or a channel that is not finite is refused
    assert run_cli(args) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("invlab: ")


@pytest.mark.parametrize("args", [
    ["protocol", "--kind", "flat_pi", "--grid-steps", "3"],
    ["protocol", "--kind", "flat_pi", "--grid-steps", "3", "--format", "json"],
    ["sensitivity", "--kind", "flat_pi", "--grid-steps", "11", "--method", "formula"],
    ["sweep", "--figure", "2", "--axis1=1,2,2", "--axis2=1,2,2", "--grid-steps", "11"]],
    ids=["protocol_csv", "protocol_json", "sensitivity", "sweep_2"])
def test_a_duration_whose_scaled_outputs_overflow_exits_2(tmp_path, capsys, args):
    # channels and q_N divide by T: finite values over T = 1e-310 overflow, and are refused
    # without a numpy warning (which the test configuration makes an error) or a file
    assert run_cli([*args, "--duration", "1e-310", "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "invlab: --duration 1e-310: an output divided by it overflows a float\n"
    assert list(tmp_path.iterdir()) == []


def test_the_figure_table_calls_analyses_and_builders_by_module_name(tmp_path, monkeypatch):
    # a tracer or a mock rebinds invlab.sweeps.* and invlab.protocols.make_* in place; the
    # figure table looks them up at call time, so a sweep calls the rebound names
    calls = []

    def spy(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for name in ("robustness_curve", "map_p2", "sweep_qn_transitionless"):
        spy(sweeps, name)
    spy(protocols, "make_optimal_noise")
    for figure, axes in ((1, ["--axis1=0,1,2"]), (2, ["--axis1=1,2,2", "--axis2=1,2,2"]),
                         (7, ["--axis1=0,1,2", "--axis2=-1,1,2"])):
        assert run_cli(["sweep", "--figure", str(figure), *axes, "--grid-steps", "201",
                        "--out", str(tmp_path / f"figure{figure}")]) == 0
    # Fig. 1 has four curves and Fig. 7 three maps; both include optimal_noise
    assert sorted(calls) == sorted(["robustness_curve"] * 4 + ["sweep_qn_transitionless"]
                                   + ["map_p2"] * 3 + ["make_optimal_noise"] * 2)


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
    # a protocol flag the kind does not take is refused, by name
    capsys.readouterr()
    assert run_cli(["protocol", "--kind", "flat_pi", "--omega0", "3"]) == 2
    assert "flat_pi takes no parameter 'omega0'" in capsys.readouterr().err
    assert run_cli(["protocol", "--kind", "transitionless", "--omega0", "1", "--delta0", "1",
                    "--n", "3"]) == 2
    assert "transitionless takes no parameter 'n'" in capsys.readouterr().err
    # the seed is read by the SSE ensemble alone
    assert run_cli(["sweep", "--figure", "4", "--seed", "5"]) == 2
    assert "unrecognized arguments: --seed 5" in capsys.readouterr().err
    assert run_cli(["protocol", "--kind", "optimal_noise", "--n", "3",
                    "--grid-steps", "201"]) == 0
    assert run_cli([]) == 2


@pytest.mark.parametrize("args", [["sweep", "--figure", "4", "--format", "json"],
                                  ["sensitivity", "--kind", "flat_pi", "--format", "csv"]])
def test_format_is_refused_where_no_output_reads_it(tmp_path, capsys, args):
    # a sweep always writes CSV and a JSON sidecar, and a sensitivity report is always JSON
    assert run_cli([*args, "--grid-steps", "11", "--out", str(tmp_path / "o")]) == 2
    assert "unrecognized arguments: --format" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_console_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "invlab.cli", "protocol", "--kind", "flat_pi",
         "--grid-steps", "3"], capture_output=True, text=True, env=src_env())
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "t,omega_r,omega_i,delta"


def test_one_process_runs_many_commands_like_fresh_ones(tmp_path, capsys, monkeypatch):
    """main builds its parser once per process; each command still parses on its own."""
    commands = [
        ["protocol", "--kind", "flat_pi", "--grid-steps", "5"],
        ["sweep", "--figure", "4", "--seed", "5"],
        ["simulate", "--kind", "flat_pi", "--grid-steps", "11", "--lambda2", "0.1",
         "--format", "json"],
        ["simulate", "--kind", "flat_pi", "--grid-steps", "11", "--beta", "nan"],
        ["protocol", "--help"],
        ["sensitivity", "--kind", "transitionless", *FIG1, "--method", "formula",
         "--grid-steps", "101"],
        [],
    ]
    monkeypatch.setenv("COLUMNS", "100")  # argparse wraps --help to the terminal width
    monkeypatch.chdir(tmp_path)
    for args in commands:
        rc = main(args)
        out, err = capsys.readouterr()
        proc = subprocess.run([sys.executable, "-m", "invlab.cli", *args], capture_output=True,
                              text=True, cwd=tmp_path, env=src_env(), timeout=120)
        assert (rc, out, err) == (proc.returncode, proc.stdout, proc.stderr), args
    assert cli_module.build_parser() is cli_module.build_parser()


# Runs one command in a fresh interpreter, then prints the modules the process
# loaded from the package named first; the command's own stdout comes first.
_IMPORT_PROBE = """
import sys
from invlab.cli import main
package, args = sys.argv[1], sys.argv[2:]
rc = main(args) if args else 0
loaded = sorted(m for m in sys.modules if m == package or m.startswith(package + "."))
print()
print(rc, " ".join(loaded) or "-")
"""

_AXES = ["--axis1", "0.25,1.25,5", "--axis2", "0.25,1.25,5"]


def _probe_imports(args, cwd, package="scipy"):
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, package, *args],
                          capture_output=True, text=True, cwd=cwd, env=src_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    rc, loaded = proc.stdout.splitlines()[-1].split(" ", 1)
    return int(rc), loaded.split() if loaded != "-" else []


@pytest.mark.parametrize("args", [
    [],
    ["protocol", "--kind", "flat_pi", "--grid-steps", "5"],
    ["protocol", "--kind", "optimal_noise", "--n", "3", "--out", "field.csv"],
    ["simulate", "--sse", "--kind", "transitionless", *FIG1, "--n-traj", "8",
     "--grid-steps", "101", "--dt", "0.001"],
    ["simulate", "--sse", "--kind", "optimal_noise", "--n-traj", "8",
     "--grid-steps", "101", "--dt", "0.001"],
    ["sweep", "--figure", "1", "--grid-steps", "101", "--axis1", "0,0.4,3", "--out", "fig1"],
    ["sweep", "--figure", "2", "--grid-steps", "401", *_AXES, "--out", "fig2"],
    ["sweep", "--figure", "4", "--grid-steps", "101", "--axis1=-1,1,3", "--out", "fig4"],
    ["sweep", "--figure", "5", "--grid-steps", "401", *_AXES, "--out", "fig5"],
    ["sweep", "--figure", "7", "--grid-steps", "101", "--axis1", "0,0.6,3",
     "--axis2=-0.4,0.4,3", "--out", "fig7"],
    ["sensitivity", "--kind", "transitionless", *FIG1, "--method", "formula",
     "--grid-steps", "401"],
    ["sensitivity", "--kind", "shaped_pi", "--method", "both", "--grid-steps", "401"],
    ["sensitivity", "--kind", "optimal_noise", "--method", "both", "--grid-steps", "401"],
], ids=["import", "protocol", "protocol-optimal-noise", "simulate-sse",
        "simulate-sse-optimal-noise", "sweep-1", "sweep-2", "sweep-4", "sweep-5", "sweep-7",
        "sensitivity-formula", "sensitivity-shaped-pi", "sensitivity-optimal-noise"])
def test_main_paths_load_no_scipy(tmp_path, args):
    """Importing the CLI, and running every command family and figure, never imports scipy."""
    rc, scipy = _probe_imports(args, tmp_path)
    assert rc == 0
    assert scipy == []
    if args[:1] == ["protocol"] and "--out" in args:
        # a protocol written to a file reads back as a field on the default grid
        field = ControlField.read_csv(tmp_path / args[args.index("--out") + 1])
        assert field.grid.n_steps == 2001


def test_sse_ensemble_starts_no_thread_pool(tmp_path):
    """The ensemble runs on the calling thread, so the thread pool module never loads."""
    rc, loaded = _probe_imports(["simulate", "--sse", "--kind", "flat_pi", "--n-traj", "64",
                                 "--lambda2", "0.09", "--grid-steps", "101", "--dt", "0.001"],
                                tmp_path, package="concurrent.futures.thread")
    assert rc == 0
    assert loaded == []


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_non_finite_duration_exits_2(capsys, value):
    assert run_cli(["protocol", "--kind", "flat_pi", "--grid-steps", "3",
                    "--duration", value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"invlab: duration must be finite and positive, got {value}" in captured.err


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

    _, text, groups = cli_module._SUBCOMMANDS["protocol"]
    monkeypatch.setitem(cli_module._SUBCOMMANDS, "protocol", (broken, text, groups))
    assert run_cli(["protocol", "--kind", "flat_pi", "--grid-steps", "3"]) == 1
    assert "missing" in capsys.readouterr().err


def test_diverged_bloch_run_exits_1(capsys):
    # h |Omega| ~ 10 without noise: the rotation diverges, which the up-front bound does not cover
    assert run_cli(["simulate", "--kind", "transitionless", "--omega0", "40", "--delta0", "40",
                    "--grid-steps", "11", "--format", "json"]) == 1
    assert "Bloch integration diverged" in capsys.readouterr().err


def test_unstable_bloch_step_exits_2(capsys):
    assert run_cli(["simulate", "--kind", "flat_pi", "--lambda2", "1e6", "--grid-steps", "11",
                    "--format", "json"]) == 2
    assert ("RK4 step unstable at lambda2 = 1e+06: h * max(lambda2 |Omega|^2) / 2 = 4.93e+05 "
            ">= 2.785; raise --grid-steps") in capsys.readouterr().err


@pytest.mark.parametrize("args, lambda2", [
    # a Fig. 1 and a Fig. 7 lambda-axis value: sweep has no --lambda2
    (["sweep", "--figure", "1", "--grid-steps", "3"], "1.44"),
    (["sweep", "--figure", "7", "--grid-steps", "5"], "1.44")])
def test_unstable_bloch_step_advises_only_grid_steps(tmp_path, monkeypatch, capsys, args,
                                                     lambda2):
    monkeypatch.chdir(tmp_path)
    assert run_cli(args) == 2
    err = capsys.readouterr().err
    assert f"RK4 step unstable at lambda2 = {lambda2}:" in err
    assert "raise --grid-steps" in err and "--lambda2" not in err


def test_sensitivity_solves_no_noise_so_only_a_diverged_solve_refuses(capsys):
    # the derivative route differentiates at lambda = 0, so no noise sample meets RK4's
    # stability bound; on 11 points this field's error-free rotation diverges
    assert run_cli(["sensitivity", "--kind", "transitionless", "--omega0", "30", "--delta0", "1",
                    "--grid-steps", "11"]) == 1
    err = capsys.readouterr().err
    assert err == "invlab: Bloch integration diverged (a component exceeds 1 in modulus)\n"


@pytest.mark.parametrize("method", ["formula", "finite-difference", "both"])
def test_sensitivity_refuses_a_field_that_does_not_invert_on_every_route(tmp_path, capsys,
                                                                         method):
    out = tmp_path / "report.json"
    assert run_cli(["sensitivity", "--kind", "sinusoidal_adiabatic", "--omega0", "6",
                    "--delta0", "4", "--method", method, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("invlab: protocol does not invert: P2(T) = 0.9475")
    assert not out.exists()


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


def test_sse_refuses_a_systematic_error(capsys):
    # the SSE ensemble has no systematic error, so a beta would be dropped
    assert run_cli(["simulate", "--kind", "flat_pi", "--grid-steps", "11", "--sse",
                    "--beta", "0.1", "--n-traj", "4", "--dt", "0.001"]) == 2
    assert "invlab: --beta 0.1: the SSE ensemble has no systematic error" in capsys.readouterr().err


def test_sweep_axis_outside_the_family_exits_2(tmp_path, capsys):
    assert run_cli(["sweep", "--figure", "2", "--axis1=-1,1,3", "--axis2=0.5,1,2",
                    "--grid-steps", "101", "--out", str(tmp_path / "fig2")]) == 2
    assert "omega0 must be > 0" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_sweep_refused_part_way_writes_no_file(tmp_path, capsys, monkeypatch):
    # the optimal_noise and flat_pi curves succeed; the sinusoidal_adiabatic one is refused
    monkeypatch.chdir(tmp_path)
    assert run_cli(["sweep", "--figure", "1", "--grid-steps", "5", "--out", "fig1"]) == 2
    assert "RK4 step unstable" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("figure, axes, message", [
    # h = 1/2 against |beta| >= 10: the RK4 rotation grows, which is a fault and not a missing point
    pytest.param("4", ["--axis1=10,12,2"], "pure-state integration diverged", id="4"),
    pytest.param("7", ["--axis1=0,0.1,2", "--axis2=10,12,2"], "Bloch integration diverged",
                 id="7")])
def test_diverged_sweep_cell_exits_1(tmp_path, capsys, figure, axes, message):
    assert run_cli(["sweep", "--figure", figure, *axes, "--grid-steps", "3",
                    "--out", str(tmp_path / "fig")]) == 1
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("args, code, refusal", [
    # lambda^2 overflows to inf, which the error setting refuses
    (["sweep", "--figure", "1", "--axis1", "0,1e200,3"], 2,
     "lambda2 must be finite and >= 0, got inf"),
    (["sweep", "--figure", "7", "--axis1", "0,1e200,3"], 2,
     "lambda2 must be finite and >= 0, got inf"),
    # the solves overflow, which the bounds check refuses
    (["sweep", "--figure", "4", "--axis1=-1e300,1e300,3"], 1,
     "pure-state integration diverged (a component exceeds 1 in modulus)"),
    (["simulate", "--kind", "optimal_noise", "--n", "1", "--beta", "1e308"], 1,
     "Bloch integration diverged (a component exceeds 1 in modulus)"),
    # dt |Omega| ~ 2.5 without noise: the Euler steps grow the state past overflow
    (["simulate", "--kind", "transitionless", "--omega0", "1e4", "--delta0", "1e4", "--sse",
      "--lambda2", "0", "--n-traj", "10"], 1,
     "SSE integration diverged (a trajectory's P2 is not finite); take a smaller dt"),
    # finite parameters whose transitionless channels overflow: bad input, refused before
    # any channel is formed
    *[([command, "--kind", "transitionless", "--omega0", omega0, "--delta0", "1", *extra], 2,
       f"transitionless: omega0={float(omega0)!r} and delta0=1.0 overflow WR^2 + WI^2 + D^2 "
       "or the counter-diabatic numerator")
      for command, omega0, extra in [("sensitivity", "1e200", ["--method", "formula"]),
                                     ("protocol", "1e200", []), ("protocol", "1e308", [])]],
    (["sweep", "--figure", "2", "--axis1=1e200,1e201,2", "--axis2=1,2,2"], 2,
     "transitionless: omega0=1e+200 and delta0=1.0 overflow WR^2 + WI^2 + D^2 "
     "or the counter-diabatic numerator"),
    # neither the lower nor the upper ends overflow, the corner (max, min) does
    (["sweep", "--figure", "5", "--axis1=1e153,1e154,2", "--axis2=-1e154,1e153,2"], 2,
     "transitionless: omega0=1e+154 and delta0=-1e+154 overflow WR^2 + WI^2 + D^2 "
     "or the counter-diabatic numerator"),
    # no corner overflows, the counter-diabatic term at the least regular |delta0| does
    (["sweep", "--figure", "2", "--axis1=1e153,2e153,2", "--axis2=-1,1,9"], 2,
     "transitionless: omega0=2e+153 and delta0=-0.25 overflow WR^2 + WI^2 + D^2 "
     "or the counter-diabatic numerator"),
    # |Omega|^2 of a finite field overflows: no step size or noise level can help
    *[(["simulate", "--kind", "sinusoidal_adiabatic", "--omega0", "1e200", "--delta0", "1",
        "--lambda2", "0.1", *sse], 2, "field amplitude overflows: max |Omega|^2 is not finite")
      for sse in ([], ["--sse", "--n-traj", "4", "--dt", "0.025"])]],
    ids=["sweep-1", "sweep-7", "sweep-4", "simulate", "simulate-sse", "sensitivity-1e200",
         "protocol-1e200", "protocol-1e308", "sweep-2-1e200", "sweep-5-corner",
         "sweep-2-least-delta0", "simulate-overflow", "simulate-sse-overflow"])
def test_numerical_refusals_print_the_refusal_alone(tmp_path, capsys, args, code, refusal):
    """Under the suite's error::RuntimeWarning filter, as under the default one."""
    assert run_cli([*args, "--grid-steps", "11", "--out", str(tmp_path / "out")]) == code
    assert capsys.readouterr().err == f"invlab: {refusal}\n"
    assert list(tmp_path.iterdir()) == []


def test_overflowing_parameters_print_no_numpy_warning():
    """A refused parameter set prints its refusal alone under the default warning filter too."""
    proc = subprocess.run([sys.executable, "-m", "invlab.cli", "sensitivity", "--kind",
                           "transitionless", "--omega0", "1e200", "--delta0", "1", "--grid-steps",
                           "11", "--method", "formula"],
                          capture_output=True, text=True, env=src_env(), timeout=120)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == ("invlab: transitionless: omega0=1e+200 and delta0=1.0 overflow "
                           "WR^2 + WI^2 + D^2 or the counter-diabatic numerator\n")


@pytest.mark.parametrize("axis", ["10,12,2", "6,8,2"])
@pytest.mark.parametrize("figure, formula, key", [("2", qn_formula, "q_n"),
                                                  ("5", qs_formula, "q_s")], ids=["2", "5"])
def test_coarse_sweep_cells_are_the_fields_angle_values(tmp_path, figure, formula, key, axis):
    # Fig. 2/5 cells integrate no dynamics, so even a 3-point grid has nothing to
    # diverge or miss the inversion: each cell is its field's angle-route value
    base = tmp_path / "fig"
    assert run_cli(["sweep", "--figure", figure, f"--axis1={axis}", f"--axis2={axis}",
                    "--grid-steps", "3", "--out", str(base)]) == 0
    rows = [line.split(",") for line in (tmp_path / "fig.csv").read_text().splitlines()[1:]]
    assert len(rows) == 4
    for omega0, delta0, value in rows:
        field = make_transitionless(float(omega0), float(delta0), TimeGrid(3))
        assert field.angles is not None
        assert float(value) == getattr(formula(field), key)


CLI_KINDS = {
    "flat_pi": ["--kind", "flat_pi", "--alpha", "0.3"],
    "shaped_pi": ["--kind", "shaped_pi", "--envelope", "flat"],
    "sinusoidal_adiabatic": ["--kind", "sinusoidal_adiabatic", *FIG1],
    "transitionless": ["--kind", "transitionless", *FIG1],
    "optimal_noise": ["--kind", "optimal_noise", "--n", "3"],
    "optimal_systematic": ["--kind", "optimal_systematic", "--n", "2"],
}


@pytest.mark.parametrize("kind", CLI_KINDS)
def test_formula_reports_solve_no_ode_but_for_the_bare_sweep(tmp_path, capsys, monkeypatch,
                                                             kind):
    def refuse(field, *args, **kwargs):
        raise RuntimeError("no propagator solve")

    monkeypatch.setattr(sensitivity_module, "evolve_propagator", refuse)
    out = tmp_path / "report.json"
    rc = run_cli(["sensitivity", *CLI_KINDS[kind], "--method", "formula",
                  "--grid-steps", "401", "--out", str(out)])
    if kind == "sinusoidal_adiabatic":  # the one CLI kind without angles
        assert rc == 1
        assert capsys.readouterr().err == "invlab: no propagator solve\n"
        return
    assert rc == 0
    report = json.loads(out.read_text())
    assert math.isfinite(report["q_n"]) and math.isfinite(report["q_s"])


@pytest.mark.parametrize("figure", ["1", "4"])
@pytest.mark.parametrize("how", ["flag", "config"])
def test_axis2_on_a_one_axis_figure_exits_2(tmp_path, capsys, figure, how):
    args = ["sweep", "--figure", figure, "--axis1=0,1,3", "--grid-steps", "11",
            "--out", str(tmp_path / "fig")]
    if how == "flag":
        args.append("--axis2=0,1,3")
    else:
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"sweep": {"axis2": "0,1,3"}}))
        args += ["--config", str(config)]
    assert run_cli(args) == 2
    assert f"sweep --figure {figure} has one axis; --axis2 does not apply" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == (["cfg.json"] if how == "config" else [])


@pytest.mark.parametrize("args, axis", [(["--figure", "4", "--axis1=0,inf,3"], "beta"),
                                        (["--figure", "2", "--axis1=1,inf,3"], "omega0"),
                                        (["--figure", "4", "--axis1=-1e308,1e308,3"], "beta")])
def test_non_finite_sweep_axis_exits_2(tmp_path, capsys, args, axis):
    assert run_cli(["sweep", *args, "--grid-steps", "101", "--out", str(tmp_path / "fig")]) == 2
    assert f"invlab: axis {axis}: min" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_protocol_flags_come_from_the_protocol_table(capsys):
    params = {}
    for family in PROTOCOLS.values():
        for p in family.params:
            params.setdefault(p.name, set()).add((p.type, tuple(sorted(p.choices or ())), p.help))
    assert all(len(rules) == 1 for rules in params.values()), params
    assert run_cli(["protocol", "--help"]) == 0
    text = capsys.readouterr().out
    flags = re.findall(r"^ +(--[\w-]+)", text, re.M)
    for name, [(_, choices, help_text)] in params.items():
        assert flags.count(f"--{name}") == 1, name
        assert help_text in " ".join(text.split())
        if choices:
            assert f"--{name} {{{','.join(choices)}}}" in text
    assert "--gauge" not in text
    # unset protocol parameters dump as null: the kind's own default
    assert run_cli(["protocol", "--kind", "shaped_pi", "--dump-config"]) == 0
    dumped = json.loads(capsys.readouterr().out)["protocol"]
    assert dumped == {"kind": "shaped_pi", **dict.fromkeys(params)}


def test_spaced_negative_exponent_value_parses_like_joined(tmp_path):
    outputs = []
    for name, form in (("spaced", ["--beta", "-5e-2"]), ("joined", ["--beta=-0.05"])):
        out = tmp_path / f"{name}.csv"
        assert run_cli(["simulate", "--kind", "flat_pi", "--grid-steps", "101", *form,
                        "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("args, message", [
    (["--beta", "-inf"], "beta must be finite"),
    (["--lambda2", "-1e-3"], "lambda2 must be finite and >= 0")])
def test_spaced_negative_values_reach_their_checks(capsys, args, message):
    assert run_cli(["simulate", "--kind", "flat_pi", "--grid-steps", "11", *args]) == 2
    assert f"invlab: {message}" in capsys.readouterr().err
