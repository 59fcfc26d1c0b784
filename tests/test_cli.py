import argparse
import csv
import json
import math
import os
import re
import shlex
import subprocess
import sys

import numpy as np
import pytest

import oracles
import qcs
from qcs import solver
from qcs.cli import build_config, build_parser, main
from qcs.qlinalg import QVector, load_json, matvec, save_json
from qcs.random import (
    GROUP_SIZES,
    RngStream,
    sample_gaussian_matrix,
    sample_sparse_signal,
)
from qcs.rip import exact_delta


@pytest.fixture
def instance_files(tmp_path):
    rng = RngStream(17, 0)
    Phi = sample_gaussian_matrix(rng, 6, 8, 1.0 / 6)
    x, _ = sample_sparse_signal(rng.child(1), 8, 1)
    y = matvec(Phi, x)
    phi_path = tmp_path / "phi.json"
    y_path = tmp_path / "y.json"
    truth_path = tmp_path / "x.json"
    save_json(Phi, phi_path)
    save_json(y, y_path)
    save_json(x, truth_path)
    return Phi, str(phi_path), str(y_path), str(truth_path)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_recover_command(capsys, instance_files):
    _, phi, y, truth = instance_files
    code, out, _ = run_cli(capsys, ["recover", "--phi", phi, "--y", y,
                                    "--truth", truth])
    assert code == 0
    rec = json.loads(out)
    assert rec["status"] == "converged"
    assert rec["err_l2"] <= 1e-7
    assert rec["objective"] > 0.0


def test_recover_writes_solution(capsys, instance_files, tmp_path):
    _, phi, y, _ = instance_files
    out_path = tmp_path / "xhat.json"
    code, out, _ = run_cli(capsys, ["recover", "--phi", phi, "--y", y,
                                    "--out", str(out_path),
                                    "--trace", str(tmp_path / "trace.csv")])
    assert code == 0
    assert out_path.exists()
    saved = json.loads(out_path.read_text())
    assert saved["kind"] == "qvector"
    with open(tmp_path / "trace.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["iteration", "primal_residual", "dual_residual",
                       "objective", "rho"]
    assert len(rows) - 1 == json.loads(out)["iterations"]


@pytest.mark.parametrize("max_iters, status, iterations",
                         [(None, "converged", 459), (40, "max_iters", 40)])
def test_recover_real_input(capsys, tmp_path, max_iters, status, iterations):
    # real Phi and y are solved on the m x n operator; status and iteration
    # count are pinned to those of the 4m x 4n embedding
    rng = RngStream(19, 0)
    Phi = sample_gaussian_matrix(rng, 12, 40, 1.0 / 12, 1)
    x, _ = sample_sparse_signal(rng.child(1), 40, 4, 1)
    paths = {name: str(tmp_path / f"{name}.json") for name in ("phi", "y", "x")}
    save_json(Phi, paths["phi"])
    save_json(matvec(Phi, x), paths["y"])
    save_json(x, paths["x"])
    argv = ["recover", "--phi", paths["phi"], "--y", paths["y"], "--truth", paths["x"]]
    if max_iters is not None:
        argv += ["--max-iters", str(max_iters)]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    rec = json.loads(out)
    assert (rec["status"], rec["iterations"], rec["polished"]) == (status, iterations, True)
    assert rec["err_l2"] <= 1e-12


def test_recover_missing_file_fails_cleanly(capsys, tmp_path):
    code, out, err = run_cli(capsys, ["recover", "--phi", str(tmp_path / "no.json"),
                                      "--y", str(tmp_path / "no2.json")])
    assert code == 1
    record = json.loads(err)
    assert "error" in record


@pytest.mark.parametrize("target, index, value",
                         [("phi", (0, 1, 2), float("nan")), ("y", (2, 0), float("inf"))])
def test_recover_rejects_non_finite_input(capsys, instance_files, tmp_path,
                                          target, index, value):
    _, phi, y, _ = instance_files
    paths = {"phi": phi, "y": y}
    bad = load_json(paths[target])
    bad.data[index] = value
    paths[target] = str(tmp_path / f"bad_{target}.json")
    save_json(bad, paths[target])
    code, out, err = run_cli(capsys, ["recover", "--phi", paths["phi"],
                                      "--y", paths["y"]])
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == "NonFiniteInput"


def test_recover_rejects_a_y_of_the_wrong_length(capsys, instance_files, tmp_path):
    _, phi, y, _ = instance_files
    short = tmp_path / "short_y.json"
    save_json(QVector(load_json(y).data[:-1]), short)
    code, out, err = run_cli(capsys, ["recover", "--phi", phi, "--y", str(short)])
    assert (code, out, len(err.splitlines())) == (1, "", 1)
    assert json.loads(err) == {"error": "DimensionMismatch",
                               "message": "y has length 5, Phi has 6 rows"}


@pytest.mark.parametrize("argv", [
    pytest.param(["recover", "--phi", "LIST", "--y", "Y"], id="phi-json-list"),
    pytest.param(["recover", "--phi", "NO_SHAPE", "--y", "Y"], id="phi-without-shape"),
    pytest.param(["recover", "--phi", "NULL_SHAPE", "--y", "Y"], id="phi-null-shape"),
    pytest.param(["recover", "--phi", "Y", "--y", "Y"], id="phi-is-qvector"),
    pytest.param(["recover", "--phi", "PHI", "--y", "PHI"], id="y-is-qmatrix"),
    pytest.param(["recover", "--phi", "PHI", "--y", "Y", "--truth", "PHI"],
                 id="truth-is-qmatrix"),
    pytest.param(["recover", "--phi", "PHI", "--y", "Y", "--tol", "inf"], id="tol-inf"),
    pytest.param(["rip", "--phi", "Y", "--s", "2"], id="rip-phi-is-qvector"),
    pytest.param(["ratio", "--m", ","], id="ratio-no-m"),
    pytest.param(["ratio", "--m", "8,16", "--samples", "1000"], id="ratio-two-m"),
])
def test_malformed_input_fails_cleanly(capsys, instance_files, tmp_path, argv):
    _, phi, y, _ = instance_files
    with open(phi) as fh:
        phi_obj = json.load(fh)
    files = {"PHI": phi, "Y": y}
    for name, payload in (("LIST", [1, 2]),
                          ("NO_SHAPE", {k: v for k, v in phi_obj.items() if k != "shape"}),
                          ("NULL_SHAPE", {**phi_obj, "shape": [None, 8]})):
        files[name] = str(tmp_path / f"{name}.json")
        with open(files[name], "w") as fh:
            json.dump(payload, fh)
    code, out, err = run_cli(capsys, [files.get(a, a) for a in argv])
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] in ("ValueError", "BadLength")


def test_rip_command(capsys, instance_files):
    Phi, phi, _, _ = instance_files
    code, out, _ = run_cli(capsys, ["rip", "--phi", phi, "--s", "2",
                                    "--sampled", "2000"])
    assert code == 0
    rep = json.loads(out)
    assert abs(rep["delta"] - exact_delta(Phi, 2).delta) < 1e-12
    assert rep["sampled_lower_bound"] <= rep["delta"] + 1e-12
    assert rep["s"] == 2


def test_rip_requires_s(capsys, instance_files):
    _, phi, _, _ = instance_files
    code, _, err = run_cli(capsys, ["rip", "--phi", phi])
    assert code == 1
    assert "error" in json.loads(err)


def test_rip_certificate_branch(capsys, instance_files):
    _, phi, _, _ = instance_files
    code, out, _ = run_cli(capsys, ["rip", "--phi", phi, "--s", "2",
                                    "--certificate"])
    assert code == 0
    # random 6x8 draws land far above sqrt(2)-1, so no guarantee follows
    assert "no recovery guarantee" in out


def test_ratio_command(capsys):
    code, out, _ = run_cli(capsys, ["ratio", "--m", "8", "--samples", "1000"])
    assert code == 0
    rep = json.loads(out)
    assert abs(rep["mean"] - 1.0) < 0.1
    assert rep["ks_distance_to_gamma"] < 0.1


def test_sweep_command_deterministic(capsys, tmp_path):
    argv = ["sweep", "--n", "12", "--m", "6", "--s", "1", "--trials", "2",
            "--out", str(tmp_path / "sweep"), "--plot"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    tail = json.loads(out.strip().splitlines()[-1])
    assert tail["cells"] == 1
    summary = json.loads((tmp_path / "sweep" / "summary.json").read_text())
    assert summary["kind"] == "sweep_summary"
    grid = (tmp_path / "sweep" / "grid.csv").read_text()
    assert (tmp_path / "sweep" / "heatmap.svg").exists()
    code2, _, _ = run_cli(capsys, argv)
    assert code2 == 0
    assert (tmp_path / "sweep" / "grid.csv").read_text() == grid


def test_sweep_config_file_with_overrides(capsys, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"n": 12, "m_values": [6], "s_rule": [1],
                                    "trials": 1}))
    code, out, _ = run_cli(capsys, ["sweep", "--config", str(cfg_path),
                                    "--trials", "2",
                                    "--out", str(tmp_path / "o")])
    assert code == 0
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert summary["cells"][0]["trials"] == 2


@pytest.mark.parametrize("extra, unknown", [
    ({"trails": 3}, "trails"),
    # the sweep protocol is fixed in code, not a config setting
    ({"solver": {"max_iters": 3000, "tol": 1e-9}}, "solver"),
    ({"perfect_threshold": 1e-7}, "perfect_threshold"),
])
def test_sweep_config_unknown_key_fails_cleanly(capsys, tmp_path, extra, unknown):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"n": 12, "m_values": [6], "s_rule": [1],
                                    "trials": 1, **extra}))
    code, out, err = run_cli(capsys, ["sweep", "--config", str(cfg_path),
                                      "--out", str(tmp_path / "o")])
    assert code == 1
    assert out == ""
    record = json.loads(err)
    assert record["error"] == "ValueError"
    assert unknown in record["message"]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("extra", [
    {"n": "64"}, {"base_seed": "0"}, {"trials": 2.5}, {"n": 16.0},
    {"m_values": [8.7]}, {"s_rule": [1.9]}, {"trials": True}, {"eta": False},
    {"scalar_mode": 4}, {"record_timings": "yes"}, {"m_values": 6},
    {"eta": math.nan}, {"eta": math.inf},
])
def test_sweep_config_wrong_type_fails_cleanly(capsys, tmp_path, extra):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"n": 12, "m_values": [6], "s_rule": [1],
                                    "trials": 1, **extra}))
    code, out, err = run_cli(capsys, ["sweep", "--config", str(cfg_path),
                                      "--out", str(tmp_path / "o")])
    assert code == 1
    assert out == ""
    record = json.loads(err)
    assert record["error"] == "ValueError"
    assert next(iter(extra)) in record["message"]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("content", [None, [1, 2]])
def test_sweep_config_not_an_object_fails_cleanly(capsys, tmp_path, content):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(content))
    code, out, err = run_cli(capsys, ["sweep", "--config", str(cfg_path),
                                      "--out", str(tmp_path / "o")])
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == "ValueError"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("flags", [["--seed", "-1"], ["--seed", str(2 ** 64)],
                                   ["--m", "65536"], ["--n", "8", "--m", "32", "--s", "9"]])
def test_sweep_outside_sampler_range_fails_cleanly(capsys, tmp_path, flags):
    code, out, err = run_cli(capsys, ["sweep", "--n", "12", "--m", "6", "--s", "1",
                                      "--trials", "1", "--out", str(tmp_path / "o"),
                                      *flags])
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == "ValueError"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("flags", [["--n", "16", "--m", "8", "--s", "6"], ["--m", "1"],
                                   ["--n", "16", "--m", "8,16", "--s", "2,9"]])
def test_sweep_with_an_s_no_m_runs_fails_cleanly(capsys, tmp_path, flags):
    # a sweep caps s at m/2: s = 6 at m = 8, any s at m = 1, s = 9 at m <= 16
    code, out, err = run_cli(capsys, ["sweep", *flags, "--trials", "1",
                                      "--out", str(tmp_path / "o")])
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"] == "ValueError"
    assert not (tmp_path / "o").exists()


def test_sweep_refuses_a_schema_1_directory_cleanly(capsys, tmp_path):
    # schema 1 wrote record_timings into config.json and wall_time into
    # every record; neither the directory nor its records are read as is
    out_dir = tmp_path / "o"
    argv = ["sweep", "--n", "12", "--m", "6", "--s", "1", "--trials", "2",
            "--out", str(out_dir)]
    assert run_cli(capsys, argv)[0] == 0
    config = json.loads((out_dir / "config.json").read_text())
    records = (out_dir / "records.jsonl").read_text().splitlines()
    (out_dir / "config.json").write_text(json.dumps({**config, "record_timings": False}))
    (out_dir / "records.jsonl").write_text(
        json.dumps({**json.loads(records[0]), "wall_time": None}) + "\n")
    code, out, err = run_cli(capsys, argv)
    assert (code, out, len(err.splitlines())) == (1, "", 1)
    assert json.loads(err)["error"] == "ValueError"
    # with the config key gone, the record's own key is named
    (out_dir / "config.json").write_text(json.dumps(config))
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "ValueError",
                               "message": "unknown record key(s): wall_time"}


# the sweep protocol as schema 3 stored it in config.json
SCHEMA_3_KEYS = {"perfect_threshold": 1e-7, "solver": {"max_iters": 3000, "tol": 1e-9}}


def test_sweep_refuses_a_schema_2_directory_cleanly(capsys, tmp_path):
    # schema 2 held five solver keys; the sweep profile's values of them
    # migrate to the one "tol" key (step 2), and then the protocol keys
    # go (step 3)
    out_dir = tmp_path / "o"
    argv = ["sweep", "--n", "12", "--m", "6", "--s", "1", "--trials", "2",
            "--out", str(out_dir)]
    assert run_cli(capsys, argv)[0] == 0
    config = json.loads((out_dir / "config.json").read_text())
    records = (out_dir / "records.jsonl").read_bytes()
    old = {"rho": 1.0, "max_iters": 3000, "tol_primal": 1e-9, "tol_dual": 1e-9,
           "polish": True}
    for stored in ({**config, **SCHEMA_3_KEYS, "solver": old},
                   {**config, **SCHEMA_3_KEYS}):
        (out_dir / "config.json").write_text(json.dumps(stored))
        code, out, err = run_cli(capsys, argv)
        assert (code, out, len(err.splitlines())) == (1, "", 1)
        assert json.loads(err)["error"] == "ValueError"
    (out_dir / "config.json").write_text(json.dumps(config))
    assert run_cli(capsys, argv)[0] == 0
    assert (out_dir / "records.jsonl").read_bytes() == records


def test_sweep_refuses_a_schema_3_directory_cleanly(capsys, tmp_path):
    # schema 3 stored perfect_threshold and the solver profile; once both
    # keys are deleted the sweep resumes where it stopped
    out_dir = tmp_path / "o"
    argv = ["sweep", "--n", "12", "--m", "6", "--s", "1", "--trials", "2",
            "--out", str(out_dir)]
    assert run_cli(capsys, argv)[0] == 0
    config = json.loads((out_dir / "config.json").read_text())
    assert not set(SCHEMA_3_KEYS) & set(config)
    records = (out_dir / "records.jsonl").read_bytes()
    (out_dir / "records.jsonl").write_bytes(records.splitlines(keepends=True)[0])
    (out_dir / "config.json").write_text(json.dumps({**config, **SCHEMA_3_KEYS}))
    code, out, err = run_cli(capsys, argv)
    assert (code, out, len(err.splitlines())) == (1, "", 1)
    assert json.loads(err)["error"] == "ValueError"
    (out_dir / "config.json").write_text(json.dumps(config))
    assert run_cli(capsys, argv)[0] == 0
    assert (out_dir / "records.jsonl").read_bytes() == records


def test_the_drift_guard_names_the_keys_that_differ(capsys, tmp_path):
    out_dir = tmp_path / "o"
    argv = ["sweep", "--n", "12", "--m", "6", "--s", "1", "--trials", "2",
            "--out", str(out_dir)]
    assert run_cli(capsys, argv)[0] == 0
    config_path = out_dir / "config.json"
    config = json.loads(config_path.read_text())
    differ = f"{config_path} holds a different config (keys that differ:"
    # a sweep started with other settings
    config_path.write_text(json.dumps({**config, "trials": 3}))
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "ValueError",
                               "message": f"{differ} trials); refusing to mix sweeps"}
    # a schema-3 directory, whose two keys schema 5 does not know
    config_path.write_text(json.dumps({**config, **SCHEMA_3_KEYS}))
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (1, "")
    assert json.loads(err) == {
        "error": "ValueError",
        "message": f"{differ} perfect_threshold, solver); refusing to mix sweeps; "
                   "schema 5 has no key perfect_threshold, solver, so an older "
                   "version wrote this directory: README.md's File formats section "
                   "lists the migration steps"}
    # the section it points to holds the steps
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")) as fh:
        formats = fh.read().split("\n## File formats\n")[1].split("\n## ")[0]
    assert "apply each step from its `schema_version` on" in formats


def test_sweep_refuses_a_config_json_that_is_not_an_object(capsys, tmp_path):
    out_dir = tmp_path / "o"
    argv = ["sweep", "--n", "12", "--m", "6", "--s", "1", "--trials", "2",
            "--out", str(out_dir)]
    assert run_cli(capsys, argv)[0] == 0
    records = (out_dir / "records.jsonl").read_bytes()
    (out_dir / "config.json").write_text("[1, 2]")
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (1, "")
    assert json.loads(err) == {
        "error": "ValueError",
        "message": f"{out_dir / 'config.json'} must hold a JSON object, got list"}
    assert (out_dir / "records.jsonl").read_bytes() == records


@pytest.mark.parametrize("command", ["sweep", "c0"])
def test_an_empty_s_list_fails_cleanly(capsys, tmp_path, command):
    code, out, err = run_cli(capsys, [command, "--n", "8", "--m", "4", "--trials", "2",
                                      "--s", ",", "--out", str(tmp_path / "o")])
    assert (code, out, len(err.splitlines())) == (1, "", 1)
    record = json.loads(err)
    assert record["error"] == "ValueError"
    assert "s_rule" in record["message"]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("key", ["err_l1", "iterations"])
def test_sweep_refuses_a_truncated_record_cleanly(capsys, tmp_path, key):
    out_dir = tmp_path / "o"
    argv = ["sweep", "--n", "12", "--m", "6", "--s", "1", "--trials", "2",
            "--out", str(out_dir)]
    assert run_cli(capsys, argv)[0] == 0
    first, *rest = (out_dir / "records.jsonl").read_text().splitlines(keepends=True)
    record = json.loads(first)
    del record[key]
    (out_dir / "records.jsonl").write_text(json.dumps(record) + "\n" + "".join(rest))
    code, out, err = run_cli(capsys, argv)
    assert (code, out, len(err.splitlines())) == (1, "", 1)
    assert json.loads(err) == {"error": "ValueError",
                               "message": f"missing record key(s): {key}"}


@pytest.mark.parametrize("key, value", [("m", "4"), ("perfect", "no"), ("iterations", 7.5),
                                        ("err_l2", "0"), ("status", None)])
def test_sweep_refuses_a_record_with_a_wrongly_typed_value(capsys, tmp_path, key, value):
    # a string m used to miss the resume lookup, so the trial ran again and
    # a fifth line was appended; a string perfect counted as a success
    out_dir = tmp_path / "o"
    argv = ["sweep", "--n", "16", "--m", "4", "--trials", "2", "--out", str(out_dir)]
    assert run_cli(capsys, argv)[0] == 0
    first, *rest = (out_dir / "records.jsonl").read_text().splitlines(keepends=True)
    assert len(rest) == 3
    damaged = json.dumps({**json.loads(first), key: value}) + "\n" + "".join(rest)
    (out_dir / "records.jsonl").write_text(damaged)
    code, out, err = run_cli(capsys, argv)
    assert (code, out, len(err.splitlines())) == (1, "", 1)
    assert json.loads(err)["error"] == "ValueError"
    assert f"record {key}" in json.loads(err)["message"]
    assert (out_dir / "records.jsonl").read_text() == damaged


def test_recover_trace_matches_the_reference_loop(capsys, instance_files, tmp_path,
                                                  monkeypatch):
    # the in-place iteration writes the trace, the x_hat file and the
    # report of the allocating reference step byte for byte
    _, phi, y, truth = instance_files
    outputs = []
    for step in ("in-place", "reference"):
        if step == "reference":
            for name, ref in oracles.REF_LOOP.items():
                monkeypatch.setattr(solver, name, ref)
        paths = [tmp_path / f"{step}.csv", tmp_path / f"{step}.json"]
        code, out, _ = run_cli(capsys, ["recover", "--phi", phi, "--y", y,
                                        "--truth", truth, "--trace", str(paths[0]),
                                        "--out", str(paths[1])])
        assert code == 0
        report = json.loads(out)
        report.pop("x_hat_path")
        outputs.append((report, paths[0].read_bytes(), paths[1].read_bytes()))
    assert outputs[0] == outputs[1]
    assert len(outputs[0][1].splitlines()) - 1 == outputs[0][0]["iterations"] > 10


def test_c0_takes_s_above_half_m(capsys, tmp_path):
    # c0 bounds the error constant at any s, not only the sweep's s <= m/2
    code, out, _ = run_cli(capsys, ["c0", "--n", "16", "--m", "8", "--s", "6",
                                    "--trials", "1", "--out", str(tmp_path / "c0")])
    assert code == 0
    assert json.loads(out.strip().splitlines()[-1])["points"] == 1


@pytest.mark.parametrize("command", ["sweep", "ratio"])
def test_mode_choices_are_the_group_table(command):
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    mode = next(a for a in sub.choices[command]._actions if "--mode" in a.option_strings)
    assert list(mode.choices) == list(GROUP_SIZES)


def test_sweep_full_profile_config():
    config = build_config(build_parser().parse_args(["sweep", "--full"]))
    assert len(config.cells()) == 528
    assert config.trials == 1000
    assert config.n == 256


def test_import_does_not_load_scipy_stats():
    src = os.path.dirname(os.path.dirname(os.path.abspath(qcs.__file__)))
    probe = "import sys, qcs, qcs.cli; print('scipy.stats' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_c0_command(capsys, tmp_path):
    code, out, _ = run_cli(capsys, ["c0", "--n", "8", "--m", "6", "--trials", "2",
                                    "--s", "1,2,3", "--out", str(tmp_path / "c0"),
                                    "--plot"])
    assert code == 0
    tail = json.loads(out.strip().splitlines()[-1])
    assert tail["points"] == 6 and tail["skipped"] == 0
    rep = json.loads((tmp_path / "c0" / "c0_summary.json").read_text())
    assert rep["kind"] == "c0_summary"
    assert set(rep["max_per_s"]) == {"1", "2", "3"}
    assert (tmp_path / "c0" / "c0_scatter.svg").exists()


def test_c0_reads_s_rule_from_config(capsys, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"n": 8, "m_values": [6], "trials": 2,
                                    "s_rule": [2, 1]}))
    code, out, _ = run_cli(capsys, ["c0", "--config", str(cfg_path),
                                    "--out", str(tmp_path / "c0")])
    assert code == 0
    assert json.loads(out.strip().splitlines()[-1])["points"] == 4
    rep = json.loads((tmp_path / "c0" / "c0_summary.json").read_text())
    assert set(rep["max_per_s"]) == {"1", "2"}
    # points come per solve, in s_rule order
    points = (tmp_path / "c0" / "c0_scatter.jsonl").read_text().splitlines()
    assert [json.loads(line)["s"] for line in points] == [2, 1, 2, 1]


def test_c0_echoes_the_s_values_it_ran(capsys, tmp_path):
    # with no s list, c0 runs s = 1..min(2m, n), and the echo says so; at
    # s = n every vector is exactly s-sparse, so those points are skipped
    code, _, _ = run_cli(capsys, ["c0", "--n", "8", "--m", "4", "--trials", "2",
                                  "--out", str(tmp_path / "c0")])
    assert code == 0
    rep = json.loads((tmp_path / "c0" / "c0_summary.json").read_text())
    assert rep["config"]["s_rule"] == list(range(1, 9))
    assert set(rep["max_per_s"]) == {str(s) for s in range(1, 8)}
    assert rep["skipped"] == 2
    # a given list is echoed as given
    code, _, _ = run_cli(capsys, ["c0", "--n", "8", "--m", "4", "--trials", "1",
                                  "--s", "3,1", "--out", str(tmp_path / "c0l")])
    rep = json.loads((tmp_path / "c0l" / "c0_summary.json").read_text())
    assert rep["config"]["s_rule"] == [3, 1]


@pytest.mark.parametrize("argv, config", [
    (["--m", "6,8"], {}),
    ([], {"scalar_mode": "real"}),
    ([], {"eta": 0.5}),
    ([], {"perfect_threshold": 1e-3}),
    ([], {"record_timings": True}),
])
def test_c0_refuses_settings_it_does_not_honour(capsys, tmp_path, argv, config):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"n": 8, "m_values": [6], "trials": 1, **config}))
    code, out, err = run_cli(capsys, ["c0", "--config", str(cfg_path), *argv,
                                      "--out", str(tmp_path / "c0")])
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == "ValueError"
    assert not (tmp_path / "c0").exists()


def test_plot_command_from_summary(capsys, tmp_path):
    run_cli(capsys, ["sweep", "--n", "12", "--m", "6", "--s", "1", "--trials", "1",
                     "--out", str(tmp_path / "s")])
    out_svg = tmp_path / "replot.svg"
    code, _, _ = run_cli(capsys, ["plot", "--input",
                                  str(tmp_path / "s" / "summary.json"),
                                  "--out", str(out_svg)])
    assert code == 0
    assert out_svg.read_text().startswith("<svg")


def test_plot_command_rejects_garbage(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, ["plot", "--input", str(bad),
                                    "--out", str(tmp_path / "x.svg")])
    assert code == 1
    assert "error" in json.loads(err)


@pytest.mark.parametrize("name, content", [
    ("list.json", "[1, 2]"),
    ("list.jsonl", "[1, 2]\n"),
    ("cell.json", json.dumps({"kind": "sweep_summary",
                              "cells": [{"m": 8, "trials": 1, "rate": 1.0}]})),
    ("c0.json", json.dumps({"kind": "c0_summary", "skipped": 0})),
])
def test_plot_malformed_input_fails_cleanly(capsys, tmp_path, name, content):
    bad = tmp_path / name
    bad.write_text(content)
    code, out, err = run_cli(capsys, ["plot", "--input", str(bad),
                                      "--out", str(tmp_path / "x.svg")])
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"] == "ValueError"
    assert not (tmp_path / "x.svg").exists()


def test_unknown_flag_exits_two(instance_files):
    _, phi, y, _ = instance_files
    with pytest.raises(SystemExit) as exc:
        main(["recover", "--phi", phi, "--y", y, "--frobnicate"])
    assert exc.value.code == 2


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["transmogrify"])
    assert exc.value.code == 2


# Flags each subcommand used to accept and never read.
_BASE_ARGV = {"recover": ["--phi", "p.json", "--y", "y.json"],
              "rip": ["--phi", "p.json", "--s", "2"],
              "ratio": ["--m", "8"],
              "c0": [],
              "plot": ["--input", "summary.json", "--out", "x.svg"]}
# recover's --rho, --tol-primal, --tol-dual and --no-polish set what is now fixed
_UNREAD = {"recover": "--config --n --m --s --trials --seed --mode "
                      "--rho --tol-primal --tol-dual --no-polish",
           "rip": "--config --n --m --trials --seed --eta --mode --out",
           "ratio": "--config --n --s --trials --eta",
           "c0": "--eta --mode",
           "plot": "--config --n --m --s --trials --seed --eta --mode"}
_VALUES = {"--config": "cfg.json", "--n": "8", "--m": "8", "--s": "2",
           "--trials": "2", "--seed": "1", "--eta": "0.5", "--mode": "real",
           "--out": "o", "--rho": "2", "--tol-primal": "1e-9", "--tol-dual": "1e-9"}


@pytest.mark.parametrize("command, flag", [(c, f) for c, flags in _UNREAD.items()
                                           for f in flags.split()])
def test_subcommand_refuses_flags_it_does_not_read(command, flag):
    parser = build_parser()
    parser.parse_args([command, *_BASE_ARGV[command]])
    with pytest.raises(SystemExit) as exc:
        parser.parse_args([command, *_BASE_ARGV[command], flag,
                           *([_VALUES[flag]] if flag in _VALUES else [])])
    assert exc.value.code == 2


def _readme_blocks(lang: str = "[^\n]*") -> list[str]:
    """The fenced code blocks of README.md whose info string matches lang."""
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        return re.findall(rf"^```{lang}\n(.*?)^```", fh.read(), re.M | re.S)


def _readme_commands() -> list[str]:
    return [line for block in _readme_blocks() for line in block.splitlines()
            if line.startswith("qcs ")]


def test_readme_has_cli_examples():
    commands = {line.split()[1] for line in _readme_commands()}
    assert commands == {"sweep", "recover", "rip", "ratio", "c0", "plot"}


@pytest.mark.parametrize("line", _readme_commands())
def test_readme_cli_example_parses(line):
    build_parser().parse_args(shlex.split(line)[1:])


def test_readme_python_examples_run():
    # the blocks build on each other, so they share one namespace
    blocks = _readme_blocks("python")
    assert len(blocks) >= 2
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
