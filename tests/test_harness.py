import json
import math
import os

import numpy as np
import pytest

from qcs import random as qrandom
from qcs import solver
from qcs.errors import IoFailure
from qcs.harness import (
    ExperimentConfig,
    PhaseDiagram,
    ScatterData,
    TrialRecord,
    _sample_problem,
    emit_plot,
    render_heatmap,
    render_scatter,
    run_c0_experiment,
    run_ratio_test,
    run_single_trial,
    run_sweep,
    sweep_solver_params,
    worker_count,
)
from qcs.qlinalg import QMatrix, QVector, lp_norm, matvec
from qcs.solver import RecoveryProblem, SolverParams


def small_config(tmp_path, **overrides):
    base = dict(n=16, m_values=(8,), s_rule=(1, 2), trials=4, base_seed=0,
                scalar_mode="quaternion", solver=sweep_solver_params(),
                out_dir=str(tmp_path / "out"))
    base.update(overrides)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# config


def test_config_validation(tmp_path):
    small_config(tmp_path)
    for kwargs in (dict(trials=0), dict(n=0), dict(m_values=()),
                   dict(m_values=(0,)), dict(scalar_mode="octonion"),
                   dict(eta=-1.0), dict(perfect_threshold=0.0),
                   dict(eta=math.nan), dict(eta=math.inf),
                   dict(perfect_threshold=math.nan), dict(perfect_threshold=math.inf),
                   dict(s_rule="2..m"), dict(s_rule=(0, 1)),
                   # wrong types
                   dict(n=16.0), dict(n="16"), dict(trials=True), dict(trials=2.5),
                   dict(base_seed=None), dict(m_values=(8.7,)), dict(m_values=8),
                   dict(s_rule=(1.9,)), dict(eta="0"), dict(perfect_threshold=True),
                   dict(record_timings=1), dict(out_dir=None), dict(scalar_mode=0),
                   dict(solver={"max_iters": 5})):
        with pytest.raises(ValueError):
            small_config(tmp_path, **kwargs)


@pytest.mark.parametrize("kwargs", [
    dict(base_seed=-1), dict(base_seed=2 ** 64), dict(trials=2 ** 24 + 1),
    dict(m_values=(8, 2 ** 16)), dict(n=8, m_values=(32,), s_rule=(9,)),
    dict(n=3, m_values=(8,), s_rule="1..m/2"),
])
def test_config_rejects_values_the_samplers_cannot_take(tmp_path, kwargs):
    with pytest.raises(ValueError):
        small_config(tmp_path, **kwargs)


def test_config_accepts_the_sampler_limits(tmp_path):
    small_config(tmp_path, base_seed=2 ** 64 - 1, trials=2 ** 24,
                 m_values=(2 ** 16 - 1,))
    small_config(tmp_path, n=4, m_values=(8,), s_rule="1..m/2")


def test_config_takes_numpy_numbers(tmp_path):
    cfg = small_config(tmp_path, n=np.int64(16), trials=np.int32(4),
                       m_values=(np.int64(8),), s_rule=(np.int16(1),),
                       eta=np.float64(0.0))
    plain = small_config(tmp_path, s_rule=(1,))
    assert json.loads(json.dumps(cfg.to_json_dict())) == plain.to_json_dict()


def test_config_s_rule():
    cfg = ExperimentConfig(n=64, m_values=(8, 16), trials=1)
    assert cfg.s_values_for(8) == [1, 2, 3, 4]
    assert cfg.s_values_for(16) == list(range(1, 9))
    explicit = ExperimentConfig(n=64, m_values=(8,), s_rule=(3, 1, 9), trials=1)
    # capped at m/2 and sorted
    assert explicit.s_values_for(8) == [1, 3]
    assert explicit.cells() == [(8, 1), (8, 3)]


def test_config_json_roundtrip(tmp_path):
    cfg = small_config(tmp_path, record_timings=True)
    back = ExperimentConfig.from_json_dict(json.loads(json.dumps(cfg.to_json_dict())))
    assert back == cfg


def test_trial_record_serialization():
    rec = TrialRecord(m=8, s=2, trial_index=3, seed=0, err_l1=math.inf,
                      err_l2=math.inf, perfect=False, status="error:QcsError",
                      iterations=0, wall_time=1.5)
    d = rec.to_json_dict(record_timings=False)
    assert d["err_l1"] is None and d["err_l2"] is None
    assert d["wall_time"] is None
    back = TrialRecord.from_json_dict({**d})
    assert back.err_l1 == math.inf and back.err_l2 == math.inf
    timed = rec.to_json_dict(record_timings=True)
    assert timed["wall_time"] == 1.5


# ---------------------------------------------------------------------------
# single trials and sweeps


def test_single_trial_perfect(tmp_path):
    cfg = small_config(tmp_path)
    rec = run_single_trial(cfg, 8, 1, 0)
    assert rec.perfect
    assert rec.err_l2 <= cfg.perfect_threshold
    assert rec.status == "converged"
    assert rec.iterations > 0


@pytest.mark.parametrize("mode, group", [("real", 1), ("quaternion", 4)])
def test_noisy_problem_stays_in_its_field(tmp_path, mode, group):
    cfg = small_config(tmp_path, n=32, m_values=(8,), s_rule=(2,), eta=0.01,
                       scalar_mode=mode)
    for trial in range(3):
        Phi, x, y = _sample_problem(cfg, 8, 2, trial)
        noise = y - matvec(Phi, x)
        assert abs(lp_norm(noise, 2) - cfg.eta) < 1e-12
        assert noise.data[:, 1:].any() == (group == 4)
        assert solver._real_form(RecoveryProblem(Phi, y, cfg.eta))[2] == group


def test_easy_cell_rate_is_one(tmp_path):
    cfg = small_config(tmp_path, n=16, m_values=(8,), s_rule=(1,), trials=12)
    diagram = run_sweep(cfg)
    assert diagram.rates[(8, 1)] == 1.0
    assert diagram.counts[(8, 1)] == 12


def test_sweep_outputs_and_determinism(tmp_path):
    cfg = small_config(tmp_path)
    d1 = run_sweep(cfg)
    out = cfg.out_dir
    records = open(os.path.join(out, "records.jsonl")).read()
    summary = open(os.path.join(out, "summary.json")).read()
    # rerunning over finished results touches nothing
    d2 = run_sweep(cfg)
    assert d1.rates == d2.rates
    assert open(os.path.join(out, "records.jsonl")).read() == records
    assert open(os.path.join(out, "summary.json")).read() == summary
    # a second sweep into a fresh directory produces identical bytes
    cfg_b = small_config(tmp_path, out_dir=str(tmp_path / "out_b"))
    run_sweep(cfg_b)
    assert open(os.path.join(cfg_b.out_dir, "records.jsonl")).read() == records


def test_sweep_resumes_partial_records(tmp_path):
    cfg = small_config(tmp_path)
    full = run_sweep(cfg)
    full_records = open(os.path.join(cfg.out_dir, "records.jsonl")).read()

    resumed_dir = str(tmp_path / "resumed")
    cfg_r = small_config(tmp_path, out_dir=resumed_dir)
    os.makedirs(resumed_dir)
    with open(os.path.join(resumed_dir, "config.json"), "w") as fh:
        json.dump(cfg_r.to_json_dict(), fh, sort_keys=True, indent=1)
    # seed the directory with the first two trials of cell (8, 1)
    with open(os.path.join(resumed_dir, "records.jsonl"), "w") as fh:
        for t in (0, 1):
            rec = run_single_trial(cfg_r, 8, 1, t)
            fh.write(json.dumps(rec.to_json_dict(False), sort_keys=True) + "\n")
    resumed = run_sweep(cfg_r)
    assert resumed.rates == full.rates
    got = sorted(open(os.path.join(resumed_dir, "records.jsonl")).read().splitlines())
    want = sorted(full_records.splitlines())
    assert got == want


def test_sweep_resume_drops_torn_last_record(tmp_path):
    cfg = small_config(tmp_path)
    run_sweep(cfg)
    with open(os.path.join(cfg.out_dir, "records.jsonl"), "rb") as fh:
        full_records = fh.read()
    summary = open(os.path.join(cfg.out_dir, "summary.json")).read()

    # a crash in the middle of writing the last record
    torn_dir = str(tmp_path / "torn")
    cfg_t = small_config(tmp_path, out_dir=torn_dir)
    os.makedirs(torn_dir)
    with open(os.path.join(torn_dir, "config.json"), "w") as fh:
        json.dump(cfg_t.to_json_dict(), fh, sort_keys=True, indent=1)
    last_start = full_records.rindex(b"\n", 0, len(full_records) - 1) + 1
    cut = last_start + (len(full_records) - last_start) // 2
    with open(os.path.join(torn_dir, "records.jsonl"), "wb") as fh:
        fh.write(full_records[:cut])
    run_sweep(cfg_t)
    with open(os.path.join(torn_dir, "records.jsonl"), "rb") as fh:
        assert fh.read() == full_records
    assert (open(os.path.join(torn_dir, "summary.json")).read()
            == summary.replace(cfg.out_dir, torn_dir))


def test_sweep_resume_ignores_out_dir_spelling(tmp_path):
    cfg = small_config(tmp_path)
    run_sweep(cfg)
    files = {name: open(os.path.join(cfg.out_dir, name)).read()
             for name in ("config.json", "records.jsonl", "summary.json")}
    respelled = small_config(tmp_path, out_dir=cfg.out_dir + os.sep)
    diagram = run_sweep(respelled)
    assert diagram.config["out_dir"] == cfg.out_dir
    for name, text in files.items():
        assert open(os.path.join(cfg.out_dir, name)).read() == text


def test_sweep_config_drift_guard(tmp_path):
    cfg = small_config(tmp_path)
    run_sweep(cfg)
    drifted = small_config(tmp_path, trials=5)
    with pytest.raises(ValueError):
        run_sweep(drifted)


@pytest.mark.parametrize("raw", ["two", "0", "-1", ""])
def test_sweep_refuses_bad_worker_count(tmp_path, monkeypatch, raw):
    monkeypatch.setenv("QCS_WORKERS", raw)
    cfg = small_config(tmp_path)
    with pytest.raises(ValueError, match="QCS_WORKERS"):
        run_sweep(cfg)
    assert not os.path.exists(cfg.out_dir)


def test_sweep_parallel_matches_serial(tmp_path, monkeypatch):
    cfg_serial = small_config(tmp_path, out_dir=str(tmp_path / "serial"))
    serial = run_sweep(cfg_serial)
    monkeypatch.setenv("QCS_WORKERS", "3")
    assert worker_count() == 3
    cfg_par = small_config(tmp_path, out_dir=str(tmp_path / "par"))
    parallel = run_sweep(cfg_par)
    assert serial.rates == parallel.rates
    a = open(os.path.join(cfg_serial.out_dir, "records.jsonl")).read()
    b = open(os.path.join(cfg_par.out_dir, "records.jsonl")).read()
    assert a == b


def test_hard_cell_rate_is_low(tmp_path):
    # s = m/2 sits deep in the failure region
    cfg = small_config(tmp_path, n=64, m_values=(16,), s_rule=(8,), trials=6,
                      out_dir=str(tmp_path / "hard"))
    diagram = run_sweep(cfg)
    assert diagram.rates[(16, 8)] <= 0.5


# ---------------------------------------------------------------------------
# phase diagram containers


def test_phase_diagram_summary_roundtrip(tmp_path):
    cfg = small_config(tmp_path)
    diagram = run_sweep(cfg)
    back = PhaseDiagram.from_summary_dict(diagram.to_summary_dict())
    assert back.rates == diagram.rates
    assert back.counts == diagram.counts


def test_phase_diagram_csv(tmp_path):
    rates = {(8, 1): 1.0, (8, 2): 0.5, (16, 1): 1.0, (16, 2): 0.75}
    counts = {k: 4 for k in rates}
    diagram = PhaseDiagram(rates=rates, counts=counts, config={})
    path = tmp_path / "grid.csv"
    diagram.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "s\\m,8,16"
    assert lines[1] == "1,1.000000,1.000000"
    assert lines[2] == "2,0.500000,0.750000"


# ---------------------------------------------------------------------------
# ratio statistic


def test_ratio_statistic_quaternion():
    out = run_ratio_test(16, 2000)
    assert abs(out["mean"] - 1.0) < 0.05
    assert abs(out["variance"] - 1.0 / 32.0) < 0.35 / 32.0
    assert out["ks_distance_to_gamma"] < 0.05
    assert out["samples"] == 2000


def test_ratio_variance_quadruples_in_real_mode():
    q = run_ratio_test(16, 2000)
    r = run_ratio_test(16, 2000, mode="real")
    ratio = r["variance"] / q["variance"]
    assert 3.0 < ratio < 5.2


def test_ratio_test_deterministic():
    a = run_ratio_test(8, 1000)
    b = run_ratio_test(8, 1000)
    assert a == b


@pytest.mark.parametrize("mode", ["quaternion", "real"])
def test_ratio_test_replays_through_matvec(mode):
    """Same streams and chunking as run_ratio_test, one matvec per sample;
    4100 samples span two 4096-sample chunks."""
    m, n, samples, seed = 3, 8, 4100, 2
    out = run_ratio_test(m, samples, base_seed=seed, mode=mode)
    x_rng = qrandom.trial_stream(seed, qrandom.PURPOSE_RATIO, m, 0, 0)
    phi_rng = qrandom.trial_stream(seed, qrandom.PURPOSE_RATIO, m, 0, 1)
    if mode == "quaternion":
        x = qrandom.sample_dense_signal(x_rng, n, 1.0)
        x = x.scale(1.0 / lp_norm(x, 2))
    else:
        xv = x_rng.normals(n, 1.0)
        x = QVector.from_real(xv / np.linalg.norm(xv))
    vals = []
    for done in range(0, samples, 4096):
        C = min(samples - done, 4096)
        if mode == "quaternion":
            mats = [QMatrix(P) for P in phi_rng.normals((C, m, n, 4), math.sqrt(1 / (4 * m)))]
        else:
            mats = [QMatrix.from_real(P) for P in phi_rng.normals((C, m, n), math.sqrt(1 / m))]
        vals += [lp_norm(matvec(Phi, x), 2) ** 2 for Phi in mats]
    assert abs(out["mean"] - np.mean(vals)) <= 1e-12
    assert abs(out["variance"] - np.var(vals, ddof=1)) <= 1e-12


def test_ratio_test_validation():
    with pytest.raises(ValueError):
        run_ratio_test(16, 999)
    with pytest.raises(ValueError):
        run_ratio_test(0, 1000)
    with pytest.raises(ValueError):
        run_ratio_test(16, 1000, mode="octonion")


# ---------------------------------------------------------------------------
# l1 error constant scatter


def test_c0_experiment(tmp_path):
    cfg = ExperimentConfig(n=8, m_values=(8,), trials=3, base_seed=0,
                           solver=sweep_solver_params(),
                           out_dir=str(tmp_path / "c0"))
    data = run_c0_experiment(cfg)
    # s runs to min(2m, n) = 8; at s = n every vector is exactly s-sparse,
    # so those points are skipped rather than divided by zero
    assert data.skipped == 3
    per_s = data.max_per_s()
    assert set(per_s) == set(range(1, 8))
    svals = sorted(per_s)
    assert all(per_s[a] <= per_s[b] + 1e-12
               for a, b in zip(svals, svals[1:]))
    assert os.path.exists(os.path.join(cfg.out_dir, "c0_scatter.jsonl"))
    with open(os.path.join(cfg.out_dir, "c0_summary.json")) as fh:
        summary = json.load(fh)
    assert summary["kind"] == "c0_summary"
    assert summary["skipped"] == 3


def test_c0_experiment_validates_s(tmp_path):
    # s = 0 is refused by the config itself (test_config_validation)
    cfg = ExperimentConfig(n=8, m_values=(4,), s_rule=(9,), trials=1,
                           solver=sweep_solver_params(),
                           out_dir=str(tmp_path / "c0v"))
    with pytest.raises(ValueError):
        run_c0_experiment(cfg)
    assert not os.path.exists(cfg.out_dir)


# ---------------------------------------------------------------------------
# plots


def test_render_heatmap_deterministic(tmp_path):
    rates = {(8, 1): 1.0, (8, 2): 0.25}
    diagram = PhaseDiagram(rates=rates, counts={k: 4 for k in rates}, config={})
    svg = render_heatmap(diagram)
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    assert svg == render_heatmap(diagram)


def test_render_scatter_deterministic():
    pts = [(1, 0.5), (2, 1.25), (3, 2.0)]
    svg = render_scatter(pts)
    assert svg.startswith("<svg") and "circle" in svg
    assert svg == render_scatter(pts)


def test_emit_plot_heatmap(tmp_path):
    rates = {(8, 1): 1.0}
    diagram = PhaseDiagram(rates=rates, counts={(8, 1): 4}, config={})
    path = tmp_path / "heat.svg"
    emit_plot(diagram, path)
    assert path.read_text().startswith("<svg")


def test_emit_plot_empty_fails_before_writing(tmp_path):
    empty = PhaseDiagram(rates={}, counts={}, config={})
    path = tmp_path / "never.svg"
    with pytest.raises(IoFailure):
        emit_plot(empty, path)
    assert not path.exists()
    with pytest.raises(IoFailure):
        emit_plot([], tmp_path / "never2.svg")
    assert not (tmp_path / "never2.svg").exists()


def test_emit_plot_unwritable_path(tmp_path):
    pts = [(1, 1.0)]
    with pytest.raises(IoFailure):
        emit_plot(pts, tmp_path / "no" / "such" / "dir.svg")
