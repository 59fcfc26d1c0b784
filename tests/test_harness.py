import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest

import oracles
from qcs import harness, solver
from qcs import random as qrandom
from qcs.errors import IoFailure
from qcs.harness import (
    PERFECT_THRESHOLD,
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
    worker_count,
)
from qcs.qlinalg import QMatrix, QVector, lp_norm, matvec
from qcs.solver import RecoveryProblem, SolverParams


def small_config(tmp_path, **overrides):
    base = dict(n=16, m_values=(8,), s_rule=(1, 2), trials=4, base_seed=0,
                scalar_mode="quaternion", out_dir=str(tmp_path / "out"))
    base.update(overrides)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# config


def test_config_validation(tmp_path):
    small_config(tmp_path)
    for kwargs in (dict(trials=0), dict(n=0), dict(m_values=()),
                   dict(m_values=(0,)), dict(scalar_mode="octonion"),
                   dict(eta=-1.0), dict(eta=math.nan), dict(eta=math.inf),
                   dict(s_rule="2..m"), dict(s_rule=(0, 1)), dict(s_rule=()),
                   dict(s_rule=[]), dict(s_rule=(1, 17)),
                   # wrong types
                   dict(n=16.0), dict(n="16"), dict(trials=True), dict(trials=2.5),
                   dict(base_seed=None), dict(m_values=(8.7,)), dict(m_values=8),
                   dict(s_rule=(1.9,)), dict(eta="0"),
                   dict(out_dir=None), dict(scalar_mode=0)):
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


def test_config_float32_settings_serialize(tmp_path):
    # numpy float32 is not a float subclass; stored as given, it would tear
    # config.json in json.dump
    cfg = small_config(tmp_path, eta=np.float32(0.5))
    plain = small_config(tmp_path, eta=float(np.float32(0.5)))
    assert json.dumps(cfg.to_json_dict(), sort_keys=True) == \
        json.dumps(plain.to_json_dict(), sort_keys=True)
    cfg = small_config(tmp_path, s_rule=(1,), trials=1, eta=np.float32(0.01))
    run_sweep(cfg)
    with open(os.path.join(cfg.out_dir, "config.json")) as fh:
        assert json.load(fh)["eta"] == float(np.float32(0.01))


@pytest.mark.parametrize("cls", [ExperimentConfig, SolverParams])
def test_every_numeric_field_is_checked(tmp_path, cls):
    # a field typed int or float, or a tuple of them, that no check reads
    # would take a bool or a string here, or keep a numpy scalar
    make = (lambda **kw: small_config(tmp_path, **kw)) if cls is ExperimentConfig else cls
    numeric = [f for f in fields(cls) if re.search(r"\b(int|float)\b", f.type)]
    assert numeric
    for f in numeric:
        is_float = "float" in f.type
        listed = "tuple" in f.type
        good = getattr(make(), f.name)
        good = good[0] if listed else good

        def put(v):
            return make(**{f.name: (v,) if listed else v})

        bad_values = [True, False, "1"] + ([math.nan] if is_float else [2.5])
        for bad in bad_values:
            with pytest.raises(ValueError):
                put(bad)
        stored = getattr(put((np.float32 if is_float else np.int64)(good)), f.name)
        stored = stored[0] if listed else stored
        assert type(stored) is (float if is_float else int), f.name
        assert stored == (float(np.float32(good)) if is_float else good), f.name


def test_config_s_rule():
    cfg = ExperimentConfig(n=64, m_values=(8, 16), trials=1)
    assert cfg.s_values_for(8) == [1, 2, 3, 4]
    assert cfg.s_values_for(16) == list(range(1, 9))
    explicit = ExperimentConfig(n=64, m_values=(8,), s_rule=(3, 1, 9), trials=1)
    # capped at m/2 and sorted
    assert explicit.s_values_for(8) == [1, 3]
    assert explicit.cells() == [(8, 1), (8, 3)]


def test_config_json_roundtrip(tmp_path):
    cfg = small_config(tmp_path)
    back = ExperimentConfig.from_json_dict(json.loads(json.dumps(cfg.to_json_dict())))
    assert back == cfg


def test_trial_record_serialization():
    rec = TrialRecord(m=8, s=2, trial_index=3, seed=0, err_l1=math.inf,
                      err_l2=math.inf, perfect=False, status="error:QcsError",
                      iterations=0)
    d = rec.to_json_dict()
    assert d["err_l1"] is None and d["err_l2"] is None
    back = TrialRecord.from_json_dict({**d})
    assert back.err_l1 == math.inf and back.err_l2 == math.inf


# ---------------------------------------------------------------------------
# single trials and sweeps


def test_single_trial_perfect(tmp_path):
    cfg = small_config(tmp_path)
    rec = run_single_trial(cfg, 8, 1, 0)
    assert rec.perfect
    assert rec.err_l2 <= PERFECT_THRESHOLD
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
            fh.write(json.dumps(rec.to_json_dict(), sort_keys=True) + "\n")
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


def test_sweep_survives_a_crash_while_writing_config(tmp_path, monkeypatch):
    cfg = small_config(tmp_path, s_rule=(1,), trials=2)
    run_sweep(cfg)
    clean = {name: open(os.path.join(cfg.out_dir, name), "rb").read()
             for name in ("records.jsonl", "summary.json")}
    for name in os.listdir(cfg.out_dir):
        os.remove(os.path.join(cfg.out_dir, name))

    real_dump = json.dump

    def torn_dump(obj, fh, **kw):
        # the first write stops halfway; later writes go through
        monkeypatch.setattr(json, "dump", real_dump)
        fh.write(json.dumps(obj, **kw)[:20])
        raise OSError("disk went away")

    monkeypatch.setattr(json, "dump", torn_dump)
    with pytest.raises(OSError):
        run_sweep(cfg)
    run_sweep(cfg)
    for name, data in clean.items():
        assert open(os.path.join(cfg.out_dir, name), "rb").read() == data


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


def test_sweep_parallel_matches_serial_with_certified_failures(tmp_path, monkeypatch):
    # real (16, 5) and (16, 8) at n = 64 hold certified failures beside a
    # converged trial; the records, statuses and decision iterations
    # included, are the same bytes for one worker and for three
    cfg = small_config(tmp_path, n=64, m_values=(16,), s_rule=(5, 8), trials=4,
                       scalar_mode="real", out_dir=str(tmp_path / "serial"))
    run_sweep(cfg)
    monkeypatch.setenv("QCS_WORKERS", "3")
    run_sweep(dataclasses.replace(cfg, out_dir=str(tmp_path / "par")))
    serial = (tmp_path / "serial" / "records.jsonl").read_bytes()
    assert (tmp_path / "par" / "records.jsonl").read_bytes() == serial
    statuses = [json.loads(line)["status"] for line in serial.splitlines()]
    assert harness.CERTIFIED_FAILURE in statuses and "converged" in statuses


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


@pytest.mark.parametrize("m, mode", [(1, "real"), (3, "quaternion"), (8, "real"),
                                     (16, "quaternion"), (24, "real")])
def test_ratio_ks_distance_is_scipy_kstest(monkeypatch, m, mode):
    from scipy import stats

    ks_distance_to_gamma = harness._ks_distance_to_gamma
    seen = []

    def keep(vals, rate):
        seen.append((vals, rate))
        return ks_distance_to_gamma(vals, rate)

    monkeypatch.setattr(harness, "_ks_distance_to_gamma", keep)
    out = run_ratio_test(m, 1500, base_seed=m, mode=mode)
    [(vals, rate)] = seen
    assert rate == qrandom.GROUP_SIZES[mode] * m / 2
    # against the law it is drawn from, a law it is not drawn from, and
    # samples with ties
    for data, a in ((vals, rate), (vals, 2.0 * rate), (np.round(vals, 1), rate)):
        want = stats.kstest(data, stats.gamma(a=a, scale=1.0 / a).cdf).statistic
        assert ks_distance_to_gamma(data, a) == want
    assert out["ks_distance_to_gamma"] == ks_distance_to_gamma(vals, rate)


def test_ratio_test_does_not_load_scipy_stats():
    src = os.path.dirname(os.path.dirname(os.path.abspath(harness.__file__)))
    probe = ("import sys; from qcs.harness import run_ratio_test; "
             "run_ratio_test(4, 1000); print('scipy.stats' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": src},
                         check=True, capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_ratio_test_validation():
    with pytest.raises(ValueError):
        run_ratio_test(16, 999)
    with pytest.raises(ValueError):
        run_ratio_test(0, 1000)
    with pytest.raises(ValueError):
        run_ratio_test(16, 1000, mode="octonion")


@pytest.mark.parametrize("m, samples", [(8.5, 1000), (True, 1000), (8, 1000.0), (8, "1000")])
def test_ratio_test_refuses_counts_that_are_not_integers(m, samples):
    with pytest.raises(ValueError):
        run_ratio_test(m, samples)


# ---------------------------------------------------------------------------
# l1 error constant scatter


def test_c0_experiment(tmp_path):
    cfg = ExperimentConfig(n=8, m_values=(8,), trials=3, base_seed=0,
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
    # s = 0 and s > n are refused by the config itself, so c0 writes nothing
    with pytest.raises(ValueError):
        run_c0_experiment(ExperimentConfig(n=8, m_values=(4,), s_rule=(9,), trials=1,
                                           out_dir=str(tmp_path / "c0v")))
    assert not os.path.exists(tmp_path / "c0v")


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


# ---------------------------------------------------------------------------
# the failure certificate of eta = 0 trials


def _certified_trials(cfg):
    """(record, (Phi, x, y)) of every certified failure among cfg's trials."""
    out = []
    for m, s in cfg.cells():
        for t in range(cfg.trials):
            rec = run_single_trial(cfg, m, s, t)
            if rec.status == harness.CERTIFIED_FAILURE:
                out.append((rec, _sample_problem(cfg, m, s, t)))
    return out


def test_certified_failures_agree_with_the_lp(tmp_path):
    # small real cells in the failure region: the exact LP's minimum is below
    # ||x||_1 for every certified trial, and the certificate's point z is
    # feasible, with a norm at least that minimum and below ||x||_1
    cfg = small_config(tmp_path, n=64, m_values=(16,), s_rule=(5, 6, 8), trials=4,
                       scalar_mode="real")
    certified = _certified_trials(cfg)
    assert len(certified) >= 8
    for rec, (Phi, x, y) in certified:
        A, b = Phi.data[..., 0], y.data[:, 0]
        norm_x = lp_norm(x, 1)
        lp_min = float(np.abs(oracles.lp_min_l1(A, b)).sum())
        assert lp_min < norm_x - math.sqrt(cfg.n) * PERFECT_THRESHOLD
        assert not rec.perfect and rec.err_l2 > PERFECT_THRESHOLD
        assert rec.iterations % harness.CERTIFICATE_EVERY == 0
        certificate = harness._FailureCertificate(x)
        res = solver.solve(RecoveryProblem(Phi, y, 0.0), harness.SWEEP_SOLVER, certificate)
        assert (res.status, res.iterations) == (solver.SolveStatus.STOPPED, rec.iterations)
        z = certificate.point()
        assert lp_norm(z - x, 2) == rec.err_l2 and lp_norm(z - x, 1) == rec.err_l1
        assert np.linalg.norm(A @ z.data[:, 0] - b) <= 1e-10 * (1 + np.linalg.norm(b))
        assert lp_min - 1e-9 <= lp_norm(z, 1) < certificate.bound


def test_quaternion_certified_failures_hold_feasible_points(tmp_path):
    cfg = small_config(tmp_path, n=64, m_values=(16,), s_rule=(8,), trials=4)
    certified = _certified_trials(cfg)
    assert len(certified) == 4
    for rec, (Phi, x, y) in certified:
        certificate = harness._FailureCertificate(x)
        solver.solve(RecoveryProblem(Phi, y, 0.0), harness.SWEEP_SOLVER, certificate)
        z = certificate.point()
        assert np.linalg.norm((matvec(Phi, z) - y).data) <= 1e-10 * (1 + lp_norm(y, 2))
        assert lp_norm(z, 1) < lp_norm(x, 1) - math.sqrt(cfg.n) * PERFECT_THRESHOLD
        assert lp_norm(z - x, 2) == rec.err_l2 > PERFECT_THRESHOLD


# the benchmark's sweep-real and sweep-transition cells
BENCHMARK_CELLS = [("real", 32, 4), ("real", 32, 12), ("quaternion", 32, 9),
                   ("quaternion", 32, 16), ("quaternion", 64, 20), ("quaternion", 64, 32)]


@pytest.mark.parametrize("base_seed", [1_000_000, 2_000_001, 3_000_002])
def test_certificate_keeps_every_verdict_of_the_full_solve(tmp_path, base_seed):
    # the perfect flag of each trial is the one a solve without the hook
    # gives, and on the cells that fail the certificate decides
    statuses = set()
    for mode, m, s in BENCHMARK_CELLS:
        cfg = small_config(tmp_path, n=256, m_values=(m,), s_rule=(s,), trials=1,
                           base_seed=base_seed, scalar_mode=mode)
        rec = run_single_trial(cfg, m, s, 0)
        Phi, x, y = _sample_problem(cfg, m, s, 0)
        full = solver.solve(RecoveryProblem(Phi, y, 0.0), harness.SWEEP_SOLVER)
        assert rec.perfect == (lp_norm(full.x_hat - x, 2) <= PERFECT_THRESHOLD), (m, s)
        if rec.status != harness.CERTIFIED_FAILURE:
            assert (rec.status, rec.iterations) == (full.status.value, full.iterations)
        statuses.add(rec.status)
    assert harness.CERTIFIED_FAILURE in statuses


def test_certificate_leaves_a_minimizer_undecided(tmp_path):
    # R (32, 4) at base seed 7, trial 0: x is the minimizer (the exact LP
    # returns it), so no feasible point is shorter, and the trial still
    # runs to the cap as it did without the certificate
    cfg = small_config(tmp_path, n=256, m_values=(32,), s_rule=(4,), trials=1,
                       base_seed=7, scalar_mode="real")
    rec = run_single_trial(cfg, 32, 4, 0)
    assert (rec.status, rec.iterations, rec.perfect) == ("max_iters", 3000, False)


def test_noisy_and_tall_trials_keep_the_full_solve(tmp_path, monkeypatch):
    # eta > 0 has no feasible-point certificate, and m >= n has no inverse
    # of A A^T: neither passes a hook to solve
    hooks = []
    real_solve = harness.solve

    def spy(problem, params, on_iteration=None):
        hooks.append(on_iteration)
        return real_solve(problem, params, on_iteration)

    monkeypatch.setattr(harness, "solve", spy)
    run_single_trial(small_config(tmp_path, n=32, m_values=(8,), eta=0.01), 8, 2, 0)
    run_single_trial(small_config(tmp_path, n=8, m_values=(8,)), 8, 2, 0)
    run_single_trial(small_config(tmp_path, n=16, m_values=(8,)), 8, 2, 0)
    assert [hook is None for hook in hooks] == [True, True, False]
