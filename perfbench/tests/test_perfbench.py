"""Tests of the benchmark itself: self-time arithmetic, the correctness gate, smoke runs and the tracer's layer counts.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer
import workloads


def test_self_times_on_synthetic_span_tree():
    # (id, name, start, end, parent, task, agg_s)
    spans = [
        (1, "hecke.gk_mu", 0.0, 10.0, None, 0, 1.0),
        (2, "hecke.convolve", 1.0, 4.0, 1, 0, 0.5),
        (3, "hecke.convolve", 3.0, 6.0, 1, 0, 0.0),  # overlaps span 2: the union 1..6 is covered once
        (4, "charring.mul", 2.0, 3.0, 2, 0, 0.0),
        (5, "cones.dd", 9.5, 11.0, 1, 0, 0.0),  # runs past its parent: only 9.5..10 is covered
    ]
    st = tracer.self_times(spans)
    assert st[1] == pytest.approx(10.0 - 5.0 - 0.5 - 1.0)
    assert st[2] == pytest.approx(3.0 - 1.0 - 0.5)
    assert st[3] == pytest.approx(3.0)
    assert st[4] == pytest.approx(1.0)
    assert st[5] == pytest.approx(1.5)


def test_wrappers_split_self_time_between_spans_and_leaves():
    now = [0.0]

    def clock():
        return now[0]

    tr = tracer.Tracer(clock)

    def leaf():
        now[0] += 2.0

    def inner_span():  # a span target called inside a leaf call is aggregated, not recorded
        now[0] += 1.0

    def leaf_with_child():
        now[0] += 1.0
        w_inner()

    def outer():
        now[0] += 3.0
        w_leaf()
        w_leaf_child()

    w_leaf = tr.wrap("qfield", "mul", leaf, span=False)
    w_inner = tr.wrap("hecke", "convolve", inner_span, span=True)
    w_leaf_child = tr.wrap("globalsl2", "value", leaf_with_child, span=False)
    w_outer = tr.wrap("hecke", "gk_mu", outer, span=True)
    w_outer()
    assert len(tr.spans) == 1
    sid, name, start, end, parent, task, agg = tr.spans[0]
    assert (name, end - start, agg) == ("hecke.gk_mu", 7.0, 4.0)
    m = tr.metrics()
    assert m["hecke.self_s"][0] == pytest.approx(3.0 + 1.0)  # gk_mu's own 3 s plus the aggregated convolve
    assert m["qfield.self_s"][0] == pytest.approx(2.0)
    assert m["globalsl2.self_s"][0] == pytest.approx(1.0)
    assert m["qfield.mul.calls"][0] == 1 and m["globalsl2.value.calls"][0] == 1
    assert m["trace.spans"][0] == 1


def _one_task_per_kind(env):
    seen, subset = set(), []
    for task in env.tasks:
        if task[0] not in seen:
            seen.add(task[0])
            subset.append(task)
    return subset


@pytest.fixture(scope="module", params=workloads.WORKLOADS)
def smoke_env(request):
    env = run.setup(request.param, 1)
    env.tasks = _one_task_per_kind(env)
    return request.param, env


def test_smoke_run_of_each_workload(smoke_env):
    _, env = smoke_env
    result = run.run_pass(env)
    assert all(result.ok), [t[0] for t, ok in zip(env.tasks, result.ok) if not ok]
    assert run.count_failures([result], result.hashes)[0] == 0


def test_traced_pass_matches_untraced_and_layer_claims(smoke_env):
    workload, env = smoke_env
    plain = run.run_pass(env)
    tr = tracer.Tracer()
    tr.install(env.m)
    try:
        traced = run.run_pass(env, tr)
    finally:
        tr.uninstall()
    assert traced.hashes == plain.hashes and all(traced.ok)
    assert env.m.hecke.gk_mu.__name__ == "gk_mu"  # originals are back
    m = tr.metrics()
    if workload == "cones-weyl-oracle":
        assert m["qfield.ops"][0] == 0
        assert m["padic.oracle.calls"][0] > 0
    else:
        assert m["padic.oracle.calls"][0] == 0
        assert m["qfield.ops"][0] > 0


def test_wrong_convolve_shows_up_as_failed_tasks(monkeypatch):
    env = run.setup("local-series", 1)
    env.tasks = [t for t in env.tasks if t[0] in ("series", "cli")][:12]
    good = run.run_pass(env)
    assert all(good.ok)
    real = env.m.hecke.convolve

    def wrong_convolve(s1, s2):
        out = real(s1, s2)
        zero = (0,) * s1.rd.rank
        coeffs = dict(out.coeffs)
        coeffs[zero] = coeffs.get(zero, env.m.qfield.ZERO) + 1
        return env.m.hecke.GradedSeries(out.rd, out.par, out.height, coeffs, out.basis)

    monkeypatch.setattr(env.m.hecke, "convolve", wrong_convolve)
    bad = run.run_pass(env)
    failed, _ = run.count_failures([bad], good.hashes)
    assert 0 < failed <= len(env.tasks)


def test_recorded_digest_of_another_task_count_fails_every_task_run():
    p = run.PassResult(0.0, [], ["aa", "bb"], [True, True], [None, None])
    assert run.check_passes([p, p], None) == (0, {})
    assert run.check_passes([p, p], ["aa", "bb"]) == (0, {})
    assert run.check_passes([p, p], ["aa", "cc"]) == (2, {})
    assert run.check_passes([p, p], ["aa", "bb", "cc"]) == (4, {})


def test_setup_refuses_a_program_without_the_cone_memo(monkeypatch):
    real = run.import_program

    def without_memo():
        m = real()
        del m.hecke._CONE_MEMO
        return m

    monkeypatch.setattr(run, "import_program", without_memo)
    with pytest.raises(run.SetupError):
        run.setup("global-rank-one", 1)


def test_calibration_leaves_the_collector_as_it_was():
    import gc

    assert gc.isenabled()
    run.calibrate()
    assert gc.isenabled()
    gc.disable()
    try:
        run.calibrate()
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_per_layer_times_are_scaled_to_the_reference_speed():
    metrics = {"a.self_s": {"value": 2.0, "unit": "s"}, "a.per_s": {"value": 10.0, "unit": "1/s"},
               "a.calls": {"value": 7, "unit": "count"}}
    tracer.scale_times(metrics, 0.5)  # a host at half the reference speed
    assert [m["value"] for m in metrics.values()] == [1.0, 20.0, 7]


def test_exits_nonzero_without_the_program(tmp_path):
    root = Path(run.__file__).resolve().parent.parent
    shutil.copytree(root / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(root / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "local-series", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") and '"correct"' in line for line in proc.stdout.splitlines())


def test_same_seed_same_tasks_other_seed_other_inputs():
    m = run.import_program()
    names = {n for data in workloads.DATA.values() for n in data}
    rank = {n: (rd.rank, rd.n_simple) for n in names for rd in [m.rootdata.load_root_datum(n)]}
    for workload in workloads.WORKLOADS:
        a, b, c = (workloads.build_tasks(workload, seed, rank) for seed in (1, 1, 2))
        assert [(k, args) for k, _, args in a] == [(k, args) for k, _, args in b]
        assert [(k, args) for k, _, args in a] != [(k, args) for k, _, args in c]
        assert sorted(k for k, _, _ in a) == sorted(k for k, _, _ in c)
        assert len(a) >= 100


def test_metric_names_and_units_match_benchmark_json():
    bench = json.loads((Path(run.__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    per_layer = {name: unit for name, (_, unit) in tracer.Tracer().metrics().items()}
    per_layer["trace.overhead_ratio"] = "ratio"
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == per_layer
