"""Self-tests of the benchmark: same seed, same inputs and same exact counts.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import pytest

import run
import workloads

# Small traced passes: enough blocks to touch every layer the workload uses.
SMALL_BLOCKS = {"scalar-mix": 8, "rational-table": 30, "suite-gate": 1}


@pytest.fixture(scope="module")
def gp():
    return workloads.import_gammaprod()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_fixes_the_inputs(workload):
    first = workloads.fixed_ops(workload, 7, 40)
    assert first == workloads.fixed_ops(workload, 7, 40)
    assert first != workloads.fixed_ops(workload, 8, 40)


def test_sessions_extend_the_fixed_sequence():
    first, second = workloads.sessions("rational-table", 7, 20, 2)
    assert first == workloads.fixed_ops("rational-table", 7, 20)
    assert second != first and len(second) == 20
    assert workloads.sessions("rational-table", 7, 20, 2) == [first, second]


def test_timed_passes_run_every_session(gp):
    execute = workloads.Executor(gp)
    sessions = workloads.sessions("rational-table", 4, 40, 3)
    _, passes, latencies, _, results = run.timed_passes(sessions, 0.0, execute)
    ran = {op for op, _ in results}
    assert passes >= 3 and all(op in ran for s in sessions for b in s for op in b.ops)


def test_block_mix_is_fixed():
    kinds = [op.kind for op in workloads.fixed_ops("scalar-mix", 3, 1)[0].ops]
    assert kinds.count("joint_factor") == 12
    assert sum(kinds.count(k) for k in ("digamma", "trigamma")) == 1
    rational = [op.kind for op in workloads.fixed_ops("rational-table", 3, 1)[0].ops]
    assert rational.count("gamma_rational") == 8
    assert sorted(op.args[0] for op in workloads.fixed_ops("suite-gate", 3, 1)[0].ops) == sorted(workloads.SUITES)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_exact_counters_repeat(gp, workload):
    block_list = workloads.fixed_ops(workload, 5, SMALL_BLOCKS[workload])
    counts = []
    for _ in range(2):
        execute = workloads.Executor(gp)
        tp = run.traced_pass(execute, block_list)
        metrics = run.layer_metrics(tp, {})
        counts.append({k: v for k, (v, unit) in metrics.items() if unit == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["jointfactor.head_terms"] > 0
    if workload == "rational-table":
        assert counts[0]["gamma.memo_misses"] > 0 and counts[0]["gamma.memo_hits"] > 0
    if workload == "suite-gate":
        assert counts[0]["bounds.violations"] == 1681


def test_tracer_restores_the_program(gp):
    from gammaprod import cli, gamma, jointfactor

    before = (jointfactor.log_partial_product, gamma.log_partial_product, cli.joint_factor)
    run.traced_pass(workloads.Executor(gp), workloads.fixed_ops("scalar-mix", 1, 1))
    assert (jointfactor.log_partial_product, gamma.log_partial_product, cli.joint_factor) == before


def test_referee_accepts_seed_outputs_and_rejects_wrong_ones(gp):
    import referee

    execute = workloads.Executor(gp)
    checker = run.Checker()
    results = [(op, execute(op)) for b in workloads.fixed_ops("scalar-mix", 2, 3) for op in b.ops]
    assert checker.check(results)[0] == 0
    bad = [(results[0][0], ValueError("boom"))]
    assert checker.check(bad)[0] == 1 and "boom" in checker.check(bad)[2]
    op = workloads.Op("sin", (0.3,))
    assert not referee.check_scalar("sin", op.args, execute(op) * (1 + 1e-12)).ok
    assert not checker.verdict(workloads.Op("suite", ("app5",)), (3, execute(workloads.Op("suite", ("app5",)))[1])).ok


def test_missing_metric_source_stops_the_run(gp, monkeypatch):
    from gammaprod import jointfactor

    monkeypatch.delattr(jointfactor, "_extend_log_partial")
    with pytest.raises(run.MetricSourceError, match="_extend_log_partial"):
        run.traced_pass(workloads.Executor(gp), workloads.fixed_ops("scalar-mix", 1, 1))


def test_failing_work_counter_stops_the_run(gp, monkeypatch):
    import tracer

    monkeypatch.setitem(tracer._HEAD_TERMS, ("polygamma", "digamma"), lambda t: 1)
    with pytest.raises(run.MetricSourceError, match="work counter"):
        run.traced_pass(workloads.Executor(gp), [workloads.Block((workloads.Op("digamma", (0.3,)),))])


def test_timed_passes_replay_from_the_same_state(gp):
    from gammaprod import gamma

    execute = workloads.Executor(gp)
    execute.clear_memo()
    block_list = workloads.fixed_ops("rational-table", 4, 3)
    elapsed, passes, latencies, slowdowns, results = run.timed_passes([block_list], 0.0, execute)
    n = sum(len(b.ops) for b in block_list)
    assert len(latencies) >= run.MIN_OPS and len(latencies) == passes * n
    assert elapsed > 0.0 and len(results) == len(latencies) == len(slowdowns)
    assert all(s > 0.0 for s in slowdowns)  # every op has a calibrated window
    # every pass computed the same outputs, and none of its memo entries
    # reached this process
    assert all(results[i][1] == results[i % n][1] for i in range(len(results)))
    assert gamma._factor_log.cache_info().currsize == 0
