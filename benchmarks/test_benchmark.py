"""Tests of the benchmark's own code: span arithmetic, the output comparator,
and the tracing gate (traced ratios.csv byte-identical to untraced)."""

import json
import sys
import threading
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

from spans import Recorder, SpanTree  # noqa: E402
from verify import close, compare_csv, compare_json  # noqa: E402


def _in_thread(fn):
    worker = threading.Thread(target=fn)
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()


def test_self_time_on_nested_tree_with_worker_threads():
    # clock readings in call order; the two level spans overlap in time
    times = iter([0, 1, 2, 3, 4, 5, 6, 7, 9, 10, 8, 12, 13, 14, 15])
    rec = Recorder(clock=lambda: next(times))
    opened = {}

    root = rec.open("cli.main", scope=True)                       # 0
    factor = rec.open("kriging.factor")                           # 1
    gram = rec.open("kernels.gram")                               # 2
    rec.close(gram)                                               # 3
    rec.close(factor)                                             # 4
    conv = rec.open("ratios.convergence", anchor=True)            # 5

    def level_one():
        opened["level1"] = rec.open("ratios.level", scope=True)   # 6
        opened["gram1"] = rec.open("kernels.gram")                # 7
        rec.close(opened["gram1"])                                # 9
        rec.close(opened["level1"])                               # 10

    def level_two():
        opened["level2"] = rec.open("ratios.level", scope=True)   # 8
        rec.close(opened["level2"])                               # 12

    _in_thread(level_one)
    _in_thread(level_two)
    rec.close(conv)                                               # 13
    rec.close(root)                                               # 14

    level1, level2, gram1 = opened["level1"], opened["level2"], opened["gram1"]
    assert level1.parent == conv.sid and level2.parent == conv.sid
    assert gram1.parent == level1.sid and level1.thread != root.thread
    assert gram1.scope == level1.sid and gram.scope == root.sid

    tree = SpanTree(rec.spans)
    assert tree.self_time(root) == 14 - (3 + 8)
    assert tree.self_time(factor) == 3 - 1
    assert tree.self_time(conv) == 8 - 6        # union of [6, 10] and [8, 12]
    assert tree.self_time(level1) == 4 - 2
    assert tree.layer_self_time(conv) == 2 + 2 + 4
    assert tree.outermost("kernels.gram") == [gram, gram1]

    # after the anchor closes, a worker thread's span has no parent
    _in_thread(lambda: opened.update(orphan=rec.open("ratios.level")))
    assert opened["orphan"].parent is None


CSV_HEADER = "scenario,n,target_id,ratio_name,value,limit,abs_dev\n"


def _csv(value: str, mean_term: str) -> str:
    return (CSV_HEADER
            + f"s,8,g00,r_var_1,{value},1,0.25\n"
            + f"s,8,g00,mean_term,{mean_term},0,{mean_term}\n")


def test_comparator_tolerances():
    want = _csv("1.25", "4.4600000000000001e-24")
    assert compare_csv(want, want) == []
    assert compare_csv(_csv(repr(1.25 * (1 + 1e-5)), "4.46e-24"), want)
    assert compare_csv(_csv("1.25", repr(4.46e-24 + 1e-13)), want) == []
    assert compare_csv(_csv("1.25", "4.46e-24").replace("g00", "g01"), want)
    assert not close(1.0 + 1e-5, 1.0) and close(1e-13, 0.0)

    report = {"ratio_verdict": {"kind": "converges", "a_estimate": 2.0},
              "assessment": {"bounded_ratio_limit": "consistent (a~2)"}}
    assert compare_json(json.loads(json.dumps(report)), report) == []
    moved = json.loads(json.dumps(report))
    moved["ratio_verdict"]["a_estimate"] = 2.0 * (1 + 1e-5)
    assert compare_json(moved, report)
    renamed = json.loads(json.dumps(report))
    renamed["ratio_verdict"]["kind"] = "inconclusive"
    assert compare_json(renamed, report)


@pytest.mark.filterwarnings("ignore:target .* excluded")
def test_traced_csv_is_byte_identical(tmp_path):
    from instrument import Instrumentation, layer_metrics
    from misspec_krige import kriging
    from run import Runner

    original = kriging.build_gram
    runner = Runner("builtins", 0, str(tmp_path))
    runner.iteration()
    untraced = dict(runner.outputs)
    recorder = Recorder()
    instrumentation = Instrumentation(recorder)
    instrumentation.install()
    try:
        runner.iteration()
    finally:
        instrumentation.uninstall()
    assert kriging.build_gram is original
    assert runner.failed == 0 and runner.csv_bytes_differ == 0
    assert runner.outputs == untraced

    metrics = layer_metrics(recorder.spans, 1, instrumentation.excluded_targets)
    declared = {m["name"] for m in
                json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())["per_layer"]}
    run_level = {"cli.csv_bytes_differ", "serial.iter_s.p50", "blas_env.iter_s.p50",
                 "trace.overhead_s", "trace.overhead_frac"}
    assert declared == set(metrics) | run_level
    assert 0 < metrics["kriging.factor_unique_frac"] <= 0.5   # each Gram factored twice
    assert metrics["ratios.level_calls"] == 32
