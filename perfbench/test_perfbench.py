"""Tests of the benchmark itself: python3 -m pytest -q perfbench"""

import copy
import json
import os
import random
import signal
from time import perf_counter

import pytest

import run
import workloads
from speed import SpeedProbe
from tracing import Tracer

run.prepare()


def _growth_op(tmp_path):
    curve = tmp_path / "curve.json"
    curve.write_text(json.dumps(workloads._curve_doc([("1", "0")], [("1", "1")])))
    radii = [2.0, 3.0, 5.0]
    return workloads._op("kinked", str(tmp_path), 0,
                         [("characteristic", str(curve), "--radii", "2,3,5")],
                         {"kind": "single", "freqs": [[1.0, 0.0]], "radii": radii})


def _traced(op, caches):
    tracer = Tracer()
    _, runs = run.run_ops([op], caches, tracer)
    assert runs[0].returncodes == [0] and runs[0].exception is None
    return tracer


def test_second_identical_op_is_cold(tmp_path):
    op = _growth_op(tmp_path)
    caches = run.nevlab_caches()
    first = _traced(op, caches).calls["quadrature.circle_average"]
    second = _traced(op, caches).calls["quadrature.circle_average"]
    assert first == second == 4          # three radii plus the r = 1 normalization


def test_self_times_add_up_and_uninstall_restores(tmp_path):
    from nevlab import nevanlinna, zeros
    original = zeros.exppoly_zeros
    tracer = _traced(_growth_op(tmp_path), run.nevlab_caches())
    root = tracer.total["cli.main"]
    assert abs(sum(tracer.self_time.values()) - root) <= 1e-9 * max(root, 1.0)
    assert tracer.self_time["quadrature"] > 0.5 * root
    assert nevanlinna.exppoly_zeros is original and zeros.exppoly_zeros is original


def test_growth_check_accepts_closed_form_and_rejects_drift(tmp_path):
    op = _growth_op(tmp_path)
    _, runs = run.run_ops([op], run.nevlab_caches())
    kind, reason, digest = run.classify(workloads.WORKLOADS["growth"], op, runs[0])
    assert kind is None and reason is None and digest
    with open(op.outputs[0]) as fh:
        doc = json.load(fh)
    bad = copy.deepcopy(doc)
    bad["values"][1] += 1e-6
    assert workloads.WORKLOADS["growth"].check(op, [bad]) is not None


def test_certify_check_rejects_wrong_multiplicity(tmp_path):
    wl = workloads.WORKLOADS["certify"]
    ops = wl.make_ops(random.Random(3), 0.1, str(tmp_path), str(tmp_path))
    _, runs = run.run_ops(ops[:1], run.nevlab_caches())
    kind, reason, _ = run.classify(wl, ops[0], runs[0])
    assert kind is None, reason
    docs = []
    for path in ops[0].outputs:
        with open(path) as fh:
            docs.append(json.load(fh))
    docs[-1]["multiplicities"][0] += 1
    assert wl.check(ops[0], docs) is not None


def test_probe_rescales_busy_time_to_reference_speed():
    probe = SpeedProbe()
    probe.samples = [0.002] * 11        # a core at half the reference speed
    busy, ref = probe.rescale(1.004, 9, 11)
    assert busy == pytest.approx(1.0)   # the two probes inside the op are not op time
    assert ref == pytest.approx(0.5)


def test_probe_samples_while_active_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with SpeedProbe(interval=0.01) as probe:
        start = probe.mark()
        deadline = perf_counter() + 0.2
        while perf_counter() < deadline:
            pass
    assert probe.mark() - start >= 5
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_benchmark_json_lists_what_the_run_prints():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    layer = Tracer().metrics(1.0, 1.0)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (k, run.layer_unit(k)) for k in layer]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
