"""Tests of the benchmark itself: statistics, tracing and its output.

Run with ``python3 -m pytest perfbench/tests -q`` from the checkout
root.  The workload tests use shrunken workloads so they finish in
seconds; the output tests run ``run.py`` once per mode.
"""

import json
import os
import subprocess
import sys

import pytest

import stats
from layertrace import Tracer, self_times
from workloads import BatchSync, FleetTrial, SharedChaos, SharedFolder

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
with open(os.path.join(ROOT, "BENCHMARK.json")) as _spec:
    SPEC = json.load(_spec)


# -- the tail-percentile rule -------------------------------------------------

@pytest.mark.parametrize("n, q", [
    (1000, 99.0),   # p99.9 has 1 beyond, p99 exactly 10
    (999, 95.0),    # p99 has only 9 beyond
    (100, 90.0),
    (40, 75.0),
    (39, 50.0),
    (20, 50.0),
    (19, 100.0),    # no percentile has 10 beyond: the maximum
])
def test_tail_takes_highest_percentile_with_ten_beyond(n, q):
    values = list(range(1, n + 1))
    got_q, value = stats.tail(values)
    assert got_q == q
    if q < 100.0:
        assert stats.beyond(n, q) >= stats.TAIL_MIN_BEYOND
        assert sum(1 for v in values if v > value) >= 10
    else:
        assert value == n


def test_percentile_is_nearest_rank_and_order_free():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert stats.percentile(values, 50) == 3.0
    assert stats.percentile(values, 100) == 5.0
    assert stats.percentile(values, 1) == 1.0
    assert stats.median([4.0, 1.0, 3.0, 2.0]) == 2.5


# -- self-time arithmetic -----------------------------------------------------

def _span(sid, name, parent, start, end, frame=True):
    return (sid, name, parent, None, start, end, None, None, frame)


def test_self_time_subtracts_children_on_a_span_tree():
    spans = [
        _span(1, "simkernel", None, 0.0, 10.0),
        _span(2, "metadata.serialize", 1, 1.0, 4.0),
        _span(3, "crypto.encrypt", 2, 2.0, 3.5),
        _span(4, "codec.encode", 1, 5.0, 6.0),
        _span(5, "codec.encode", 1, 7.0, 7.5),
        # A sim-only span takes no host time from anyone.
        _span(6, "cloud.upload", 1, 0.5, 9.0, frame=False),
    ]
    own = self_times(spans)
    assert own["simkernel"] == pytest.approx(10.0 - 3.0 - 1.0 - 0.5)
    assert own["metadata.serialize"] == pytest.approx(3.0 - 1.5)
    assert own["crypto.encrypt"] == pytest.approx(1.5)
    assert own["codec.encode"] == pytest.approx(1.5)
    assert "cloud.upload" not in own
    # Self times partition the root's wall.
    assert sum(own.values()) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    spans = [
        _span(1, "op", None, 0.0, 10.0),
        _span(2, "a", 1, 1.0, 4.0),
        _span(3, "b", 1, 3.0, 6.0),
    ]
    assert self_times(spans)["op"] == pytest.approx(5.0)


# -- shrunken workloads ------------------------------------------------

def small_batch():
    workload = BatchSync()
    workload.files, workload.file_bytes, workload.edit_rounds = 2, 1 << 16, 1
    return workload


def small_shared():
    workload = SharedFolder()
    workload.rounds = 2
    return workload


def small_chaos():
    workload = SharedChaos()
    workload.rounds = 3
    return workload


def small_fleet():
    workload = FleetTrial()
    workload.users, workload.uploads_per_user = 6, 2
    return workload


SMALL = {
    "batch_sync": small_batch,
    "shared_folder": small_shared,
    "shared_chaos": small_chaos,
    "fleet_trial": small_fleet,
}


def run_episode(workload, seed, tracer=None):
    state, _ = workload.prepare(seed)
    if tracer is None:
        return workload.run(state)
    tracer.install()
    try:
        return workload.run(state)
    finally:
        tracer.uninstall()


@pytest.fixture(scope="module")
def traced():
    """Each small workload traced once: name -> (episode, layers)."""
    out = {}
    for name, make in SMALL.items():
        tracer = Tracer()
        episode = run_episode(make(), 11, tracer)
        layers = tracer.layer_metrics(1.0, episode.commits)
        layers.update(episode.layers)
        out[name] = (episode, layers)
    return out


@pytest.mark.parametrize("name", sorted(SMALL))
def test_workload_outputs_pass_their_checks(name, traced):
    episode, _ = traced[name]
    assert episode.problems == []
    assert episode.ops > 0


@pytest.mark.parametrize("name", sorted(SMALL))
def test_simulation_repeats_per_seed_and_ignores_tracing(name, traced):
    episode, _ = traced[name]
    again = run_episode(SMALL[name](), 11)
    assert again.signature() == episode.signature()
    other = run_episode(SMALL[name](), 12)
    assert other.signature() != episode.signature()


def test_fleet_trial_never_touches_crypto_chunking_or_codec(traced):
    _, layers = traced["fleet_trial"]
    for key in ("crypto.encrypt_calls", "crypto.decrypt_calls",
                "metadata.serialize_calls", "metadata.parse_calls",
                "chunking.calls", "codec.encode_calls",
                "codec.decode_calls", "merge.calls"):
        assert layers[key] == 0, key
    assert layers["cloud.requests"] > 0
    assert layers["scheduler.batches"] > 0


@pytest.mark.parametrize("name", ["batch_sync", "shared_folder",
                                  "fleet_trial"])
def test_obs_and_degrade_stay_idle_outside_shared_chaos(name, traced):
    _, layers = traced[name]
    for key in ("obs.calls", "degrade.hedges_fired", "degrade.hedged_bytes",
                "degrade.debt_after_rounds", "degrade.debt_repaid",
                "degrade.breaker_transitions_max", "scrub.host_s"):
        assert layers.get(key, 0) == 0, key


def test_shared_chaos_turns_on_obs_and_scrub(traced):
    _, layers = traced["shared_chaos"]
    assert layers["obs.calls"] > 0
    assert layers["scrub.host_s"] > 0


def test_cloud_requests_match_the_trial_api_counters(traced):
    episode, layers = traced["fleet_trial"]
    assert layers["cloud.requests"] == episode.layers["trial.api_requests"]
    assert layers["cloud.failed"] == episode.layers["trial.api_failures"]


# -- the output: every declared metric, with unit and direction --------------

@pytest.mark.parametrize("trace, section", [(0, "end_to_end"),
                                            (1, "per_layer")])
def test_run_emits_every_declared_metric(trace, section):
    out = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"),
         "--workload", "shared_folder", "--seed", "3", "--seconds", "1",
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC[section]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    table = "\n".join(lines[:-1])
    for metric in declared:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], (int, float))
        assert metric["better"] in ("higher", "lower")
        assert f"{metric['better']} is better" in table
        assert metric["name"] in table
    if trace == 0:
        for metric in declared:
            assert result["metrics"][metric["name"]]["value"] != 0, metric


def test_run_refuses_a_directory_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(BENCH):
        path = os.path.join(BENCH, name)
        if os.path.isfile(path):
            (bench / name).write_bytes(open(path, "rb").read())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "batch_sync",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode != 0
    assert out.stdout == ""


def test_compare_refuses_results_from_different_hosts(tmp_path, capsys):
    import compare

    def result(cpu, calibration):
        return {"workload": "batch_sync", "trace": 0,
                "calibration_s": calibration,
                "fingerprint": {"cpu_model": cpu, "nproc": 2},
                "metrics": {m["name"]: {"value": 1.0, "unit": m["unit"]}
                            for m in SPEC["end_to_end"]}}

    def write(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    base = write("a.json", result("cpu A", 0.05))
    other_cpu = write("b.json", result("cpu B", 0.05))
    slower = write("c.json", result("cpu A", 0.08))
    same = write("d.json", result("cpu A", 0.051))
    assert compare.main(["--base", base, "--change", other_cpu]) == 2
    assert compare.main(["--base", base, "--change", slower]) == 2
    assert "refused" in capsys.readouterr().out
    assert compare.main(["--base", base, "--change", same]) == 0
