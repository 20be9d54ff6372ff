"""Cursor dispatcher ⇔ reference decision ladder equivalence.

The cursor-based dispatchers in :mod:`repro.core.scheduler` must be
*behavior-preserving*: for any seeded batch they must pick exactly the
blocks the original O(files x segments) ladder picked, in the same
order, yielding byte-identical batch reports (placements, timestamps,
degraded flags).  These tests run the same seeded scenario twice — once
with the cursor dispatcher, once with the retained reference
implementation swapped in — and compare everything observable.
"""

import numpy as np

from repro.cloud import CloudConnection, SimulatedCloud
from repro.cloud.errors import NotFoundError
from repro.core.config import UniDriveConfig
from repro.core.pipeline import BlockPipeline
from repro.core.placement import fair_share_assignment
from repro.core.probing import ThroughputEstimator
from repro.core.scheduler import (
    DownloadScheduler,
    FileDownload,
    FileUpload,
    UploadScheduler,
)
from repro.netsim import LinkProfile
from repro.simkernel import Simulator

CONFIG = UniDriveConfig(theta=64 * 1024)
N_CLOUDS = 5


def profile(up_mbps, failure_rate=0.0):
    return LinkProfile(
        up_mbps=up_mbps, down_mbps=2 * up_mbps, rtt_seconds=0.05,
        latency_jitter=0.0, failure_rate=failure_rate, volatility=0.0,
        fade_probability=0.0, diurnal_amplitude=0.0,
    )


def make_env(up_speeds, failure_rates=None, seed=0):
    sim = Simulator()
    failure_rates = failure_rates or [0.0] * N_CLOUDS
    clouds = [SimulatedCloud(sim, f"cloud{i}") for i in range(N_CLOUDS)]
    conns = [
        CloudConnection(sim, cloud, profile(up, rate),
                        np.random.default_rng(seed + i))
        for i, (cloud, up, rate) in enumerate(
            zip(clouds, up_speeds, failure_rates)
        )
    ]
    pipeline = BlockPipeline(CONFIG, N_CLOUDS)
    return sim, clouds, conns, pipeline


def make_batch(pipeline, count=6, seed=3):
    """A batch with varied sizes, one shared-content pair, and one
    zero-byte file (zero segments) to cover the vacuous-progress edge."""
    rng = np.random.default_rng(seed)
    files = []
    for i in range(count):
        size = int(rng.integers(30 * 1024, 250 * 1024))
        content = rng.integers(0, 256, size=size, dtype=np.uint8).tobytes()
        segments = [
            (pipeline.make_record(seg), seg.data)
            for seg in pipeline.segment_file(content)
        ]
        files.append(FileUpload(path=f"/f{i}", segments=segments))
    # Duplicate content: shares _SegmentUploadState objects across files.
    files.append(FileUpload(path="/dup", segments=list(files[0].segments)))
    files.append(FileUpload(path="/empty", segments=[]))
    return files


def stored_blocks(cloud):
    try:
        entries = cloud.store.list_folder(CONFIG.blocks_dir)
    except NotFoundError:  # cloud never received a block
        return ()
    return tuple(sorted(entry.name for entry in entries))


def upload_snapshot(batch, files, clouds):
    """Everything observable about an upload batch, as plain data."""
    return {
        "batch": (batch.started_at, batch.finished_at,
                  batch.failed_requests),
        "reports": [
            (r.path, r.size, r.started_at, r.available_at, r.reliable_at,
             r.degraded, tuple(sorted(r.blocks_per_cloud.items())))
            for r in batch.files
        ],
        "locations": [
            (record.segment_id, tuple(sorted(record.locations.items())))
            for file in files
            for record, _ in file.segments
        ],
        "stores": [stored_blocks(cloud) for cloud in clouds],
    }


def run_upload_scenario(reference, up_speeds, failure_rates=None,
                        kill_cloud=None, over_provision=True, seed=0,
                        resume=None):
    """``resume``, if given, maps the batch's files to the journal of
    blocks a crashed earlier round already landed."""
    sim, clouds, conns, pipeline = make_env(
        up_speeds, failure_rates, seed=seed
    )
    if kill_cloud is not None:
        clouds[kill_cloud].set_available(False)
    files = make_batch(pipeline)
    scheduler = UploadScheduler(
        sim, conns, pipeline, CONFIG, estimator=ThroughputEstimator(),
        over_provision=over_provision,
        resume=None if resume is None else resume(files),
    )
    if reference:
        scheduler._next_task = scheduler._next_task_reference
    batch = sim.run_process(scheduler.run_batch(files))
    return upload_snapshot(batch, files, clouds), scheduler


def assert_upload_equivalent(**kwargs):
    fast, fast_sched = run_upload_scenario(reference=False, **kwargs)
    ref, ref_sched = run_upload_scenario(reference=True, **kwargs)
    assert fast == ref
    # The point of the cursor dispatcher: same decisions, fewer visits.
    assert fast_sched._dispatch_scans <= ref_sched._dispatch_scans
    return fast


def test_upload_equivalence_homogeneous():
    snapshot = assert_upload_equivalent(up_speeds=[8.0] * N_CLOUDS)
    assert all(r[3] is not None for r in snapshot["reports"])  # available


def test_upload_equivalence_skewed_speeds():
    assert_upload_equivalent(up_speeds=[40, 25, 8, 2, 1], seed=11)


def test_upload_equivalence_no_over_provision():
    assert_upload_equivalent(
        up_speeds=[30, 10, 5, 5, 1], over_provision=False, seed=4
    )


def test_upload_equivalence_flaky_clouds():
    snapshot = assert_upload_equivalent(
        up_speeds=[20, 20, 10, 10, 5],
        failure_rates=[0.0, 0.25, 0.0, 0.35, 0.1],
        seed=7,
    )
    assert snapshot["batch"][2] > 0  # failures actually happened


def test_upload_equivalence_dead_cloud():
    snapshot = assert_upload_equivalent(
        up_speeds=[20, 20, 20, 20, 20], kill_cloud=4, seed=2
    )
    degraded = [r[5] for r in snapshot["reports"]]
    assert any(degraded)  # the abandon/degraded path was exercised


def crashed_round_journal(files):
    """/f0 landed every fair share before the crash; /f1's first
    segment landed one block on its assignee and one (assigned to
    cloud1) on cloud2, as a degraded round dispatches it."""
    cloud_ids = [f"cloud{i}" for i in range(N_CLOUDS)]
    journal = {}
    for record, _ in files[0].segments:
        assignment = fair_share_assignment(
            cloud_ids, record.k, CONFIG.k_reliability
        )
        journal[record.segment_id] = {
            index: cid for cid, indices in assignment.items()
            for index in indices
        }
    record = files[1].segments[0][0]
    assignment = fair_share_assignment(
        cloud_ids, record.k, CONFIG.k_reliability
    )
    journal[record.segment_id] = {
        assignment["cloud0"][0]: "cloud0",
        assignment["cloud1"][0]: "cloud2",
    }
    return journal


def test_upload_equivalence_journal_resume():
    snapshot = assert_upload_equivalent(
        up_speeds=[20, 10, 10, 5, 5], resume=crashed_round_journal, seed=6
    )
    started = snapshot["batch"][0]
    reports = {r[0]: r for r in snapshot["reports"]}
    # Fully preseeded files are credited at batch start, not re-sent.
    for path in ("/f0", "/dup"):
        assert reports[path][3] == started  # available_at
        assert reports[path][4] == started  # reliable_at
        assert all(count == 0 for _cid, count in reports[path][6])
    assert reports["/f1"][3] > started


def download_snapshot(batch):
    return {
        "batch": (batch.started_at, batch.finished_at,
                  batch.failed_requests),
        "reports": [
            (r.path, r.size, r.started_at, r.completed_at,
             None if r.content is None else hash(r.content))
            for r in batch.files
        ],
    }


def run_download_scenario(reference, down_failure_rates=None,
                          kill_clouds=(), prime=None, seed=0):
    sim, clouds, conns, pipeline = make_env(
        [20.0] * N_CLOUDS, seed=seed
    )
    estimator = ThroughputEstimator()
    up = UploadScheduler(sim, conns, pipeline, CONFIG, estimator=estimator)
    files = make_batch(pipeline)
    sim.run_process(up.run_batch(files))
    for cloud_index in kill_clouds:
        clouds[cloud_index].set_available(False)
    if down_failure_rates:
        # LinkProfile is frozen; wrap the same clouds in fresh,
        # failure-prone connections for the download phase.
        conns = [
            CloudConnection(sim, cloud, profile(20.0, rate),
                            np.random.default_rng(seed + 100 + i))
            for i, (cloud, rate) in enumerate(
                zip(clouds, down_failure_rates)
            )
        ]
    if prime:
        for conn, mbps in zip(conns, prime):
            estimator.record(conn.cloud_id, "down", int(mbps * 125000), 1.0)
    down = DownloadScheduler(
        sim, conns, pipeline, CONFIG, estimator=estimator
    )
    if reference:
        down._next_request = down._next_request_reference
    requests = [
        FileDownload(f.path, [record for record, _ in f.segments])
        for f in files
    ]
    batch = sim.run_process(down.run_batch(requests))
    return download_snapshot(batch), down


def assert_download_equivalent(**kwargs):
    fast, fast_sched = run_download_scenario(reference=False, **kwargs)
    ref, ref_sched = run_download_scenario(reference=True, **kwargs)
    assert fast == ref
    assert fast_sched._dispatch_scans <= ref_sched._dispatch_scans
    return fast


def test_download_equivalence_plain():
    snapshot = assert_download_equivalent(seed=1)
    assert all(r[3] is not None for r in snapshot["reports"])


def test_download_equivalence_primed_estimator():
    assert_download_equivalent(prime=[100, 80, 5, 3, 1], seed=5)


def test_download_equivalence_outages():
    snapshot = assert_download_equivalent(kill_clouds=(1, 3), seed=9)
    assert all(r[4] is not None for r in snapshot["reports"])  # decoded


def test_download_equivalence_flaky():
    snapshot = assert_download_equivalent(
        down_failure_rates=[0.0, 0.3, 0.0, 0.4, 0.2], seed=13
    )
    assert snapshot["batch"][2] > 0
