"""Data block scheduling (paper §6.2) — UniDrive's networking core.

Uploads and downloads share one mechanism, the private dispatch core
(:class:`_DispatchCore`): one pull-based worker per connection asks for
the next block when it is idle, so faster clouds naturally transfer
more, and every completed transfer feeds the in-channel
:class:`~repro.core.probing.ThroughputEstimator`.  The core owns

* the batch index — one state per unique ``segment_id`` in
  first-occurrence order, the segment->files index, and per-file
  milestone countdowns (zero-segment files are stamped at the first
  progress check);
* the worker loop — deadline-budget check, abort, pick, then transfer
  or wait for a progress pulse;
* the transfer span and the settlement of every outcome: estimator,
  breaker, dead-cloud counting, metrics, telemetry, and backoff.

Each direction supplies only its policy: how to pick the next block,
how to commit and move it, and what a completion or failure does to its
segment state.

Upload policy, per batch of files:

* **Basic scheduling** — each segment's ``fair_share * N`` normal parity
  blocks are partitioned evenly and deterministically across clouds.
* **Over-provisioning** — a cloud that exhausts its fair share keeps
  pulling *extra* parity blocks (never exceeding the per-cloud security
  cap), so network use is proportional to observed speed and fast clouds
  are never idle while slow ones lag.
* **Two-phase batch order** — *availability-first*: every connection
  works on the earliest file that is not yet available (k blocks per
  segment uploaded); only when all files are available does the
  *reliability-second* phase top up outstanding fair shares.

Download policy: any k blocks per segment suffice; idle connections pull
block indices their cloud holds, never requesting more than k per
segment, and defer to strictly faster clouds.  With degradation on, an
idle connection may hedge a slow in-flight fetch with a spare index.

Failure rule, both directions: a ``RETRY``-classified error counts one
failure toward ``cloud_failure_threshold``; any other error jumps the
cloud straight to the threshold (dead for the batch) — except a
``NotFoundError``, which only a download sees and which counts one
per-(index, cloud) miss.  A connection backs off only after a ``RETRY``
error that left its cloud alive.

Setting ``over_provision=False`` and ``dynamic=False`` turns the
scheduler into the RACS/DepSky-style **multi-cloud benchmark** baseline
the paper compares against.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import math

from ..cloud import CloudAPI, CloudError, NotFoundError
from ..obs import METRICS, TELEMETRY, TRACE
from ..obs.tracer import ctx_attrs as _ctx_attrs
from ..simkernel import AllOf, AnyOf, Simulator
from .config import UniDriveConfig
from .degrade import DeadlineBudget, DegradeController
from .metadata import SegmentRecord
from .pipeline import BlockPipeline, block_hash
from .placement import fair_share, fair_share_assignment, max_blocks_per_cloud
from .probing import DOWNLOAD, UPLOAD, ThroughputEstimator
from .retry import GIVE_UP, RETRY, RetryPolicy

__all__ = [
    "UploadScheduler",
    "DownloadScheduler",
    "FileUpload",
    "FileUploadReport",
    "UploadBatchReport",
    "FileDownload",
    "FileDownloadReport",
    "DownloadBatchReport",
]


# ---------------------------------------------------------------------------
# Inputs and reports
# ---------------------------------------------------------------------------


@dataclass
class FileUpload:
    """One file to upload: its segments (records + plaintext data)."""

    path: str
    segments: List[Tuple[SegmentRecord, bytes]]  # (record, segment bytes)

    @property
    def size(self) -> int:
        return sum(record.size for record, _ in self.segments)


@dataclass
class FileUploadReport:
    path: str
    size: int
    started_at: float
    available_at: Optional[float] = None
    reliable_at: Optional[float] = None
    degraded: bool = False  # a cloud died; fair shares incomplete
    blocks_per_cloud: Dict[str, int] = field(default_factory=dict)

    @property
    def available_duration(self) -> Optional[float]:
        if self.available_at is None:
            return None
        return self.available_at - self.started_at


@dataclass
class UploadBatchReport:
    files: List[FileUploadReport]
    started_at: float = 0.0
    finished_at: float = 0.0
    failed_requests: int = 0

    @property
    def all_available(self) -> bool:
        return all(f.available_at is not None for f in self.files)

    @property
    def last_available_at(self) -> Optional[float]:
        times = [f.available_at for f in self.files]
        if any(t is None for t in times):
            return None
        return max(times) if times else self.started_at

    def report_for(self, path: str) -> FileUploadReport:
        for report in self.files:
            if report.path == path:
                return report
        raise KeyError(path)


@dataclass
class FileDownload:
    """One file to download: ordered segment records from metadata."""

    path: str
    segments: List[SegmentRecord]

    @property
    def size(self) -> int:
        return sum(record.size for record in self.segments)


@dataclass
class FileDownloadReport:
    path: str
    size: int
    started_at: float
    completed_at: Optional[float] = None
    content: Optional[bytes] = None

    @property
    def duration(self) -> Optional[float]:
        if self.completed_at is None:
            return None
        return self.completed_at - self.started_at


@dataclass
class DownloadBatchReport:
    files: List[FileDownloadReport]
    started_at: float = 0.0
    finished_at: float = 0.0
    failed_requests: int = 0

    @property
    def all_completed(self) -> bool:
        return all(f.completed_at is not None for f in self.files)

    def report_for(self, path: str) -> FileDownloadReport:
        for report in self.files:
            if report.path == path:
                return report
        raise KeyError(path)


# ---------------------------------------------------------------------------
# The shared dispatch core
# ---------------------------------------------------------------------------


@dataclass
class _Task:
    """One committed block transfer."""

    state: object
    index: int
    fair: bool = True    # upload: False for an over-provisioned extra
    hedge: bool = False  # download: races an outrun in-flight fetch


def _stamp(report, stamps, now: float) -> None:
    """Set each named report timestamp that is still unset."""
    for stamp in stamps:
        if getattr(report, stamp) is None:
            setattr(report, stamp, now)


class _DispatchCore:
    """Pull-based dispatch shared by both schedulers (paper §6.2).

    A direction subclass sets :attr:`DIRECTION` and :attr:`MILESTONES`
    and supplies the policy hooks: ``_record`` / ``_new_state`` /
    ``_new_report`` (indexing), a regular pick passed to
    :meth:`_run_workers`, ``_dispatch`` (commit a pick, then run
    :meth:`_transfer`), ``_request`` (the cloud call) and ``_complete``
    / ``_requeue`` (segment bookkeeping on success / failure).
    """

    DIRECTION: str  # UPLOAD or DOWNLOAD
    #: ``(segment-state predicate, file-report stamp)`` pairs.  Each
    #: predicate is monotone within a batch, so a file's stamp is set
    #: when its countdown of unique segments reaching it hits zero.
    MILESTONES: Tuple[Tuple[str, str], ...] = ()

    def __init__(self, sim, connections, pipeline, config, estimator,
                 dynamic, retry_policy, rng, trace_ctx, tenant, degrade,
                 budget):
        if not connections:
            raise ValueError("need at least one cloud connection")
        self.sim = sim
        self.connections = list(connections)
        self.cloud_ids = [c.cloud_id for c in self.connections]
        self.pipeline = pipeline
        self.config = config
        self.estimator = estimator or ThroughputEstimator()
        self.dynamic = dynamic
        # Unified failure policy: classifies errors (fail-fast vs
        # transient) and paces re-dispatch after transient failures.
        # rng=None keeps the backoff schedule deterministic.
        self.retry = retry_policy or RetryPolicy.from_config(config)
        self.rng = rng
        # Trace-correlation ancestry for this batch's transfer spans and
        # tenant identity for per-tenant SLO accounting; both optional
        # and inert unless the respective hub is enabled.
        self.trace_ctx = trace_ctx
        self.tenant = tenant
        # Degradation control plane (None = disabled, the default): the
        # breaker gate in _admits and the per-round deadline budget.
        self._degrade = degrade
        self._budget = budget
        self._aborted = False
        self._workers: List = []
        self._start_batch(())

    # -- batch index --------------------------------------------------------

    def _start_batch(self, files) -> None:
        """Reset the per-batch state and index ``files``."""
        self._files = list(files)
        self._reports: Dict[str, object] = {}
        self._states: Dict[str, object] = {}
        self._file_segments: Dict[str, List] = {}
        # The flattened first-occurrence state order (the cursor
        # dispatchers' scan order) and the segment->files index.
        self._ordered: List = []
        self._state_files: Dict[str, List[str]] = {}
        # Per-file countdowns, one per milestone, of unique segments
        # still short of it; zero-segment files await their stamp.
        self._pending: Dict[str, List[int]] = {}
        self._flush: List[str] = []
        self._inflight_total = 0
        self._dead: Dict[str, int] = {cid: 0 for cid in self.cloud_ids}
        self._failed_requests = 0
        self._dispatch_scans = 0  # state visits, for the perf harness
        self._wake = self.sim.event()
        for file in self._files:
            self._reports[file.path] = self._new_report(file)
            states = []
            for segment in file.segments:
                segment_id = self._record(segment).segment_id
                state = self._states.get(segment_id)
                if state is None:
                    state = self._new_state(segment)
                    state.position = len(self._ordered)
                    state.counted = [False] * len(self.MILESTONES)
                    self._states[segment_id] = state
                    self._ordered.append(state)
                    self._state_files[segment_id] = []
                files_of = self._state_files[segment_id]
                if file.path not in files_of:
                    files_of.append(file.path)
                states.append(state)
            self._file_segments[file.path] = states
            unique = len({id(s) for s in states})
            self._pending[file.path] = [unique] * len(self.MILESTONES)
            if not unique:
                self._flush.append(file.path)

    def _note_block_completed(self, state) -> None:
        """Incremental progress accounting after one completed block.

        Milestones are monotone (blocks complete exactly once, and a
        reliable upload state has no fair work left that could later
        mark it degraded), so per-file countdowns stamped through the
        segment->files index replace a full ``all(...)`` rescan of
        every file on every block.
        """
        now = self.sim.now
        if self._flush:
            # Zero-segment files are vacuously at every milestone; stamp
            # them at the first progress check, as the full rescan did.
            stamps = [stamp for _reached, stamp in self.MILESTONES]
            for path in self._flush:
                _stamp(self._reports[path], stamps, now)
            self._flush = []
        counted = state.counted
        for m, (reached, stamp) in enumerate(self.MILESTONES):
            if counted[m] or not getattr(state, reached):
                continue
            counted[m] = True
            for path in self._state_files[state.record.segment_id]:
                pending = self._pending[path]
                pending[m] -= 1
                if pending[m] == 0:
                    _stamp(self._reports[path], (stamp,), now)

    def _stamp_stragglers(self) -> None:
        """Batch-final pass: stamp each milestone a file reached that no
        completed block stamped (e.g. zero-segment files in a batch
        that completed nothing)."""
        for file in self._files:
            report = self._reports[file.path]
            states = self._file_segments[file.path]
            for reached, stamp in self.MILESTONES:
                if getattr(report, stamp) is None and all(
                    getattr(s, reached) for s in states
                ):
                    setattr(report, stamp, self.sim.now)

    def _batch_report(self, report_cls, started: float):
        return report_cls(
            files=[self._reports[f.path] for f in self._files],
            started_at=started,
            finished_at=self.sim.now,
            failed_requests=self._failed_requests,
        )

    # -- worker loop ----------------------------------------------------------

    def _run_workers(self, connections: Sequence[CloudAPI], next_pick):
        """Run ``connections_per_cloud`` workers per connection to the
        end of the batch.

        ``next_pick(cloud_id)`` is the direction's regular pick: a
        candidate for an idle connection, or None.  Picking commits
        nothing, so the same call probes for termination.
        """
        workers = [
            self.sim.process(self._worker(conn, next_pick))
            for conn in connections
            for _slot in range(self.config.connections_per_cloud)
        ]
        self._workers = workers
        if workers:
            yield AllOf(self.sim, workers)
        self._workers = []

    def _worker(self, conn: CloudAPI, next_pick):
        cloud_id = conn.cloud_id
        while True:
            if (
                self._budget is not None
                and not self._aborted
                and self._budget.expired
            ):
                # Round deadline reached: stop dispatching; the batch
                # winds down with whatever blocks already landed
                # (brownout debt, content=None or a SyncError pick it up
                # upstream).
                self.abort()
            if self._aborted:
                return
            pick = next_pick(cloud_id)
            eta = None
            if pick is None:
                pick, eta = self._next_hedge(cloud_id)
            if pick is None:
                if self._done(next_pick):
                    return
                if eta is not None and eta > self.sim.now:
                    # Work turns dispatchable at a known future instant
                    # (a fetch becoming hedge-eligible); park on
                    # whichever of (progress pulse, that instant) fires
                    # first.
                    yield AnyOf(
                        self.sim,
                        [self._wake, self.sim.timeout(eta - self.sim.now)],
                    )
                else:
                    yield self._wake
                continue
            self._inflight_total += 1
            if self._degrade is not None:
                self._degrade.note_dispatch(cloud_id, self.sim.now)
            yield from self._dispatch(conn, pick)

    def _admits(self, cloud_id: str) -> bool:
        """The dispatch gate every pick passes first.

        An open breaker (or a scoreboard-pinned outage) stops regular
        dispatch — the fix for the degraded-cloud retry burn, where
        every fresh batch used to grant a known-bad cloud a full paced
        retry budget.  Half-open probes pass, bounded by the probe
        quota, and are accounted by ``note_dispatch`` at commit.
        """
        if self._aborted:
            return False
        return self._degrade is None or self._degrade.admits(
            cloud_id, self.sim.now
        )

    def _is_dead(self, cloud_id: str) -> bool:
        return self._dead.get(cloud_id, 0) >= self.config.cloud_failure_threshold

    def _done(self, next_pick) -> bool:
        if self._inflight_total > 0:
            return False
        return all(next_pick(cid) is None for cid in self.cloud_ids)

    def _pulse(self) -> None:
        wake, self._wake = self._wake, self.sim.event()
        wake.succeed()

    # -- one transfer ---------------------------------------------------------

    def _transfer(self, conn: CloudAPI, task: _Task, payload=None,
                  **fields):
        """Move one committed block and settle its outcome.

        ``payload`` is the block to upload (None for a fetch); ``fields``
        are extra span attributes, placed before ``attempt``.
        """
        cloud_id = conn.cloud_id
        record = task.state.record
        start = self.sim.now
        span = None
        block_ctx = None
        if TRACE.enabled:
            sid = TRACE.tracer.next_id()
            attrs = _ctx_attrs(self.trace_ctx, sid)
            if task.hedge:
                attrs["hedge"] = True
            span = TRACE.begin(
                "transfer", t=start, track=cloud_id, dir=self.DIRECTION,
                seg=record.segment_id[:12], block=task.index, **fields,
                attempt=self._dead[cloud_id] + 1, **attrs,
            )
            block_ctx = (attrs.get("trace_id", sid), sid)
        path = self.pipeline.block_path(record, task.index)
        try:
            block = yield from self._request(conn, path, payload, block_ctx)
        except CloudError as exc:
            self._inflight_total -= 1
            self.estimator.record_failure(
                cloud_id, self.DIRECTION, now=self.sim.now
            )
            action = self.retry.classify(exc)
            # A missing block (only a fetch sees one) is a deterministic
            # per-(index, cloud) miss, not evidence the cloud died.
            miss = isinstance(exc, NotFoundError)
            self._settle_failure(
                task, cloud_id, span, type(exc).__name__, action,
                fatal=action is not RETRY and not miss, miss=miss,
            )
            if action is RETRY and not self._is_dead(cloud_id):
                # Transient: pace this connection's next attempt.
                delay = self.retry.backoff(
                    self._dead[cloud_id] - 1, self.rng
                )
                if delay > 0:
                    wait = (
                        TRACE.begin(
                            "retry_wait", t=self.sim.now,
                            track=cloud_id, dir=self.DIRECTION,
                            attempt=self._dead[cloud_id],
                        )
                        if TRACE.enabled
                        else None
                    )
                    yield self.sim.timeout(delay)
                    if wait is not None:
                        TRACE.end(wait, t=self.sim.now)
            return
        except GeneratorExit:
            # The process was killed mid-request (a crash, or a won
            # hedge race cancelling its loser).
            self._abandon(task, cloud_id, span)
            raise
        self._inflight_total -= 1
        if self._rejects(conn, task, block):
            # Bytes that fail their fingerprint are a permanent erasure
            # of this (index, cloud) pair: a non-fatal give-up, with no
            # estimator sample and no backoff.
            self._settle_failure(
                task, cloud_id, span, "CorruptBlock", GIVE_UP,
                fatal=False, bytes=len(block),
            )
            return
        now = self.sim.now
        nbytes = len(block)
        self._dead[cloud_id] = 0
        if self._degrade is not None:
            self._degrade.on_success(cloud_id, now)
        self.estimator.record(
            cloud_id, self.DIRECTION, nbytes, now - start, now=now
        )
        if span is not None:
            TRACE.end(span, t=now, bytes=nbytes)
        if METRICS.enabled or TELEMETRY.enabled:
            self._observe_success(conn, nbytes, task.fair, now)
        self._complete(task, cloud_id, block, start)
        self._note_block_completed(task.state)
        self._pulse()

    def _observe_success(self, conn: CloudAPI, nbytes: int, fair: bool,
                         now: float) -> None:
        """Per-completed-block metrics and telemetry.

        Both hubs get the estimate and the raw simulated link rate from
        one lookup.  ``estimator_rel_error`` compares the two — a
        diagnostic for estimator drift, not an exact residual, since
        the true per-connection share also depends on concurrent
        transfer count.
        """
        cloud_id = conn.cloud_id
        direction = self.DIRECTION
        if METRICS.enabled:
            METRICS.inc(
                "bytes_up" if direction == UPLOAD else "bytes_down",
                nbytes, cloud=cloud_id,
            )
            if not fair:
                METRICS.inc("redundant_blocks", cloud=cloud_id)
                METRICS.inc("redundant_bytes", nbytes, cloud=cloud_id)
        if TELEMETRY.enabled:
            TELEMETRY.transfer(
                cloud_id, now, True, nbytes, direction,
                tenant=self.tenant, redundant=not fair,
            )
        engine = getattr(
            conn, "uplink" if direction == UPLOAD else "downlink", None
        )
        bandwidth = getattr(engine, "bandwidth", None)
        if bandwidth is None:
            return
        true_rate = bandwidth.rate_at(now)
        est = self.estimator.estimate(cloud_id, direction)
        if not math.isfinite(est):
            return
        if METRICS.enabled and true_rate > 0:
            METRICS.observe(
                "estimator_rel_error", abs(est - true_rate) / true_rate,
                direction=direction,
            )
        if TELEMETRY.enabled:
            TELEMETRY.estimator(cloud_id, now, direction, est, true_rate)

    def _settle_failure(self, task: _Task, cloud_id: str, span, error: str,
                        action: str, fatal: bool, miss: bool = False,
                        **end) -> None:
        """Account one failed transfer and hand its block back."""
        now = self.sim.now
        self._failed_requests += 1
        if span is not None:
            TRACE.end(span, t=now, **end, error=error, retry_action=action)
        if METRICS.enabled:
            METRICS.inc(
                "scheduler_redispatch",
                cloud=cloud_id, direction=self.DIRECTION,
            )
        if TELEMETRY.enabled:
            if miss:
                # The cloud answered correctly that it lacks the block
                # (raced GC / placement): counted, but never a health or
                # SLO signal.
                TELEMETRY.missing_block(cloud_id, now)
            else:
                TELEMETRY.transfer(
                    cloud_id, now, False, 0, self.DIRECTION,
                    tenant=self.tenant, retry_action=action,
                )
        if self._degrade is not None and not miss:
            self._degrade.on_failure(cloud_id, now, fatal=fatal)
        self._count_failure(cloud_id, fatal)
        self._requeue(task, cloud_id)
        self._pulse()

    def _count_failure(self, cloud_id: str, fatal: bool) -> None:
        """Count one failure toward the cloud's death threshold.

        ``fatal`` failures jump the counter straight to the threshold:
        the batch must not keep probing a cloud whose errors cannot
        succeed on retry (re-probing an unavailable cloud burns the
        unavailability timeout per attempt).
        """
        was_dead = self._is_dead(cloud_id)
        if fatal:
            self._dead[cloud_id] = max(
                self._dead[cloud_id], self.config.cloud_failure_threshold
            )
        else:
            self._dead[cloud_id] += 1
        if not was_dead and self._is_dead(cloud_id):
            self._on_cloud_dead(cloud_id)

    # -- optional hooks -------------------------------------------------------

    def _next_hedge(self, cloud_id: str):
        """``(task, eta)``: speculative work for a connection with no
        regular pick, and the instant some may appear without a pulse.
        Only downloads hedge."""
        return None, None

    def _rejects(self, conn: CloudAPI, task: _Task, block) -> bool:
        """Whether a delivered block fails verification."""
        return False

    def _on_cloud_dead(self, cloud_id: str) -> None:
        """A cloud just crossed the death threshold."""

    def _abandon(self, task: _Task, cloud_id: str, span) -> None:
        """The transfer's process was killed mid-request."""

    # -- control --------------------------------------------------------------

    def abort(self) -> None:
        """Stop dispatching: idle workers return at once, busy workers
        exit after their current transfer resolves (soft shutdown).  An
        abort before :meth:`run_batch` sticks: the batch then returns at
        once with nothing sent."""
        self._aborted = True
        self._pulse()

    def kill_workers(self) -> None:
        """Hard-stop every worker where it stands (client power loss).

        In-flight transfers never complete client-side: a block whose
        upload generator dies mid-payload was never acknowledged, so it
        is *not* recorded in metadata or the journal — exactly the
        orphan/loss window a crash leaves in reality.
        """
        self._aborted = True
        for proc in self._workers:
            kill = getattr(proc, "kill", None)
            if kill is not None:
                kill()
        self._workers = []


# ---------------------------------------------------------------------------
# Upload scheduling
# ---------------------------------------------------------------------------


class _SegmentUploadState:
    """Book-keeping for one unique segment within a batch.

    The batch index assigns ``position`` (in the first-occurrence scan
    order) and ``counted`` (milestones already counted down).
    """

    def __init__(self, record: SegmentRecord, data: bytes,
                 cloud_ids: Sequence[str], config: UniDriveConfig):
        self.record = record
        self.data = data
        self.k = record.k
        self.cap = max_blocks_per_cloud(record.k, config.k_security)
        share = fair_share(record.k, config.k_reliability)
        assignment = fair_share_assignment(cloud_ids, record.k,
                                           config.k_reliability)
        self.fair: Dict[str, deque] = {
            cid: deque(indices) for cid, indices in assignment.items()
        }
        self.fair_targets: Dict[str, int] = {cid: share for cid in cloud_ids}
        normal_count = share * len(cloud_ids)
        self.extras = deque(range(normal_count, record.n))
        self.uploaded: Dict[int, str] = {}
        self.inflight: Dict[int, str] = {}
        self.fair_inflight: set = set()
        self.per_cloud: Dict[str, int] = {cid: 0 for cid in cloud_ids}
        self.fair_uploaded: Dict[str, int] = {cid: 0 for cid in cloud_ids}
        self.degraded = False

    # -- predicates --------------------------------------------------------

    @property
    def assignment_satisfied(self) -> bool:
        """Enough blocks uploaded or in flight to promise availability."""
        return len(self.uploaded) + len(self.inflight) >= self.k

    @property
    def available(self) -> bool:
        return len(self.uploaded) >= self.k

    def fair_done(self, cloud_id: str) -> bool:
        return self.fair_uploaded.get(cloud_id, 0) >= self.fair_targets.get(
            cloud_id, 0
        )

    def fair_pending(self, cloud_id: str) -> bool:
        return bool(self.fair.get(cloud_id))

    @property
    def reliable(self) -> bool:
        return all(
            self.fair_done(cid) for cid in self.fair_targets
        ) and not self.degraded

    def any_fair_pending(self) -> bool:
        return any(self.fair.values())

    @property
    def fair_outstanding(self) -> bool:
        """Fair-share work still queued or in flight anywhere."""
        return self.any_fair_pending() or bool(self.fair_inflight)

    def cap_room(self, cloud_id: str) -> bool:
        return self.per_cloud.get(cloud_id, 0) < self.cap

    # -- transitions -------------------------------------------------------

    def take_fair(self, cloud_id: str) -> Optional[int]:
        queue = self.fair.get(cloud_id)
        if not queue or not self.cap_room(cloud_id):
            return None
        index = queue.popleft()
        self._mark_inflight(index, cloud_id)
        self.fair_inflight.add(index)
        return index

    def take_extra(self, cloud_id: str) -> Optional[int]:
        if not self.extras or not self.cap_room(cloud_id):
            return None
        index = self.extras.popleft()
        self._mark_inflight(index, cloud_id)
        return index

    def _mark_inflight(self, index: int, cloud_id: str) -> None:
        self.inflight[index] = cloud_id
        self.per_cloud[cloud_id] = self.per_cloud.get(cloud_id, 0) + 1

    def complete(self, index: int, cloud_id: str, is_fair: bool) -> None:
        self.inflight.pop(index, None)
        self.fair_inflight.discard(index)
        self.uploaded[index] = cloud_id
        # The asynchronous Cloud-ID callback (paper §5.1): the metadata
        # record learns where the block landed as soon as it landed.
        self.record.locations[index] = cloud_id
        if is_fair:
            self.fair_uploaded[cloud_id] = self.fair_uploaded.get(cloud_id, 0) + 1

    def preseed(self, index: int, cloud_id: str) -> None:
        """Mark a block as already on a cloud (journal resume).

        The block counts toward availability, fair shares, and the
        per-cloud security cap without being re-uploaded.  A journaled
        index normally sits in ``cloud_id``'s own fair queue (the
        assignment is deterministic); if the original round had degraded
        and dispatched it elsewhere, it is pulled from wherever it
        queues so no worker uploads it twice.
        """
        if index in self.uploaded:
            return
        is_fair = False
        queue = self.fair.get(cloud_id)
        if queue is not None and index in queue:
            queue.remove(index)
            is_fair = True
        elif index in self.extras:
            self.extras.remove(index)
        else:
            for other_queue in self.fair.values():
                if index in other_queue:
                    other_queue.remove(index)
                    break
        self.uploaded[index] = cloud_id
        self.record.locations[index] = cloud_id
        self.per_cloud[cloud_id] = self.per_cloud.get(cloud_id, 0) + 1
        if is_fair:
            self.fair_uploaded[cloud_id] = self.fair_uploaded.get(cloud_id, 0) + 1

    def fail(self, index: int, cloud_id: str, is_fair: bool,
             cloud_dead: bool) -> None:
        """Return the index to its pool (or the extras pool if the cloud
        died and can no longer take its fair share)."""
        self.inflight.pop(index, None)
        self.fair_inflight.discard(index)
        self.per_cloud[cloud_id] = max(0, self.per_cloud.get(cloud_id, 0) - 1)
        if is_fair and not cloud_dead:
            self.fair[cloud_id].appendleft(index)
        else:
            if is_fair:
                self.degraded = True
            self.extras.appendleft(index)

    def abandon_cloud(self, cloud_id: str) -> None:
        """A cloud died: its queued fair indices become extras."""
        queue = self.fair.get(cloud_id)
        if queue:
            self.degraded = True
            while queue:
                self.extras.appendleft(queue.pop())


class UploadScheduler(_DispatchCore):
    """Schedules one batch of file uploads over the multi-cloud."""

    DIRECTION = UPLOAD
    MILESTONES = (("available", "available_at"), ("reliable", "reliable_at"))

    def __init__(
        self,
        sim: Simulator,
        connections: Sequence[CloudAPI],
        pipeline: BlockPipeline,
        config: UniDriveConfig,
        estimator: Optional[ThroughputEstimator] = None,
        over_provision: bool = True,
        dynamic: bool = True,
        on_block_uploaded: Optional[Callable[[str, int, str], None]] = None,
        retry_policy: Optional[RetryPolicy] = None,
        rng=None,
        resume: Optional[Dict[str, Dict[int, str]]] = None,
        trace_ctx=None,
        tenant: Optional[str] = None,
        degrade: Optional[DegradeController] = None,
        budget: Optional[DeadlineBudget] = None,
    ):
        super().__init__(sim, connections, pipeline, config, estimator,
                         dynamic, retry_policy, rng, trace_ctx, tenant,
                         degrade, budget)
        self.over_provision = over_provision
        self.on_block_uploaded = on_block_uploaded
        # Journal resume: segment_id -> {index: cloud_id} of blocks a
        # previous (crashed) round already landed; they are credited as
        # uploaded at batch start and never re-transferred.
        self.resume = resume or {}
        # Per-cloud cursors of the three dispatch phases (see _next_task).
        self._ptr_a: Dict[str, int] = {}
        self._ptr_b: Dict[str, int] = {}
        self._ptr_c: Dict[str, int] = {}

    def run_batch(self, files: Sequence[FileUpload]):
        """Upload a batch; generator returns an :class:`UploadBatchReport`."""
        started = self.sim.now
        self._start_batch(files)
        self._ptr_a = {cid: 0 for cid in self.cloud_ids}
        self._ptr_b = {cid: 0 for cid in self.cloud_ids}
        self._ptr_c = {cid: 0 for cid in self.cloud_ids}
        if self.resume:
            # Preseeded blocks count as completed progress right away
            # (countdowns, availability stamps) — they just never
            # re-transfer.
            for state in self._ordered:
                if state.uploaded:
                    self._note_block_completed(state)
        yield from self._run_workers(self.connections, self._next_task)
        self._stamp_stragglers()
        for file in self._files:
            self._reports[file.path].degraded = any(
                s.degraded for s in self._file_segments[file.path]
            )
        return self._batch_report(UploadBatchReport, started)

    # -- batch index hooks --------------------------------------------------

    @staticmethod
    def _record(segment) -> SegmentRecord:
        return segment[0]

    def _new_state(self, segment) -> _SegmentUploadState:
        record, data = segment
        state = _SegmentUploadState(record, data, self.cloud_ids, self.config)
        for idx, cid in sorted(self.resume.get(record.segment_id, {}).items()):
            if cid in self.cloud_ids:
                state.preseed(idx, cid)
        return state

    def _new_report(self, file: FileUpload) -> FileUploadReport:
        return FileUploadReport(
            path=file.path, size=file.size, started_at=self.sim.now,
            blocks_per_cloud={cid: 0 for cid in self.cloud_ids},
        )

    # -- transfer hooks -------------------------------------------------------

    def _dispatch(self, conn: CloudAPI, pick):
        state, fair = pick
        index = (state.take_fair(conn.cloud_id) if fair
                 else state.take_extra(conn.cloud_id))
        # Integrity fingerprint, recorded at encode time: blocks are
        # deterministic in (segment content, index), so the hash is
        # valid metadata even if this particular transfer fails.
        # The digest rides along from the batched per-segment
        # fingerprint pass over the encoded matrix.
        block, digest = self.pipeline.encode_block_with_digest(
            state.record.segment_id, state.data, index
        )
        if index not in state.record.block_hashes:
            state.record.block_hashes[index] = digest
        yield from self._transfer(conn, _Task(state, index, fair), block,
                                  bytes=len(block), fair=fair)

    def _request(self, conn: CloudAPI, path: str, block, ctx):
        yield from conn.upload(path, block, ctx=ctx)
        return block

    def _complete(self, task: _Task, cloud_id: str, block, start: float):
        state, index = task.state, task.index
        state.complete(index, cloud_id, task.fair)
        if task.fair:
            # Completing a fair block may flip fair_done for this
            # cloud, unlocking this segment's extras for it.
            self._rewind_cursors(state.position, only_cloud=cloud_id)
        if self.on_block_uploaded is not None:
            self.on_block_uploaded(state.record.segment_id, index, cloud_id)
        for path in self._state_files[state.record.segment_id]:
            counts = self._reports[path].blocks_per_cloud
            counts[cloud_id] = counts.get(cloud_id, 0) + 1

    def _requeue(self, task: _Task, cloud_id: str) -> None:
        state = task.state
        state.fail(task.index, cloud_id, task.fair,
                   cloud_dead=self._is_dead(cloud_id))
        # A failure restores candidacy: the failed index went back to
        # this cloud's fair queue or to the shared extras pool, and this
        # cloud regained cap room.
        self._rewind_cursors(state.position)

    def _on_cloud_dead(self, cloud_id: str) -> None:
        for state in self._states.values():
            state.abandon_cloud(cloud_id)
        # Abandoned fair queues refilled the extras pool across the
        # whole batch; every cursor must rescan from the start.
        self._rewind_cursors(0)

    # -- dispatch policy ----------------------------------------------------

    def _next_task(self, cloud_id: str):
        """Pick the next ``(state, is_fair)`` for a cloud, uncommitted.

        The worker commits the pick with ``take_fair`` / ``take_extra``;
        every scan checks the same conditions those take, so a pick
        always commits.  Dynamic mode uses the amortized-O(1) cursor
        dispatcher below; the static benchmark baseline keeps the
        reference decision ladder (its file-gated order does not admit
        a prefix cursor).
        """
        if not self._admits(cloud_id):
            return None
        if not self.dynamic:
            return self._next_task_reference(cloud_id)
        if self._is_dead(cloud_id):
            return None
        pick = self._scan_phase_a(cloud_id) or self._scan_phase_b(cloud_id)
        if pick is None and self.over_provision:
            pick = self._scan_phase_c(cloud_id)
        return pick

    # The three phase scans share one structure: walk the flattened
    # first-occurrence state order from this cloud's cursor, skipping
    # states that cannot currently yield a task.  Every skip is
    # *permanent* with respect to this cloud's own actions — a skipped
    # state can only become dispatchable again through an event that
    # calls _rewind_cursors (a failed request re-queues an index and
    # frees cap room; a completed fair share unlocks extras; a dead
    # cloud's abandoned fair queue refills the extras pool) — so the
    # cursor never needs to revisit the prefix and dispatch cost is
    # amortized O(1) per block instead of O(files x segments).

    def _scan_phase_a(self, cloud_id: str):
        """Availability-first: earliest file not yet available."""
        ordered = self._ordered
        count = len(ordered)
        ptr = self._ptr_a[cloud_id]
        while ptr < count:
            state = ordered[ptr]
            self._dispatch_scans += 1
            if not state.available:
                if state.fair_pending(cloud_id):
                    if state.cap_room(cloud_id):
                        self._ptr_a[cloud_id] = ptr
                        return state, True
                elif (self.over_provision and state.fair_done(cloud_id)
                        and state.extras and state.cap_room(cloud_id)):
                    self._ptr_a[cloud_id] = ptr
                    return state, False
            ptr += 1
        self._ptr_a[cloud_id] = count
        return None

    def _scan_phase_b(self, cloud_id: str):
        """Reliability-second: top up outstanding fair shares."""
        ordered = self._ordered
        count = len(ordered)
        ptr = self._ptr_b[cloud_id]
        while ptr < count:
            state = ordered[ptr]
            self._dispatch_scans += 1
            if state.fair_pending(cloud_id) and state.cap_room(cloud_id):
                self._ptr_b[cloud_id] = ptr
                return state, True
            ptr += 1
        self._ptr_b[cloud_id] = count
        return None

    def _scan_phase_c(self, cloud_id: str):
        """Over-provision while slower clouds still owe fair shares."""
        ordered = self._ordered
        count = len(ordered)
        ptr = self._ptr_c[cloud_id]
        while ptr < count:
            state = ordered[ptr]
            self._dispatch_scans += 1
            if (state.fair_outstanding and state.fair_done(cloud_id)
                    and state.extras and state.cap_room(cloud_id)):
                self._ptr_c[cloud_id] = ptr
                return state, False
            ptr += 1
        self._ptr_c[cloud_id] = count
        return None

    def _rewind_cursors(self, position: int,
                        only_cloud: Optional[str] = None) -> None:
        """Pull phase cursors back to ``position`` after an event that
        may have restored a skipped state's candidacy."""
        clouds = (only_cloud,) if only_cloud is not None else self.cloud_ids
        for cid in clouds:
            if self._ptr_a[cid] > position:
                self._ptr_a[cid] = position
            if self._ptr_b[cid] > position:
                self._ptr_b[cid] = position
            if self._ptr_c[cid] > position:
                self._ptr_c[cid] = position

    def _next_task_reference(self, cloud_id: str):
        """The original O(files x segments) decision-ladder dispatcher.

        Retained as the executable specification of the scheduling
        policy: the cursor dispatcher above must pick byte-identical
        blocks (the equivalence tests swap this in and compare batch
        reports), and the static benchmark baseline still runs on it.
        """
        if self._is_dead(cloud_id):
            return None

        def fair(state: _SegmentUploadState):
            if state.fair_pending(cloud_id) and state.cap_room(cloud_id):
                return state, True
            return None

        def extra(state: _SegmentUploadState):
            # Over-provisioned blocks go only to clouds that already
            # *finished transferring* their own fair share of this
            # segment (paper §6.2).
            if not state.fair_done(cloud_id):
                return None
            if not state.extras or not state.cap_room(cloud_id):
                return None
            return state, False

        # Phase A: availability-first, files strictly in order.  Every
        # cloud keeps pulling blocks for the earliest file that is not
        # yet *available* (k blocks actually uploaded) — maximal
        # parallel transfer, with fast clouds hedging via extras.
        for file in self._files:
            for state in self._file_segments[file.path]:
                self._dispatch_scans += 1
                if state.available:
                    continue
                task = fair(state)
                if task is not None:
                    return task
                if self.over_provision:
                    task = extra(state)
                    if task is not None:
                        return task
            if not self.dynamic:
                # Benchmark baseline: finish this file's fair shares
                # before touching the next file (no phase split).
                for state in self._file_segments[file.path]:
                    task = fair(state)
                    if task is not None:
                        return task
                if any(
                    not s.available or s.any_fair_pending()
                    for s in self._file_segments[file.path]
                ):
                    return None
        # Phase B: reliability-second — top up outstanding fair shares.
        for file in self._files:
            for state in self._file_segments[file.path]:
                self._dispatch_scans += 1
                task = fair(state)
                if task is not None:
                    return task
        # Over-provision while slower clouds still owe fair shares
        # (stop once the slowest cloud finished its fair share, §6.2).
        if self.over_provision and self.dynamic:
            for file in self._files:
                for state in self._file_segments[file.path]:
                    self._dispatch_scans += 1
                    if not state.fair_outstanding:
                        continue
                    task = extra(state)
                    if task is not None:
                        return task
        return None


# ---------------------------------------------------------------------------
# Download scheduling
# ---------------------------------------------------------------------------


class _SegmentDownloadState:
    """Book-keeping for one segment being fetched (``position`` and
    ``counted`` as for :class:`_SegmentUploadState`)."""

    def __init__(self, record: SegmentRecord):
        self.record = record
        self.k = record.k
        self.blocks: Dict[int, bytes] = {}
        self.inflight: Dict[int, str] = {}
        self.exhausted: set = set()  # (index, cloud) pairs that failed
        # Hedged-fetch bookkeeping (only populated when the degradation
        # control plane is on): dispatch time of each in-flight fetch,
        # its killable child process, and the set of slow in-flight
        # indices already hedged (one hedge per slow fetch).
        self.inflight_since: Dict[int, float] = {}
        self.inflight_proc: Dict[int, object] = {}
        self.hedged: set = set()
        # The per-cloud block-index lists the cursor dispatcher walks,
        # frozen at batch start (locations do not change mid-download).
        self.cloud_indices: Dict[str, List[int]] = {}

    @property
    def complete(self) -> bool:
        return len(self.blocks) >= self.k

    @property
    def saturated(self) -> bool:
        """True when no further request should be issued."""
        return len(self.blocks) + len(self.inflight) >= self.k

    def drop_flight(self, index: int, cloud_id: str) -> None:
        """Forget the in-flight fetch of ``index`` from ``cloud_id``."""
        if self.inflight.get(index) == cloud_id:
            del self.inflight[index]
        self.inflight_since.pop(index, None)
        self.inflight_proc.pop(index, None)

    def candidate_index(self, cloud_id: str) -> Optional[int]:
        for index in self.record.blocks_on(cloud_id):
            if index in self.blocks or index in self.inflight:
                continue
            if (index, cloud_id) in self.exhausted:
                continue
            return index
        return None

    def candidate_for(self, cloud_id: str) -> Tuple[Optional[int], bool]:
        """Like :meth:`candidate_index`, plus permanence information.

        Returns ``(index, exhausted)``: ``exhausted`` is True when every
        block this cloud holds is already fetched or failed — a
        *permanent* condition (both sets only grow), letting the
        dispatch cursor skip this state forever.  An index blocked only
        by an in-flight request is temporary (the cursor must not
        advance past it): the flight resolves to fetched or failed
        either way, but until then the state must stay scannable.
        """
        pending = False
        for index in self.cloud_indices.get(cloud_id, ()):
            if index in self.blocks or (index, cloud_id) in self.exhausted:
                continue
            if index in self.inflight:
                pending = True
                continue
            return index, False
        return None, not pending


class DownloadScheduler(_DispatchCore):
    """Schedules one batch of file downloads from the multi-cloud."""

    DIRECTION = DOWNLOAD
    MILESTONES = (("complete", "completed_at"),)

    def __init__(
        self,
        sim: Simulator,
        connections: Sequence[CloudAPI],
        pipeline: BlockPipeline,
        config: UniDriveConfig,
        estimator: Optional[ThroughputEstimator] = None,
        dynamic: bool = True,
        retry_policy: Optional[RetryPolicy] = None,
        rng=None,
        trace_ctx=None,
        tenant: Optional[str] = None,
        degrade: Optional[DegradeController] = None,
        budget: Optional[DeadlineBudget] = None,
    ):
        super().__init__(sim, connections, pipeline, config, estimator,
                         dynamic, retry_policy, rng, trace_ctx, tenant,
                         degrade, budget)
        self._hedge_budget: Optional[float] = None
        #: Hedge accounting for benchmarks and acceptance tests.
        self.hedges_fired = 0
        self.hedged_bytes = 0
        #: Wall-clock (virtual) duration of every successful block
        #: fetch in the last batch — the p99 input for the hedging
        #: benchmark.  Cancelled losers do not appear.
        self.fetch_latencies: List[float] = []
        # Cursor dispatch (see _next_request): each cloud's candidate
        # states in scan order and its cursor into them.
        self._cloud_states: Dict[str, List[_SegmentDownloadState]] = {}
        self._cloud_ptr: Dict[str, int] = {}

    def run_batch(self, files: Sequence[FileDownload]):
        """Fetch a batch; generator returns a :class:`DownloadBatchReport`.

        Files that cannot be reconstructed (too many clouds down) finish
        with ``content=None`` rather than blocking the batch.
        """
        started = self.sim.now
        self._hedge_budget = None
        self.hedges_fired = 0
        self.hedged_bytes = 0
        self.fetch_latencies = []
        self._cloud_states = {cid: [] for cid in self.cloud_ids}
        self._cloud_ptr = {cid: 0 for cid in self.cloud_ids}
        self._start_batch(files)
        if self._degrade is not None and self._degrade.hedging:
            # Hedge traffic is capped as a fraction of the batch's
            # expected fetch volume (k blocks per unique segment).
            expected = sum(
                s.k * self.pipeline.block_size(s.record)
                for s in self._ordered
            )
            self._hedge_budget = (
                self.config.hedge_bytes_fraction * expected
            )
        yield from self._run_workers(
            self._ranked_connections(), self._next_request
        )
        self._stamp_stragglers()
        for file in self._files:
            states = self._file_segments[file.path]
            if all(s.complete for s in states):
                contents = [
                    self.pipeline.decode_segment(s.record, s.blocks)
                    for s in states
                ]
                self._reports[file.path].content = (
                    self.pipeline.assemble_file(contents)
                )
        return self._batch_report(DownloadBatchReport, started)

    def _ranked_connections(self) -> List[CloudAPI]:
        """Fastest clouds first so their workers ask first (paper §6.2)."""
        if not self.dynamic:
            return list(self.connections)
        order = self.estimator.rank(self.cloud_ids, DOWNLOAD)
        by_id = {c.cloud_id: c for c in self.connections}
        return [by_id[cid] for cid in order]

    # -- batch index hooks --------------------------------------------------

    @staticmethod
    def _record(segment) -> SegmentRecord:
        return segment

    def _new_state(self, record: SegmentRecord) -> _SegmentDownloadState:
        state = _SegmentDownloadState(record)
        for cid in self.cloud_ids:
            indices = record.blocks_on(cid)
            if indices:
                state.cloud_indices[cid] = indices
                self._cloud_states[cid].append(state)
        return state

    def _new_report(self, file: FileDownload) -> FileDownloadReport:
        return FileDownloadReport(
            path=file.path, size=file.size, started_at=self.sim.now
        )

    # -- transfer hooks -------------------------------------------------------

    def _dispatch(self, conn: CloudAPI, task: _Task):
        # Entry bookkeeping happens here — not inside _transfer — so
        # another worker scanning between dispatch and the child
        # process's first step can never double-pick the index.
        state, index = task.state, task.index
        state.inflight[index] = conn.cloud_id
        state.inflight_since[index] = self.sim.now
        if self._degrade is None:
            yield from self._transfer(conn, task)
        else:
            # A killable child: a won hedge race cancels the loser.
            proc = self.sim.process(self._transfer(conn, task))
            state.inflight_proc[index] = proc
            yield proc

    def _request(self, conn: CloudAPI, path: str, block, ctx):
        return (yield from conn.download(path, ctx=ctx))

    def _rejects(self, conn: CloudAPI, task: _Task, block) -> bool:
        """Silent corruption: the cloud served bytes that do not match
        the recorded fingerprint."""
        expected = task.state.record.block_hashes.get(task.index)
        if (
            expected is None
            or not getattr(conn, "retains_content", True)
            or block_hash(block) == expected
        ):
            return False
        if METRICS.enabled:
            METRICS.inc("corrupt_detected", cloud=conn.cloud_id)
        return True

    def _complete(self, task: _Task, cloud_id: str, block, start: float):
        state = task.state
        state.drop_flight(task.index, cloud_id)
        state.blocks[task.index] = block
        self.fetch_latencies.append(self.sim.now - start)
        if self._degrade is not None and state.complete:
            self._cancel_losers(state)

    def _requeue(self, task: _Task, cloud_id: str) -> None:
        # A failed, missing or corrupt block is a permanent erasure of
        # this (index, cloud) pair for the batch: the dispatcher
        # re-fetches a different replica.
        task.state.drop_flight(task.index, cloud_id)
        task.state.exhausted.add((task.index, cloud_id))

    def _abandon(self, task: _Task, cloud_id: str, span) -> None:
        # Killed mid-flight (the other side of the hedge race won):
        # settle the books so _done() and the cursor dispatcher see a
        # consistent world.
        self._inflight_total -= 1
        task.state.drop_flight(task.index, cloud_id)
        if span is not None:
            TRACE.end(
                span, t=self.sim.now, error="HedgeCancelled",
                retry_action="cancelled",
            )

    # -- hedging --------------------------------------------------------------

    def _next_hedge(self, cloud_id: str):
        """Find a hedge-worthy block for an otherwise idle connection.

        A segment is hedge-worthy when one of its in-flight fetches (on
        another cloud) has outrun its estimator-predicted duration by
        ``hedge_latency_factor`` and this cloud holds a spare index of
        the same segment (any k of n reconstruct, so fetching a
        *different* index races the slow fetch).  Returns
        ``(task, eta)``: ``task`` is the hedge to dispatch now or None;
        ``eta`` is the earliest sim time any current fetch becomes
        hedge-eligible, letting the worker park on a timeout instead of
        only on the progress pulse.
        """
        if self._hedge_budget is None:
            return None, None
        if self._is_dead(cloud_id):
            return None, None
        if not self._degrade.admits(cloud_id, self.sim.now):
            return None, None
        now = self.sim.now
        eta = None
        for state in self._cloud_states[cloud_id]:
            if state.complete or not state.inflight:
                continue
            index, _exhausted = state.candidate_for(cloud_id)
            if index is None:
                continue
            nbytes = self.pipeline.block_size(state.record)
            if self.hedged_bytes + nbytes > self._hedge_budget:
                continue
            for slow_index, holder in state.inflight.items():
                if holder == cloud_id or slow_index in state.hedged:
                    continue
                since = state.inflight_since.get(slow_index)
                if since is None:
                    continue
                threshold = self._degrade.hedge_threshold(
                    self.estimator.estimate(holder, DOWNLOAD), nbytes
                )
                if threshold is None:
                    continue
                ready_at = since + threshold
                if now >= ready_at:
                    state.hedged.add(slow_index)
                    self.hedged_bytes += nbytes
                    self.hedges_fired += 1
                    # The outrun fetch is itself a probe: the holder
                    # has moved at most ``nbytes`` in ``now - since``
                    # seconds, so fold that throughput ceiling into
                    # the estimator.  _defer_to_faster then steers new
                    # picks away from the slow cloud instead of
                    # burning the hedge budget rediscovering it one
                    # block at a time — without it, every cancelled
                    # loser frees a worker that immediately picks
                    # another doomed-slow block on a stale estimate.
                    self.estimator.record(
                        holder, DOWNLOAD, nbytes, now - since, now=now
                    )
                    if METRICS.enabled:
                        METRICS.inc("hedged_fetch", cloud=cloud_id)
                    return _Task(state, index, hedge=True), None
                if eta is None or ready_at < eta:
                    eta = ready_at
        return None, eta

    def _cancel_losers(self, state: _SegmentDownloadState) -> None:
        """A segment just completed: kill its still-racing fetches
        (the hedge loser, or the outrun primary) so no further virtual
        time or bandwidth is spent on redundant blocks."""
        for proc in list(state.inflight_proc.values()):
            if proc.is_alive:
                proc.kill()

    # -- dispatch policy ----------------------------------------------------

    def _next_request(self, cloud_id: str):
        """Pick the next block (a :class:`_Task`) for an idle connection.

        Dynamic mode walks this cloud's own candidate list (only the
        segments it holds blocks of) from a cursor that permanently
        skips the completed/exhausted prefix — amortized O(1) per block.
        Temporarily blocked states (saturated by in-flight requests, or
        deferred to faster clouds) do not advance the cursor, because
        they can become requestable again.  The static baseline keeps
        the reference file-gated scan.
        """
        if not self._admits(cloud_id):
            return None
        if not self.dynamic:
            return self._next_request_reference(cloud_id)
        if self._is_dead(cloud_id):
            return None
        states = self._cloud_states[cloud_id]
        count = len(states)
        position = self._cloud_ptr[cloud_id]
        advancing = True
        while position < count:
            state = states[position]
            self._dispatch_scans += 1
            position += 1
            if state.complete:
                if advancing:
                    self._cloud_ptr[cloud_id] = position
                continue
            index, exhausted = state.candidate_for(cloud_id)
            if index is None:
                if exhausted:
                    if advancing:
                        self._cloud_ptr[cloud_id] = position
                else:
                    advancing = False
                continue
            if state.saturated:
                advancing = False
                continue
            if self._defer_to_faster(state, cloud_id):
                advancing = False
                continue
            return _Task(state, index)
        return None

    def _next_request_reference(self, cloud_id: str):
        """The original O(files x segments) scan — the executable
        specification the cursor dispatcher must match (the equivalence
        tests swap it in), and still the static baseline's path."""
        if self._is_dead(cloud_id):
            return None
        for file in self._files:
            for state in self._file_segments[file.path]:
                self._dispatch_scans += 1
                if state.saturated:
                    continue
                index = state.candidate_index(cloud_id)
                if index is None:
                    continue
                if self.dynamic and self._defer_to_faster(state, cloud_id):
                    continue
                return _Task(state, index)
            if not self.dynamic:
                # Static baseline: strictly finish this file first.
                if not all(
                    s.complete for s in self._file_segments[file.path]
                ):
                    return None
        return None

    def _defer_to_faster(self, state: _SegmentDownloadState,
                         cloud_id: str) -> bool:
        """The paper's sorted assignment: the next block goes to the
        idle connection of the *fastest* cloud.  A slower cloud backs
        off whenever strictly-faster clouds can still supply all the
        blocks this segment is missing."""
        needed = state.k - len(state.blocks) - len(state.inflight)
        if needed <= 0:
            return True
        mine = self.estimator.estimate(cloud_id, DOWNLOAD)
        faster_supply = 0
        for index, holder in state.record.locations.items():
            if holder == cloud_id:
                continue
            if index in state.blocks or index in state.inflight:
                continue
            if (index, holder) in state.exhausted:
                continue
            if self._is_dead(holder):
                continue
            if self.estimator.estimate(holder, DOWNLOAD) > mine:
                faster_supply += 1
        return faster_supply >= needed
