"""The benchmark's workloads, driven through repro's public API.

Every workload is a closed loop on the host: a fixed amount of
simulated work per episode runs as fast as the host allows.  An
episode's inputs come only from its seed (:func:`episode_seed`), so the
simulated outcome of an episode repeats exactly for a seed.  See
README.md for why each workload exists and which layer it stresses.

A workload is two calls: ``prepare(seed)`` builds the inputs and the
objects the workload needs before it runs (set-up), and ``run(state)``
is the timed part and returns an :class:`Episode`.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro import Simulator, UniDriveClient, UniDriveConfig
from repro.core import SyncError
from repro.core.baselines import MultiCloudBenchmark
from repro.core.lock import LockTimeout
from repro.fsmodel import VirtualFileSystem
from repro.workloads import trial as trial_mod
from repro.workloads.locations import connect_location, make_clouds
from repro.workloads.shared import SharedScenario, run_shared
from repro.workloads.trial import run_trial


#: Per-layer values read off ``SharedResult``; 0 where the workload
#: has no degradation control plane.
DEGRADE_LAYERS = (
    "degrade.hedges_fired", "degrade.hedged_bytes",
    "degrade.debt_after_rounds", "degrade.debt_repaid",
    "degrade.breaker_transitions_max",
)


def episode_seed(seed: int, index: int) -> int:
    """The seed of episode ``index`` of a run with ``seed``."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


@dataclass
class Episode:
    """What one episode did, in simulated terms, plus its checks."""

    #: Ops completed (files visible, rounds committed, uploads done).
    ops: int
    #: Op attempts and the attempts that failed (ops_ok_frac).
    attempts: int
    failed_attempts: int
    #: Simulated seconds per completed op, and write-to-visible times.
    op_latency: List[float]
    visibility: List[float]
    #: User bytes of completed ops and their summed simulated duration.
    op_bytes: int
    op_seconds: float
    #: Bytes on the wire over every connection, and user bytes written.
    wire_bytes: int
    written_bytes: int
    #: Metadata commits (for metadata.bytes_per_commit).
    commits: int
    #: Failed output checks; empty when the episode is correct.
    problems: List[str] = field(default_factory=list)
    #: Per-layer values the workload reads off public results.
    layers: Dict[str, float] = field(
        default_factory=lambda: dict.fromkeys(DEGRADE_LAYERS, 0))

    def signature(self) -> str:
        """Digest of every simulated quantity (the determinism guard)."""
        payload = dict(vars(self))
        payload.pop("problems")
        blob = json.dumps(payload, sort_keys=True, default=repr).encode()
        return hashlib.sha1(blob).hexdigest()


@contextlib.contextmanager
def _patched(target, attr: str, make):
    """Temporarily replace ``target.attr`` with ``make(original)``."""
    original = getattr(target, attr)
    setattr(target, attr, make(original))
    try:
        yield
    finally:
        setattr(target, attr, original)


def _wire(connections) -> int:
    return sum(conn.traffic.total for conn in connections)


# -- batch_sync -------------------------------------------------------------

class BatchSync:
    """Device A writes a batch of random files; device B syncs them down.

    Then edit rounds each change a few bytes of one file (a tenth of
    the files, at least one), with A and then B syncing after each.
    The first round is bulk upload and download; the edit rounds are
    small, dedup-heavy rewrites.
    """

    name = "batch_sync"
    files = 2
    file_bytes = 1 << 20
    #: Segment target: ~8 segments per file, so one batch's working set
    #: (~16 segments) exceeds BlockPipeline's 8-segment encode cache
    #: while an edit round (one or two segments) fits in it.
    theta = 128 << 10
    edit_rounds = 2
    edit_bytes = 16
    #: Episodes whose simulated results the run reports.  A's bulk
    #: round waits for the slowest cloud's fair share, so one episode's
    #: simulated times swing with its links; many small episodes keep
    #: a run's pooled percentiles steady from seed to seed.
    episodes = 30

    def prepare(self, seed: int):
        started = time.perf_counter()
        rng = np.random.default_rng(seed)
        blob = rng.integers(0, 256, self.files * self.file_bytes,
                            dtype=np.uint8).tobytes()
        contents = {
            f"/batch/f{i:03d}.bin":
                blob[i * self.file_bytes:(i + 1) * self.file_bytes]
            for i in range(self.files)
        }
        paths = sorted(contents)
        edits = []
        for _ in range(self.edit_rounds):
            picks = rng.choice(len(paths), size=max(1, self.files // 10),
                               replace=False)
            edits.append([
                (paths[int(p)],
                 int(rng.integers(0, self.file_bytes - self.edit_bytes)),
                 rng.integers(0, 256, self.edit_bytes,
                              dtype=np.uint8).tobytes())
                for p in sorted(picks)
            ])
        input_s = time.perf_counter() - started
        sim = Simulator()
        clouds = make_clouds(sim)
        devices = []
        for index, location in enumerate(("virginia", "tokyo")):
            fs = VirtualFileSystem()
            conns = connect_location(sim, clouds, location,
                                     seed=seed % 100_000 + index)
            devices.append(UniDriveClient(
                sim, location, fs, conns,
                config=UniDriveConfig(theta=self.theta),
                rng=np.random.default_rng([seed, index])))
        return (sim, devices, contents, edits), input_s

    def run(self, state) -> Episode:
        sim, (a, b), contents, edits = state
        contents = dict(contents)
        latency: List[float] = []
        visibility: List[float] = []
        problems: List[str] = []
        written = op_bytes = 0
        op_seconds = 0.0
        commits = 0
        rounds = [sorted(contents)] + [[e[0] for e in r] for r in edits]
        for round_index, changed in enumerate(rounds):
            if round_index:
                for path, offset, patch in edits[round_index - 1]:
                    body = bytearray(contents[path])
                    body[offset:offset + len(patch)] = patch
                    contents[path] = bytes(body)
            for path in changed:
                a.fs.write_file(path, contents[path], mtime=sim.now)
                written += len(contents[path])
            up = sim.run_process(a.sync())
            down = sim.run_process(b.sync())
            commits += up.committed_version is not None
            for path in changed:
                try:
                    sent = up.upload_report.report_for(path)
                    got = down.download_report.report_for(path)
                except (AttributeError, KeyError):
                    sent = got = None
                if (sent is None or sent.available_at is None
                        or got.completed_at is None):
                    problems.append(f"round {round_index}: {path} not synced")
                    continue
                spent = ((sent.available_at - sent.started_at)
                         + (got.completed_at - got.started_at))
                latency.append(spent)
                visibility.append(got.completed_at - up.started_at)
                op_bytes += len(contents[path])
                op_seconds += spent
            mirror = {p: b.fs.read_file(p) for p in b.fs.paths()}
            if mirror != {p: a.fs.read_file(p) for p in a.fs.paths()}:
                problems.append(f"round {round_index}: B differs from A")
        return Episode(
            ops=len(latency), attempts=sum(len(r) for r in rounds),
            failed_attempts=sum(len(r) for r in rounds) - len(latency),
            op_latency=latency, visibility=visibility,
            op_bytes=op_bytes, op_seconds=op_seconds,
            wire_bytes=_wire(a.connections) + _wire(b.connections),
            written_bytes=written, commits=commits, problems=problems,
        )


# -- shared_folder and shared_chaos -----------------------------------------

class SharedFolder:
    """Four writers race small overlapping edits on one folder."""

    name = "shared_folder"
    writers = 4
    #: Fewer rounds make the divergence windows bimodal (round windows
    #: versus quiescence windows), and their median jumps between the two.
    rounds = 6
    episodes = 8

    def scenario(self, seed: int) -> SharedScenario:
        return SharedScenario(writers=self.writers, rounds=self.rounds,
                              policy="retain-both", seed=seed)

    def prepare(self, seed: int):
        return self.scenario(seed), 0.0

    def run(self, scenario: SharedScenario) -> Episode:
        return self._race(scenario)[0]

    def _race(self, scenario: SharedScenario, telemetry: bool = False):
        """Run the scenario; returns ``(Episode, SharedResult)``."""
        calls: List[Tuple[object, float, float, object]] = []

        def recorder(sync):
            def recorded(client, *args, **kwargs):
                began = client.sim.now
                try:
                    report = yield from sync(client, *args, **kwargs)
                except (SyncError, LockTimeout):
                    calls.append((client, began, client.sim.now, None))
                    raise
                calls.append((client, began, client.sim.now, report))
                return report
            return recorded

        with _patched(UniDriveClient, "sync", recorder):
            result = run_shared(scenario, telemetry=telemetry)
        committed = [
            (began, ended) for _c, began, ended, report in calls
            if report is not None and report.committed_version is not None
        ]
        latency = [ended - began for began, ended in committed]
        written = sum(len(w.content) for w in result.committed
                      if not w.delete)
        clients = {id(c): c for c, *_ in calls}.values()
        problems = []
        if not result.converged:
            problems.append("devices did not converge")
        if result.lost_updates:
            problems.append(f"{len(result.lost_updates)} lost updates")
        if result.stalled_devices:
            problems.append(f"stalled: {result.stalled_devices}")
        transitions = max(result.breaker_transitions.values(), default=0)
        episode = Episode(
            ops=len(committed), attempts=len(calls),
            failed_attempts=sum(1 for *_r, report in calls
                                if report is None),
            op_latency=latency,
            visibility=sorted(result.divergence_windows.values()),
            op_bytes=written, op_seconds=sum(latency),
            wire_bytes=sum(_wire(c.connections) for c in clients),
            written_bytes=written, commits=len(committed),
            problems=problems,
            layers={
                "degrade.hedges_fired": result.hedges_fired,
                "degrade.hedged_bytes": result.hedged_bytes,
                "degrade.debt_after_rounds": result.debt_after_rounds,
                "degrade.debt_repaid": result.debt_repaid,
                "degrade.breaker_transitions_max": transitions,
            },
        )
        return episode, result


class SharedChaos(SharedFolder):
    """The shared folder under the chaos arc: one slow and one dead cloud.

    Cloud 1 is slowed x200 and cloud 2 is down, overlapping; the
    degradation control plane, a post-quiescence scrub and telemetry
    are on.
    """

    name = "shared_chaos"
    rounds = 10
    episodes = 2
    slow_factor = 200.0
    max_transitions = 6

    def scenario(self, seed: int) -> SharedScenario:
        horizon = self.rounds * 60.0
        return SharedScenario(
            writers=self.writers, rounds=self.rounds, policy="retain-both",
            seed=seed,
            slow=((1, 0.1 * horizon, 0.6 * horizon, self.slow_factor),),
            outages=((2, 0.2 * horizon, 0.7 * horizon),),
            degrade=True, scrub_after=True,
        )

    def run(self, scenario):
        episode, result = self._race(scenario, telemetry=True)
        if result.debt_after_scrub:
            episode.problems.append(
                f"debt {result.debt_after_scrub} left after the scrub")
        transitions = episode.layers["degrade.breaker_transitions_max"]
        if transitions > self.max_transitions:
            episode.problems.append(f"{transitions} breaker transitions")
        return episode


# -- fleet_trial ------------------------------------------------------------

class FleetTrial:
    """A synthetic-payload trial population in one simulator.

    Size-only uploads bypass chunking, coding and metadata, so the
    scheduler, event kernel and netsim carry the host time.
    """

    name = "fleet_trial"
    users = 30
    uploads_per_user = 8
    #: Each episode draws one cohort-wide stress process, which sets
    #: much of its upload tail; many small cohorts keep a run's pooled
    #: tail steady from seed to seed.
    episodes = 24

    def prepare(self, seed: int):
        return seed, 0.0

    def run(self, seed: int) -> Episode:
        outcomes = []
        connections = []

        def recorder(upload_sized):
            def recorded(transfer, *args, **kwargs):
                began = transfer.sim.now
                outcome = yield from upload_sized(transfer, *args, **kwargs)
                outcomes.append((began, transfer.sim.now, outcome))
                return outcome
            return recorded

        def capture(connect):
            def captured(*args, **kwargs):
                made = connect(*args, **kwargs)
                connections.extend(made)
                return made
            return captured

        with _patched(MultiCloudBenchmark, "upload_sized", recorder), \
                _patched(trial_mod, "connect_location", capture):
            result = run_trial(n_users=self.users,
                               uploads_per_user=self.uploads_per_user,
                               seed=seed, payload="synthetic")
        done = [(began, ended, o) for began, ended, o in outcomes
                if o.succeeded]
        latency = [ended - began for began, ended, _o in done]
        expected = self.users * self.uploads_per_user
        problems = []
        if len(result.columns) != expected or len(outcomes) != expected:
            problems.append(
                f"{len(result.columns)} uploads, expected {expected}")
        if result.api_requests <= 0:
            problems.append("no API requests")
        episode = Episode(
            ops=len(done), attempts=len(outcomes),
            failed_attempts=len(outcomes) - len(done),
            op_latency=latency,
            visibility=[o.duration for _b, _e, o in done],
            op_bytes=sum(o.size for _b, _e, o in done),
            op_seconds=sum(latency),
            wire_bytes=_wire(connections),
            written_bytes=sum(o.size for _b, _e, o in outcomes),
            commits=0, problems=problems,
        )
        episode.layers["trial.api_requests"] = result.api_requests
        episode.layers["trial.api_failures"] = result.api_failures
        return episode


WORKLOADS = {
    w.name: w for w in (BatchSync(), SharedFolder(), SharedChaos(),
                        FleetTrial())
}
