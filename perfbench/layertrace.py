"""Layer tracing from outside the program.

:class:`Tracer` wraps public functions and methods of :mod:`repro` at
each layer boundary while it is installed, and records

* one span per wrapped call: name, host start/end, sim start/end,
  parent span and the op (sync round or upload) it serves;
* counters of the work each layer did.

Nothing under ``src/`` is edited: wrappers replace attributes on the
modules and classes where the program looks the names up, and
:meth:`Tracer.uninstall` puts the originals back.  Wrappers only pass
values through and read clocks, so simulated results are identical
with tracing on or off (the benchmark checks this on every traced run).

Two kinds of wrapper exist:

* *host frames* time host work: a plain call is one frame; the scrub
  round, a generator the kernel resumes, is stepped by hand and each
  resume is one frame.  Frames nest on one
  stack, so a frame's parent is the frame that was running when it
  started, and a layer's self time is its frames' time minus the time
  their child frames cover (:func:`self_times`).
* *sim spans* wrap generators (cloud requests, lock, scheduler
  batches) with ``yield from``.  They record simulated time and counts
  but no host frame: their host time stays in the kernel's residual.
  Sync rounds and trial uploads are the ops; they are stepped by hand
  too, without a frame, so host frames inside them know their op.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Tuple

perf = time.perf_counter

#: Span tuple fields, in order (also the JSON line layout).
SPAN_FIELDS = ("sid", "name", "parent", "op", "host_start", "host_end",
               "sim_start", "sim_end", "frame")

def self_times(spans: Iterable[tuple]) -> Dict[str, float]:
    """Per-layer self host time of host-frame spans.

    A span's self time is its host duration minus the union of the host
    intervals its child spans cover; sim-only spans (``frame`` false)
    take no part.  Returns ``{span name: summed self seconds}``.
    """
    frames = [s for s in spans if s[8]]
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in frames:
        if span[2] is not None:
            children[span[2]].append((span[4], span[5]))
    totals: Dict[str, float] = defaultdict(float)
    for span in frames:
        covered = 0.0
        reach = span[4]
        for start, end in sorted(children.get(span[0], ())):
            start = max(start, reach)
            if end > start:
                covered += end - start
                reach = end
        totals[span[1]] += (span[5] - span[4]) - covered
    return dict(totals)


class _Owner:
    """The client a connection, pipeline or scheduler works for."""

    __slots__ = ("op", "open")

    def __init__(self):
        self.op: Optional[int] = None
        #: Open sim spans of this owner (op, batch ...), innermost last.
        self.open: List[int] = []


def _classify(path: str) -> str:
    """Cloud request class by the path layout of :class:`UniDriveConfig`."""
    if "/locks" in path:
        return "lock"
    if "/meta" in path:
        return "meta"
    return "block"


class Tracer:
    """Spans and counters for one traced pass; see the module doc."""

    def __init__(self):
        self.spans: List[tuple] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []  # open host-frame span ids
        self._frame_op: Dict[int, Optional[int]] = {}
        self._next_sid = 0
        self._owners: Dict[int, _Owner] = {}
        self._keep: List[object] = []  # keeps id() keys alive
        self._active_op: Optional[int] = None
        self._kernel_depth = 0
        self.sim = None
        self._saved: List[Tuple[object, str, object]] = []
        self._batches: Dict[int, dict] = {}

    # -- span plumbing ------------------------------------------------------

    def _sid(self) -> int:
        self._next_sid += 1
        return self._next_sid

    def _now(self) -> Optional[float]:
        return self.sim.now if self.sim is not None else None

    def frame(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` as one host frame of layer ``name``."""
        sid = self._sid()
        parent = self._stack[-1] if self._stack else None
        op = self._active_op
        if op is None and parent is not None:
            op = self._frame_op.get(parent)
        self._frame_op[sid] = op
        self._stack.append(sid)
        s0 = self._now()
        h0 = perf()
        try:
            return fn(*args, **kwargs)
        finally:
            h1 = perf()
            self._stack.pop()
            del self._frame_op[sid]
            self.spans.append((sid, name, parent, op, h0, h1, s0,
                               self._now(), True))

    def sim_span(self, name: str, owner: Optional[_Owner], gen, sim,
                 on_done=None, sid: Optional[int] = None,
                 leaf: bool = False):
        """``yield from gen`` as a sim span of ``owner``; returns its value.

        ``on_done(result, error)`` runs at the end, before the span is
        recorded.  ``sid`` is a span id taken beforehand, if the caller
        needs to know it.  A ``leaf`` span (a cloud request) is never
        the parent of another: requests of one owner run concurrently.
        """
        if sid is None:
            sid = self._sid()
        parent = owner.open[-1] if owner is not None and owner.open else None
        op = owner.op if owner is not None else None
        s0, h0 = sim.now, perf()
        opened = owner is not None and not leaf
        if opened:
            owner.open.append(sid)
        error = None
        result = None
        try:
            result = yield from gen
            return result
        except BaseException as exc:
            error = exc
            raise
        finally:
            if opened:
                owner.open.remove(sid)
            if on_done is not None:
                on_done(result, error)
            self.spans.append((sid, name, parent, op, h0, perf(), s0,
                               sim.now, False))

    def stepped(self, gen, op: int, name: Optional[str] = None):
        """Drive ``gen`` by hand so host work in each resume knows its op.

        With ``name``, every resume is also one host frame of that
        layer.  Forwards sends, throws, close and the return value
        exactly as ``yield from`` would.
        """
        value = None
        error = None
        while True:
            previous = self._active_op
            self._active_op = op
            try:
                if error is not None:
                    pending, error = error, None
                    step, arg = gen.throw, pending
                else:
                    step, arg = gen.send, value
                if name is None:
                    item = step(arg)
                else:
                    item = self.frame(name, step, arg)
            except StopIteration as stop:
                return stop.value
            finally:
                self._active_op = previous
            try:
                value = yield item
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # forwarded into gen, as yield from
                error = exc

    # -- ownership (attribute requests to the op they serve) ----------------

    def own(self, owner: _Owner, *objects) -> None:
        for obj in objects:
            if id(obj) not in self._owners:
                self._keep.append(obj)
            self._owners[id(obj)] = owner

    def owner_of(self, obj) -> Optional[_Owner]:
        return self._owners.get(id(obj))

    def end_episode(self) -> None:
        """Forget the episode's clients so their clouds can be freed."""
        self._owners.clear()
        self._keep.clear()

    def begin_op(self, client) -> Tuple[_Owner, int]:
        """Register a client's objects and open a new op id for it."""
        owner = self.owner_of(client)
        if owner is None:
            owner = _Owner()
            self.own(owner, client)
        objects = list(getattr(client, "connections", ()))
        pipeline = getattr(client, "pipeline", None)
        if pipeline is not None:
            objects += [pipeline, pipeline.code, pipeline.segmenter]
        for attr in ("lock", "watcher"):
            if getattr(client, attr, None) is not None:
                objects.append(getattr(client, attr))
        self.own(owner, *objects)
        op = self._sid()
        owner.op = op
        return owner, op

    # -- install / uninstall -------------------------------------------------

    def _patch(self, target, attr: str, wrapper) -> None:
        original = target.__dict__[attr]
        self._saved.append((target, attr, original))
        setattr(target, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            target, attr, original = self._saved.pop()
            setattr(target, attr, original)

    def install(self) -> "Tracer":
        """Wrap every layer boundary; returns self."""
        from repro.chunking import segmenter as seg_mod
        from repro.cloud.simulated import CloudConnection
        from repro.codec.reed_solomon import EncodeState, ReedSolomonCode
        from repro.core import client as client_mod
        from repro.core import deltasync, pipeline, scheduler, scrub
        from repro.core import serialization
        from repro.core.baselines import MultiCloudBenchmark
        from repro.core.lock import LockTimeout, QuorumLock
        from repro.fsmodel.watcher import FolderWatcher
        from repro.netsim.transfer import TransferEngine
        from repro.obs.telemetry import Telemetry
        from repro.simkernel import Simulator

        tr = self
        c = self.counters

        def counted(fn, key):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                c[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        def second_arg_len(args, kwargs):
            return len(args[1])

        def host(name, fn, calls=None, nbytes=None, size=second_arg_len):
            """``fn`` as a host frame of layer ``name``, counting each
            call in ``calls`` and its input size in ``nbytes``."""
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if calls is not None:
                    c[calls] += 1
                if nbytes is not None:
                    c[nbytes] += size(args, kwargs)
                return tr.frame(name, fn, *args, **kwargs)
            return wrapper

        # crypto, where core.serialization and core.deltasync bind it
        for module in (serialization, deltasync):
            for op, name in (("encrypt", "encrypt_cbc"),
                             ("decrypt", "decrypt_cbc")):
                self._patch(module, name, host(
                    f"crypto.{op}", module.__dict__[name],
                    f"crypto.{op}_calls", f"crypto.{op}_bytes"))

        # metadata plane
        def serializer(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                blob = tr.frame("metadata.serialize", fn, *args, **kwargs)
                c["metadata.serialize_calls"] += 1
                c["metadata.serialize_bytes"] += len(blob)
                return blob
            return wrapper

        delta_log = deltasync.DeltaLog
        self._patch(client_mod, "serialize_image",
                    serializer(client_mod.serialize_image))
        self._patch(delta_log, "to_bytes", serializer(delta_log.to_bytes))
        self._patch(client_mod, "deserialize_image", host(
            "metadata.parse", client_mod.deserialize_image,
            "metadata.parse_calls"))
        self._patch(delta_log, "from_bytes", staticmethod(host(
            "metadata.parse", delta_log.from_bytes, "metadata.parse_calls")))
        self._patch(delta_log, "apply_to", host(
            "metadata.parse", delta_log.apply_to, "metadata.parse_calls"))
        self._patch(client_mod, "merge_images", host(
            "merge", client_mod.merge_images, "merge.calls"))

        # chunking
        for cls, attr in ((seg_mod.Segmenter, "split"),
                          (seg_mod.Segmenter, "split_views"),
                          (seg_mod.SegmentStream, "feed")):
            self._patch(cls, attr, host(
                "chunking", cls.__dict__[attr], "chunking.calls",
                "chunking.bytes"))

        # codec: prepare pads the shards, EncodeState.matrix runs the
        # GF(256) product; reencode_block is decode + prepare.
        def data_length(args, kwargs):
            return args[2] if len(args) > 2 else kwargs["data_length"]

        self._patch(ReedSolomonCode, "prepare", host(
            "codec.encode", ReedSolomonCode.prepare, "codec.encode_calls",
            "codec.encode_bytes"))
        self._patch(EncodeState, "matrix", host(
            "codec.encode", EncodeState.matrix))
        self._patch(ReedSolomonCode, "decode", host(
            "codec.decode", ReedSolomonCode.decode, "codec.decode_calls",
            "codec.decode_bytes", data_length))

        # pipeline: encode cache lookups and block fingerprints
        block_pipeline = pipeline.BlockPipeline
        self._patch(block_pipeline, "encode_state", counted(
            block_pipeline.encode_state, "pipeline.encode_state_calls"))
        for module, names in (
                (pipeline, ("block_hash", "block_hash_rows",
                            "block_hash_many")),
                (client_mod, ("block_hash_many",)),
                (scrub, ("block_hash", "block_hash_many")),
                (scheduler, ("block_hash",))):
            for name in names:
                self._patch(module, name, host(
                    "pipeline.block_hash", module.__dict__[name]))

        # fsmodel
        self._patch(FolderWatcher, "poll", host(
            "fsmodel.poll", FolderWatcher.poll, "fsmodel.poll_calls"))

        # obs: the installed Telemetry sink's public methods
        for name in ("transfer", "sync_round", "missing_block", "retry",
                     "estimator", "fault", "debt", "snapshot"):
            self._patch(Telemetry, name, host(
                "obs", Telemetry.__dict__[name], "obs.calls"))

        # simkernel: outermost run/run_process calls are kernel frames
        def kernel(fn):
            @functools.wraps(fn)
            def wrapper(sim, *args, **kwargs):
                outer_sim = tr.sim
                tr.sim = sim
                tr._kernel_depth += 1
                steps, h0 = sim.steps, perf()
                try:
                    return tr.frame("simkernel", fn, sim, *args, **kwargs)
                finally:
                    tr._kernel_depth -= 1
                    if tr._kernel_depth == 0:
                        c["simkernel.events"] += sim.steps - steps
                        c["simkernel.host_s"] += perf() - h0
                    tr.sim = outer_sim
            return wrapper

        self._patch(Simulator, "run", kernel(Simulator.run))
        self._patch(Simulator, "run_process", kernel(Simulator.run_process))

        # netsim
        self._patch(TransferEngine, "start",
                    counted(TransferEngine.start, "netsim.flows"))
        self._patch(TransferEngine, "cancel",
                    counted(TransferEngine.cancel, "netsim.cancelled"))

        # cloud requests, classed by path
        def request(method):
            fn = CloudConnection.__dict__[method]

            @functools.wraps(fn)
            def wrapper(conn, path, *args, **kwargs):
                kind = _classify(path)
                owner = tr.owner_of(conn)

                def done(result, error):
                    c["cloud.requests"] += 1
                    c[f"cloud.{kind}_requests"] += 1
                    c[f"cloud.{kind}_sim_s"] += conn.sim.now - t0
                    if error is not None:
                        c["cloud.failed"] += 1
                    elif method == "upload":
                        c["cloud.bytes_up"] += len(args[0])
                    elif method == "download":
                        c["cloud.bytes_down"] += len(result)
                    batch = tr._batch_of(owner)
                    if kind == "block" and batch is not None:
                        batch["sent"] += 1
                        if error is None:
                            batch["ok"] += 1

                t0 = conn.sim.now
                return (yield from tr.sim_span(
                    f"cloud.{method}", owner,
                    fn(conn, path, *args, **kwargs), conn.sim, done,
                    leaf=True))
            return wrapper

        for method in ("upload", "download", "list_folder", "delete",
                       "create_folder"):
            self._patch(CloudConnection, method, request(method))

        # core.lock
        acquire, release = QuorumLock.acquire, QuorumLock.release

        @functools.wraps(acquire)
        def lock_acquire(lock, *args, **kwargs):
            t0 = lock.sim.now

            def done(result, error):
                c["lock.acquires"] += 1
                c["lock.wait_sim_s"] += lock.sim.now - t0
                if isinstance(error, LockTimeout):
                    c["lock.timeouts"] += 1

            return (yield from tr.sim_span(
                "lock.acquire", tr.owner_of(lock),
                acquire(lock, *args, **kwargs), lock.sim, done))

        @functools.wraps(release)
        def lock_release(lock, *args, **kwargs):
            return (yield from tr.sim_span(
                "lock.release", tr.owner_of(lock),
                release(lock, *args, **kwargs), lock.sim))

        self._patch(QuorumLock, "acquire", lock_acquire)
        self._patch(QuorumLock, "release", lock_release)

        # core.scheduler batches
        from repro.core.placement import fair_share

        def batch(cls, upload):
            fn = cls.run_batch

            @functools.wraps(fn)
            def wrapper(sched, files):
                files = list(files)
                if upload:
                    needed = sum(
                        fair_share(record.k, sched.config.k_reliability)
                        * len(sched.connections)
                        for f in files for record, _data in f.segments)
                else:
                    needed = sum(record.k for f in files
                                 for record in f.segments)
                owner = tr.owner_of(sched.connections[0])
                t0 = sched.sim.now

                def done(report, error):
                    stats = tr._batches.pop(sid)
                    c["scheduler.batches"] += 1
                    c["scheduler.batch_sim_s"] += sched.sim.now - t0
                    c["scheduler.blocks_sent"] += stats["sent"]
                    c["scheduler.blocks_ok"] += stats["ok"]
                    c["scheduler.blocks_needed"] += needed
                    if report is not None:
                        c["scheduler.failed_requests"] += \
                            report.failed_requests

                sid = tr._sid()
                tr._batches[sid] = {"sent": 0, "ok": 0}
                return (yield from tr.sim_span(
                    "scheduler.batch", owner, fn(sched, files), sched.sim,
                    done, sid))
            return wrapper

        self._patch(scheduler.UploadScheduler, "run_batch",
                    batch(scheduler.UploadScheduler, True))
        self._patch(scheduler.DownloadScheduler, "run_batch",
                    batch(scheduler.DownloadScheduler, False))

        # core.scrub: a stepped generator (host frames) plus a sim span
        scrub_round = scrub.Scrubber.scrub_round

        @functools.wraps(scrub_round)
        def traced_scrub(scrubber, *args, **kwargs):
            client = scrubber.client
            owner, op = tr.begin_op(client)
            t0 = client.sim.now

            def done(result, error):
                c["scrub.rounds"] += 1
                c["scrub.sim_s"] += client.sim.now - t0

            return (yield from tr.sim_span(
                "scrub.round", owner,
                tr.stepped(scrub_round(scrubber, *args, **kwargs), op,
                           "scrub"),
                client.sim, done))

        self._patch(scrub.Scrubber, "scrub_round", traced_scrub)

        # ops: sync rounds and trial uploads get an op id and own the
        # connections, pipeline and lock they drive
        sync = client_mod.UniDriveClient.sync

        @functools.wraps(sync)
        def traced_sync(client, *args, **kwargs):
            owner, op = tr.begin_op(client)
            return (yield from tr.sim_span(
                "op.sync_round", owner,
                tr.stepped(sync(client, *args, **kwargs), op),
                client.sim))

        self._patch(client_mod.UniDriveClient, "sync", traced_sync)

        upload_sized = MultiCloudBenchmark.upload_sized

        @functools.wraps(upload_sized)
        def traced_upload(transfer, *args, **kwargs):
            owner, op = tr.begin_op(transfer)
            return (yield from tr.sim_span(
                "op.upload", owner,
                tr.stepped(upload_sized(transfer, *args, **kwargs), op),
                transfer.sim))

        self._patch(MultiCloudBenchmark, "upload_sized", traced_upload)
        return self

    def _batch_of(self, owner: Optional[_Owner]) -> Optional[dict]:
        """The innermost open scheduler batch of ``owner``, if any."""
        if owner is None:
            return None
        for sid in reversed(owner.open):
            stats = self._batches.get(sid)
            if stats is not None:
                return stats
        return None

    # -- results --------------------------------------------------------------

    def layer_metrics(self, wall_s: float, commits: int) -> Dict[str, float]:
        """Per-layer metrics of the traced pass (see README.md).

        ``wall_s`` is the traced pass's host time and ``commits`` the
        metadata commits it made.
        """
        c = self.counters
        own = self_times(self.spans)
        requests = c["cloud.requests"]
        needed, ok = c["scheduler.blocks_needed"], c["scheduler.blocks_ok"]
        prepared = c["codec.encode_calls"]
        lookups = c["pipeline.encode_state_calls"]
        attributed = sum(own.values())
        out = {
            "crypto.encrypt_calls": c["crypto.encrypt_calls"],
            "crypto.encrypt_bytes": c["crypto.encrypt_bytes"],
            "crypto.encrypt_host_s": own.get("crypto.encrypt", 0.0),
            "crypto.decrypt_calls": c["crypto.decrypt_calls"],
            "crypto.decrypt_bytes": c["crypto.decrypt_bytes"],
            "crypto.decrypt_host_s": own.get("crypto.decrypt", 0.0),
            "metadata.serialize_calls": c["metadata.serialize_calls"],
            "metadata.serialize_bytes": c["metadata.serialize_bytes"],
            "metadata.bytes_per_commit": (
                c["metadata.serialize_bytes"] / commits if commits else 0.0),
            "metadata.serialize_self_host_s":
                own.get("metadata.serialize", 0.0),
            "metadata.parse_calls": c["metadata.parse_calls"],
            "metadata.parse_self_host_s": own.get("metadata.parse", 0.0),
            "merge.calls": c["merge.calls"],
            "merge.host_s": own.get("merge", 0.0),
            "chunking.calls": c["chunking.calls"],
            "chunking.bytes": c["chunking.bytes"],
            "chunking.host_s": own.get("chunking", 0.0),
            "codec.encode_calls": prepared,
            "codec.encode_bytes": c["codec.encode_bytes"],
            "codec.encode_host_s": own.get("codec.encode", 0.0),
            "codec.decode_calls": c["codec.decode_calls"],
            "codec.decode_bytes": c["codec.decode_bytes"],
            "codec.decode_host_s": own.get("codec.decode", 0.0),
            "pipeline.encode_cache_hit_ratio": (
                1.0 - prepared / lookups if lookups else 0.0),
            "pipeline.block_hash_host_s":
                own.get("pipeline.block_hash", 0.0),
            "fsmodel.poll_calls": c["fsmodel.poll_calls"],
            "fsmodel.poll_host_s": own.get("fsmodel.poll", 0.0),
            "cloud.requests": requests,
            "cloud.failed": c["cloud.failed"],
            "cloud.failed_ratio": (
                c["cloud.failed"] / requests if requests else 0.0),
            "cloud.meta_requests": c["cloud.meta_requests"],
            "cloud.lock_requests": c["cloud.lock_requests"],
            "cloud.block_requests": c["cloud.block_requests"],
            "cloud.meta_sim_s": c["cloud.meta_sim_s"],
            "cloud.block_sim_s": c["cloud.block_sim_s"],
            "cloud.bytes_up": c["cloud.bytes_up"],
            "cloud.bytes_down": c["cloud.bytes_down"],
            "lock.acquires": c["lock.acquires"],
            "lock.wait_sim_s": c["lock.wait_sim_s"],
            "lock.timeouts": c["lock.timeouts"],
            "scheduler.batches": c["scheduler.batches"],
            "scheduler.batch_sim_s": c["scheduler.batch_sim_s"],
            "scheduler.blocks_sent": c["scheduler.blocks_sent"],
            "scheduler.failed_requests": c["scheduler.failed_requests"],
            "scheduler.useful_block_ratio": needed / ok if ok else 0.0,
            "simkernel.events": c["simkernel.events"],
            "simkernel.host_s": c["simkernel.host_s"],
            "simkernel.events_per_request": (
                c["simkernel.events"] / requests if requests else 0.0),
            "simkernel.residual_host_s": own.get("simkernel", 0.0),
            "netsim.flows": c["netsim.flows"],
            "netsim.cancelled": c["netsim.cancelled"],
            "scrub.host_s": own.get("scrub", 0.0),
            "scrub.sim_s": c["scrub.sim_s"],
            "obs.calls": c["obs.calls"],
            "obs.host_s": own.get("obs", 0.0),
            "bench.traced_wall_s": wall_s,
            "bench.unattributed_host_s": wall_s - attributed,
        }
        return out

    def write_spans(self, path: str) -> None:
        """Write every span as one JSON list per line."""
        with open(path, "w") as out:
            out.write(json.dumps(list(SPAN_FIELDS)) + "\n")
            for span in self.spans:
                out.write(json.dumps(span) + "\n")
