"""The LTE loop both workloads walk.

Every workload runs the same loop — offline fit, waves of labelling
sessions, scans of and appends to a chunk store — because every run has
to report every end-to-end metric.  What differs is the regime:
paper-size networks on one in-process manager, where matrix products
are the cost, or small networks behind a sharded gateway, where per-call
overhead is.  :data:`WORKLOADS` holds those sizes and nothing else
distinguishes the two.

The measured part runs in laps, each lap some fits, some waves and some
store cycles: this machine's speed changes over seconds and minutes, so
every metric takes its samples from the whole measured span, not from
one stretch.

The driver calls only names exported by ``repro.*.__all__`` and sets no
environment variable; all inputs come from ``--seed``.
"""

import copy
import hashlib
import os
import pickle
import time
from dataclasses import asdict, dataclass, replace

import numpy as np

import calibrate
from repro import obs, persist
from repro.bench import convex_oracles
from repro.core import LTE, LTEConfig, MetaHyperParams
from repro.data import (build_dataset_store, make_sdss,
                        random_decomposition)
from repro.explore import f1_score
from repro.serve import SessionManager
from repro.shard import ShardGateway
from repro.store import ChunkStore

ROUNDS = 3              # label rounds per session: 30 initial + 2 x 5 extra
EXTRA_LABELS = 5        # labels per subspace in an extra round
APPENDS_PER_CYCLE = 2   # store cycle: appends before its label round
SETUP_REPEATS = 3       # set-up runs this often; setup_s is the median
N_ORACLES = 16          # distinct ground-truth interests, drawn per client
SESSION_SUBSPACES = 2   # every session explores a 4-D interest
F1_FLOOR = 0.5
WIDE_PREVIEW_ROWS = 400  # the preview of BENCH_shard, see wide_rounds()
WIDE_WAVES = 6
#: ``--seconds`` the lap counts below are written for; another value
#: scales them, so a run does the same work whenever it is given the
#: same ``--seconds`` and every count repeats exactly.
BASE_SECONDS = 30

#: The "many sessions over small learners" regime of BENCH_shard.
SMALL_NETS = dict(embed_size=32, hidden_size=32, ku=40, kq=60,
                  n_components=4)
SMOKE_NETS = dict(embed_size=16, hidden_size=16, budget=20, ku=25, kq=30,
                  n_components=3, online_steps=15)


@dataclass(frozen=True)
class Sizes:
    """What one workload runs."""

    #: rows of the in-memory table that fits and previews sample; 0 = the
    #: table is the store, on disk: fits sample 10 000 of its rows and
    #: store sessions scan it
    table_rows: int
    nets: dict                  # {} = LTEConfig defaults, the paper's
    #: sizes of the ground-truth regions, in cluster centers (<= ku)
    psi_choices: tuple
    local_steps: int
    #: the set-up fit, whose model serves every session: n_tasks per
    #: session subspace at 1 joint + 1 meta epoch
    quick_tasks: int
    #: the measured fits (models unused): subspaces, n_tasks per
    #: subspace, and whether at the paper's 4 joint + 2 meta epochs
    fit_subspaces: int
    fit_tasks: int
    paper_epochs: bool
    laps: int                   # per BASE_SECONDS
    fits_per_lap: int
    waves_per_lap: int
    cycles_per_lap: int         # store cycles
    clients: int                # sessions waiting in one wave
    preview_rows: int
    workers: int                # 0 = in-process SessionManager
    store_rows: int
    store_sessions: int
    #: rows of a chunk and of an append: every append closes one chunk,
    #: so every incremental scan evaluates the same number of rows.
    #: Chunks stay small because from ~4096 rows on, allocating the
    #: forward pass's temporaries (>= 20 MB) gives scan times a heavy
    #: tail on this machine (10-30 us per row*session within one run).
    chunk_rows: int = 1024
    checks: tuple = ()


WORKLOADS = {
    "paper_nets": Sizes(
        table_rows=0, nets={}, psi_choices=(50, 40, 30, 20),
        local_steps=10, quick_tasks=10, fit_subspaces=4, fit_tasks=6,
        paper_epochs=True, laps=4, fits_per_lap=1, waves_per_lap=1,
        cycles_per_lap=2, clients=8, preview_rows=1000, workers=0,
        store_rows=16_384, store_sessions=2,
        checks=("pretrained_roundtrip", "manager_roundtrip", "cold_rescan",
                "drift")),
    # A 100-row preview keeps every matrix product of a worker below the
    # size from which the BLAS library splits it over two threads.  With
    # the 400 rows of BENCH_shard, 2 workers x 2 BLAS threads share 2
    # cores, and every wave-round runs in one of two modes (about 300 or
    # 550 ms) whose shares change from run to run: no median of such
    # samples repeats.  README.md has the sizing runs.
    "shard_fleet": Sizes(
        table_rows=6000, nets=SMALL_NETS, psi_choices=(30, 25, 20),
        local_steps=3, quick_tasks=30, fit_subspaces=2, fit_tasks=30,
        paper_epochs=False, laps=5, fits_per_lap=4, waves_per_lap=4,
        cycles_per_lap=2, clients=32, preview_rows=100, workers=2,
        store_rows=4096, store_sessions=8,
        checks=("publish",)),
}


def sizes_for(workload, seconds, smoke):
    """The workload's sizes for this run: laps scaled to ``seconds``,
    or everything shrunk to a few hundred milliseconds for ``--smoke``."""
    sizes = WORKLOADS[workload]
    if smoke:
        return replace(
            sizes, nets=SMOKE_NETS, psi_choices=(12, 10), local_steps=2,
            table_rows=sizes.table_rows and 2048, quick_tasks=3,
            fit_tasks=3, paper_epochs=False, laps=1, fits_per_lap=1,
            waves_per_lap=2, cycles_per_lap=1,
            clients=min(sizes.clients, 4), preview_rows=200,
            store_rows=1024, chunk_rows=256, store_sessions=2)
    return replace(sizes, laps=max(
        1, round(sizes.laps * seconds / BASE_SECONDS)))


class Context:
    """What set-up hands to the measured phases."""

    seed = table = store = preview = blocks = None
    fit_subspaces = subspaces = lte = oracles = front = None


def make_config(sizes, tasks, paper_epochs):
    meta = MetaHyperParams(local_steps=sizes.local_steps) if paper_epochs \
        else MetaHyperParams(local_steps=sizes.local_steps, epochs=1,
                             pretrain_epochs=1)
    return LTEConfig(n_tasks=tasks, meta=meta, store_sample_rows=10_000,
                     **sizes.nets)


def quick_config(sizes):
    """LTEConfig of the set-up fit: 1 joint + 1 meta epoch."""
    return make_config(sizes, sizes.quick_tasks, False)


def fit_config(sizes):
    """LTEConfig of the measured fits."""
    return make_config(sizes, sizes.fit_tasks, sizes.paper_epochs)


def fit_offline(rec, name, config, ctx, subspaces):
    """One ``fit_offline`` under a span; returns (lte, seconds, seconds
    of that spent preparing subspaces before training starts)."""
    prepared = []

    def progress(subspace, stage):
        if stage == "prepared":
            prepared.append(time.perf_counter())

    lte = LTE(config)
    with rec.span(name) as span:
        lte.fit_offline(ctx.table, subspaces=subspaces, progress=progress)
    return lte, span.seconds, prepared[-1] - span.start


def set_up(ctx, sizes, seed, rec, workdir):
    """Data, store, quick-pretrained model and serving front end, put
    into ``ctx``; returns how long the parts took."""
    times = {}
    ctx.seed = seed
    seed *= 1000             # room for the seeds of the parts below
    if not sizes.table_rows:
        directory = os.path.join(workdir, "store")
        with rec.span("data.build_store") as span:
            build_dataset_store("sdss", sizes.store_rows, seed=seed,
                                chunk_rows=sizes.chunk_rows,
                                directory=directory)
        times["build_store"] = span.seconds
        with rec.span("store.open") as span:
            ctx.table = ctx.store = ChunkStore.open(directory)
        times["store_open"] = span.seconds
    else:
        with rec.span("data.make_table") as span:
            ctx.table = make_sdss(sizes.table_rows, seed=seed)
        times["make_table"] = span.seconds
        with rec.span("data.build_store") as span:
            ctx.store = make_sdss(sizes.store_rows, seed=seed + 1).to_store(
                chunk_rows=sizes.chunk_rows)
        times["build_store"] = span.seconds
    n_blocks = 1 + sizes.laps * sizes.cycles_per_lap * APPENDS_PER_CYCLE
    ctx.blocks = [make_sdss(sizes.chunk_rows, seed=seed + 2 + b).data
                  for b in range(n_blocks)]
    ctx.preview = ctx.table.sample_rows(sizes.preview_rows, seed=seed)
    config = quick_config(sizes)
    ctx.fit_subspaces = random_decomposition(
        ctx.table, dim=config.subspace_dim,
        seed=config.seed)[:sizes.fit_subspaces]
    ctx.subspaces = ctx.fit_subspaces[:SESSION_SUBSPACES]
    ctx.lte, times["fit"], times["prep"] = fit_offline(
        rec, "train.quick_pretrain", config, ctx, ctx.subspaces)
    # Ground-truth interests over the fitted model's subspaces, and the
    # manager or gateway that serves it.
    ctx.oracles = convex_oracles(ctx.lte, ctx.subspaces, N_ORACLES,
                                 psi_choices=sizes.psi_choices,
                                 seed=ctx.seed)
    if sizes.workers:
        with rec.span("shard.spawn") as span:
            ctx.front = ShardGateway(
                ctx.lte, n_workers=sizes.workers,
                checkpoint_root=os.path.join(workdir, "gateway"))
        times["spawn"] = span.seconds
    else:
        ctx.front = SessionManager(ctx.lte)
    return times


def close_front(ctx, rec):
    if isinstance(ctx.front, ShardGateway):
        with rec.span("shard.close"):
            ctx.front.close()
    ctx.front = None


# ----------------------------------------------------------------------
# Label waves
# ----------------------------------------------------------------------
def plan_wave(rng, sizes):
    """Inputs of one wave: session seeds, whose interest each client
    has, and which preview rows it labels in the extra rounds."""
    clients = sizes.clients
    return {
        "seeds": [int(s) for s in rng.integers(2 ** 31, size=clients)],
        "oracles": [int(o) for o in rng.integers(N_ORACLES, size=clients)],
        "extra": rng.integers(
            sizes.preview_rows,
            size=(clients, ROUNDS - 1, SESSION_SUBSPACES, EXTRA_LABELS)),
    }


def head(plan, clients):
    """The plan of a wave's first ``clients`` clients."""
    return {key: value[:clients] for key, value in plan.items()}


def label_round(front, layer, sids, plan, extra, ctx, rec, tag):
    """Every session labels EXTRA_LABELS more tuples per subspace;
    returns each session's submission time."""
    submitted = []
    for c, sid in enumerate(sids):
        oracle = ctx.oracles[plan["oracles"][c]]
        with rec.span(layer + ".add_labels", "{}.c{}".format(tag, c)):
            for k, subspace in enumerate(ctx.subspaces):
                tuples = subspace.project(ctx.preview[extra[c, k]])
                with rec.span("explore.oracle_label"):
                    labels = oracle.label_subspace(subspace, tuples)
                front.add_labels(sid, subspace, tuples, labels)
        submitted.append(time.perf_counter())
    return submitted


def play_wave(front, plan, ctx, rec, tag, keep_open=False):
    """One closed-loop wave: every client opens a session and goes
    through ROUNDS label rounds, each ending with its predictions over
    the preview; a client waits for them before labelling again."""
    layer = "shard" if isinstance(front, ShardGateway) else "serve"
    start = time.perf_counter()
    sids, submitted = [], []
    for c, session_seed in enumerate(plan["seeds"]):
        oracle = ctx.oracles[plan["oracles"][c]]
        with rec.span(layer + ".submit", "{}.r0.c{}".format(tag, c)):
            sid = front.open_session(variant="meta_star",
                                     subspaces=ctx.subspaces,
                                     seed=session_seed)
            for subspace, tuples in front.initial_tuples(sid).items():
                with rec.span("explore.oracle_label"):
                    labels = oracle.label_subspace(subspace, tuples)
                front.submit_labels(sid, subspace, labels)
        sids.append(sid)
        submitted.append(time.perf_counter())
    samples = []
    for r in range(ROUNDS):
        trace = "{}.r{}".format(tag, r)
        if r:
            submitted = label_round(front, layer, sids, plan,
                                    plan["extra"][:, r - 1], ctx, rec,
                                    trace)
        with rec.span(layer + ".flush", trace):
            front.flush()
        with rec.span(layer + ".predict_many", trace):
            predictions = front.predict_many(sids, ctx.preview)
        done = time.perf_counter()
        samples.extend(done - t for t in submitted)
    served = time.perf_counter() - start
    if not keep_open:
        with rec.span(layer + ".close_sessions", tag):
            for sid in sids:
                front.close_session(sid)
    return {"seconds": time.perf_counter() - start, "served": served,
            "samples": samples, "sids": sids,
            "predictions": [predictions[sid] for sid in sids]}


# ----------------------------------------------------------------------
# Store scans and appends
# ----------------------------------------------------------------------
class StorePhase:
    """The store sessions' scans of a growing store: one cold full scan,
    then cycles — APPENDS_PER_CYCLE x (append, incremental scan),
    then a label round (which outdates every watermark) and a full
    scan."""

    def __init__(self, manager, sids, plan, ctx, rec):
        self.manager, self.sids, self.plan = manager, sids, plan
        self.ctx, self.rec = ctx, rec
        self.blocks = iter(ctx.blocks)
        self.scans, self.fresh, self.accounted = [], [], True
        self.predictions, self.cycles = None, 0

    def scan(self, trace, first_row=0):
        """Scan the store; ``first_row`` is the first row past every
        session's watermark, so the scan evaluates the rows from it."""
        store = self.ctx.store
        with self.rec.span("serve.predict_many_store", trace) as span:
            answers = self.manager.predict_many_store(self.sids, store)
        self.scans.append({"rows": store.n_rows - first_row,
                           "seconds": span.seconds, "full": not first_row})
        self.predictions = [answers[sid] for sid in self.sids]

    def cycle(self, extra):
        store, rec = self.ctx.store, self.rec
        self.cycles += 1
        fresh = []
        self.fresh.append(fresh)
        for a in range(APPENDS_PER_CYCLE):
            trace = "append{}.{}".format(self.cycles, a)
            closed = store.closed_chunks
            first_row = int(store.offsets[closed])
            start = time.perf_counter()
            with rec.span("store.append", trace):
                store.append_blocks([next(self.blocks)])
            self.scan(trace, first_row)
            fresh.append(time.perf_counter() - start)
            evaluated = self.manager.last_store_scan["chunk_evals"]
            self.accounted &= evaluated <= \
                len(self.sids) * (store.n_chunks - closed)
        trace = "scan{}".format(self.cycles)
        label_round(self.manager, "serve", self.sids, self.plan, extra,
                    self.ctx, rec, trace)
        with rec.span("serve.flush", trace):
            self.manager.flush()
        self.scan(trace)


def cold_rescan(ctx, plan, extras, rec):
    """The store sessions' answers from scratch: a fresh manager, the
    same labels, one full scan of the grown store."""
    manager = SessionManager(ctx.lte)
    wave = play_wave(manager, plan, ctx, rec, "cold", keep_open=True)
    for cycle, extra in enumerate(extras):
        trace = "cold.scan{}".format(cycle + 1)
        label_round(manager, "serve", wave["sids"], plan, extra, ctx, rec,
                    trace)
        with rec.span("serve.flush", trace):
            manager.flush()
    with rec.span("serve.predict_many_store", "cold"):
        answers = manager.predict_many_store(wave["sids"], ctx.store)
    return [answers[sid] for sid in wave["sids"]]


# ----------------------------------------------------------------------
# Registries (traced run only)
# ----------------------------------------------------------------------
def read_registries(front, fleet_first):
    """Every registry the program exports, merged: this process's
    ``obs.aggregate()`` and, behind a gateway, each worker's.  The order
    of the two reads keeps the fleet read's own RPCs out of a window."""
    gateway = front if isinstance(front, ShardGateway) else None

    def fleet():
        if gateway is None:
            return []
        return [snap for snap in gateway.metrics()["workers"].values()
                if not snap.get("dead")]

    if fleet_first:
        workers, own = fleet(), obs.aggregate()
    else:
        own, workers = obs.aggregate(), fleet()
    return obs.merge_snapshots([own] + workers), \
        obs.merge_snapshots(workers)


def add_delta(total, after, before):
    """Add what a window added to each counter and histogram."""
    for name, entry in after.items():
        old = before.get(name) or {}
        if entry["kind"] == "histogram":
            slot = total.setdefault(name, {"count": 0, "sum": 0.0})
            slot["count"] += entry["count"] - old.get("count", 0)
            slot["sum"] += entry["sum"] - old.get("sum", 0.0)
        elif entry["kind"] == "counter":
            slot = total.setdefault(name, {"value": 0})
            slot["value"] += entry["value"] - old.get("value", 0)


class Window:
    """A measured phase, entered once a lap: its wall seconds, a burst of
    the host-speed kernel before and after it (outside its seconds) and,
    in a traced run, what it added to the program's registries (all of
    them, and the workers' share)."""

    def __init__(self, rec, name, front=None):
        self.rec, self.name, self.front = rec, name, front
        self.seconds = 0.0
        self.bursts = []
        self.delta, self.worker_delta = {}, {}

    def __enter__(self):
        self.bursts.append(calibrate.burst())
        if self.rec.keep:
            self._before = read_registries(self.front, fleet_first=True)
        self._scope = self.rec.span("phase." + self.name, op=False)
        self._span = self._scope.__enter__()
        return self

    def __exit__(self, *exc):
        self._scope.__exit__(*exc)
        self.seconds += self._span.seconds
        if self.rec.keep and exc[0] is None:
            after = read_registries(self.front, fleet_first=False)
            add_delta(self.delta, after[0], self._before[0])
            add_delta(self.worker_delta, after[1], self._before[1])
        self.bursts.append(calibrate.burst())
        return False


# ----------------------------------------------------------------------
# Correctness checks of single workloads
# ----------------------------------------------------------------------
def same(a, b):
    return len(a) == len(b) and all(np.array_equal(x, y)
                                    for x, y in zip(a, b))


def pretrained_roundtrip(ctx, sizes, plan, rec, workdir, facts):
    """Checkpoint the set-up model and restore it into a freshly
    prepared LTE: sessions on the copy answer like sessions on the
    original."""
    path = os.path.join(workdir, "pretrained")
    with rec.span("persist.save_pretrained") as span:
        persist.save_pretrained(path, ctx.lte)
    facts["save_pretrained"] = span.seconds
    facts["checkpoint_bytes"] = sum(
        os.path.getsize(os.path.join(path, f)) for f in os.listdir(path))
    restored = LTE(quick_config(sizes))
    with rec.span("core.prep"):
        restored.fit_offline(ctx.table, subspaces=ctx.subspaces,
                             train=False)
    with rec.span("persist.load_pretrained") as span:
        persist.load_pretrained(path, restored)
    facts["load_pretrained"] = span.seconds
    waves = [play_wave(SessionManager(lte), plan, ctx, rec, tag)
             for lte, tag in ((ctx.lte, "original"), (restored, "restored"))]
    rec.check("load_pretrained_parity",
              same(waves[0]["predictions"], waves[1]["predictions"]))


def manager_roundtrip(manager, sids, ctx, rec, workdir, facts):
    """A saved and reloaded manager answers like the live one."""
    path = os.path.join(workdir, "manager")
    before = manager.predict_many(sids, ctx.preview)
    with rec.span("persist.save_manager") as span:
        persist.save_manager(path, manager)
    facts["save_manager"] = span.seconds
    with rec.span("persist.load_manager") as span:
        restored = persist.load_manager(path, ctx.lte)
    facts["load_manager"] = span.seconds
    after = restored.predict_many(sids, ctx.preview)
    rec.check("load_manager_parity",
              same([before[s] for s in sids], [after[s] for s in sids]))


def drift_refresh(manager, sids, final, ctx, rec, facts):
    """An out-of-range append must flag exactly the perturbed subspace.
    The refresh replaces that subspace's artifacts for new sessions only,
    so the live sessions' answers over the rows they had already scanned
    must not change."""
    # SDSS sky fluxes have a long tail: an ordinary block can lie 0.2 of
    # the fitted span outside it.  The perturbed one lies 10 spans out.
    monitor = ctx.lte.freshness_monitor(threshold=1.0)
    monitor.observe(ctx.store)
    target = ctx.subspaces[0]
    drifting = ctx.blocks[-1].copy()
    columns = list(target.columns)
    drifting[:, columns] = drifting[:, columns] * 4.0 + 100.0
    with rec.span("store.append", "drift"):
        ctx.store.append_blocks([drifting])
    with rec.span("store.freshness_observe") as span:
        monitor.observe(ctx.store)
    facts["freshness_observe"] = span.seconds
    flagged = monitor.drifted()
    with rec.span("core.refresh_drifted") as span:
        ctx.lte.refresh_drifted(ctx.store, monitor, train=True)
    facts["refresh_drifted"] = span.seconds
    rec.check("drift_flags_perturbed_subspace",
              flagged == [target] and monitor.drifted() == [])
    with rec.span("serve.predict_many_store", "drift"):
        answers = manager.predict_many_store(sids, ctx.store)
    rec.check("refresh_keeps_live_answers",
              same(final, [answers[sid][:len(old)]
                           for sid, old in zip(sids, final)]))


def publish_under_load(gateway, plan, ctx, rec, facts):
    """Roll a further-trained model through the fleet while a wave's
    sessions are live: none may drop, err or change its answers."""
    wave = play_wave(gateway, plan, ctx, rec, "publish", keep_open=True)
    sids = wave["sids"]
    further = copy.deepcopy(ctx.lte)
    for subspace in ctx.subspaces:
        further.train_subspace(subspace)
    with rec.span("shard.publish_model") as span:
        gateway.publish_model(further)
    facts["publish_model"] = span.seconds
    with rec.span("shard.poll", "publish"):
        errors = [gateway.poll(sid)["errors"] for sid in sids]
    with rec.span("shard.predict_many", "publish"):
        after = gateway.predict_many(sids, ctx.preview)
    rec.check("publish_drops_no_session",
              gateway.n_sessions == len(sids)
              and all(e == [] for e in errors)
              and same(wave["predictions"], [after[s] for s in sids]))


def wide_rounds(gateway, plans, ctx, rec):
    """Traced run only: waves over the 400-row preview of BENCH_shard.
    There a worker's matrix products are large enough for the BLAS
    library to split them over its threads, and 2 workers x 2 threads
    contend for 2 cores.  Returns each wave-round's median
    label-to-prediction seconds."""
    narrow = ctx.preview
    ctx.preview = ctx.table.sample_rows(WIDE_PREVIEW_ROWS, seed=ctx.seed)
    try:
        waves = [play_wave(gateway, plan, ctx, rec, "wide{}".format(w))
                 for w, plan in enumerate(plans)]
    finally:
        ctx.preview = narrow
    clients = len(plans[0]["seeds"])
    return [float(np.median(wave["samples"][r * clients:(r + 1) * clients]))
            for wave in waves for r in range(ROUNDS)]


def payload_bytes(wave, ctx, sizes):
    """Bytes one wave moves through the worker pipes — computed by
    pickling arrays shaped like those the driver sent and got back, not
    observed."""
    def size(obj):
        return len(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))

    budget = ctx.lte.config.budget
    extra = ctx.subspaces[0].project(ctx.preview[:EXTRA_LABELS])
    per_session = SESSION_SUBSPACES * (
        size(np.zeros((budget, extra.shape[1])))        # initial tuples
        + size(np.zeros(budget, dtype=np.int64))        # their labels
        + (ROUNDS - 1) * (size(extra) + size(np.zeros(EXTRA_LABELS,
                                                      dtype=np.int64))))
    return sizes.clients * per_session + ROUNDS * (
        sizes.workers * size(ctx.preview)
        + sum(size(p) for p in wave["predictions"]))


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
def run(workload, seed, seconds, rec, smoke, workdir):
    """Walk the loop once; returns the facts the metrics are made of."""
    sizes = sizes_for(workload, seconds, smoke)
    ctx = Context()
    try:
        return walk(workload, sizes, seed, rec, workdir, ctx)
    finally:
        close_front(ctx, rec)           # no worker outlives a failed run


def walk(workload, sizes, seed, rec, workdir, ctx):
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(workload)])
    facts = {"sizes": asdict(sizes), "setup": [], "fits": []}
    windows = facts["windows"] = {
        name: Window(rec, name) for name in ("setup", "fit", "store")}

    # Set-up, SETUP_REPEATS times; the last one is used.
    calibrate.burst()           # warm the kernel up, untimed
    for repeat in range(SETUP_REPEATS):
        close_front(ctx, rec)
        directory = os.path.join(workdir, "setup{}".format(repeat))
        os.makedirs(directory)
        with windows["setup"]:
            with rec.span("phase.setup_repeat", op=False) as span:
                times = set_up(ctx, sizes, seed, rec, directory)
        times["seconds"] = span.seconds
        facts["setup"].append(times)
    workdir = directory
    n_waves = sizes.laps * sizes.waves_per_lap
    plans = [plan_wave(rng, sizes) for _ in range(n_waves + 2)]
    wide_plans = [plan_wave(rng, sizes) for _ in range(WIDE_WAVES)]
    extras = rng.integers(
        sizes.preview_rows,
        size=(sizes.laps * sizes.cycles_per_lap, sizes.store_sessions,
              SESSION_SUBSPACES, EXTRA_LABELS))
    config = fit_config(sizes)
    store_plan = head(plans[0], sizes.store_sessions)
    if "pretrained_roundtrip" in sizes.checks:
        pretrained_roundtrip(ctx, sizes, store_plan, rec, workdir, facts)

    # One wave warms up.  The same wave on a fresh in-process manager
    # must answer bit for bit alike (behind a gateway: sharding changes
    # no answer); the replay's first sessions go on to scan the store.
    warm = play_wave(ctx.front, plans[0], ctx, rec, "warm")
    facts["first_wave"] = warm["seconds"]
    manager = SessionManager(ctx.lte)
    replay = facts["replay"] = play_wave(
        manager, plans[0] if sizes.workers else store_plan, ctx, rec,
        "replay", keep_open=True)
    rec.check("replay_parity", same(
        replay["predictions"],
        warm["predictions"][:len(replay["predictions"])]))
    store_sids = replay["sids"][:sizes.store_sessions]
    for sid in replay["sids"][sizes.store_sessions:]:
        manager.close_session(sid)
    store = StorePhase(manager, store_sids, store_plan, ctx, rec)

    # The measured laps.
    windows["waves"] = Window(rec, "waves", ctx.front)
    waves = facts["waves"] = []
    for lap in range(sizes.laps):
        with windows["fit"]:    # re-fits beside serving; models unused
            for _ in range(sizes.fits_per_lap):
                _, fit_s, prep_s = fit_offline(
                    rec, "train.fit_offline", config, ctx,
                    ctx.fit_subspaces)
                facts["fits"].append({"seconds": fit_s, "prep": prep_s})
        with windows["waves"]:
            for _ in range(sizes.waves_per_lap):
                waves.append(play_wave(
                    ctx.front, plans[1 + len(waves)], ctx, rec,
                    "w{}".format(len(waves))))
        with windows["store"]:
            if not lap:
                store.scan("scan0")
            for _ in range(sizes.cycles_per_lap):
                store.cycle(extras[store.cycles])
    facts["store"] = {"scans": store.scans, "fresh": store.fresh}
    rec.check("chunk_evals_within_watermark", store.accounted)
    final = store.predictions

    # F1 of every final prediction a measured session returned.
    truth_preview = [o.ground_truth(ctx.preview) for o in ctx.oracles]
    scored = [(predictions, truth_preview[o])
              for wave, plan in zip(waves, plans[1:])
              for predictions, o in zip(wave["predictions"], plan["oracles"])]
    scored += [(predictions, ctx.oracles[o].ground_truth(ctx.store))
               for predictions, o in zip(final, store_plan["oracles"])]
    scores, digest = [], hashlib.blake2b(digest_size=16)
    for predictions, truth in scored:
        scores.append(f1_score(truth, predictions))
        digest.update(np.ascontiguousarray(predictions).tobytes())
    facts["f1_mean"] = float(np.mean(scores))
    facts["f1_sessions"] = len(scores)
    facts["digest"] = digest.hexdigest()
    rec.check("f1_floor", facts["f1_mean"] >= F1_FLOOR)

    # Post phase: the workload's own checks.
    if "cold_rescan" in sizes.checks:
        rec.check("incremental_equals_cold_rescan",
                  same(final, cold_rescan(ctx, store_plan, extras, rec)))
    if "manager_roundtrip" in sizes.checks:
        manager_roundtrip(manager, store_sids, ctx, rec, workdir, facts)
    if "publish" in sizes.checks:
        if rec.keep:
            facts["payload_bytes"] = payload_bytes(waves[-1], ctx, sizes)
            facts["wide_rounds"] = wide_rounds(ctx.front, wide_plans, ctx,
                                               rec)
        publish_under_load(ctx.front, plans[-1], ctx, rec, facts)
    if "drift" in sizes.checks:
        drift_refresh(manager, store_sids, final, ctx, rec, facts)
    return facts
