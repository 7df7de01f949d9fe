"""Client-path benchmark of the HD serving stack (one command).

    python3 perfbench/run.py --workload hot-read --seed 1 --seconds 30 --trace 0

Builds a 16-server ``hd`` fleet from ``src/`` of this checkout, drives
it with 512 closed-loop asyncio clients through ``ServingFrontend`` for
``--seconds`` and checks every reply against the truth of the writes
made (see ``truth.py``).  With ``--trace 0`` it reports the end-to-end
metrics, its timings at the host's nominal speed (see ``calibrate.py``);
with ``--trace 1`` it runs half the time untraced and half with spans
around each layer's public calls, and reports the per-layer metrics.
The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``failed`` counts ops that raised, plus reads that missed a present key
with no injected fault or running migration to explain the miss; the
explained misses are the robustness measurement and are counted in
``failed_frac``.  The exit code is 1 when a reply was wrong (a value the
truth does not allow), an acknowledged write was lost, or a migration
failed its verification.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import os
import statistics
import sys
from pathlib import Path

# The serving path runs on one thread; keep numpy's BLAS on it too, so
# that no pool of spinning workers competes for the host's few vCPUs.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

try:
    import numpy as np

    import calibrate
    import layers
    from calibrate import Calibration
    from loadgen import CHUNK_OPS, Run
    from tracing import Tracer, percentile
    from truth import ABSENT
    from workloads import GET, STREAM, WORKLOADS, build_fleet, make_ops
except ImportError as error:  # no program to measure in this directory
    print("perfbench: cannot import the program: {}".format(error), file=sys.stderr)
    sys.exit(2)

#: Fleets built per untraced run; ``setup_s`` is their median.
SETUPS = 3

#: Ops each session runs before latencies and throughput count, so the
#: cache has filled.
WARMUP = 20_000
TRACED_WARMUP = 2_048

#: Keys per read in the final read-back.
READBACK_CHUNK = 1 << 16

OUT = Path(__file__).resolve().parent / "out"


def _setup(workload, seed, times):
    """Build ``times`` fleets and keep the last.

    Returns it and the median build time, as measured and at the nominal
    host speed: each build's time is divided by the stretch of the
    reference timings taken just before and just after it.
    """
    fleet, raw, normalized = None, [], []
    for __ in range(times):
        fleet = None  # free the previous build before the next
        gc.collect()
        around = Calibration()
        for __ in range(calibrate.AROUND_SETUP):
            around.measure()
        fleet, seconds = build_fleet(workload, seed)
        for __ in range(calibrate.AROUND_SETUP):
            around.measure()
        raw.append(seconds)
        normalized.append(
            seconds / calibrate.stretch(around.slowdown(), calibrate.SETUP_SHARE)
        )
    return fleet, statistics.median(raw), statistics.median(normalized)


def _explained_by_faults(fleet, keys):
    """Misses the fleet's injected faults account for.

    A read misses legitimately when its key's owner is avoided (the read
    fails over to a member that never held it), or when the flipped
    table assigns it elsewhere than the clean table that placed the
    preload.  Both follow from the tables' assignments, with no per-key
    failover walk.
    """
    if not keys or (fleet.avoided is None and fleet.clean is None):
        return np.zeros(len(keys), dtype=bool)
    assigned = fleet.router.assign_batch(keys)
    explained = assigned == fleet.avoided
    if fleet.clean is not None:
        explained |= assigned != fleet.clean.lookup_batch(keys)
    return explained


def _classify_misses(run):
    """Split the client misses into explained and unexplained."""
    keys = [key for __, key, __, __ in run.misses]
    explained = _explained_by_faults(run.fleet, keys)
    for index, (__, key, finished, started) in enumerate(run.misses):
        # In flight: moved by a migration that ran while the read was out.
        if any(key in run.plans[j] for j in range(finished, started)):
            explained[index] = True
    return explained


def _readback(run):
    """Read every key once through ``DataPlane.get_many``.

    Returns ``(wrong, lost)``: keys found with a value other than the
    last acknowledged write (including deleted keys that came back), and
    present keys that are gone with no fault to explain it.
    """
    plane, acked = run.fleet.plane, run.truth.acked
    wrong, missing = [], []
    for first in range(0, run.workload.keys, READBACK_CHUNK):
        keys = list(range(first, min(first + READBACK_CHUNK, run.workload.keys)))
        values, found = plane.get_many(keys)
        for key, value, present in zip(keys, values.tolist(), found.tolist()):
            expected = acked[key]
            if present:
                if value != expected:
                    wrong.append((key, value, expected))
            elif expected is not ABSENT:
                missing.append(key)
    explained = _explained_by_faults(run.fleet, missing)
    lost = [key for key, ok in zip(missing, explained.tolist()) if not ok]
    return wrong, lost


def _misrouted_reads(run):
    """Window reads the flipped table routes unlike the clean copy."""
    if run.fleet.clean is None:
        return 0
    window = run.workload.window
    keys = [
        run.keys[n % STREAM] for n in range(window) if run.ops[n % STREAM] == GET
    ]
    live = run.fleet.router.table.lookup_batch(keys)
    return int((live != run.fleet.clean.lookup_batch(keys)).sum())


def _units(kind):
    """``{metric: unit}`` of one metric list in ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


async def _drive(run, seconds, trace):
    """One untraced session; with ``trace``, a traced one after it."""
    workload = run.workload
    if not trace:
        return await run.session(seconds, workload.window, WARMUP, None), None
    untraced = await run.session(seconds / 2, workload.window, WARMUP, None)
    tracer = Tracer()
    layers.install(tracer, run.fleet.router.table)
    try:
        traced = await run.session(seconds / 2, 0, TRACED_WARMUP, tracer)
    finally:
        tracer.uninstall()
    return untraced, (traced, tracer)


def _check(run):
    """Classify the run's misses and read every key back.

    Returns ``(failed, explained misses, wrong read-backs, lost keys)``.
    """
    explained = _classify_misses(run)
    failed = len(run.raised) + int((~explained).sum())
    wrong_back, lost = _readback(run)
    return failed, int(explained.sum()), wrong_back, lost


def _counted(run, untraced):
    """The robustness and resize figures (see README.md)."""
    window = run.workload.window
    window_failed = sum(1 for n, __ in run.raised if n < window) + sum(
        1 for n, __, __, __ in run.misses if n < window
    )
    window_epochs = [epoch for epoch in run.epochs if epoch.first_op < window]
    untraced_epochs = [epoch for epoch in run.epochs if not epoch.traced]
    migrating = untraced.latencies()[np.asarray(untraced.migrating_gets)]
    return {
        "failed_frac": window_failed / window,
        "moved_frac": statistics.mean(
            [epoch.moved_frac for epoch in window_epochs] or [0.0]
        ),
        "resize_s": statistics.median(
            [epoch.resize_s for epoch in untraced_epochs] or [0.0]
        ),
        "resize_get_p99_ms": (
            percentile(migrating, 99)[0] * 1e3 if migrating.size else 0.0
        ),
        "hashing.misrouted_reads": _misrouted_reads(run),
    }


def _summarise(run, seed, timings, checked, counted):
    """The readable lines printed before the result."""
    failed, explained, wrong_back, lost = checked
    fleet = run.fleet
    print("workload {} seed {}: {} ops, {} epochs".format(
        run.workload.name, seed, run.next_op, len(run.epochs)))
    for label, timing in timings:
        print("  {}: medians over {} chunks of {} ops: {:.0f} ops/s; get p50 "
              "{:.3f} ms, p99 {:.3f} ms over {} reads; put p99 {:.3f} ms over {} "
              "writes".format(
                  label, timing["chunks"], CHUNK_OPS, timing["ops_per_s"],
                  timing["get_p50"] * 1e3, timing["get_p99"] * 1e3,
                  timing["get_p99_samples"], timing["put_p99"] * 1e3,
                  timing["put_p99_samples"]))
    if fleet.avoided is not None:
        print("  avoided {}".format(fleet.avoided))
    if fleet.flips:
        print("  flipped (region, bit): {}".format(list(fleet.flips)))
    for epoch in run.epochs:
        print("  epoch at op {}: moved {} of {} keys, migrated and verified "
              "({} keys) in {:.3f} s".format(
                  epoch.first_op, epoch.moved, epoch.tracked, epoch.verified,
                  epoch.resize_s))
    print("  client misses {} ({} explained by faults or migration), raised {}, "
          "wrong {}; read-back wrong {}, lost {}; failed {}".format(
              len(run.misses), explained, len(run.raised), len(run.wrong),
              len(wrong_back), len(lost), failed))
    for name, value in counted.items():
        print("  {} {}".format(name, value))
    for sample in run.wrong[:3] + wrong_back[:3] + lost[:3] + run.raised[:3]:
        print("  example failure: {}".format(sample), file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    fleet, raw_setup_s, setup_s = _setup(
        workload, args.seed, 1 if args.trace else SETUPS
    )
    run = Run(workload, fleet, *make_ops(workload, args.seed))
    untraced, traced = asyncio.run(_drive(run, args.seconds, args.trace))
    timing = untraced.medians(normalized=True)
    checked = _check(run)
    failed, __, wrong_back, lost = checked
    correct = not (run.wrong or wrong_back or lost)
    counted = _counted(run, untraced)
    slowdown = untraced.calibration.slowdown()
    _summarise(run, args.seed, [
        ("as measured", untraced.medians()),
        ("at nominal host speed", timing),
    ], checked, counted)
    print("  host slowdown (reference {:.0f} us over nominal {:.0f} us): {:.3f}; "
          "setup {:.3f} s as measured, {:.3f} s at nominal speed".format(
              slowdown * calibrate.REFERENCE_S * 1e6, calibrate.REFERENCE_S * 1e6,
              slowdown, raw_setup_s, setup_s))

    if args.trace:
        session, tracer = traced
        metrics = layers.layer_metrics(
            tracer,
            wall_s=session.wall_s,
            client_self_s=session.client_self_s,
            max_batch=fleet.frontend.batcher.max_batch,
            cache_hits=session.cache_hits,
            cache_misses=session.cache_misses,
        )
        metrics["service.migration.keys_committed"] = sum(
            epoch.committed for epoch in run.epochs if epoch.traced
        )
        metrics["trace.overhead_frac"] = (
            1.0
            - session.medians(normalized=True)["ops_per_s"] / timing["ops_per_s"]
        )
        metrics.update(counted)
        tracer.write(OUT / "spans-{}-{}.npz".format(workload.name, args.seed))
        units = _units("per_layer")
        spans = sum(
            value
            for name, value in metrics.items()
            if name.endswith("self_s") and name != "client.self_s"
        )
        print("  traced wall {:.3f} s = span self times {:.3f} + client {:.3f} "
              "+ loop {:.3f}".format(metrics["trace.wall_s"], spans,
                                     metrics["client.self_s"],
                                     metrics["loop.residual_s"]))
    else:
        metrics = {
            "ops_per_s": timing["ops_per_s"],
            "get_p50_ms": timing["get_p50"] * 1e3,
            "get_p99_ms": timing["get_p99"] * 1e3,
            "put_p99_ms": timing["put_p99"] * 1e3,
            "setup_s": setup_s,
            "peak_rss_mb": run.peak_rss_kib / 1024,
        }
        units = _units("end_to_end")
    for name, unit in units.items():
        print("  {:38s} {:>14.6g} {}".format(name, metrics[name], unit))
    print(json.dumps({
        "correct": correct,
        "attempted": run.next_op,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
