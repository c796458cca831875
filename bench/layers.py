"""Per-layer probes: unit costs of each module's public functions.

Every traced run measures all of them, each at the shape of the workload
it should move (see README.md), so a layer's figure means the same thing
on every workload and the figures of two runs compare directly.
"""

from __future__ import annotations

import hashlib
import random
import statistics
import subprocess
import sys
import time
import tracemalloc

from pofsig import adversary, analysis, lamport, oracle, pof, serial, wots
from pofsig.core import BitString, LamportParams, derive_wots_params

from spans import Tracer
from workloads import Z95, CliSession, InProcessRunner, subseed

SIZES = {
    "wots": (6, 2, 4, 2),  # wots-fda
    "lamport": (8, 6),  # a middle point of lamport-sweep
    "index_delta": 8,
    "memory_delta": 6,
    "census": (8, 2, 50),
    "experiment_trials": 2000,
    "calls": 200,
    "forges": 15,
    "reps": 5,
    "cli_samples": 3,
    "startup_reps": 5,
}

# The standard-library modules the CLI imports; a fresh interpreter
# importing just these is the floor under every command's start-up.
STARTUP_FLOOR = "import argparse, dataclasses, hashlib, math, random, re, typing"


def _per_call(fn, args, reps):
    """Median over reps of the mean wall time of one fn(*a), a in args."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        for a in args:
            fn(*a)
        times.append((time.perf_counter() - t0) / len(args))
    return statistics.median(times)


def _median_time(fn, reps):
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def oracle_layer(rng, s, out):
    wp = derive_wots_params(*s["wots"])
    r = oracle.Seed(rng.getrandbits(128).to_bytes(16, "big"))
    # The census (8,2) and chain shape: 40-byte tag prefix, 10-bit input.
    n, delta, _ = s["census"]
    bits = n + delta
    pad = 8 * ((bits + 7) // 8) - bits
    prefix = oracle.tag_prefix(oracle.OracleTag(oracle.LABEL_WOTS_CHAIN, r, 1), n, bits)
    payloads = [
        ((rng.getrandbits(bits) << pad).to_bytes((bits + 7) // 8, "big"),)
        for _ in range(10 * s["calls"])
    ]
    out["oracle.digest_bits.ns"] = (
        1e9 * _per_call(lambda p: oracle.digest_bits(prefix, p, n), payloads, s["reps"]), "ns")
    msgs = [(prefix + p + b"\x00\x00\x00\x00",) for (p,) in payloads]
    out["oracle.sha256_floor.ns"] = (
        1e9 * _per_call(lambda m: hashlib.sha256(m).digest(), msgs, s["reps"]), "ns")
    xs = [(wp, r, 0, wp.w - 1, BitString.from_int(rng.getrandbits(wp.sk_bits), wp.sk_bits))
          for _ in range(s["calls"])]
    out["oracle.chain.us"] = (1e6 * _per_call(oracle.chain, xs, s["reps"]), "us")


def adversary_layer(rng, s, out):
    budget = adversary.ForgeryBudget()
    wp = derive_wots_params(*s["wots"])
    keys = [wots.keygen(wp, rng) for _ in range(3)]
    found = scanned = 0
    per_candidate = []
    for _ in range(max(1, s["reps"] // 2)):
        t0 = time.perf_counter()
        cands = 0
        for kp in keys:
            for b in range(wp.w - 1):
                ps = adversary.chain_preimages(wp, kp.r, b, kp.pk[0], budget)
                found += ps.count
                cands += 1 << wp.value_bits(b)
        scanned += cands
        per_candidate.append((time.perf_counter() - t0) / cands)
    out["adversary.chain_preimages.ns_per_candidate"] = (
        1e9 * statistics.median(per_candidate), "ns")
    out["adversary.hit_ratio"] = (found / scanned, "ratio")

    n, _ = s["lamport"]
    ip = LamportParams(n, s["index_delta"])
    t = _median_time(lambda: adversary.build_lamport_preimage_index(ip), max(1, s["reps"] // 2))
    out["adversary.build_lamport_preimage_index.ns_per_candidate"] = (
        1e9 * t / (1 << ip.sk_bits), "ns")
    mp = LamportParams(n, s["memory_delta"])
    tracemalloc.start()
    try:
        index = adversary.build_lamport_preimage_index(mp)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del index
    out["adversary.index.bytes_per_entry"] = (held / (1 << mp.sk_bits), "B")

    # Expected inverted-domain size per WOTS trial, averaged over all
    # ordered message pairs: computed from the parameters, not timed.
    msgs = [BitString.from_int(v, wp.L) for v in range(1 << wp.L)]
    ext = [wots.extend(m, wp) for m in msgs]
    total = pairs = 0
    for i, b in enumerate(ext):
        for j, b_star in enumerate(ext):
            if i != j:
                pairs += 1
                total += sum(1 << wp.value_bits(y) for x, y in zip(b, b_star) if y < x)
    out["adversary.candidates_per_trial"] = (total / pairs, "count")

    forges = []
    for _ in range(s["forges"]):
        kp = wots.keygen(wp, rng)
        M = msgs[rng.randrange(len(msgs))]
        M_star = msgs[(msgs.index(M) + 1 + rng.randrange(len(msgs) - 1)) % len(msgs)]
        forges.append((kp.public(), M, wots.sign(kp, M), M_star, budget, rng))
    with Tracer() as tracer:
        for args in forges:
            adversary.forge_wots(*args)
    summary = tracer.summary(1.0)
    out["adversary.forge_wots.self_us"] = (
        1e6 * summary["adversary.forge_wots"]["self_s"] / len(forges), "us")


def scheme_layers(rng, s, out):
    budget = adversary.ForgeryBudget()
    lp = LamportParams(*s["lamport"])
    calls, reps = s["calls"], s["reps"]
    kps = [lamport.keygen(lp, rng) for _ in range(calls)]
    msgs = [rng.getrandbits(1) for _ in kps]
    sigs = [lamport.sign(kp, m) for kp, m in zip(kps, msgs)]
    out["lamport.keygen.us"] = (1e6 * _per_call(lamport.keygen, [(lp, rng)] * calls, reps), "us")
    out["lamport.sign.us"] = (1e6 * _per_call(lamport.sign, list(zip(kps, msgs)), reps), "us")
    out["lamport.verify.us"] = (1e6 * _per_call(
        lamport.verify, [(kp.public(), sg, m) for kp, sg, m in zip(kps, sigs, msgs)], reps), "us")
    index = adversary.build_lamport_preimage_index(lp)
    forge_args = [(kp.public(), m, sg, 1 - m, budget, rng) for kp, sg, m in zip(kps, sigs, msgs)]
    out["adversary.forge_lamport.us"] = (1e6 * _per_call(
        lambda *a: adversary.forge_lamport(*a, index=index), forge_args, reps), "us")
    forged = [adversary.forge_lamport(*a, index=index) for a in forge_args]
    detect_args = [(kp, 1 - m, f) for kp, m, f in zip(kps, msgs, forged)]
    out["pof.detect_forgery.us"] = (1e6 * _per_call(pof.detect_forgery, detect_args, reps), "us")
    evidence = [(o.evidence,) for o in (pof.detect_forgery(*a) for a in detect_args) if o.detected]
    out["pof.verify_pof2.us"] = (1e6 * _per_call(pof.verify_pof2, evidence, reps), "us")

    wp = derive_wots_params(*s["wots"])
    wcalls = max(1, calls // 4)
    wkps = [wots.keygen(wp, rng) for _ in range(wcalls)]
    wmsgs = [BitString.from_int(rng.getrandbits(wp.L), wp.L) for _ in wkps]
    wsigs = [wots.sign(kp, m) for kp, m in zip(wkps, wmsgs)]
    out["wots.keygen.us"] = (1e6 * _per_call(wots.keygen, [(wp, rng)] * wcalls, reps), "us")
    out["wots.sign.us"] = (1e6 * _per_call(wots.sign, list(zip(wkps, wmsgs)), reps), "us")
    out["wots.verify.us"] = (1e6 * _per_call(
        wots.verify, [(kp.public(), sg, m) for kp, sg, m in zip(wkps, wsigs, wmsgs)], reps), "us")


def analysis_layer(seed, s, out):
    lp = LamportParams(*s["lamport"])
    trials = s["experiment_trials"]
    config = analysis.ExperimentConfig("lamport", lp, trials, subseed(seed, "layers", "experiment"))
    with Tracer() as tracer:
        report = analysis.run_fda_experiment(config)
    summary = tracer.summary(1.0)
    out["analysis.run_fda_experiment.self_us_per_trial"] = (
        1e6 * summary["analysis.run_fda_experiment"]["self_s"] / trials, "us")
    out["analysis.ci_halfwidth"] = (Z95 * report.stderr, "rate")
    n, delta, instances = s["census"]
    census_seed = subseed(seed, "layers", "census")
    t = _median_time(lambda: analysis.preimage_census(n, delta, instances, census_seed),
                     max(1, s["reps"] // 2))
    out["analysis.preimage_census.ns_per_candidate"] = (
        1e9 * t / (instances << (n + delta)), "ns")


def serial_layer(rng, s, cli_sizes, out):
    """loads/dumps per scheme and file kind, at the CLI session's sizes."""
    budget = adversary.ForgeryBudget()
    wp = derive_wots_params(*cli_sizes["wots"])
    cases = (
        ("lamport", LamportParams(*cli_sizes["lamport"]), lamport, adversary.forge_lamport,
         0, 1),
        ("wots", wp, wots, adversary.forge_wots,
         BitString.from_int(0, wp.L), BitString.from_int(1, wp.L)),
    )
    for scheme, params, scheme_mod, forge, M, M_star in cases:
        while True:  # a forgery the signer detects, for a pof-2 file
            kp = scheme_mod.keygen(params, rng)
            sig = scheme_mod.sign(kp, M)
            forged = forge(kp.public(), M, sig, M_star, budget, rng)
            outcome = pof.detect_forgery(kp, M_star, forged)
            if outcome.detected:
                break
        dumps = {
            "secret-key": lambda: serial.dump_secret_key(kp),
            "public-key": lambda: serial.dump_public_key(kp.public()),
            "signature": lambda: serial.dump_signature(sig, M, params),
            "pof-2": lambda: serial.dump_pof2(outcome.evidence),
        }
        for kind, dump in dumps.items():
            out[f"serial.dumps.{scheme}.{kind}.us"] = (
                1e6 * _per_call(dump, [()] * s["calls"], s["reps"]), "us")
            text = dump()
            out[f"serial.loads.{scheme}.{kind}.us"] = (
                1e6 * _per_call(serial.loads, [(text,)] * s["calls"], s["reps"]), "us")


def cli_layer(seed, s, cli_sizes, workdir, out):
    """In-process cli.main per scheme and subcommand, and the start-up floor."""
    session = CliSession(cli_sizes, workdir=workdir, runner=InProcessRunner())
    walls: dict[str, list] = {name: [] for name in CliSession.COMMANDS}
    k = 0
    # verify-pof runs only after a detected forgery, so cycle until every
    # command has its samples.
    while k < 20 * s["cli_samples"] and min(map(len, walls.values())) < s["cli_samples"]:
        for op in session.run_unit(session.build(subseed(seed, "layers", "cli"), k)):
            walls[op.name].append(op.wall_s)
        k += 1
    for name, times in walls.items():
        out[f"cli.main.{name.replace(' ', '.')}.ms"] = (1e3 * statistics.median(times), "ms")
    startup = []
    for _ in range(s["startup_reps"]):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", STARTUP_FLOOR], check=True)
        startup.append(time.perf_counter() - t0)
    out["cli.python_startup.ms"] = (1e3 * statistics.median(startup), "ms")


def measure(seed: int, workdir: str, sizes=None) -> dict:
    """Every per-layer metric except the ones the harness adds: name -> (value, unit)."""
    s = dict(SIZES, **(sizes or {}))
    cli_sizes = CliSession.sizes
    rng = random.Random(subseed(seed, "layers"))
    out: dict = {}
    oracle_layer(rng, s, out)
    adversary_layer(rng, s, out)
    scheme_layers(rng, s, out)
    analysis_layer(seed, s, out)
    serial_layer(rng, s, cli_sizes, out)
    cli_layer(seed, s, cli_sizes, workdir, out)
    return out
