"""Benchmark for the ohram register emulations, measured from outside the package.

Usage, from the root of a checkout:

  python3 perfbench/run.py --workload sim-corpus --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --workload all --seed 1 --seconds 20

Workloads (BENCHMARK.json records why each exists):

  sim-corpus  the criterion-3 mix: every sound protocol in turn, n in
              {3,5,7}, 1-5 readers and writers, crashes up to the minority
              bound, max_ops=10; each run judged by both checkers
  sim-long    one long SimNet run per sound protocol and cycle: n=5, f=2,
              20 readers, 1 or 3 writers, 2 seeded crashes, 80 ops per
              client loaded in slices of 10; judged by check_history
              (the witness path)
  live-swmr   in-process TCP daemons on loopback, n=5, f=2, no faults; a
              closed loop of one writer and one reader thread, alternating
              ohsam and abd-swmr segments

--seconds sizes the work (corpus rounds, long-run length and count, live
segment length and epochs) so that one run measures about that long on a
2-CPU machine; the work itself depends only on --seed and --seconds.
Every time metric is scaled to a fixed machine speed (speed.py); the
spread of the scaling factors is printed as info.

With --trace 0 the last line of output is a JSON object whose metrics
are BENCHMARK.json's end_to_end list; with --trace 1 the workload runs
once untraced and once with layer wrappers installed, and the metrics
are the per_layer list. The process runs on one CPU: the daemons,
clients and simulator share one interpreter lock, and on two CPUs the
lock's hand-offs between cores made live runs up to twice as slow and
dependent on whatever else ran on the second CPU.

Exit codes: 0 every history atomic, 2 a correctness failure (non-atomic
history, invariant failure, complexity-grid mismatch), 4 no package to
measure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
IMPORT_SAMPLES = 5

sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from speed import Speed  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import LATENCY_PROTOCOLS, percentile  # noqa: E402

# What each per-layer metric should move, and where it should not.
PREDICTIONS = (
    ("simnet.", "moves checked_ops_per_s, most on sim-long (large in-flight "
                "bag), less on sim-corpus; no change on live-swmr"),
    ("ohsam.server.state_entries", "moves checked_ops_per_s and peak_rss_mb "
                                   "on sim-long; no change on sim-corpus"),
    ("ohmam.server.state_entries", "moves checked_ops_per_s and peak_rss_mb "
                                   "on sim-long; no change on sim-corpus"),
    ("ohsam.", "moves checked_ops_per_s and peak_rss_mb on sim-long and "
               "read_p50_ms.ohsam on live-swmr (relay steps block reads)"),
    ("ohmam.", "moves checked_ops_per_s and peak_rss_mb on sim-long"),
    ("abd.", "moves checked_ops_per_s on sim-long and read_p50_ms.abd-swmr "
             "on live-swmr"),
    ("checker.", "witness_us_per_op moves checked_ops_per_s on sim-long "
                 "(checking is about half its wall time); almost no change "
                 "on sim-corpus (about 3%)"),
    ("core.", "moves read_p50_ms.ohsam more than read_p50_ms.abd-swmr on "
              "live-swmr (35 vs 20 messages per read at n=5); no change on "
              "the sim workloads"),
    ("runner.bytes_per_frame", "moves read_p50_ms.ohsam more than "
                               "read_p50_ms.abd-swmr on live-swmr; no change "
                               "on the sim workloads"),
    ("runner.frame", "messages sent (frames plus a server's relays to "
                     "itself) over the closed form; above 1 means "
                     "rebroadcasts or duplicates, which show in *_p90_ms on "
                     "live-swmr"),
    ("runner.cpu", "moves ops_per_s.<p> on live-swmr; cpu_util near 1.0 "
                   "means the run is bound by the interpreter lock"),
    ("runner.", "moves read_p50_ms.<p> on live-swmr; no change on the sim "
                "workloads"),
    ("trace_overhead_frac", "cost of the wrappers; not a property of the "
                            "package"),
)


def prediction(name: str) -> str:
    return next(text for prefix, text in PREDICTIONS if name.startswith(prefix))


# -- environment --

def loadavg() -> str:
    return "/".join(f"{x:.2f}" for x in os.getloadavg())


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def pin_one_cpu() -> str:
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[-1]})
    return str(cpus[-1])


def import_seconds(speed) -> list[float]:
    """Time `import ohram` in fresh interpreters (the module set-up)."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t = time.perf_counter(); import ohram, ohram.cli; "
            "print(time.perf_counter() - t)")
    samples = []
    for _ in range(IMPORT_SAMPLES):
        out = subprocess.run([sys.executable, "-c", code, str(SRC)],
                             capture_output=True, text=True, check=True,
                             timeout=60)
        samples.append(float(out.stdout.strip()) * speed.factor())
    return samples


# -- metrics --

def end_to_end(res, import_s) -> dict:
    """Every end-to-end metric as (value, sample count)."""
    m = {
        "setup_s": (statistics.median(import_s)
                    + statistics.median(res.setup_s), len(res.setup_s)),
        "peak_rss_mb": (workloads.peak_rss_mb(), 1),
        "checked_ops_per_s": (res.checked_ops / (res.run_s + res.check_s),
                              res.checked_ops),
    }
    for p in LATENCY_PROTOCOLS:
        total = workloads.merge(res.chunks[p])
        m[f"ops_per_s.{p}"] = (total.ops / total.wall_s, total.ops)
        for kind in ("read", "write"):
            values = getattr(total, f"{kind}_ms")
            for q in (50, 90):
                m[f"{kind}_p{q}_ms.{p}"] = (percentile(values, q), len(values))
    return m


def live_runner_layer(res, ohram) -> dict:
    """Runner metrics from live operations; 0 where there are none."""
    m = {}
    for p in LATENCY_PROTOCOLS:
        total = workloads.merge(res.chunks[p])
        bundle = ohram.get_protocol(p)
        n = workloads.LIVE_SERVERS
        ops = total.ops
        frames = {"read": 0, "write": 0}
        count = {"read": 0, "write": 0}
        sent = machine_ns = codec_ns = expected = latency_ns = 0
        for r, rec in zip(total.records, total.costs):
            frames[r.kind] += rec[2]
            count[r.kind] += 1
            sent += rec[2] + rec[3]
            machine_ns += rec[0]
            codec_ns += rec[1]
            latency_ns += r.responded - r.invoked
            expected += (bundle.read_messages(n) if r.kind == "read"
                         else bundle.write_messages(n))
        wall, cpu = total.wall_s, total.cpu_s
        m[f"runner.frames_per_read.{p}"] = frames["read"] / max(count["read"], 1)
        m[f"runner.frames_per_write.{p}"] = frames["write"] / max(count["write"], 1)
        m[f"runner.frame_excess_ratio.{p}"] = sent / max(expected, 1)
        m[f"runner.cpu_ms_per_op.{p}"] = cpu * 1e3 / max(ops, 1)
        m[f"runner.cpu_util.{p}"] = cpu / wall if wall else 0.0
        m[f"runner.machine_us_per_op.{p}"] = machine_ns / 1e3 / max(ops, 1)
        m[f"runner.unattributed_us_per_op.{p}"] = (
            (latency_ns - machine_ns - codec_ns) / 1e3 / max(ops, 1))
    return m


def per_layer(res, tr, ohram, untraced_timed, n1_p50) -> dict:
    """Every per-layer metric; a layer off the workload's path reads 0.

    core.encode_us_per_frame covers message_to_json plus the runner's
    _pack (dict to framed bytes). Span times are not speed-scaled;
    trace_overhead_frac compares the scaled timed work of the traced and
    the untraced pass.
    """
    sim_run = tr.total_s("simnet.run")
    machine = tr.total_s("machine")
    samples, total, peak = tr.inflight
    frames, nbytes = tr.frame_bytes
    checked = tr.checked_ops
    m = {
        "simnet.events": res.events,
        "simnet.events_per_s": res.events / sim_run if sim_run else 0.0,
        "simnet.self_us_per_event": ((sim_run - machine) * 1e6 / res.events
                                     if res.events else 0.0),
        "simnet.inflight_mean": total / samples if samples else 0.0,
        "simnet.inflight_max": peak,
        "simnet.setup_us_per_run": tr.mean_us("simnet.setup"),
    }
    for fam, kind in (("ohsam", "readRequest"), ("ohsam", "readRelay"),
                      ("ohsam", "writeRequest"), ("ohmam", "discover"),
                      ("ohmam", "writeRequest"), ("abd", "readRequest"),
                      ("abd", "writeRequest")):
        m[f"{fam}.server.{kind}_us"] = tr.mean_us(f"{fam}.server.{kind}")
    for fam in ("ohsam", "ohmam", "abd"):
        m[f"{fam}.client.step_us"] = tr.mean_us(f"{fam}.client.step")
    for fam in ("ohsam", "ohmam"):
        entries = res.state.get(fam)
        m[f"{fam}.server.state_entries"] = (statistics.mean(entries)
                                            if entries else 0)
    checker_s = 0.0
    for name, short in (("check_witness", "witness"),
                        ("check_bruteforce", "bruteforce")):
        spent = tr.total_s(f"checker.{name}")
        checker_s += spent
        m[f"checker.{short}_us_per_op"] = (spent * 1e6 / checked[name]
                                           if checked[name] else 0.0)
    m["checker.wall_share"] = checker_s / res.wall_s
    encode = tr.total_s("core.encode") + tr.total_s("runner.pack")
    m["core.encode_us_per_frame"] = encode * 1e6 / frames if frames else 0.0
    m["core.decode_us_per_frame"] = tr.mean_us("core.decode")
    m["runner.bytes_per_frame"] = nbytes / frames if frames else 0.0
    m.update(live_runner_layer(res, ohram))
    m["runner.n1.read_p50_ms"] = n1_p50
    m["trace_overhead_frac"] = res.timed_s / untraced_timed - 1
    return m


def attribution(res, tr) -> list[str]:
    """Self time per layer over the traced pass, and what is left over."""
    # machine spans fall inside simnet.run only on the sim workloads
    sim_self = max(0.0, tr.total_s("simnet.run") - tr.total_s("machine"))
    layers = {
        "simnet": sim_self + tr.total_s("simnet.setup"),
        "checker": (tr.total_s("checker.check_witness")
                    + tr.total_s("checker.check_bruteforce")),
        "core": tr.total_s("core.encode") + tr.total_s("core.decode"),
        "runner": tr.total_s("runner.pack"),
    }
    for fam in ("ohsam", "ohmam", "abd"):
        layers[fam] = sum(ns for name, (_, ns) in tr.spans.items()
                          if name.startswith(fam + ".")) / 1e9
    layers["unattributed"] = res.wall_s - sum(layers.values())
    lines = [f"layer {name} self_s={s:.4f} share={s / res.wall_s:.4f}"
             for name, s in layers.items()]
    lines.append("layer note: unattributed holds workload driving, history "
                 "dumps and, live, JSON parsing inside read_frames, socket "
                 "calls, thread hand-offs and interpreter-lock waits")
    return lines


# -- entry point --

def run_all(args) -> int:
    worst = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        print(f"== {name}", flush=True)
        code = subprocess.run(cmd, timeout=900).returncode
        worst = max(worst, code)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "ohram" / "__init__.py").is_file():
        print(f"perfbench: no package at {SRC / 'ohram'}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 4
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload == "all":
        return run_all(args)

    cpu = pin_one_cpu()
    import_s = import_seconds(Speed())
    sys.path.insert(0, str(SRC))
    import ohram
    import ohram.cli

    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    before = loadavg()
    problems = workloads.check_grid(ohram)
    run = workloads.WORKLOADS[args.workload]
    n1_p50 = 0.0
    if args.trace:
        if args.workload == "live-swmr":
            n1_p50 = workloads.n1_read_p50_ms(ohram, args.seed)
        untraced = run(ohram, args.seed, args.seconds)
        problems += untraced.problems
        tracer = Tracer(ohram)
        tracer.install()
        try:
            res = run(ohram, args.seed, args.seconds, tracer)
        finally:
            tracer.uninstall()
        for hook in tracer.missing:
            print(f"note: no {hook} to trace")
        metrics = per_layer(res, tracer, ohram, untraced.timed_s, n1_p50)
        wanted = spec["per_layer"]
    else:
        res = run(ohram, args.seed, args.seconds)
        metrics = end_to_end(res, import_s)
        wanted = spec["end_to_end"]
    after = loadavg()
    problems += res.problems

    print(f"env python={platform.python_version()} nproc={os.cpu_count()} "
          f"pinned_cpu={cpu} cpu={cpu_model()!r} loadavg_before={before} "
          f"loadavg_after={after}")
    if res.digest is not None:
        print(f"fingerprint {args.workload} seed={args.seed} "
              f"seconds={args.seconds} simnet.events={res.events} "
              f"sha256={res.digest.hexdigest()}")
    units = {m["name"]: m["unit"] for m in wanted}
    if set(units) != {k for k in metrics}:
        raise SystemExit(f"perfbench: metrics {sorted(metrics)} do not match "
                         f"BENCHMARK.json {sorted(units)}")
    for name in units:
        value = metrics[name]
        if args.trace:
            print(f"metric {name} {value:.6g} {units[name]}  # {prediction(name)}")
        else:
            value, samples = value
            metrics[name] = value
            print(f"metric {name} {value:.6g} {units[name]} samples={samples}")
    if args.trace:
        for line in attribution(res, tracer):
            print(line)
    else:
        for p in LATENCY_PROTOCOLS:
            total = workloads.merge(res.chunks[p])
            for kind in ("read", "write"):
                values = getattr(total, f"{kind}_ms")
                print(f"info {kind}_p99_ms.{p}={percentile(values, 99):.4f} "
                      f"samples={len(values)}")
    factors = res.speed.factors
    print(f"info speed_factor median={statistics.median(factors):.4f} "
          f"min={min(factors):.4f} max={max(factors):.4f} "
          f"samples={len(factors)}")
    print(f"info ops_failed_frac={res.failed / max(res.attempted, 1):.6g} "
          f"failed={res.failed} attempted={res.attempted}")
    for note in res.notes[:20]:
        print(f"failed: {note}")
    for problem in problems[:20]:
        print(f"INCORRECT: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 2 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
