"""inferlab benchmark: end-to-end metrics per workload, per-layer on request.

    python3 benchmark/run.py --workload sweep-judge --seed 0 --seconds 35 --trace 0

Workloads (see README.md beside this file): sweep-judge, sweep-wrapped,
games. Every pass is a fresh single-threaded interpreter (`worker.py`)
that runs all of the workload's ops once, so the library's caches start
cold as in every `inferlab check`. Passes repeat while another one still
fits in `--seconds`; there is always at least one.

With `--trace 0` the last stdout line carries setup_s, ops_per_s,
op_ms_p50, op_ms_p90 and peak_rss_mb. With `--trace 1` the same untraced
passes run first, then one traced pass over the same ops; the last line
carries the per-layer metrics and the tracing overhead, and the spans and
counters go to `.bench_out/` at the checkout root. Every op's result is
checked: it must not raise, every violated row must revalidate, every
witness must re-verify, and ops pinned in `reference.json` must match.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

sys.path.insert(0, str(HERE))
from tracing import layer_shares, per_layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SPAWNS = 9  # set-up-only interpreters per run, besides the passes
WORKER_TIMEOUT = 170

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_ms_p50": "ms",
                    "op_ms_p90": "ms", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def _worker(workload, seed, mode, max_ops):
    """Run one worker; returns (set-up seconds, parsed result or None)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode]
    if max_ops is not None:
        cmd += ["--max-ops", str(max_ops)]
    env = dict(os.environ)
    env.pop("INFERLAB_SEED", None)  # it would rewrite the schedule seeds
    env["PYTHONHASHSEED"] = "0"
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                            cwd=ROOT)
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest, _ = proc.communicate(timeout=WORKER_TIMEOUT)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker exceeded {WORKER_TIMEOUT}s") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if ready.strip() != "READY" or proc.returncode != 0:
        raise BenchError(f"{mode} worker failed with exit code "
                         f"{proc.returncode}")
    if mode == "setup":
        return setup_s, None
    return setup_s, json.loads(rest.strip().splitlines()[-1])


def _check(records, reference):
    """Classify op records; returns (failures, pinned count)."""
    failures, pinned = [], 0
    for key, digest, verified, error, _ms in records:
        want = reference.get(key)
        pinned += want is not None
        if error is not None:
            failures.append((key, "raised", error.strip().splitlines()[-1]))
        elif not verified:
            failures.append((key, "unverified", "a violated row or witness "
                                                "did not re-verify"))
        elif want is not None and want != digest:
            failures.append((key, "mismatch",
                             f"digest {digest}, reference {want}"))
    return failures, pinned


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def fingerprint(workload, seed, version) -> dict:
    """Where a result came from; line counts are recorded, never gated on."""
    lines = {p.stem: len(p.read_text().splitlines())
             for p in sorted((SRC / "inferlab").glob("*.py"))}
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "commit": _git_commit(),
        "inferlab_version": version,
        "workload": workload,
        "seed": seed,
        "source_lines": lines,
        "source_lines_total": sum(lines.values()),
    }


def _op_stats(records):
    ms = [r[4] for r in records]
    p90 = statistics.quantiles(ms, n=10)[8]
    return {
        "n": len(ms),
        "seconds": sum(ms) / 1e3,
        "ops_per_s": len(ms) / (sum(ms) / 1e3),
        "p50": statistics.median(ms),
        "p90": p90,
        "beyond_p90": sum(x > p90 for x in ms),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="inferlab benchmark; see README.md beside this script")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--max-ops", type=int, default=None,
                    help="run only the first N ops of each pass (smoke runs)")
    args = ap.parse_args(argv)
    if args.max_ops is not None and args.max_ops < 2:
        ap.error("--max-ops must be at least 2")
    if not (SRC / "inferlab" / "__init__.py").is_file():
        print(f"benchmark: no inferlab sources under {SRC}", file=sys.stderr)
        return 2
    reference = json.loads((HERE / "reference.json").read_text())
    reference = reference.get(args.workload, {})

    try:
        setups = [_worker(args.workload, args.seed, "setup", args.max_ops)[0]
                  for _ in range(SETUP_SPAWNS)]
        passes, t_start = [], time.perf_counter()
        while True:
            setup_s, result = _worker(args.workload, args.seed, "run",
                                      args.max_ops)
            setups.append(setup_s)
            passes.append(result)
            elapsed = time.perf_counter() - t_start
            if elapsed * (len(passes) + 1) / len(passes) > args.seconds:
                break
        traced = None
        if args.trace:
            traced = _worker(args.workload, args.seed, "trace",
                             args.max_ops)[1]
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1

    records = [r for p in passes for r in p["ops"]]
    all_records = records + (traced["ops"] if traced else [])
    failures, pinned = _check(all_records, reference)
    stats = _op_stats(records)
    fp = fingerprint(args.workload, args.seed, passes[0]["version"])
    end_to_end = {
        "setup_s": statistics.median(setups),
        "ops_per_s": stats["ops_per_s"],
        "op_ms_p50": stats["p50"],
        "op_ms_p90": stats["p90"],
        "peak_rss_mb": max(p["rss_mb"] for p in passes),
    }
    failed_frac = len(failures) / len(all_records)

    print(f"inferlab benchmark: workload={args.workload} seed={args.seed} "
          f"trace={args.trace}")
    print(f"  {len(passes)} untraced pass(es), {stats['n']} ops, "
          f"{stats['seconds']:.2f} s in ops; {len(all_records)} ops checked, "
          f"{pinned} pinned by reference.json")
    notes = {
        "setup_s": f"median of {len(setups)} set-ups",
        "ops_per_s": f"n={stats['n']} ops",
        "op_ms_p50": f"n={stats['n']}",
        "op_ms_p90": f"n={stats['n']}, {stats['beyond_p90']} beyond p90",
        "peak_rss_mb": f"max of {len(passes)} pass(es)",
    }
    for name, value in end_to_end.items():
        print(f"  {name:<12} {value:12.4f} {END_TO_END_UNITS[name]:<6}"
              f" {notes[name]}")
    print(f"  {'failed_frac':<12} {failed_frac:12.4f} {'ratio':<6}"
          f" {len(failures)}/{len(all_records)} ops failed")
    for key, why, detail in failures[:5]:
        print(f"  FAILED {why}: {key}: {detail}")

    document = {"fingerprint": fp, "end_to_end": end_to_end,
                "failed_frac": failed_frac, "failures": failures,
                "setups_s": setups, "passes": [p["ops"] for p in passes]}
    if traced:
        t_stats = _op_stats(traced["ops"])
        counters = traced["counters"]
        metrics = per_layer_metrics(counters, stats["ops_per_s"],
                                    t_stats["ops_per_s"])
        shares = layer_shares(counters, t_stats["seconds"])
        print("  per-layer self-time share: " + ", ".join(
            f"{layer} {share:.1%}" for layer, share in shares.items()))
        print(f"  tracing overhead: {stats['ops_per_s']:.3f} -> "
              f"{t_stats['ops_per_s']:.3f} ops/s")
        document["trace"] = {"per_layer": metrics, "layer_share": shares,
                             "counters": counters, "ops": traced["ops"],
                             "spans": traced["spans"]}
    else:
        metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]}
                   for name, v in end_to_end.items()}
    print("fingerprint " + json.dumps(fp, sort_keys=True))

    OUT.mkdir(exist_ok=True)
    out = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(document))
    print(f"  full result written to {out.relative_to(ROOT)}")

    print(json.dumps({"correct": not failures,
                      "attempted": len(all_records),
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
