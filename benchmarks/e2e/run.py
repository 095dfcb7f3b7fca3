"""bench_e2e: the served-path benchmark (see README.md beside this file).

    python benchmarks/e2e/run.py --workload read_hot --seed 7            # end-to-end
    python benchmarks/e2e/run.py --workload read_hot --seed 7 --trace 1  # per-layer
    python benchmarks/e2e/run.py                                         # everything
    python benchmarks/e2e/run.py --aa                                    # same code twice

With ``--workload`` the last line of standard output is the contract's
JSON object: ``--trace 0`` carries every end-to-end metric (the best of
five child-process rounds), ``--trace 1`` every per-layer metric (one
plain and one traced in-process round).  Tables above it are for people.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
if not (ROOT / "src" / "repro" / "__init__.py").exists():
    sys.exit(f"bench_e2e: no repro package under {ROOT / 'src'}: run it from a full checkout")
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import driver  # noqa: E402
import trace as e2e_trace  # noqa: E402  (this directory's trace.py, not the stdlib's)
import workloads  # noqa: E402
from manifest import END_TO_END, ROUNDS, RUN_SECONDS, WORKLOADS, per_layer  # noqa: E402

from repro.storage.mvcc import VersionedGraphStore  # noqa: E402

OUT = HERE / "out"
SMOKE_SCALE = 0.17  # write_burst still crosses one checkpoint fold
SMOKE_ROUNDS = 2


# -- the environment record -------------------------------------------------------


def _filesystem(path: Path) -> str:
    best, kind = "", "unknown"
    for line in Path("/proc/mounts").read_text().splitlines():
        _, mount, fstype = line.split()[:3]
        if str(path).startswith(mount) and len(mount) > len(best):
            best, kind = mount, fstype
    return kind


def _fsync_probe_us(directory: Path) -> float:
    """Median of 20 x (4 KiB write + fsync): on tmpfs a flush is free and
    write_burst measures something else."""
    times = []
    path = directory / "fsync.probe"
    with open(path, "wb") as fh:
        for _ in range(20):
            start = time.perf_counter()
            fh.write(b"\0" * 4096)
            fh.flush()
            os.fsync(fh.fileno())
            times.append(time.perf_counter() - start)
    path.unlink()
    return statistics.median(times) * 1e6


def _commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment(work: Path, seed: int, rounds: int, smoke: bool) -> dict:
    return {
        "commit": _commit(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "connections": 1,
        "loop": "closed",
        "rounds": rounds,
        "seed": seed,
        "flush_policy": {"durable": True, "checkpoint_every": workloads.CHECKPOINT_EVERY},
        "data_dir_filesystem": _filesystem(work),
        "fsync_probe_us": _fsync_probe_us(work),
        "smoke": smoke,
    }


# -- one workload run ---------------------------------------------------------------


def _traced_counters(tracer: "e2e_trace.Tracer", commits: int) -> dict[str, float]:
    timed = tracer.totals("timed")  # a defaultdict: absent spans read as zero
    per_commit = 1.0 / commits if commits else 0.0
    return {
        "storage.mvcc.freezes_per_commit":
            tracer.count_children("timed", "core.frozen.freeze", "storage.mvcc.view")
            * per_commit,
        "storage.mvcc.checkpoints_per_1k_commits":
            timed["storage.mvcc.checkpoint"]["calls"] * per_commit * 1000,
        "storage.wal.fsyncs_per_commit": timed["storage.wal.sync"]["calls"] * per_commit,
        "storage.wal.bytes_per_commit": timed["storage.wal.append"]["value"] * per_commit,
    }


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, *, smoke: bool = False,
    plan: "workloads.Plan | None" = None,
) -> dict:
    """Run one workload; returns its result record (also written to out/)."""
    scale = (SMOKE_SCALE if smoke else 1.0) * seconds / RUN_SECONDS
    rounds = SMOKE_ROUNDS if smoke else ROUNDS
    if plan is None:
        plan = workloads.build(name, seed, scale, smoke=smoke)
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}-{name}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        base = work / "base"
        VersionedGraphStore.create(base, plan.base).close()
        record = {
            "workload": name,
            "environment": environment(work, seed, rounds, smoke),
            "ops_per_round": len(plan.timed),
        }
        if not trace:
            done = [driver.run_round(plan, base, work) for _ in range(rounds)]
            record["end_to_end"] = driver.end_to_end(done, plan)
            record["environment"]["cpu_probe_ms_rounds"] = [r.probe_ms for r in done]
            record["tails"] = {
                cls: dict(zip(("ms", "percentile", "samples"), driver.tail_ms(done, cls)))
                for cls in sorted({c for r in done for c in r.key_class.values()})
            }
            path = OUT / f"result_{name}.json"
        else:
            # plain, traced, plain: the first in-process round also pays the
            # process's one-off costs, so the overhead is taken against the
            # faster of the two plain rounds
            plain = driver.run_round(plan, base, work, in_process=True)
            tracer = e2e_trace.Tracer()
            undo = e2e_trace.install(tracer)
            try:
                traced = driver.run_round(plan, base, work, in_process=True, tracer=tracer)
            finally:
                e2e_trace.uninstall(undo)
            again = driver.run_round(plan, base, work, in_process=True)
            done = [plain, traced, again]
            plain = min(plain, again, key=lambda r: r.wall_s)
            tracer.check_nesting()
            tracer.write(OUT / f"trace_{name}.json")
            covered = sum(row["self_ns"] for row in tracer.totals("timed").values())
            commits = sum(1 for request in plan.timed if request.cls == "apply")
            record["per_layer"] = {
                **e2e_trace.layer_metrics(tracer, max(1, traced.ok_ops)),
                **driver.counters(plain, plan),
                **_traced_counters(tracer, commits),
                "trace.overhead_ratio": plain.wall_s / traced.wall_s,
                "trace.coverage_ratio": covered / 1e9 / traced.wall_s,
            }
            record["in_process_round_s"] = {"plain": plain.wall_s, "traced": traced.wall_s}
            path = OUT / f"layers_{name}.json"
        record["attempted_ops"] = sum(r.attempted for r in done)
        record["failed_ops"] = sum(r.failed for r in done)
        record["failures"] = [f for r in done for f in r.failures][:20]
        path.write_text(json.dumps(record, indent=1))
        return record
    finally:
        shutil.rmtree(work, ignore_errors=True)


def contract_line(record: dict) -> str:
    """The last line of standard output the benchmark contract asks for."""
    if "end_to_end" in record:
        metrics = {
            name: {"value": record["end_to_end"][name]["value"], "unit": unit}
            for name, unit, _, _ in END_TO_END
        }
    else:
        metrics = {
            name: {"value": record["per_layer"][name], "unit": unit}
            for name, unit, _ in per_layer()
        }
    return json.dumps({
        "correct": record["failed_ops"] == 0,
        "attempted": record["attempted_ops"],
        "failed": record["failed_ops"],
        "metrics": metrics,
    })


# -- tables for people ----------------------------------------------------------------


def print_table(title: str, header: "list[str]", rows: "list[list[object]]") -> None:
    """benchmarks/_tables.py's layout, kept here so that everything the
    benchmark needs outside ``src/`` lives under its own directory."""
    cells = [[str(c) for c in row] for row in rows]
    widths = [max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
              for i, h in enumerate(header)]
    print(f"\n== {title} ==")
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    print("  ".join("-" * w for w in widths))
    for row in cells:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)))


def print_record(record: dict) -> None:
    name, env = record["workload"], record["environment"]
    print(
        f"\n# {name}: seed {env['seed']}, {env['rounds']} rounds x {record['ops_per_round']} ops, "
        f"1 connection closed loop, commit {env['commit'][:12]}, python {env['python']}, "
        f"{env['nproc']} cpus, {env['data_dir_filesystem']} "
        f"(fsync probe {env['fsync_probe_us']:.0f} us), durable=True checkpoint_every="
        f"{env['flush_policy']['checkpoint_every']}" + (", SMOKE" if env["smoke"] else "")
    )
    print(f"attempted_ops {record['attempted_ops']}  failed_ops {record['failed_ops']}")
    for failure in record["failures"]:
        print(f"  FAILED {failure}")
    if "end_to_end" in record:
        print_table(
            f"{name}: end to end (best round)",
            ["metric", "value", "unit", "bound", "rounds"],
            [[metric, f"{record['end_to_end'][metric]['value']:.6g}", unit, f"{bound:.0%}",
              " ".join(f"{v:.4g}" for v in record["end_to_end"][metric]["rounds"])]
             for metric, unit, _, bound in END_TO_END],
        )
        print_table(
            f"{name}: tail latency per op class (pooled over rounds, not gated)",
            ["class", "ms", "percentile", "samples"],
            [[cls, f"{t['ms']:.3f}", f"p{t['percentile']:.2f}", t["samples"]]
             for cls, t in record["tails"].items()],
        )
    else:
        layers = record["per_layer"]
        print_table(
            f"{name}: per layer",
            ["metric", "value", "unit"],
            [[metric, f"{layers[metric]:.6g}", unit] for metric, unit, _ in per_layer()],
        )
        spans = sorted(
            ((layers[f"{span}.self_us_per_op"], span) for span in e2e_trace.SPANS
             if span not in e2e_trace.RECOVER_SPANS),
            reverse=True,
        )
        total = sum(us for us, _ in spans) or 1.0
        print_table(
            f"{name}: where a served request's {total / 1e3:.3f} ms go (traced, in-process)",
            ["span", "self us/op", "share", "calls/op"],
            [[span, f"{us:.1f}", f"{us / total:.1%}", f"{layers[f'{span}.calls_per_op']:.3g}"]
             for us, span in spans if us > 0],
        )


# -- the A/A check ----------------------------------------------------------------------


def run_aa(seed: int, seconds: float) -> int:
    """Two sets of runs of the same code must agree within every bound."""
    sets = []
    for label in ("A", "A'"):
        print(f"\n### set {label}")
        sets.append({name: run_workload(name, seed, seconds, False) for name, _ in WORKLOADS})
        for record in sets[-1].values():
            print_record(record)
    rows, worst = [], 0
    for name, _ in WORKLOADS:
        for metric, unit, _, bound in END_TO_END:
            first = sets[0][name]["end_to_end"][metric]["value"]
            second = sets[1][name]["end_to_end"][metric]["value"]
            diff = abs(second - first) / first
            verdict = "ok" if diff <= bound else "EXCEEDS"
            worst += verdict != "ok"
            rows.append([name, metric, f"{first:.6g}", f"{second:.6g}", unit,
                         f"{diff:.2%}", f"{bound:.0%}", verdict])
    print_table("A/A: same code, same seed, two sets",
           ["workload", "metric", "A", "A'", "unit", "diff", "bound", ""], rows)
    failed = sum(r["failed_ops"] for s in sets for r in s.values())
    print(f"\n{worst} metric(s) beyond their bound, {failed} failed op(s)")
    return 1 if worst or failed else 0


# -- entry ------------------------------------------------------------------------------


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[name for name, _ in WORKLOADS])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="run length; per-round op counts scale with it")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--aa", action="store_true",
                        help="run the suite twice and compare against each metric's bound")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes for the self-test; never a baseline")
    args = parser.parse_args(argv)
    # a terminated driver must still reap its server child and temp stores
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.aa:
        if args.smoke:
            parser.error("--smoke results are not a baseline: --aa refuses them")
        return run_aa(args.seed, args.seconds)
    if args.workload:
        record = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), smoke=args.smoke
        )
        print_record(record)
        print(contract_line(record))
        return 0  # the line above carries the verdict
    failed = 0
    for name, _ in WORKLOADS:
        for trace in (False, True):
            record = run_workload(name, args.seed, args.seconds, trace, smoke=args.smoke)
            print_record(record)
            failed += record["failed_ops"]
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
