"""splitsql benchmark: one seeded workload, measured end to end or traced.

    python3 bench/run.py --workload scripted_both --seed 1 --seconds 30 --trace 0

Run it from anywhere inside a source checkout; it builds nothing and reads
the program from ``src/``. It generates the workload's inputs from the seed,
brings up the model stand-in, and runs passes of the program (what
``splitsql run`` does) in a separate measuring process for ``--seconds``.
Every pass is checked against the designed outcomes. With ``--trace 0`` the
last stdout line reports the end-to-end metrics; with ``--trace 1`` it
reports the per-layer metrics of a traced run, after checking that the
traced run reproduces the untraced run byte for byte. See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import sqlite3
import statistics
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import gen  # noqa: E402
import tracing  # noqa: E402

SETUP_REPS = 5
BLOCK_S = 1.0  # timing samples cover at least this much pass wall time
LOOPBACK_LATENCY_MS = 20.0
RUN_DEADLINE_S = 170.0

WORKLOADS = {
    # Model time ~0: our own CPU cost (executor, trace and transcript
    # writing, rendering, cache writes), including large results.
    "scripted_both": dict(family="cold", arm="both", router="heuristic", workers=1,
                          cache="cold", http=False),
    # The same inputs over the cache scripted_both fills (filling is set-up),
    # plus one appended question that misses: the cache read path. Run by
    # hand only, not from BENCHMARK.json: its wall time follows the host's
    # file-system latency, and its spread between runs exceeded 0.25.
    "warm_rerun": dict(family="cold", arm="both", router="heuristic", workers=1,
                       cache="warm", http=False),
    # Judge-routed, 2 workers, model replies over loopback HTTP with a fixed
    # injected latency: does the client and its concurrency hide model wait?
    "http_routed": dict(family="http", arm="routed", router="judge", workers=2,
                        cache="cold", http=True),
}

END_TO_END = {
    "examples_per_s": "1/s",
    "cpu_ms_per_example": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "llm_calls_per_example": "count",
    "prompt_kchars_per_example": "kchar",
}

PER_LAYER = (
    [f"executor.execute_sql.{k}" for k in
     ("calls", "busy_ms", "p50_us", "p99_us", "errors", "timeouts", "rows", "ok_ratio")]
    + ["executor.gold_execs_per_distinct"]
    + [f"executor.compare_results.{k}" for k in ("calls", "busy_ms", "rows")]
    + [f"executor.has_top_level_order_by.{k}" for k in ("calls", "busy_ms")]
    + [f"executor.execution_accuracy.{k}" for k in ("calls", "busy_ms", "self_ms")]
    + [f"pipeline.{f}.{k}" for f in ("run_baseline", "run_divide_and_merge")
       for k in ("calls", "busy_ms", "self_ms")]
    + [f"{f}.{k}" for f in ("pipeline.write_trace", "llm.write_transcript")
       for k in ("calls", "busy_ms", "kbytes")]
    + [f"dataset.serialize_schema.{k}" for k in ("calls", "busy_ms", "kchars", "calls_per_distinct")]
    + [f"prompts.render.{k}" for k in ("calls", "busy_ms", "kchars")]
    + [f"prompts.extract_sql.{k}" for k in ("calls", "busy_ms", "failures")]
    + [f"llm.complete.calls.{s}" for s in tracing.STAGES]
    + [f"llm.complete.prompt_kchars.{s}" for s in tracing.STAGES]
    + [f"llm.complete.{k}" for k in
       ("refine_calls", "busy_ms", "p50_ms", "p90_ms", "retries", "failures", "overhead_ms")]
    + ["llm.inflight_mean", "llm.loopback_floor_ms"]
    + ["router.route_judge.calls", "router.route_judge.busy_ms", "router.route_heuristic.calls"]
    + ["harness.cache.hits", "harness.cache.misses", "harness.cache.hit_ratio",
       "harness.write_records.busy_ms", "harness.write_records.kbytes",
       "harness.run_dir_kbytes_per_example", "harness.build_report.busy_ms",
       "harness.emit_report.busy_ms", "harness.run_benchmark.self_ms"]
    + ["dataset.load_schemas.ms", "dataset.load_examples.ms"]
    + ["process.cpu_util", "trace.overhead_pct"]
)

_HIGHER_IS_BETTER = ("ok_ratio", "hits", "hit_ratio", "inflight_mean", "cpu_util")


def layer_unit(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if last.endswith("_ms") or last == "ms":
        return "ms"
    if last.endswith("_us"):
        return "us"
    if last.endswith("_pct"):
        return "%"
    if "kbytes" in last:
        return "kB"
    if "kchars" in name:
        return "kchar"
    if last in ("ok_ratio", "hit_ratio", "cpu_util", "inflight_mean") or "per_distinct" in last:
        return "ratio"
    return "count"


def layer_better(name: str) -> str:
    return "higher" if name.rsplit(".", 1)[-1] in _HIGHER_IS_BETTER else "lower"


class BenchError(RuntimeError):
    """The benchmark could not run or its output was wrong."""


def environment() -> dict:
    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "none (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or commit
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "splitsql").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "machine": f"{platform.node()} {platform.machine()} {cpu}".strip(),
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
        "python": platform.python_version(),
        "sqlite": sqlite3.sqlite_version,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def run_worker(spec: dict, work: Path, deadline: float) -> dict:
    work.mkdir(parents=True, exist_ok=True)
    spec_path, result_path = work / "spec.json", work / "result.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "worker.py"), str(spec_path), str(result_path)],
        stdout=sys.stderr, timeout=max(1.0, deadline - time.monotonic()),
    )
    if done.returncode != 0:
        raise BenchError(f"measuring process exited with {done.returncode}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    if result["errors"]:
        raise BenchError("correctness gate failed:\n  " + "\n  ".join(result["errors"]))
    return result


class Server:
    """The loopback model server process, ready once constructed."""

    def __init__(self, plan: Path, threads: int, deadline: float):
        self.process = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "loopback.py"), "--plan", str(plan),
             "--latency-ms", str(LOOPBACK_LATENCY_MS), "--threads", str(threads)],
            stdout=subprocess.PIPE, text=True,
        )
        line = self.process.stdout.readline().split()
        if len(line) != 2 or line[0] != "READY":
            self.stop()
            raise BenchError("loopback server did not start")
        self.url = f"http://127.0.0.1:{line[1]}"
        while True:
            try:
                with urllib.request.urlopen(self.url + "/health", timeout=1) as reply:
                    if reply.status == 200:
                        return
            except OSError:
                if time.monotonic() > deadline:
                    self.stop()
                    raise BenchError("loopback server failed its readiness probe")
                time.sleep(0.01)

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


def quartiles(values: list) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def timing_blocks(passes: list) -> list[tuple[int, float, float]]:
    """(passes, wall s, CPU s) of consecutive passes grouped into blocks of at
    least BLOCK_S wall seconds; a short trailing block joins the one before.
    A warm pass takes ~25 ms, and one vCPU preemption can double it."""
    blocks, current = [], [0, 0.0, 0.0]
    for p in passes:
        current = [current[0] + 1, current[1] + p["wall"], current[2] + p["cpu"]]
        if current[1] >= BLOCK_S:
            blocks.append(tuple(current))
            current = [0, 0.0, 0.0]
    if current[0]:
        if blocks:
            n, wall, cpu = blocks.pop()
            current = [n + current[0], wall + current[1], cpu + current[2]]
        blocks.append(tuple(current))
    return blocks


def measure(name: str, seed: int, seconds: int, trace: bool, work: Path) -> tuple[dict, dict, int, int]:
    """Set up the workload, measure it, and return (end-to-end samples,
    per-layer metrics, examples attempted, examples failed)."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    workload = WORKLOADS[name]
    profile = gen.PROFILES[workload["family"]]
    count = profile.examples + (profile.extra_examples if workload["cache"] == "warm" else 0)

    from splitsql import dataset

    setup_s, server = [], None
    try:
        for rep in range(SETUP_REPS):
            rep_dir = work / f"setup{rep}"
            if server is not None:
                server.stop()
                server = None
            started = time.perf_counter()
            corpus = gen.generate(seed, workload["family"])
            gen.write_corpus(corpus, rep_dir / "corpus", count)
            schemas = dataset.load_schemas(rep_dir / "corpus" / "tables.json")
            examples = dataset.load_examples(rep_dir / "corpus" / "examples.json")
            if len(examples) != count or any(e.db_id not in schemas for e in examples):
                raise BenchError("generated corpus does not load as designed")
            if workload["http"]:
                threads = min(workload["workers"], os.cpu_count() or 1)
                server = Server(rep_dir / "corpus" / "plan.json", threads, deadline)
            spec = dict(
                root=str(ROOT), corpus=str(rep_dir / "corpus"), arm=workload["arm"],
                router=workload["router"], workers=workload["workers"],
                url=server.url if server else "", cache=workload["cache"],
                cache_dir=str(rep_dir / "cache"), seconds=seconds, trace=trace,
                latency_ms=LOOPBACK_LATENCY_MS if server else 0.0,
            )
            if workload["cache"] == "warm":
                run_worker(dict(spec, mode="fill", cache="fill", limit=profile.examples,
                                work=str(rep_dir / "fill")), rep_dir / "fill", deadline)
            setup_s.append(time.perf_counter() - started)
            if rep < SETUP_REPS - 1:
                shutil.rmtree(rep_dir, ignore_errors=True)
        print(f"shares {json.dumps(gen.shares(corpus.expected[:count]))}")
        result = run_worker(dict(spec, mode="measure", work=str(work / "measure")),
                            work / "measure", deadline)
    finally:
        if server is not None:
            server.stop()

    passes = result["passes"]
    calls = {p["calls"] for p in passes + result["traced"]}
    if len(calls) != 1:
        raise BenchError(f"model calls per pass differ between passes: {sorted(calls)}")
    blocks = timing_blocks(passes)
    samples = {
        "examples_per_s": [n * count / wall for n, wall, _ in blocks],
        "cpu_ms_per_example": [cpu * 1000.0 / (n * count) for n, _, cpu in blocks],
        "setup_s": setup_s,
        "peak_rss_mb": [result["peak_rss_kb"] / 1024.0],
        "llm_calls_per_example": [p["calls"] / count for p in passes],
        "prompt_kchars_per_example": [p["prompt_chars"] / 1000.0 / count for p in passes],
    }
    layers = {}
    if trace:
        layers = tracing.median_metrics(result["layers"])
        layers["llm.loopback_floor_ms"] = result.get("loopback_floor_ms", 0.0)
        layers["process.cpu_util"] = statistics.median(p["cpu"] / p["wall"] for p in passes)
        layers["trace.overhead_pct"] = 100.0 * (
            statistics.median(p["wall"] for p in result["traced"])
            / statistics.median(p["wall"] for p in passes) - 1.0
        )
        if set(layers) != set(PER_LAYER):
            raise BenchError(f"per-layer metrics differ from the list: {set(layers) ^ set(PER_LAYER)}")
    runs = passes + result["traced"]
    attempted = count * len(runs)
    failed = sum(p["failed"] for p in runs)
    print(f"passes {len(passes)} untraced + {len(result['traced'])} traced"
          f" (+1 warm-up), {count} examples each")
    return samples, layers, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="splitsql benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still stops its processes and removes its files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "splitsql" / "harness.py").is_file():
        print(f"no splitsql sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    work = ROOT / ".bench_work" / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print(f"env {json.dumps(environment())}")
    try:
        samples, layers, attempted, failed = measure(
            args.workload, args.seed, args.seconds, bool(args.trace), work
        )
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass

    for name, values in samples.items():
        q1, median, q3 = quartiles(values)
        print(f"{name} = {median:.6g} {END_TO_END[name]}"
              f" (quartiles {q1:.6g} .. {q3:.6g}, n={len(values)})")
    print(f"failed_share = {failed / attempted:.6g} ratio ({failed} of {attempted} examples)")
    for name in PER_LAYER if layers else ():
        print(f"{name} = {layers[name]:.6g} {layer_unit(name)}")

    correct = failed == 0
    if args.trace:
        metrics = {n: {"value": layers[n], "unit": layer_unit(n)} for n in PER_LAYER}
    else:
        metrics = {n: {"value": statistics.median(samples[n]), "unit": u}
                   for n, u in END_TO_END.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
