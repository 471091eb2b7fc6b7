"""Benchmark of the attenattack CLI: one workload and seed per run.

    python3 perfbench/run.py --workload mc-classes --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --record-golden

With --trace 0 the run is a closed loop with one client: passes over the
workload's invocations, each a child `python -m attenattack ...`, run one
after another until --seconds is spent. It reports the end-to-end metrics
of BENCHMARK.json as medians over passes; wall and CPU time and peak RSS
come from os.wait4. With --trace 1 a worker process (trace.py) runs the
same invocations in-process with spans around each layer, and
`-X importtime` children split the import; it reports the per-layer
metrics. Every stdout is checked (check.py) and a mismatch, a non-zero
exit or a timeout counts as a failed invocation.

The lines before the last one on stdout are the report: each metric with
its quartiles and sample count, failed_frac and provenance.
The last line is the JSON result {"correct", "attempted", "failed",
"metrics"}. The package is imported from src/ of the checkout that holds
this directory; without it the run exits with code 2.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import check
from workloads import DEFAULT_SEED, EXTRA_GOLDEN, SIZES, WORKLOADS, invocations, trials

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_PROBES = 2  # cold `import attenattack` children per pass; setup_s is their median
IMPORTTIME_RUNS = 3  # `-X importtime` children per traced run
CHILD_TIMEOUT_S = 60.0
RUN_DEADLINE_S = 150.0  # no child outlives this, so a run ends within 180 s

THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


class BenchError(Exception):
    """The benchmark itself cannot produce a result."""


@dataclass
class Child:
    wall_s: float
    cpu_s: float
    maxrss_mib: float
    code: int | None  # None when killed on timeout
    stdout: bytes
    stderr: bytes

    def problem(self) -> str | None:
        if self.code is None:
            return "timed out"
        if self.code != 0:
            return f"exit {self.code}: {self.stderr.decode(errors='replace')[-300:]}"
        return None


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_child(cmd: list[str], deadline: float, timeout: float = CHILD_TIMEOUT_S) -> Child:
    """Run cmd to completion in its own process group; time it from spawn to reap.

    The child is killed when `timeout` or the run deadline expires.
    """
    timeout = max(1.0, min(timeout, deadline - time.perf_counter()))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    streams: dict[str, bytes] = {}
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True,
    )
    readers = [
        threading.Thread(target=lambda k=k, f=f: streams.__setitem__(k, f.read()))
        for k, f in (("out", proc.stdout), ("err", proc.stderr))
    ]
    timer = threading.Timer(timeout, _kill_group, (proc.pid,))
    try:
        for r in readers:
            r.start()
        timer.start()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    finally:
        timer.cancel()
        _kill_group(proc.pid)  # anything the child left in its group
    proc.returncode = os.waitstatus_to_exitcode(status)
    for r in readers:
        r.join()
    proc.stdout.close()
    proc.stderr.close()
    killed = proc.returncode == -signal.SIGKILL
    return Child(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        maxrss_mib=usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        code=None if killed else proc.returncode,
        stdout=streams["out"],
        stderr=streams["err"],
    )


def _cli(argv: list[str]) -> list[str]:
    return [sys.executable, "-m", "attenattack", *argv]


IMPORT_ONLY = [sys.executable, "-c", "import attenattack"]


def _summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def measure(workload: str, seed: int, seconds: float, size: str = "full") -> dict:
    """Untraced closed-loop passes over the workload's CLI invocations."""
    deadline = time.perf_counter() + RUN_DEADLINE_S
    invs = invocations(workload, seed, size)
    golden = check.load_golden()

    def import_probe() -> float:
        child = run_child(IMPORT_ONLY, deadline)
        if child.problem():
            raise BenchError(f"import attenattack failed: {child.problem()}")
        return child.wall_s

    import_probe()  # unmeasured: fills the page and bytecode caches
    setup: list[float] = []
    passes: list[dict] = []
    attempted = failed = 0
    errors: list[str] = []
    start = time.perf_counter()
    while not passes or (
        (time.perf_counter() - start) * (1 + 1 / len(passes)) <= seconds
        and time.perf_counter() < deadline
    ):
        # Set-up probes are spread over the run, so setup_s sees the same
        # machine states as the passes; they are not part of a pass.
        setup += [import_probe() for _ in range(SETUP_PROBES)]
        wall = cpu = rss = 0.0
        for argv in invs:
            child = run_child(_cli(argv), deadline)
            wall += child.wall_s
            cpu += child.cpu_s
            rss = max(rss, child.maxrss_mib)
            attempted += 1
            problem = child.problem() or check.check(argv, child.stdout, golden)
            if problem:
                failed += 1
                errors.append(f"{check.key(argv)}: {problem}")
        passes.append({"wall_s": wall, "cpu_s": cpu, "peak_rss_mib": rss})

    stats = {"setup_s": _summary(setup)}
    for name in ("wall_s", "cpu_s", "peak_rss_mib"):
        stats[name] = _summary([p[name] for p in passes])
    metrics = {name: s["median"] for name, s in stats.items()}
    metrics["trials_per_s"] = sum(trials(argv) for argv in invs) / metrics["wall_s"]
    return {
        "metrics": metrics,
        "stats": stats,
        "extra": {"failed_frac": failed / attempted},
        "passes": {"setup_s": setup, **{k: [p[k] for p in passes] for k in passes[0]}},
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "invocations": invs,
    }


def import_split(importtime: str) -> tuple[float, float]:
    """(attenattack, scipy) cumulative import seconds from `-X importtime` output.

    scipy time sums the scipy modules that no other scipy module imported.
    """
    rows = []
    for line in importtime.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue
        name = fields[2].rstrip()
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        rows.append((depth, name.strip(), int(fields[1]) * 1e-6))
    package = scipy = 0.0
    ancestors: list[str] = []
    for depth, name, cumulative in reversed(rows):  # parents precede children
        parent = ancestors[depth - 1] if 0 < depth <= len(ancestors) else ""
        ancestors[depth:] = [name]
        if name == "attenattack" and depth == 0:
            package = cumulative
        if name.split(".")[0] == "scipy" and parent.split(".")[0] != "scipy":
            scipy += cumulative
    return package, scipy


def trace_layers(workload: str, seed: int, seconds: float, size: str = "full") -> dict:
    """Per-layer metrics from a traced in-process worker and the import split."""
    deadline = time.perf_counter() + RUN_DEADLINE_S
    splits = []
    for _ in range(IMPORTTIME_RUNS):
        child = run_child([sys.executable, "-X", "importtime", "-c", "import attenattack"], deadline)
        if child.problem():
            raise BenchError(f"import attenattack failed: {child.problem()}")
        splits.append(import_split(child.stderr.decode()))
    worker = run_child(
        [sys.executable, str(HERE / "trace.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--size", size],
        deadline,
        timeout=RUN_DEADLINE_S,
    )
    if worker.problem():
        raise BenchError(f"traced worker failed: {worker.problem()}")
    result = json.loads(worker.stdout)
    result["metrics"]["init.import_s"] = statistics.median(s[0] for s in splits)
    result["metrics"]["init.scipy_import_s"] = statistics.median(s[1] for s in splits)
    result["invocations"] = invocations(workload, seed, size)
    return result


def cpu_ticks() -> tuple[int, int] | None:
    """(steal, total) CPU ticks of the whole machine from /proc/stat, or None.

    Steal is time the hypervisor ran something else while this machine's
    virtual CPUs wanted to run.
    """
    try:
        # The first line: "cpu user nice system idle iowait irq softirq steal ..."
        ticks = [int(f) for f in Path("/proc/stat").read_text().split()[1:9]]
        return ticks[7], sum(ticks)
    except (OSError, ValueError, IndexError):
        return None


def steal_frac(before: tuple[int, int] | None, after: tuple[int, int] | None) -> float | None:
    """Share of the machine's CPU ticks between two cpu_ticks() readings that was stolen."""
    if before is None or after is None or after[1] <= before[1]:
        return None
    return (after[0] - before[0]) / (after[1] - before[1])


def provenance(
    workload: str, seed: int, trace: int, invs: list[list[str]], load_before, ticks_before
) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
        commit = git.stdout.strip() or None
    versions = {}
    for dist in ("numpy", "scipy"):
        try:
            versions[dist] = importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            versions[dist] = None
    return {
        "git_commit": commit,
        "python": platform.python_version(),
        **versions,
        "nproc": os.cpu_count(),
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
        "steal_frac": steal_frac(ticks_before, cpu_ticks()),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "argv": [_cli(argv) for argv in invs],
    }


def metric_spec(trace: int) -> dict[str, str]:
    """Metric name -> unit, from BENCHMARK.json."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def result_line(result: dict, trace: int) -> dict:
    spec = metric_spec(trace)
    metrics = result["metrics"]
    if set(metrics) != set(spec):
        raise BenchError(
            f"metrics differ from BENCHMARK.json: missing {sorted(set(spec) - set(metrics))}, "
            f"extra {sorted(set(metrics) - set(spec))}"
        )
    return {
        "correct": result["failed"] == 0 and not result["errors"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": spec[name]} for name in spec},
    }


def run(workload: str, seed: int, seconds: float, trace: int, size: str = "full") -> dict:
    load_before, ticks_before = os.getloadavg(), cpu_ticks()
    result = (trace_layers if trace else measure)(workload, seed, seconds, size)
    result["provenance"] = provenance(
        workload, seed, trace, result["invocations"], load_before, ticks_before
    )
    return result


def report(result: dict, line: dict) -> None:
    for name, m in line["metrics"].items():
        s = result.get("stats", {}).get(name)
        spread = f"  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  n={s['n']}" if s else ""
        print(f"{name:48s} {m['value']:.6g} {m['unit']}{spread}")
    for name, value in result.get("extra", {}).items():
        print(f"{name:48s} {value:.6g} ratio")
    if "passes" in result:
        print(f"passes {json.dumps(result['passes'])}")
    for error in dict.fromkeys(result["errors"]):  # traced passes repeat errors
        print(f"ERROR {error}")
    print(f"provenance {json.dumps(result['provenance'])}")


def self_test() -> int:
    """Tiny-size runs of every workload in both modes, plus the pinned goldens."""
    golden = check.load_golden()
    deadline = time.perf_counter() + RUN_DEADLINE_S
    problems = []
    for argv in EXTRA_GOLDEN:
        child = run_child(_cli(argv), deadline)
        problem = child.problem() or check.check(argv, child.stdout, golden)
        if problem:
            problems.append(f"{check.key(argv)}: {problem}")
    for workload in WORKLOADS:
        cases = [(DEFAULT_SEED, 0), (DEFAULT_SEED + 1, 0), (DEFAULT_SEED, 1)]
        for seed, trace in cases:
            result = run(workload, seed, 0, trace, size="tiny")
            line = result_line(result, trace)
            units_ok = all(m["unit"] for m in line["metrics"].values())
            if not line["correct"] or not units_ok:
                problems.append(f"{workload} seed {seed} trace {trace}: {result['errors']}")
            print(f"{workload} seed={seed} trace={trace}: {len(line['metrics'])} metrics, "
                  f"{line['attempted']} attempted, {line['failed']} failed")
    for problem in problems:
        print(f"FAIL {problem}")
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def record_golden() -> int:
    """Write golden.json: stdout sha256 of every pinned invocation on this tree."""
    argvs = [argv for w in WORKLOADS for size in SIZES for argv in invocations(w, DEFAULT_SEED, size)]
    golden = {}
    for argv in argvs + EXTRA_GOLDEN:
        child = run_child(_cli(argv), time.perf_counter() + CHILD_TIMEOUT_S)
        if child.problem():
            raise BenchError(f"{check.key(argv)}: {child.problem()}")
        golden[check.key(argv)] = check.sha256(child.stdout)
    check.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(golden)} golden hashes in {check.GOLDEN_PATH.name}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args()
    if not (ROOT / "src" / "attenattack" / "__init__.py").is_file():
        print(f"no attenattack package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.self_test:
            return self_test()
        if args.record_golden:
            return record_golden()
        if args.workload is None:
            parser.error("--workload is required")
        result = run(args.workload, args.seed, args.seconds, args.trace)
        line = result_line(result, args.trace)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    report(result, line)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
