"""Traced in-process run of one workload, timing each layer from outside.

    python3 perfbench/trace.py --workload mc-classes --seed 1 --seconds 10

run.py starts this as a worker process so that a hang stays killable. It
imports the package from the checkout's src/, runs the workload's argv
lists through `attenattack.cli.main` with stdout captured, and alternates
untraced and traced passes. During a traced pass the public functions that
callers look up at call time are replaced by wrappers that aggregate spans
in memory by (name, class, parent) as calls, total time and self time.
The attributes are restored after each pass; no file under src/ changes.

Prints one JSON object: the per-layer metrics, the invocations attempted
and failed, and the errors found.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import attenattack  # noqa: E402
from attenattack import campaign, cli, fiber, risk  # noqa: E402
from attenattack.attenuators import AttenuatorClass  # noqa: E402

import check  # noqa: E402
from workloads import CLASSES, invocations  # noqa: E402

# (owner, attribute) pairs wrapped during a traced pass. Callers look these
# up at call time, so replacing the attribute puts a span around each call.
SITES = [
    *((campaign, name) for name in (
        "apply_exposure", "attenuation", "cool_down", "new_attenuator",
        "run_campaign", "trial_seeds", "delivered_power", "max_injectable_power",
    )),
    *((cli, name) for name in (
        "main", "monte_carlo", "run_campaign", "new_attenuator",
        "impact_report", "risk_report",
    )),
    (fiber, "threshold_curve"),
    (risk, "beta_binomial_pmf"),
    (risk, "prob_fraction_vulnerable_exceeds"),
    (campaign.CampaignResult, "to_json_dict"),
    (fiber.ThresholdCurve, "to_csv"),
]

# Metrics that count work; they must repeat exactly between traced passes.
COUNT_SUFFIXES = (".calls", ".steps_per_call", ".useful_step_frac", "cli.stdout_bytes")


def _class_of(args, kwargs) -> str | None:
    """Attenuator class from a `klass` argument or a state's `.klass`."""
    for a in (*args, *kwargs.values()):
        if isinstance(a, AttenuatorClass):
            return a.value
        klass = getattr(a, "klass", None)
        if isinstance(klass, AttenuatorClass):
            return klass.value
    return None


class Tracer:
    """Aggregated spans: (name, class, parent) -> [calls, total_s, self_s]."""

    def __init__(self):
        self.spans: dict[tuple, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.steps: dict[str, list[int]] = defaultdict(lambda: [0, 0])
        self._stack: list[list] = []  # open spans as [name, child_s]

    def wrap(self, fn):
        name = f"{fn.__module__.rpartition('.')[2]}.{fn.__qualname__}"
        stack, spans, clock = self._stack, self.spans, time.perf_counter
        count_steps = name == "campaign.run_campaign"

        def traced(*args, **kwargs):
            klass = _class_of(args, kwargs)
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                agg = spans[name, klass, parent]
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - frame[1]
            if count_steps:
                tally = self.steps[klass]
                tally[0] += len(result.steps)
                tally[1] += sum(s.event != "NoChange" for s in result.steps)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr in SITES:
                fn = vars(owner)[attr]
                saved.append((owner, attr, fn))
                setattr(owner, attr, self.wrap(fn))
            yield
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def metrics(self, stdout_bytes: int) -> dict[str, float]:
        per_class = defaultdict(lambda: [0, 0.0, 0.0])
        per_name = defaultdict(lambda: [0, 0.0, 0.0])
        for (name, klass, _parent), agg in self.spans.items():
            for total in (per_class[name, klass], per_name[name]):
                for i, value in enumerate(agg):
                    total[i] += value

        def per_call_us(agg, i):
            return agg[i] / agg[0] * 1e6 if agg[0] else 0.0

        m: dict[str, float] = {}
        for fn in ("new_attenuator", "apply_exposure", "attenuation", "cool_down"):
            for klass in CLASSES:
                agg = per_class[f"attenuators.{fn}", klass]
                m[f"attenuators.{fn}.{klass}.calls"] = agg[0]
                m[f"attenuators.{fn}.{klass}.us_per_call"] = per_call_us(agg, 1)
        m["campaign.monte_carlo.self_s"] = per_name["campaign.monte_carlo"][2]
        m["campaign.trial_seeds.self_s"] = per_name["campaign.trial_seeds"][2]
        for klass in CLASSES:
            agg = per_class["campaign.run_campaign", klass]
            steps, useful = self.steps[klass]
            m[f"campaign.run_campaign.{klass}.calls"] = agg[0]
            m[f"campaign.run_campaign.{klass}.self_us"] = per_call_us(agg, 2)
            m[f"campaign.run_campaign.{klass}.steps_per_call"] = steps / agg[0] if agg[0] else 0.0
            m[f"campaign.run_campaign.{klass}.useful_step_frac"] = useful / steps if steps else 0.0
        m["campaign.CampaignResult.to_json_dict.self_s"] = (
            per_name["campaign.CampaignResult.to_json_dict"][2]
        )
        m["cli.main.self_s"] = per_name["cli.main"][2]
        m["cli.stdout_bytes"] = stdout_bytes
        m["fiber.threshold_curve.self_s"] = per_name["fiber.threshold_curve"][2]
        m["fiber.ThresholdCurve.to_csv.self_s"] = per_name["fiber.ThresholdCurve.to_csv"][2]
        m["fiber.delivered_power.calls"] = per_name["fiber.delivered_power"][0]
        m["fiber.max_injectable_power.calls"] = per_name["fiber.max_injectable_power"][0]
        m["risk.risk_report.self_s"] = per_name["risk.risk_report"][2]
        m["risk.prob_fraction_vulnerable_exceeds.self_s"] = (
            per_name["risk.prob_fraction_vulnerable_exceeds"][2]
        )
        m["risk.beta_binomial_pmf.calls"] = per_name["risk.beta_binomial_pmf"][0]
        m["risk.beta_binomial_pmf.self_s"] = per_name["risk.beta_binomial_pmf"][2]
        m["impact.impact_report.self_us"] = per_call_us(per_name["impact.impact_report"], 2)
        return m


def run_pass(invs: list[list[str]]) -> tuple[float, list[bytes], list]:
    """Run every argv list through cli.main; return wall time, stdouts, exit codes."""
    outs, codes = [], []
    t0 = time.perf_counter()
    for argv in invs:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a crash is one failed invocation
                code = f"{type(exc).__name__}: {exc}"
        outs.append(buf.getvalue().encode())
        codes.append(code)
    return time.perf_counter() - t0, outs, codes


def traced_run(workload: str, seed: int, seconds: float, size: str = "full") -> dict:
    src = ROOT / "src"
    if not Path(attenattack.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"attenattack imported from {attenattack.__file__}, not {src}")
    invs = invocations(workload, seed, size)
    golden = check.load_golden()
    errors: list[str] = []
    failed = 0
    walls = {False: [], True: []}
    layer_runs: list[dict[str, float]] = []
    reference: list[bytes] | None = None

    start = time.perf_counter()
    pair_s = 0.0
    # Untraced and traced passes alternate; at least two traced passes are
    # needed to check that counts repeat.
    while len(layer_runs) < 2 or time.perf_counter() - start + pair_s <= seconds:
        pair_start = time.perf_counter()
        for traced in (False, True):
            tracer = Tracer()
            with tracer.installed() if traced else contextlib.nullcontext():
                wall, outs, codes = run_pass(invs)
            walls[traced].append(wall)
            if traced:
                layer_runs.append(tracer.metrics(sum(map(len, outs))))
            if reference is None:
                reference = outs
                problems = [check.check(a, out, golden) for a, out in zip(invs, outs)]
            for argv, out, ref, problem, code in zip(invs, outs, reference, problems, codes):
                if code != 0:
                    problem = f"exit {code}"
                elif out != ref:
                    problem = f"{'traced' if traced else 'untraced'} stdout differs from first pass"
                if problem:
                    failed += 1
                    errors.append(f"{check.key(argv)}: {problem}")
        pair_s = time.perf_counter() - pair_start

    metrics = {}
    for name in layer_runs[0]:
        values = [run[name] for run in layer_runs]
        if name.endswith(COUNT_SUFFIXES):
            if len(set(values)) != 1:
                errors.append(f"count {name} does not repeat: {values}")
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    metrics["trace.overhead_frac"] = (
        statistics.median(walls[True]) / statistics.median(walls[False]) - 1.0
    )
    return {
        "metrics": metrics,
        "attempted": len(invs) * (len(walls[False]) + len(walls[True])),
        "failed": failed,
        "errors": errors,
        "passes": {"untraced_wall_s": walls[False], "traced_wall_s": walls[True]},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args()
    print(json.dumps(traced_run(args.workload, args.seed, args.seconds, args.size)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
