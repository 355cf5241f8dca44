"""hamsurf benchmark: one workload per process, closed loop, one caller.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; hamsurf is imported from its ``src/``.
Set-up (importing hamsurf, loading the charts, building V) runs
FIRST_SETUPS times, each after a garbage collection.  Then whole passes of
the workload run until ``--seconds`` have passed, each followed by set-ups
for a tenth of its time, so that the set-ups sample the same stretch of
time as the passes and each pass runs on a fresh import.  ``setup_s`` is
the median set-up time and ``verdict_s`` the median pass time, both on the
host-scaled clock of clock.py, which takes out the shared host's drift in
speed (the raw wall times are in the report line).  Each pass
checks every verdict against the workload's known answers and its work
counters against the first pass.

With ``--trace 1`` untraced and traced passes alternate: the traced ones
give the per-layer metrics (see tracer.py), and the difference of the two
medians is the tracing overhead.  Spans are written to
``.perfbench-out/`` in the checkout.  The last line of stdout is the JSON
result; the exit code is 0 only when every verdict was correct.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
sys.path.insert(0, str(HERE))

from clock import HostClock  # noqa: E402
from tracer import Tracer, layer_metrics, setup_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

FIRST_SETUPS = 5
SETUP_SHARE = 0.1   # set-up time after each pass, as a share of the pass
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
MODULES = ("charts", "cli", "corecomplex", "cover", "census", "surfaces")


class SetupError(RuntimeError):
    pass


class Package:
    """The hamsurf modules of one fresh import."""

    def __init__(self):
        for name in [n for n in sys.modules if n == "hamsurf" or n.startswith("hamsurf.")]:
            del sys.modules[name]
        if not (SRC / "hamsurf" / "__init__.py").is_file():
            raise SetupError(f"no hamsurf package under {SRC}")
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"hamsurf.{name}"))
        if SRC.resolve() not in Path(self.cli.__file__).resolve().parents:
            raise SetupError(f"hamsurf imported from {self.cli.__file__}, not {SRC}")


def setup(tracer=None):
    """Import hamsurf afresh, load the shipped charts and build V."""
    hs = Package()
    if tracer is not None:
        tracer.install()
    try:
        V = hs.charts.build_V(hs.charts.load_default_charts())
    finally:
        if tracer is not None:
            tracer.uninstall()
    return hs, V


def check_pass(expected, verdicts):
    """Claims checked in one pass, and those whose verdict is wrong."""
    claims = set(expected) | set(verdicts)
    wrong = sorted(k for k in claims
                   if k not in expected or k not in verdicts or verdicts[k] != expected[k])
    return len(claims), wrong


def measure(workload, seed, seconds, trace, tiny=False, expected=None):
    """One benchmark run; returns (result dict, report dict)."""
    wl = WORKLOADS[workload]
    inputs = wl.inputs(seed, tiny)
    if expected is None:
        expected = wl.expected(tiny)

    setups, setup_tracers = [], []

    def set_up(until=0.0):
        """Set up at least once and until ``until``; the last one is used."""
        while True:
            tracer = Tracer() if trace else None
            gc.collect()
            start = perf_counter()
            hs, V = setup(tracer)
            setups.append((start, perf_counter()))
            if tracer is not None:
                setup_tracers.append(tracer)
            if perf_counter() >= until:
                return hs, V

    passes = []
    with HostClock() as clock:
        for _ in range(FIRST_SETUPS):
            hs, V = set_up()
        deadline = perf_counter() + seconds
        while not passes or perf_counter() < deadline or (trace and len(passes) < 2):
            traced = trace and len(passes) % 2 == 1
            tracer = Tracer() if traced else None
            gc.collect()
            if tracer is not None:
                tracer.install()
            start = perf_counter()
            try:
                verdicts, counters = wl.run(hs, V, inputs)
            except Exception as exc:  # a crash is a wrong verdict for every claim
                verdicts, counters = {"error": repr(exc)}, None
            finally:
                end = perf_counter()
                if tracer is not None:
                    tracer.uninstall()
            passes.append({"traced": traced, "wall": (start, end), "tracer": tracer,
                           "verdicts": verdicts, "counters": counters})
            hs, V = set_up(perf_counter() + SETUP_SHARE * (end - start))

    # every time below is on the host-scaled clock (see clock.py)
    for tracer in setup_tracers + [p["tracer"] for p in passes if p["traced"]]:
        for span in tracer.spans:
            span[1], span[2] = clock.at(span[1]), clock.at(span[2])
    attempted = failed = 0
    first_counters = {}
    wrong_claims = []
    for p in passes:
        p["s"] = clock.scaled(*p["wall"])
        p["layers"] = layer_metrics(p["tracer"].spans, p["s"]) if p["traced"] else {}
        claims, wrong = check_pass(expected, p["verdicts"])
        counts = {"workload": p["counters"]}
        if p["traced"]:
            counts["layers"] = {k: v for k, v in p["layers"].items()
                                if UNITS[k] in ("count", "bytes")}
        repeat = [first_counters.setdefault(k, v) == v for k, v in counts.items()]
        if p is not passes[0]:
            claims += 1
            if not all(repeat):
                wrong.append("counters.repeat")
        attempted += claims
        failed += len(wrong)
        wrong_claims.extend(w for w in wrong if w not in wrong_claims)
        p["ok"] = not wrong

    def median_s(traced):
        times = [p["s"] for p in passes if p["traced"] == traced]
        good = [p["s"] for p in passes if p["traced"] == traced and p["ok"]]
        return statistics.median(good or times)

    verdict_s = median_s(False)
    if trace:
        metrics = setup_metrics(setup_tracers)
        traced = [p["layers"] for p in passes if p["traced"]]
        for name in traced[0]:
            metrics[name] = statistics.median(m[name] for m in traced)
        metrics["trace.verdict_s"] = median_s(True)
        metrics["trace.overhead_s"] = metrics["trace.verdict_s"] - verdict_s
        metrics["trace.overhead_frac"] = metrics["trace.overhead_s"] / verdict_s
        metrics["wrong_verdicts_frac"] = failed / attempted
    else:
        metrics = {
            "verdict_s": verdict_s,
            "setup_s": statistics.median(clock.scaled(*w) for w in setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()}}
    report = {
        "workload": workload, "seed": seed, "inputs": inputs,
        "passes": len(passes), "pass_s": [round(p["s"], 4) for p in passes],
        "pass_wall_s": [round(p["wall"][1] - p["wall"][0], 4) for p in passes],
        "host_slowdown": round(clock.slowdown(), 3), "probes": len(clock.starts),
        "setups": len(setups),
        "wrong_verdicts_frac": failed / attempted, "wrong_claims": wrong_claims,
        "counters": first_counters["workload"],
        "spans": [{"pass": i, "spans": p["tracer"].records()}
                  for i, p in enumerate(passes) if p["traced"]],
    }
    return result, report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.partition("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, report = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    spans = report.pop("spans")
    if spans:
        OUT.mkdir(exist_ok=True)
        path = OUT / f"{args.workload}-seed{args.seed}-spans.json"
        path.write_text(json.dumps(spans) + "\n")
        report["spans_file"] = str(path.relative_to(ROOT))
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
