"""End-to-end and per-layer benchmark of the simulator over four workloads.

    python3 bench/run.py [--seed S]     all workloads, untraced then traced
    python3 bench/run.py --workload NAME --seed S --seconds T --trace 0|1
    python3 bench/run.py --out a.json   also write every value to a.json
    python3 bench/run.py --compare a.json b.json
    python3 bench/run.py --bless        rewrite bench/reference.json

Load shape: a closed loop from this one process.  Each repeat of a
workload runs in a fresh child process and the next starts only when it
has exited, so one core is busy and ``peak_rss_mb`` is per repeat.
Repeats of several workloads go round-robin.  A workload repeats until
``--seconds`` of its repeats have elapsed (at least three untraced
repeats); every metric is the median over its repeats.  End-to-end
times are divided by the host's slowdown that ``hostspeed`` samples
during each repeat.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports the
per-layer metrics of traced repeats, after one untraced repeat that
gives the tracing overhead.  Without ``--trace`` both passes run.  The
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the exit code is 1 when a run failed: it
raised, broke an invariant, did not repeat its digest and counters
exactly, or (seed 1) differed from ``bench/reference.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
import typing

import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(BENCH, "reference.json")
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")

#: Seed whose digests and counters are pinned in ``reference.json``.
REFERENCE_SEED = 1
DEFAULT_SECONDS = 25
MIN_UNTRACED_REPEATS = 3
#: Raw spans kept per workload for ``--trace-out``.
KEEP_SPANS = 50_000
#: A repeat that takes longer has hung; the run must end within 180 s.
REPEAT_TIMEOUT_S = 120
#: Traced over untraced median wall time, added to the per-layer metrics.
OVERHEAD_METRIC = "trace.overhead_ratio"
OVERHEAD_UNIT = "ratio"

Result = typing.Dict[str, typing.Any]


def spawn(name: str, seed: int, traced: bool, keep: int = 0) -> Result:
    """Run one repeat in a fresh interpreter and parse its JSON line."""
    command = [
        sys.executable,
        os.path.join(BENCH, "repeat.py"),
        name,
        str(seed),
        "1" if traced else "0",
        str(keep),
    ]
    # A fixed hash seed removes one source of run-to-run variation in
    # dict and set layout; no simulation result depends on it.
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    started = time.perf_counter()
    try:
        done = subprocess.run(
            command,
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=REPEAT_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        result: Result = {"error": f"timed out after {REPEAT_TIMEOUT_S} s"}
    else:
        lines = done.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            result = {"error": done.stderr.strip() or "no output"}
        if done.returncode != 0 and "error" not in result:
            result = {"error": f"exit code {done.returncode}"}
    result["elapsed_s"] = time.perf_counter() - started
    return result


def measure(
    names: typing.Sequence[str],
    seed: int,
    traced: bool,
    seconds: float,
    min_repeats: int,
    keep: int = 0,
) -> typing.Dict[str, typing.List[Result]]:
    """Round-robin repeats until each workload has spent *seconds*.

    A workload stops once it has *min_repeats* repeats and one more of
    typical length would overrun its budget, or after a failed repeat.
    Only the first repeat of each workload keeps raw spans.
    """
    results: typing.Dict[str, typing.List[Result]] = {n: [] for n in names}
    spent = dict.fromkeys(names, 0.0)
    active = list(names)
    while active:
        for name in list(active):
            done = results[name]
            result = spawn(name, seed, traced, 0 if done else keep)
            done.append(result)
            spent[name] += result["elapsed_s"]
            typical = statistics.median(r["elapsed_s"] for r in done)
            if "error" in result or (
                len(done) >= min_repeats and spent[name] + typical > seconds
            ):
                active.remove(name)
    return results


def _signature(run: Result) -> Result:
    return {"digest": run["digest"], "counters": run["counters"]}


def check(
    repeats: typing.Sequence[Result],
    expected: typing.Optional[typing.List[Result]],
) -> typing.Tuple[int, int, typing.List[str]]:
    """(attempted, failed, problems) over every run of *repeats*.

    Without a pinned *expected* list, the first complete repeat is the
    expectation, so any repeat that disagrees with it fails.
    """
    attempted = failed = 0
    problems: typing.List[str] = []
    if expected is None:
        complete = [r for r in repeats if "error" not in r]
        if complete:
            expected = [_signature(run) for run in complete[0]["runs"]]
    for repeat in repeats:
        count = repeat.get("attempted", 1)
        attempted += count
        if "error" in repeat:
            failed += count
            problems.append(repeat["error"].strip().splitlines()[-1])
            continue
        runs = repeat["runs"]
        failed += count - len(runs)
        for index, run in enumerate(runs):
            wrong = list(run["problems"])
            if expected is not None and (
                index >= len(expected) or _signature(run) != expected[index]
            ):
                wrong.append(f"run {index}: digest or counters differ")
            if wrong:
                failed += 1
                problems.extend(wrong)
    return attempted, failed, problems


def summarize(values: typing.Sequence[float]) -> Result:
    ordered = sorted(values)
    if len(ordered) > 1:
        q1, median, q3 = statistics.quantiles(ordered, n=4)
    else:
        q1 = median = q3 = ordered[0]
    return {
        "median": statistics.median(ordered),
        "q1": q1,
        "q3": q3,
        "n": len(ordered),
        "values": list(values),
    }


def metric_table(
    repeats: typing.Sequence[Result], key: str
) -> typing.Dict[str, Result]:
    """Median, quartiles and n of every metric under *key* of *repeats*."""
    complete = [r for r in repeats if "error" not in r]
    table: typing.Dict[str, Result] = {}
    for name in complete[0][key] if complete else ():
        summary = summarize([r[key][name][0] for r in complete])
        summary["unit"] = complete[0][key][name][1]
        table[name] = summary
    return table


def _wall(repeats: typing.Sequence[Result]) -> float:
    return statistics.median(r["wall_s"] for r in repeats if "error" not in r)


def load_reference() -> typing.Dict[str, typing.List[Result]]:
    with open(REFERENCE, encoding="utf-8") as handle:
        return json.load(handle)


def benchmark(args: argparse.Namespace) -> int:
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    reference = load_reference() if args.seed == REFERENCE_SEED else {}
    keep = KEEP_SPANS if args.trace_out else 0
    started = time.perf_counter()

    untraced = measure(
        names,
        args.seed,
        traced=False,
        seconds=args.seconds if args.trace != 1 else 0.0,
        min_repeats=MIN_UNTRACED_REPEATS if args.trace != 1 else 1,
    )
    traced: typing.Dict[str, typing.List[Result]] = {}
    if args.trace != 0:
        remaining = args.seconds - (time.perf_counter() - started) / len(names)
        traced = measure(
            names,
            args.seed,
            traced=True,
            seconds=remaining if args.trace == 1 else 0.0,
            min_repeats=1,
            keep=keep,
        )

    attempted = failed = 0
    document: Result = {
        "seed": args.seed,
        "seconds": args.seconds,
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "workloads": {},
    }
    for name in names:
        repeats = untraced[name] + traced.get(name, [])
        tried, wrong, problems = check(repeats, reference.get(name))
        attempted += tried
        failed += wrong
        for problem in sorted(set(problems)):
            print(f"{name}: FAILED {problem}", file=sys.stderr)
        complete = [r for r in repeats if "error" not in r]
        metrics: typing.Dict[str, Result] = {}
        if args.trace != 1:
            metrics.update(metric_table(untraced[name], "end_to_end"))
        if args.trace != 0 and len(complete) == len(repeats):
            metrics.update(metric_table(traced[name], "per_layer"))
            metrics[OVERHEAD_METRIC] = dict(
                summarize([_wall(traced[name]) / _wall(untraced[name])]),
                unit=OVERHEAD_UNIT,
            )
        document["workloads"][name] = {
            "metrics": metrics,
            "slowdown": [
                r["slowdown"] for r in untraced[name] if "error" not in r
            ],
            "runs": [_signature(r) for r in complete[0]["runs"]]
            if complete
            else [],
        }
        for metric, row in metrics.items():
            print(
                f"{name:22} {metric:42} {row['median']:14.6g} {row['unit']:6}"
                f" [{row['q1']:.6g} .. {row['q3']:.6g}] n={row['n']}"
            )
        if traced.get(name) and args.trace_out:
            first = traced[name][0].get("spans", [])
            _write_spans(args.trace_out, name, first)

    document.update(correct=failed == 0, attempted=attempted, failed=failed)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1)

    def values(name: str) -> Result:
        metrics = document["workloads"][name]["metrics"]
        return {
            metric: {"value": row["median"], "unit": row["unit"]}
            for metric, row in metrics.items()
        }

    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": (
                    values(args.workload)
                    if args.workload
                    else {name: values(name) for name in names}
                ),
            }
        )
    )
    return 0 if failed == 0 else 1


def _write_spans(path: str, name: str, spans: typing.Sequence[list]) -> None:
    with open(path, "a", encoding="utf-8") as handle:
        for span_id, span, start, end, parent, run_id in spans:
            handle.write(
                json.dumps(
                    {
                        "workload": name,
                        "id": span_id,
                        "name": span,
                        "start": start,
                        "end": end,
                        "parent": parent,
                        "run": run_id,
                    }
                )
                + "\n"
            )


def bless() -> int:
    """Rewrite ``reference.json`` from one untraced repeat at seed 1."""
    reference = {}
    for name in workloads.WORKLOADS:
        result = spawn(name, REFERENCE_SEED, traced=False)
        runs = result.get("runs", [])
        problems = [p for run in runs for p in run["problems"]]
        if "error" in result or problems:
            reason = result.get("error") or problems
            print(f"{name}: {reason}", file=sys.stderr)
            return 1
        reference[name] = [_signature(run) for run in result["runs"]]
        print(f"{name}: {len(reference[name])} run(s) pinned")
    with open(REFERENCE, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


def compare(path_a: str, path_b: str) -> int:
    """One row per (workload, metric): medians, IQRs and a verdict.

    A metric is ``unresolved`` when a side has fewer than three values
    that differ from the other side's, or when either side's spread (IQR
    over median) exceeds its bound, unless every B value beats every A
    value or the reverse.  Otherwise it is ``worse`` when B's median is
    worse than A's by more than the bound, ``better`` when it is better
    by more than A's IQR, and ``same`` in between.  Per-layer metrics
    have no bound, so for them the IQR of each side stands in for it.
    """
    with open(BENCHMARK, encoding="utf-8") as handle:
        spec = json.load(handle)
    specs = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    docs = []
    for path in (path_a, path_b):
        with open(path, encoding="utf-8") as handle:
            docs.append(json.load(handle)["workloads"])
    a_doc, b_doc = docs
    print(
        f"{'workload':22} {'metric':42} {'A median':>12} {'A IQR':>10} "
        f"{'B median':>12} {'B IQR':>10} {'change':>8}  verdict"
    )
    for name in a_doc:
        for metric, a in a_doc[name]["metrics"].items():
            b = b_doc.get(name, {}).get("metrics", {}).get(metric)
            if b is None or metric not in specs:
                continue
            print(
                f"{name:22} {metric:42} {a['median']:12.6g} "
                f"{a['q3'] - a['q1']:10.3g} {b['median']:12.6g} "
                f"{b['q3'] - b['q1']:10.3g} "
                f"{_change(a, b):+8.1%}  {verdict(a, b, specs[metric])}"
            )
    return 0


def _change(a: Result, b: Result) -> float:
    return (b["median"] - a["median"]) / a["median"] if a["median"] else 0.0


def _spread(side: Result) -> float:
    iqr = side["q3"] - side["q1"]
    return iqr / side["median"] if side["median"] else 0.0


def verdict(a: Result, b: Result, spec: Result) -> str:
    if a["values"] == b["values"]:
        return "same"
    if min(a["n"], b["n"]) < 3:
        return "unresolved"
    sign = 1.0 if spec["better"] == "higher" else -1.0
    gain = sign * _change(a, b)
    bound = spec.get("bound")
    if bound is None:
        bound = max(_spread(a), _spread(b))
    b_always_better = all(
        sign * (y - x) > 0 for x in a["values"] for y in b["values"]
    )
    b_always_worse = all(
        sign * (y - x) < 0 for x in a["values"] for y in b["values"]
    )
    if max(_spread(a), _spread(b)) > bound and not (
        b_always_better or b_always_worse
    ):
        return "unresolved"
    if gain < -bound:
        return "worse"
    if gain > 0 and abs(b["median"] - a["median"]) > a["q3"] - a["q1"]:
        return "better"
    return "same"


def main(argv: typing.Optional[typing.Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--out", help="write every value and median here")
    parser.add_argument("--trace-out", help="append raw spans here as JSONL")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--bless", action="store_true")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no simulator sources under {SRC}", file=sys.stderr)
        return 2
    if args.bless:
        return bless()
    return benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
