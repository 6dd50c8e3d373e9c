"""End-to-end benchmark of infodep.

Usage (from the repository root)::

    python3 perfbench/run.py --workload measures|ribbon|cli --seed N \
        --seconds S --trace 0|1

One process, one caller, closed loop: the timed phase runs whole rounds of
the workload's operations back to back until ``--seconds`` have passed,
then every output is checked (see checks.py).  With ``--trace 0`` the last
line of stdout is a JSON object with the end-to-end metrics; with
``--trace 1`` the same phase runs with spans around infodep's public
functions and the object holds the per-layer metrics.  Result and trace
files go to ``perfbench/out/``.
"""

import os

# numpy's BLAS gets one thread: the machine has two cores and the benchmark
# is one caller.  Set before numpy is imported, here and in every child.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
WORKLOADS = ("measures", "ribbon", "cli")
#: fresh processes whose set-up time enters the setup_s median
SETUP_SAMPLES = 5
#: ``-X importtime`` runs whose median gives the import.* metrics
IMPORTTIME_SAMPLES = 3
#: per-layer metrics of the traced run, with their units: spans and counters
#: are divided by the operations of the traced phase
LAYER_METRICS = (
    ("distributions.load_joint_json.s", "s/op"),
    ("spectral.maximal_correlation.calls", "count/op"),
    ("spectral.maximal_correlation.s", "s/op"),
    ("sstar.sstar.calls", "count/op"),
    ("sstar.sstar.s", "s/op"),
    ("sstar.sstar.candidates", "count/op"),
    ("sstar.sstar.ascent_sweeps", "count/op"),
    ("sstar.sstar.sweep_cap_hits", "count/op"),
    ("tcurve.lambda_dagger.calls", "count/op"),
    ("tcurve.lambda_dagger.s", "s/op"),
    ("tcurve.lower_envelope_1d.calls", "count/op"),
    ("tcurve.lower_envelope_1d.s", "s/op"),
    ("tcurve.hull_points", "count/op"),
    ("ribbon.q_star.calls", "count/op"),
    ("ribbon.q_star.s", "s/op"),
    ("ribbon.in_ribbon.calls", "count/op"),
    ("ribbon.contraction_gap.calls", "count/op"),
    ("ribbon.contraction_gap.s", "s/op"),
)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="time the set-up in this fresh process, print it, exit")
    return ap.parse_args(argv)


def setup(workload: str, seed: int, workdir: Path, traced_cli=None):
    """Import infodep and build the workload's inputs; (workload, seconds)."""
    t0 = time.perf_counter()
    import infodep

    if Path(infodep.__file__).resolve().parent != SRC / "infodep":
        raise SystemExit(f"perfbench: imported infodep from {infodep.__file__}, not from {SRC}")
    import workloads

    wl = workloads.build(workload, seed, workdir, SRC, traced_cli)
    return wl, time.perf_counter() - t0


def timed_phase(wl, seconds: float) -> dict:
    """Whole rounds, one op at a time, until ``seconds`` have passed."""
    from infodep import InfodepError

    times, rounds = [], []
    children0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu0 = time.process_time()
    start = time.perf_counter()
    while True:
        ops = wl.rounds[len(rounds) % len(wl.rounds)]
        outs = []
        for op in ops:
            t = time.perf_counter()
            try:
                out = op.call()
            except InfodepError as exc:
                out = exc
            times.append(time.perf_counter() - t)
            outs.append(out)
        rounds.append((ops, outs))
        if time.perf_counter() - start >= seconds:
            break
    wall = time.perf_counter() - start
    if wl.in_process:
        cpu = time.process_time() - cpu0
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        children = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = (children.ru_utime + children.ru_stime) - (children0.ru_utime + children0.ru_stime)
        # the largest child so far; only the cli calls have been waited for
        rss_kb = children.ru_maxrss
    return {"times": times, "rounds": rounds, "wall": wall, "cpu": cpu, "rss_kb": rss_kb}


def evaluate(workload: str, wl, rounds) -> tuple[int, int, list[str]]:
    """(failed, wrong, messages) over every round of the timed phase."""
    import checks

    failed = wrong = 0
    messages = []
    ref = checks.CliReference(wl.json_path, wl.json_table) if workload == "cli" else None
    for ops, outs in rounds:
        if workload == "measures":
            fails = checks.check_measures_round(ops, outs)
        elif workload == "ribbon":
            fails = checks.check_ribbon_round(ops, outs)
        else:
            fails = checks.check_cli_round(ops, outs, ref)
        f, w, m = checks.tally(ops, outs, fails)
        failed, wrong = failed + f, wrong + w
        messages += m
    return failed, wrong, messages


def setup_sample(workload: str, seed: int) -> float:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=120)
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def import_times() -> dict:
    import tracing
    import workloads

    cmd = [sys.executable, "-X", "importtime", "-c", "import infodep"]
    samples = []
    for _ in range(IMPORTTIME_SAMPLES):
        proc = subprocess.run(cmd, capture_output=True, text=True, env=workloads.cli_env(SRC),
                              check=True, timeout=120)
        samples.append(tracing.parse_importtime(proc.stderr))
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}


def cli_metric_name(argv: list[str]) -> str:
    return f"cli.{argv[0]}.in_process_s"


def cli_in_process(json_path: str) -> tuple[dict, list[str]]:
    """``infodep.cli.main(argv)`` timed in this process, once per subcommand."""
    import infodep.cli
    import workloads

    times, problems = {}, []
    for argv in workloads.cli_argvs(json_path):
        name = cli_metric_name(argv)
        if name in times:
            continue
        sink = io.StringIO()
        t = time.perf_counter()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = infodep.cli.main(argv)
        times[name] = time.perf_counter() - t
        if code != 0:
            problems.append(f"in-process infodep {' '.join(argv)} exited {code}")
    return times, problems


def layer_metrics(spans_groups, counters: dict, n_ops: int) -> dict:
    import tracing

    totals: dict = {}
    for spans in spans_groups:
        for label, t in tracing.layer_totals(spans).items():
            agg = totals.setdefault(label, {"calls": 0, "self_s": 0.0})
            agg["calls"] += t["calls"]
            agg["self_s"] += t["self_s"]
    out = {}
    for name, unit in LAYER_METRICS:
        label, _, what = name.rpartition(".")
        if what == "calls":
            value = totals.get(label, {}).get("calls", 0)
        elif what == "s":
            value = totals.get(label, {}).get("self_s", 0.0)
        else:
            value = counters.get(name, 0)
        out[name] = {"value": value / n_ops, "unit": unit}
    return out


def run(args, workdir: Path) -> tuple[dict, dict]:
    """One run: the printed result and the details kept in its result file."""
    traced_cli = None
    spans_dir = workdir / "spans"
    if args.trace and args.workload == "cli":
        spans_dir.mkdir()
        traced_cli = [sys.executable, str(HERE / "traced_cli.py"), str(spans_dir)]
    wl, setup_s = setup(args.workload, args.seed, workdir, traced_cli)

    tracer = None
    if args.trace and wl.in_process:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    try:
        phase = timed_phase(wl, args.seconds)
    finally:
        if tracer is not None:
            tracer.uninstall()

    import selftest

    n_ops = len(phase["times"])
    failed, wrong, messages = evaluate(args.workload, wl, phase["rounds"])
    problems = [f"self-test: {p}" for p in selftest.run()]

    if args.trace:
        if tracer is not None:
            spans_groups, counters = [tracer.spans], dict(tracer.counters)
        else:
            spans_groups, counters = [], {}
            for path in sorted(spans_dir.glob("*.json")):
                doc = json.loads(path.read_text())
                spans_groups.append(doc["spans"])
                for k, v in doc["counters"].items():
                    counters[k] = counters.get(k, 0) + v
        metrics = {k: {"value": v, "unit": "s"} for k, v in import_times().items()}
        if args.workload == "cli":
            in_process, cli_problems = cli_in_process(wl.json_path)
            problems += cli_problems
        else:
            # timed on cli only, the one workload whose op_p50_s they explain
            import workloads

            in_process = {cli_metric_name(a): 0.0 for a in workloads.cli_argvs("joint.json")}
        metrics.update({k: {"value": v, "unit": "s"} for k, v in in_process.items()})
        metrics.update(layer_metrics(spans_groups, counters, n_ops))
        metrics["traced.ops_per_s"] = {"value": n_ops / phase["wall"], "unit": "1/s"}
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps(
            {"fields": ["label", "start", "end", "parent"], "groups": spans_groups,
             "counters": counters}))
    else:
        samples = [setup_s] + [setup_sample(args.workload, args.seed)
                               for _ in range(SETUP_SAMPLES - 1)]
        metrics = {
            "setup_s": {"value": statistics.median(samples), "unit": "s"},
            "ops_per_s": {"value": n_ops / phase["wall"], "unit": "1/s"},
            "op_p50_s": {"value": statistics.median(phase["times"]), "unit": "s"},
            "cpu_s_per_op": {"value": phase["cpu"] / n_ops, "unit": "s"},
            "peak_rss_mb": {"value": phase["rss_kb"] * 1024 / 1e6, "unit": "MB"},
        }

    for line in messages + problems:
        print(f"perfbench: {line}", file=sys.stderr)
    result = {
        "correct": wrong == 0 and not problems,
        "attempted": n_ops,
        "failed": failed,
        "metrics": metrics,
    }
    ops = [op.label for ops, _ in phase["rounds"] for op in ops]
    details = {"op_seconds": list(zip(ops, phase["times"])), "messages": messages + problems}
    return result, details


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "infodep" / "__init__.py").is_file():
        print(f"perfbench: no infodep sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        if args.setup_only:
            _, secs = setup(args.workload, args.seed, workdir)
            print(json.dumps({"setup_s": secs}))
            return 0
        result, details = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps({**result, **details}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
