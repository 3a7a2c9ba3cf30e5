"""zerosums benchmark: four workloads, checked answers, end-to-end metrics,
and a traced run that times each layer from outside the program.

    python3 perfbench/run.py --workload sweep-cold --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it needs src/zerosums there and exits
with code 2 without it. Load comes from one client that issues one query at
a time (a closed loop) at the default workers=1. Every output is checked
outside the timed region. The last line of stdout is a JSON object with
"correct", "attempted", "failed" and "metrics"; --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones. See README.md for the
workloads and what each metric should respond to.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import spec
import tracer as tracing

WORKLOADS = ("sweep-cold", "sweep-warm", "atom-scan", "predicates")
# Set-up repetitions per run; a sweep-warm set-up is a whole cold sweep.
SETUP_REPS = 7
# Batches of more distinct queries than this rank per-query means (see
# query_latencies); the tail rule needs more than 20 samples.
DISTINCT_MIN = 20
# A run stops issuing queries and kills a stuck one past this many seconds.
RUN_BUDGET_S = 170.0
END_TO_END_UNITS = {
    "wall_s": "s",
    "query_p50_ms": "ms",
    "query_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
LAYER_UNITS = {
    "search.self_ms": "ms",
    "search.calls": "count",
    "search.nodes": "count",
    "search.nodes_per_s": "1/s",
    "search.prune_crossing": "count",
    "search.prune_product": "count",
    "search.prune_bound": "count",
    "search.accept_ratio": "ratio",
    "atoms.enumerate_ms": "ms",
    "atoms.atoms_enumerated": "count",
    "atoms.atoms_per_s": "1/s",
    "atoms.zsf_scan_ms": "ms",
    "invariants.self_ms": "ms",
    "invariants.calls": "count",
    "factorization.zero_sum_free_ms": "ms",
    "factorization.minimal_ms": "ms",
    "factorization.ufim_ms": "ms",
    "factorization.subsets_ms": "ms",
    "factorization.calls": "count",
    "factorization.false_ratio": "ratio",
    "constructions.decompose_ms": "ms",
    "constructions.floor_ms": "ms",
    "logbounds.ms": "ms",
    "logbounds.calls": "count",
    "cache.read_ms": "ms",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.bytes_read": "bytes",
    "cache.write_ms": "ms",
    "cache.bytes_written": "bytes",
    "groups.table_ms": "ms",
    "groups.table_builds": "count",
    "cli.import_ms": "ms",
    "cli.self_ms": "ms",
    "trace.overhead": "ratio",
}
HERE = Path(__file__).resolve().parent
TRACED_CLI = str(HERE / "traced_cli.py")
INPROC = str(HERE / "inproc.py")


@dataclass
class Context:
    workload: str
    seed: int
    seconds: float
    trace: bool
    smoke: bool
    tamper: bool
    root: Path
    work: Path
    env: dict
    started: float = field(default_factory=time.perf_counter)
    _dirs: int = 0

    def fresh_dir(self) -> Path:
        self._dirs += 1
        path = self.work / f"d{self._dirs}"
        path.mkdir(parents=True)
        return path

    def time_left(self) -> float:
        return RUN_BUDGET_S - (time.perf_counter() - self.started)


@dataclass
class Outcome:
    # Batch: wall, latencies (seconds per distinct query, by query index),
    # traced, and for traced batches the layer summary.
    batches: list = field(default_factory=list)
    setup: list = field(default_factory=list)  # seconds per set-up repetition
    rss_kb: list = field(default_factory=list)  # per untraced measured process
    attempted: int = 0
    failed: int = 0

    def count(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok


# -- processes ----------------------------------------------------------------


def spawn(ctx: Context, argv: list[str], stdout: Path) -> tuple[float, int, int]:
    """Run python with argv to completion: (seconds, peak RSS in KiB, exit code).

    A child still running when the run's time budget is spent is killed.
    """
    out_fd = os.open(stdout, os.O_WRONLY | os.O_CREAT | os.O_TRUNC)
    err_fd = os.open(stdout.with_suffix(".err"), os.O_WRONLY | os.O_CREAT | os.O_TRUNC)
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_DUP2, out_fd, 1),
        (os.POSIX_SPAWN_DUP2, err_fd, 2),
    ]
    try:
        t0 = time.perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable, *argv], ctx.env,
                             file_actions=actions)
        signal.signal(signal.SIGALRM, lambda *_: _kill(pid))
        signal.setitimer(signal.ITIMER_REAL, max(ctx.time_left(), 1.0))
        try:
            _, status, usage = os.wait4(pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        seconds = time.perf_counter() - t0
    finally:
        os.close(out_fd)
        os.close(err_fd)
    return seconds, usage.ru_maxrss, os.waitstatus_to_exitcode(status)


def _kill(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_batches(ctx: Context, out: Outcome, one_batch) -> None:
    """Whole batches until the next one would overrun --seconds.

    A traced run alternates untraced and traced batches, at least one each.
    """
    start = time.perf_counter()
    need = 2 if ctx.trace else 1
    while True:
        batch = one_batch(ctx.trace and len(out.batches) % 2 == 1)
        out.batches.append(batch)
        elapsed = time.perf_counter() - start
        if len(out.batches) >= need and elapsed + batch["wall"] > ctx.seconds:
            return
        if ctx.time_left() < 2 * batch["wall"]:
            return


# -- checks -------------------------------------------------------------------


class WitnessCheck:
    """InvariantResult.verify() on records, once per distinct record text."""

    def __init__(self) -> None:
        self._seen: dict[str, bool] = {}

    def __call__(self, text: str) -> bool:
        if text not in self._seen:
            import zerosums as zs
            from zerosums.invariants import from_record

            try:
                record = json.loads(text)
                group = zs.normalize_group(spec.moduli(record["group_key"]))
                self._seen[text] = from_record(group, record).verify()
            except (ValueError, KeyError, TypeError, zs.ZerosumsError):
                self._seen[text] = False
        return self._seen[text]


def sweep_expectations(ctx: Context) -> tuple[str, dict]:
    """Expected catalog stdout and cache records of a cold sweep."""
    rows = json.loads((spec.EXPECTED / "catalog.json").read_text(encoding="utf-8"))
    records = spec.load("records.json")
    if ctx.smoke:
        rows = [r for r in rows if spec.order(r["group"]) <= spec.SMOKE_MAX_ORDER]
        records = {k: v for k, v in records.items()
                   if spec.order(k.split("/")[0]) <= spec.SMOKE_MAX_ORDER}
    if ctx.tamper:
        rows[0]["D"] = "999"
        first = next(iter(sorted(records)))
        records[first] = dict(records[first], value="999/1")
    return json.dumps(rows, sort_keys=True, indent=2) + "\n", records


def check_cold_sweep(result, stdout: Path, cache_dir: Path, expected, verify) -> bool:
    """Exit 0, stdout byte-identical, cache records byte-identical and verified."""
    _, _, code = result
    text, records = expected
    if code != 0 or stdout.read_text(encoding="utf-8") != text:
        return False
    want = {spec.record_file(*key.split("/")): spec.dump_record(rec)
            for key, rec in records.items()}
    have = sorted(p.relative_to(cache_dir).as_posix()
                  for p in cache_dir.glob("results-v1/*.json"))
    if have != sorted(want):
        return False
    for name, body in want.items():
        got = (cache_dir / name).read_text(encoding="utf-8")
        if got != body or not verify(got):
            return False
    return True


def catalog_argv(ctx: Context, cache_dir: Path) -> list[str]:
    max_order = spec.SMOKE_MAX_ORDER if ctx.smoke else spec.SWEEP_MAX_ORDER
    return ["catalog", "--max-order", str(max_order), "--format", "json",
            "--cache-dir", str(cache_dir)]


def cli_argv(traced: bool, trace_file: Path, args: list[str]) -> list[str]:
    return [TRACED_CLI, str(trace_file), *args] if traced else ["-m", "zerosums", *args]


def read_trace(path: Path) -> dict:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return {"spans": {}, "counters": {}}


# -- workloads ----------------------------------------------------------------


def sweep_cold(ctx: Context, out: Outcome) -> None:
    """`zerosums catalog` in a fresh process with a new, empty cache dir."""
    expected = sweep_expectations(ctx)
    verify = WitnessCheck()
    probe = ctx.work / "probe.out"
    for _ in range(0 if ctx.trace else SETUP_REPS):
        t0 = time.perf_counter()
        ctx.fresh_dir()
        _, _, code = spawn(ctx, ["-c", "import zerosums.cli"], probe)
        out.setup.append(time.perf_counter() - t0)
        if code != 0:
            out.count(False)

    def batch(traced: bool) -> dict:
        cache_dir = ctx.fresh_dir()
        stdout, trace_file = ctx.work / "cold.out", ctx.work / "cold.trace"
        result = spawn(ctx, cli_argv(traced, trace_file, catalog_argv(ctx, cache_dir)), stdout)
        out.count(check_cold_sweep(result, stdout, cache_dir, expected, verify))
        shutil.rmtree(cache_dir)
        b = {"wall": result[0], "latencies": [result[0]], "traced": traced}
        if traced:
            b["layers"] = read_trace(trace_file)
        else:
            out.rss_kb.append(result[1])
        return b

    run_batches(ctx, out, batch)


def sweep_warm(ctx: Context, out: Outcome) -> None:
    """`zerosums invariant` per group and invariant, served from a filled cache."""
    expected = sweep_expectations(ctx)
    verify = WitnessCheck()
    stdout = ctx.work / "warm.out"
    cache_dir = None
    for _ in range(1 if ctx.trace else SETUP_REPS):
        if cache_dir is not None:
            shutil.rmtree(cache_dir)
        t0 = time.perf_counter()
        cache_dir = ctx.fresh_dir()
        result = spawn(ctx, ["-m", "zerosums", *catalog_argv(ctx, cache_dir)], stdout)
        out.setup.append(time.perf_counter() - t0)
        out.count(check_cold_sweep(result, stdout, cache_dir, expected, verify))
    _, records = expected
    # One invariant per group, the invariants dealt out evenly by the seed;
    # every batch repeats the same queries in a new order.
    rng = random.Random(ctx.seed)
    group_keys = sorted({key.split("/")[0] for key in records}, key=spec.order)
    deck = list(spec.WARM_INVARIANTS) * (len(group_keys) // len(spec.WARM_INVARIANTS) + 1)
    rng.shuffle(deck)
    keys = [f"{g}/{inv}" for g, inv in zip(group_keys, deck)]
    wanted = [spec.dump_record(dict(records[key], provenance="cached")) for key in keys]

    def batch(traced: bool) -> dict:
        order = list(range(len(keys)))
        rng.shuffle(order)
        latencies, rss, traces = [0.0] * len(keys), [], []
        trace_file = ctx.work / "warm.trace"
        for i in order:
            group_key, inv = keys[i].split("/")
            args = ["invariant", "-g", group_key.replace("x", ","), "-i", inv,
                    "--format", "json", "--cache-dir", str(cache_dir)]
            seconds, rss_kb, code = spawn(ctx, cli_argv(traced, trace_file, args), stdout)
            text = stdout.read_text(encoding="utf-8")
            out.count(code == 0 and text == wanted[i] and verify(text))
            latencies[i] = seconds
            rss.append(rss_kb)
            if traced:
                traces.append(read_trace(trace_file))
        b = {"wall": sum(latencies), "latencies": latencies, "traced": traced}
        if traced:
            b["layers"] = tracing.merge(traces)
        else:
            out.rss_kb.extend(rss)
        return b

    run_batches(ctx, out, batch)


def in_process(ctx: Context, out: Outcome) -> None:
    """atom-scan and predicates: library calls in one worker process."""
    base = [INPROC, "--workload", ctx.workload, "--seed", str(ctx.seed)]
    if ctx.smoke:
        base.append("--smoke")
    result_file = ctx.work / "worker.json"
    log = ctx.work / "worker.out"
    for _ in range(0 if ctx.trace else SETUP_REPS):
        seconds, _, code = spawn(ctx, [*base, "--seconds", "0", "--setup-only",
                                       "--out", str(result_file)], log)
        out.setup.append(seconds)
        if code != 0:
            out.count(False)
    _, rss_kb, code = spawn(ctx, [*base, "--seconds", str(ctx.seconds), "--trace",
                                  str(int(ctx.trace)), "--out", str(result_file)], log)
    if code != 0:
        out.count(False)
        sys.stderr.write(log.with_suffix(".err").read_text(encoding="utf-8")[-2000:])
        return
    worker = json.loads(result_file.read_text(encoding="utf-8"))
    out.rss_kb.append(worker["rss_kb"])
    check = check_atom_scan(ctx) if ctx.workload == "atom-scan" else check_predicates(ctx)
    for batch in worker["batches"]:
        for index, output in enumerate(batch.pop("outputs")):
            out.count(check(index, output))
        out.batches.append(batch)


def check_atom_scan(ctx: Context):
    records = spec.load("records.json" if ctx.smoke else "atomscan.json")
    want = [records[f"{key}/{inv}"] for key, inv in spec.atom_scan_queries(ctx.smoke)]
    if ctx.tamper:
        want[0] = dict(want[0], value="999/1")
    verify = WitnessCheck()

    def check(index: int, output: dict) -> bool:
        return output == want[index] and verify(spec.dump_record(output))

    return check


def check_predicates(ctx: Context):
    import predicates

    queries = predicates.generate(ctx.seed, ctx.smoke)
    if ctx.tamper:
        queries[0].expected = not queries[0].expected
    pinned = spec.load("predicates.json")
    cross_ok = [not q.cross or predicates.cross_check(q) for q in queries]

    def check(index: int, output) -> bool:
        return cross_ok[index] and predicates.check(queries[index], output, pinned)

    return check


# -- metrics ------------------------------------------------------------------


def tail(latencies: list[float]) -> tuple[float, str]:
    """p90 with at least 100 samples, else the highest percentile that still
    has ten samples beyond it; the maximum when that would be the median."""
    s = sorted(latencies)
    n = len(s)
    if n >= 100:
        return s[math.ceil(0.9 * n) - 1], f"p90 of {n}"
    if n > 20:
        return s[n - 11], f"p{100 * (n - 10) // n} of {n}"
    return s[-1], f"max of {n}"


def query_latencies(plain: list[dict]) -> tuple[list[float], str]:
    """The latency samples that query_p50_ms and query_tail_ms are taken over.

    Every batch repeats the same queries. With more than DISTINCT_MIN of them
    a sample is one query's mean latency over the run's batches, so the
    percentiles rank inputs, and a fast or slow phase of the shared CPU moves
    every sample a little instead of a few samples across a percentile. With
    fewer, the repetitions themselves are the samples.
    """
    columns = list(zip(*(b["latencies"] for b in plain)))
    if len(columns) > DISTINCT_MIN:
        return [statistics.fmean(c) for c in columns], "distinct queries, mean of each"
    return [x for c in columns for x in c], "queries"


def end_to_end(out: Outcome) -> tuple[dict, dict]:
    plain = [b for b in out.batches if not b["traced"]]
    latencies, kind = query_latencies(plain)
    tail_value, tail_label = tail(latencies)
    values = {
        # The mean, not the median: batch times are bimodal on a shared CPU
        # (fast and slow phases), and a median jumps between the two modes.
        "wall_s": statistics.fmean(b["wall"] for b in plain),
        "query_p50_ms": statistics.median(latencies) * 1000,
        "query_tail_ms": tail_value * 1000,
        "setup_s": statistics.median(out.setup),
        "peak_rss_mb": max(out.rss_kb) / 1024,
    }
    notes = {"wall_s": f"mean of {len(plain)} batches",
             "query_p50_ms": f"{len(latencies)} {kind}",
             "query_tail_ms": f"{tail_label} {kind}",
             "setup_s": f"median of {len(out.setup)} set-ups"}
    return values, notes


def per_layer(out: Outcome) -> tuple[dict, dict]:
    traced = [b for b in out.batches if b["traced"]]
    plain = [b for b in out.batches if not b["traced"]]
    per_batch = [tracing.layer_metrics(b["layers"]) for b in traced]
    values = {name: statistics.median(m[name] for m in per_batch) for name in per_batch[0]}
    values["trace.overhead"] = (statistics.median(b["wall"] for b in traced)
                                / statistics.median(b["wall"] for b in plain))
    notes = {"trace.overhead": f"traced / untraced wall_s, {len(traced)} and {len(plain)} batches"}
    return values, notes


# -- run ----------------------------------------------------------------------


def metadata(ctx: Context) -> dict:
    def read(path: str) -> str:
        try:
            return Path(path).read_text(encoding="utf-8")
        except OSError:
            return ""

    cpu = next((line.split(":", 1)[1].strip() for line in read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.machine())
    head = read(str(ctx.root / ".git/HEAD")).strip()
    if head.startswith("ref: "):
        head = read(str(ctx.root / ".git" / head[5:])).strip()
    try:
        import mpmath
        mpmath_version = mpmath.__version__
    except ImportError:
        mpmath_version = "missing"
    return {
        "workload": ctx.workload,
        "seed": ctx.seed,
        "seconds": ctx.seconds,
        "trace": int(ctx.trace),
        "workers": 1,
        "clients": 1,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "mpmath": mpmath_version,
        "commit": head or "unknown",
        "loadavg": read("/proc/loadavg").split()[:3],
    }


def run_workload(ctx: Context) -> tuple[Outcome, dict, dict]:
    out = Outcome()
    if ctx.workload == "sweep-cold":
        sweep_cold(ctx, out)
    elif ctx.workload == "sweep-warm":
        sweep_warm(ctx, out)
    else:
        in_process(ctx, out)
    if not out.batches:
        raise RuntimeError(f"{ctx.workload}: no batch completed")
    values, notes = per_layer(out) if ctx.trace else end_to_end(out)
    return out, values, notes


def print_table(ctx: Context, out: Outcome, values: dict, notes: dict) -> None:
    units = LAYER_UNITS if ctx.trace else END_TO_END_UNITS
    print(f"workload {ctx.workload}  seed {ctx.seed}  trace {int(ctx.trace)}  "
          f"batches {len(out.batches)}  queries {out.attempted}")
    for name, value in values.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:32s} {value:16.6f} {units[name]}{note}")
    frac = out.failed / out.attempted if out.attempted else 1.0
    print(f"  {'fail_frac':32s} {frac:16.6f} ratio  ({out.failed} of {out.attempted})")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the self-test")
    parser.add_argument("--tamper", action="store_true",
                        help="corrupt one expected value, for the self-test")
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "zerosums" / "__init__.py").is_file():
        print("error: run from the root of a zerosums checkout (no src/zerosums)",
              file=sys.stderr)
        return 2
    os.environ.pop("ZEROSUMS_CACHE_DIR", None)
    sys.path.insert(0, str(root / "src"))
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    work = root / ".bench_build" / f"perfbench-{os.getpid()}"
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in names:
            ctx = Context(name, args.seed, args.seconds, bool(args.trace), args.smoke,
                          args.tamper, root, work / name, env)
            ctx.work.mkdir(parents=True)
            print("meta " + json.dumps(metadata(ctx)), flush=True)
            try:
                out, values, notes = run_workload(ctx)
            except RuntimeError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
            print_table(ctx, out, values, notes)
            units = LAYER_UNITS if ctx.trace else END_TO_END_UNITS
            prefix = f"{name}." if args.workload == "all" else ""
            combined["attempted"] += out.attempted
            combined["failed"] += out.failed
            combined["metrics"].update(
                {prefix + k: {"value": v, "unit": units[k]} for k, v in values.items()})
    finally:
        shutil.rmtree(work, ignore_errors=True)
    combined["correct"] = combined["failed"] == 0
    print(json.dumps(combined), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
