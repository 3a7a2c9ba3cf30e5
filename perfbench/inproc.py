"""Worker process for the in-process workloads (atom-scan, predicates).

One process is one client issuing library calls one at a time. It imports
the package, builds its inputs from the seed, then runs whole batches until
the time is up and writes latencies, outputs and (for traced batches) layer
summaries as JSON to --out. Checking the outputs is the runner's job, so no
checking work runs in this process. With --setup-only it stops after the
set-up.

    python3 perfbench/inproc.py --workload atom-scan --seed 1 --seconds 30 \
        --trace 0 --out result.json
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import time

T_START = time.perf_counter()

import spec  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=("atom-scan", "predicates"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    t0 = time.perf_counter()
    import zerosums.cli  # noqa: F401  (the import every user pays)
    import_ms = (time.perf_counter() - t0) * 1000
    import zerosums as zs
    from zerosums import atoms, config, groups

    # cli.main sets caps in place; a worker must start from the defaults.
    for name, value in spec.load("config.json").items():
        if getattr(config, name) != value:
            print(f"config.{name} is {getattr(config, name)!r}, expected {value!r}",
                  file=sys.stderr)
            return 3

    if args.workload == "atom-scan":
        inputs = [(zs.normalize_group(spec.moduli(key)), inv)
                  for key, inv in spec.atom_scan_queries(args.smoke)]
        names = {"D": "davenport", "K": "big_cross_K", "k": "little_cross_k"}

        def run(query):
            group, inv = query
            # Looked up per call, so traced batches reach the wrappers.
            return getattr(zs, names[inv])(group)

        def to_output(_, result):
            from zerosums.invariants import to_record
            return to_record(result)
    else:
        import predicates

        inputs = predicates.generate(args.seed, args.smoke)
        run, to_output = predicates.run, predicates.to_output
    setup_s = time.perf_counter() - T_START
    if args.setup_only:
        write(args.out, {"setup_s": setup_s, "import_ms": import_ms})
        return 0

    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()
    rng = random.Random(args.seed)
    clock = time.perf_counter
    batches = []
    loop_start = clock()
    while True:
        traced = tracer is not None and len(batches) % 2 == 1
        order = list(range(len(inputs)))
        if batches:
            # The first batch keeps the listed order: peak RSS is read over
            # it, and the heap's peak depends on the order of the large scans.
            rng.shuffle(order)
        raws = [None] * len(inputs)
        latencies = [0.0] * len(inputs)  # by input, not by execution order
        if traced:
            tracer.reset()
            tracer.install()
        b0 = clock()
        for i in order:
            # Each query pays what a fresh CLI invocation pays.
            atoms.clear_catalog_memory()
            groups.group_table.cache_clear()
            groups.order_statistics.cache_clear()
            q0 = clock()
            raws[i] = run(inputs[i])
            latencies[i] = clock() - q0
        wall = clock() - b0
        batch = {"wall": wall, "latencies": latencies, "traced": traced}
        if traced:
            tracer.uninstall()
            batch["layers"] = dict(tracer.summary(), import_ms=[import_ms])
        if not batches:
            # Peak RSS through the first batch: the heap keeps growing over
            # repeated batches, so a later reading would depend on how many
            # batches fit in --seconds.
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        batch["outputs"] = [to_output(q, r) for q, r in zip(inputs, raws)]
        batches.append(batch)
        elapsed = clock() - loop_start
        if len(batches) >= (2 if tracer else 1) and elapsed + wall > args.seconds:
            break
    write(args.out, {"setup_s": setup_s, "import_ms": import_ms,
                     "rss_kb": rss_kb, "batches": batches})
    return 0


def write(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f)


if __name__ == "__main__":
    sys.exit(main())
