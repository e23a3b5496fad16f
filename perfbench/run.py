"""phylokit benchmark: one workload per run, closed loop, one process.

    python3 perfbench/run.py --workload align|decode|phylo|all \\
        --seed N --seconds S --trace 0|1 [--quick]

Run from the root of a source checkout; phylokit is imported from its
``src/``.  With ``--trace 0`` the last stdout line is a JSON object with
the end-to-end metrics named in BENCHMARK.json; with ``--trace 1`` the
same run is repeated with spans around phylokit's public functions and
the line carries the per-module metrics instead.  Every run also writes
``perfbench/out/BENCH_<workload>-s<seed>-t<trace>.json``.
"""

from __future__ import annotations

import os

# numpy's BLAS threads: one, whatever the caller's environment says
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402
from types import SimpleNamespace  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "perfbench" / "out"
WORKLOADS = ("align", "decode", "phylo")
MODULES = ("pairhmm", "hmm", "evolution", "pipeline", "treespace", "formats", "cli", "trees")
DECK_ROUNDS = 4  # distinct rounds generated; a long run cycles through them
MIN_JOBS = 100  # so that p90 has at least ten samples beyond it
SETUP_REPEATS = 3


def _import_phylokit() -> SimpleNamespace:
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    mods = {name: importlib.import_module(f"phylokit.{name}") for name in MODULES}
    origin = Path(mods["cli"].__file__).resolve()
    if src.resolve() not in origin.parents:
        raise ImportError(f"phylokit resolved to {origin}, not to {src}")
    return SimpleNamespace(**mods)


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def _metadata(args) -> dict:
    import numpy

    src_lines = sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))
    return {
        "git_sha": _git_sha(),
        "src_lines": src_lines,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": int(BLAS_THREADS),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "quick": args.quick,
    }


def _setup(workload, env, pk, seed):
    """Generate the deck, run the reference checks and warm up."""
    import numpy as np

    import align
    import decode
    import phylo
    import spans

    module = {"align": align, "decode": decode, "phylo": phylo}[workload]
    env.workdir.mkdir(parents=True, exist_ok=True)
    rounds = []
    for index in range(env.deck_rounds):
        seq = np.random.SeedSequence([seed, WORKLOADS.index(workload), index])
        rounds.append(module.make_round(env, np.random.Generator(np.random.Philox(seq)), index))
    api = spans.build_api(pk)
    align.reference_check(pk)
    phylo.reference_check(api, ROOT)
    module.warmup(env, api)
    return rounds


def _bench_one(args) -> int:
    t0 = perf_counter()
    try:
        pk = _import_phylokit()
    except ImportError as exc:
        print(f"error: cannot import phylokit from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    import_wall = perf_counter() - t0

    import harness
    import spans

    import_s = import_wall / harness.speed([harness.probe() for _ in range(5)])
    quick = args.quick
    label = f"{args.workload}-s{args.seed}-t{args.trace}"
    env = SimpleNamespace(
        pk=pk, root=ROOT, scale=0.3 if quick else 1.0,
        deck_rounds=1 if quick else DECK_ROUNDS,
        workdir=OUT / f"work-{label}-{os.getpid()}",
    )
    try:
        setup_wall, setup_ref = [], []
        for _ in range(1 if quick else SETUP_REPEATS):
            before = [harness.probe() for _ in range(3)]
            t = perf_counter()
            rounds = _setup(args.workload, env, pk, args.seed)
            setup_wall.append(perf_counter() - t)
            after = [harness.probe() for _ in range(3)]
            setup_ref.append(setup_wall[-1] / harness.speed(before + after))
        setup_s = import_s + statistics.median(setup_ref)

        gc.collect()
        api = spans.build_api(pk)
        max_rounds = 1 if quick else None
        records, nrounds = harness.run_phase(
            rounds, api, args.seconds, MIN_JOBS, max_rounds=max_rounds)
        plain = harness.summarize(records)
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        end_to_end = {
            "jobs_per_s": plain["jobs_per_s"],
            "job_p50_s": plain["job_p50_s"],
            "job_p90_s": plain["job_p90_s"],
            "passed_ratio": plain["passed_ratio"],
            "setup_s": setup_s,
            "peak_rss_mib": peak_rss_mib,
        }
        result = {"meta": _metadata(args), "rounds": nrounds, "import_wall_s": import_wall,
                  "setup_repeats_wall_s": setup_wall, "setup_repeats_ref_s": setup_ref,
                  "untraced": plain, "end_to_end": end_to_end,
                  "jobs": [[r.kind, r.wall_s, r.ref_s, r.ok] for r in records]}
        summary = plain
        correct = plain["unexpected"] == 0
        if args.trace:
            tracer = spans.Tracer()
            gc.collect()
            with spans.cross_module_spans(pk, tracer):
                t_records, _ = harness.run_phase(
                    rounds, spans.build_api(pk, tracer), args.seconds, MIN_JOBS,
                    max_rounds=nrounds, tracer=tracer)
            traced = harness.summarize(t_records)
            layers = spans.layer_metrics(tracer.spans, [r.as_dict() for r in t_records])
            layers["trace.overhead_ratio"] = (
                plain["jobs_per_s"] / traced["jobs_per_s"] if traced["jobs_per_s"] else 0.0)
            for key, value in traced["shares"].items():
                layers[f"inputs.{key}_share"] = value
            result.update(traced=traced, per_layer=layers)
            OUT.mkdir(parents=True, exist_ok=True)
            tracer.write(OUT / f"spans_{label}.jsonl")
            summary = traced
            correct = correct and traced["unexpected"] == 0
    except harness.ReferenceMismatch as exc:
        print(f"error: reference check failed: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(env.workdir, ignore_errors=True)

    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"BENCH_{label}.json").write_text(json.dumps(result, indent=1) + "\n")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = result["per_layer"] if args.trace else end_to_end
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    _print_report(args.workload, plain, metrics)
    print(json.dumps({"correct": correct, "attempted": summary["attempted"],
                      "failed": summary["failed"], "metrics": metrics}))
    return 0


def _print_report(workload, plain, metrics) -> None:
    print(f"== {workload}: {plain['attempted']} jobs, {plain['timed_s_wall']:.2f} s of job wall time "
          f"= {plain['timed_s']:.2f} reference s")
    for kind, k in sorted(plain["kinds"].items()):
        known = ", ".join(f"{n} {why}" for why, n in k["known"].items())
        line = (f"   {kind:14s} attempted {k['attempted']:4d}  failed {k['failed']:3d}"
                f"  passed jobs took {k['passed_ref_s']:7.2f} reference s")
        print(line + (f"  (known defect: {known})" if known else ""))
        for reason in k["unexpected"][:3]:
            print(f"      UNEXPECTED: {reason}")
    shares = ", ".join(f"{key} {v:.3f}" for key, v in plain["shares"].items())
    print(f"   input shares: {shares}")
    print(f"   failed_ratio {plain['failed_ratio']:.4f}  (p50/p90 samples: {plain['attempted']})")
    print(f"   wall clock: jobs_per_s {plain['jobs_per_s_wall']:.4g} 1/s, "
          f"job_p50_s {plain['job_p50_s_wall']:.4g} s, job_p90_s {plain['job_p90_s_wall']:.4g} s")
    for name, m in metrics.items():
        print(f"   {name:44s} {m['value']:.6g} {m['unit']}")


def _bench_all(args) -> int:
    """Each workload in its own process, one after the other."""
    merged, correct, attempted, failed = {}, True, 0, 0
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--quick"] if args.quick else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        correct = correct and last["correct"]
        attempted += last["attempted"]
        failed += last["failed"]
        merged.update({f"{workload}.{k}": v for k, v in last["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": merged}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="one small round, one set-up: a smoke run, not a measurement")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return _bench_all(args)
    return _bench_one(args)


if __name__ == "__main__":
    sys.exit(main())
