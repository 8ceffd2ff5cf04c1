"""End-to-end benchmark of the LTE loop: one workload per process.

    python3 benchmarks/e2e/run.py --workload paper_nets --seed 0 \\
        --seconds 30 --trace 0 [--smoke] [--out FILE]
    python3 benchmarks/e2e/run.py --all --seed 0 [--trace 1] [--out DIR]
    python3 benchmarks/e2e/run.py compare A.json B.json

A run prints every metric by name with its unit, the correctness checks
and the environment, and ends with one JSON line holding ``correct``,
``attempted``, ``failed`` and ``metrics`` — the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  It exits 0
only if no operation and no check failed.  See README.md beside this
file.
"""

import time

_START = time.perf_counter()     # set-up time counts from here

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
NOTED_ENV = ("REPRO_", "OPENBLAS_", "OMP_", "MALLOC_")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def environment(sizes, samples, args):
    """Where and on what the numbers were measured.  The harness sets
    none of the noted variables; one found set is recorded and warned
    about, since it makes the run measure something other than what a
    user gets by default."""
    import numpy
    from repro.nn.compile import get_backend

    noted = {k: v for k, v in sorted(os.environ.items())
             if k.startswith(NOTED_ENV)}
    for name in noted:
        print("warning: {} is set; this run does not measure the "
              "defaults".format(name), file=sys.stderr)
    blas = numpy.show_config(mode="dicts").get(
        "Build Dependencies", {}).get("blas", {})
    sha = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        sha = done.stdout.strip() or sha
    return {
        "git_sha": sha, "cpu_count": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "blas": "{} {}".format(blas.get("name"), blas.get("version")),
        "nn_backend": get_backend().name, "variables": noted,
        "seed": args.seed, "seconds": args.seconds, "smoke": args.smoke,
        "sizes": sizes, "samples": samples,
    }


def import_again():
    """Seconds a fresh interpreter takes over this benchmark's imports:
    set-up starts with them, and they repeat only in another process."""
    code = ("import time; t = time.perf_counter(); import sys; "
            "sys.path[:0] = {!r}; import loop, metrics; "
            "print(time.perf_counter() - t)").format(
                [os.path.join(ROOT, "src"), HERE])
    done = subprocess.run([sys.executable, "-c", code], check=True,
                          capture_output=True, text=True)
    return float(done.stdout)


def run_workload(args, declared):
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        sys.exit("benchmarks/e2e: no src/repro beside the benchmark; "
                 "run it from a checkout of the repository")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import loop
    import metrics
    from spans import Recorder

    import_seconds = statistics.median(
        [time.perf_counter() - _START]
        + [import_again() for _ in range(0 if args.smoke else 2)])
    rec = Recorder(keep=bool(args.trace))
    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=args.workload + "-",
                               dir=os.path.join(ROOT, ".bench_work"))
    facts = None
    try:
        facts = loop.run(args.workload, args.seed, args.seconds, rec,
                         args.smoke, workdir)
    except Exception:
        # A run that cannot go on still reports what it attempted; the
        # failure counts once even when it struck between two spans.
        traceback.print_exc()
        rec.failed = max(1, rec.failed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    values = {}
    if facts is not None:
        values = metrics.per_layer(facts, rec) if args.trace \
            else metrics.end_to_end(facts, import_seconds)
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in declared[kind]}
    if facts is not None and set(values) != set(units):
        raise SystemExit("metrics computed and metrics declared in "
                         "BENCHMARK.json differ: {}".format(
                             sorted(set(values) ^ set(units))))
    result = {
        "correct": facts is not None and rec.failed == 0,
        "attempted": max(1, rec.attempted), "failed": rec.failed,
        "metrics": {name: {"value": float(values[name]),
                           "unit": units[name]} for name in values},
    }
    record = dict(result, workload=args.workload, trace=int(args.trace),
                  checks=rec.checks, workdir=workdir, claim=None)
    if facts is not None:
        record["predictions_digest"] = facts["digest"]
        record["f1_mean"] = facts["f1_mean"]
        record["series"] = metrics.series(facts)
        record["phase_seconds"] = {name: window.seconds for name, window
                                   in facts["windows"].items()}
        record["env"] = environment(facts["sizes"],
                                    metrics.sample_counts(facts), args)
    report(record)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
        if args.trace:
            rec.write_jsonl(args.out + ".trace.jsonl")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def report(record):
    print("workload {workload}  trace {trace}".format(**record))
    for name, metric in record["metrics"].items():
        print("  {:<38} {:>16.6g} {}".format(name, metric["value"],
                                            metric["unit"]))
    for name, ok in record["checks"].items():
        print("  check {:<32} {}".format(name, "ok" if ok else "FAILED"))
    print("  ops_attempted {attempted}  ops_failed {failed}".format(
        **record))
    if "env" in record:
        env = record["env"]
        print("  predictions_digest {}  f1_mean {:.4f}".format(
            record["predictions_digest"], record["f1_mean"]))
        print("  samples {}".format(env["samples"]))
        print("  phase_seconds {}".format(
            {k: round(v, 3) for k, v in record["phase_seconds"].items()}))
        print("  host burst {:.1f} ms (median of {})".format(
            1e3 * statistics.median(
                b for bursts in record["series"]["bursts"].values()
                for b in bursts),
            sum(map(len, record["series"]["bursts"].values()))))
        print("  env " + "  ".join(
            "{}={}".format(k, env[k]) for k in
            ("git_sha", "cpu_count", "python", "numpy", "blas",
             "nn_backend", "variables", "seed", "seconds", "smoke")))


def run_all(args, declared):
    """Each workload in a fresh process, untraced and (with --trace 1)
    traced; ``--out`` names a directory for the records."""
    status = 0
    if args.out:
        os.makedirs(args.out, exist_ok=True)
    for workload in (w["name"] for w in declared["workloads"]):
        for trace in range(1 + bool(args.trace)):
            command = [sys.executable, os.path.abspath(__file__),
                       "--workload", workload, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace",
                       str(trace)] + ["--smoke"] * args.smoke
            if args.out:
                command += ["--out", os.path.join(
                    args.out, "{}.seed{}.trace{}.json".format(
                        workload, args.seed, trace))]
            status |= subprocess.run(command).returncode
    return status


def main(argv):
    declared = spec()
    if argv[:1] == ["compare"]:
        import compare
        return compare.main(argv[1:], declared)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload",
                       choices=[w["name"] for w in declared["workloads"]])
    which.add_argument("--all", action="store_true")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=declared["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    return (run_all if args.all else run_workload)(args, declared)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
