"""fchsim benchmark: time scenario runs in fresh processes, check their
outputs, and print every metric by name with its unit and sample count.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  Each run starts child processes, one at
a time, until about S seconds have gone; each child takes the workload from
process start to a verified report.  With ``--trace 0`` the children run
untraced and the end-to-end metrics are reported.  With ``--trace 1`` traced
and untraced children alternate, and the per-layer metrics of the traced ones
are reported together with the tracing overhead.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` (children
that exited non-zero or failed verification) and ``metrics``.

All three workloads, end to end:

    for w in ch2d-512 nse3d-48 sweep128; do
        python3 bench/run.py --workload $w --seed 1 --seconds 38 --trace 0
    done
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import numpy
import scipy

import tracing

# workloads and verify import fchsim, so they are imported inside functions:
# main() first installs the FFT counter and puts src/ on the path.

HERE = os.path.dirname(os.path.abspath(__file__))
WORK_DIR = ".bench_work"
# Children still running this long after the run started are killed and
# counted as failed, so that a run ends within three minutes.
RUN_LIMIT_S = 160
# One process, no extra threads: the box the workloads were sized on has
# two cores, and FFTs run single-threaded in numpy.
CHILD_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                 "MKL_NUM_THREADS": "1"}

END_TO_END = {"wall_s": "s", "steps_per_s": "1/s", "setup_s": "s",
              "peak_rss_mb": "MB"}


def _layer_units():
    units = {}
    for module, names in tracing.TRACED.items():
        for name in names:
            units[f"{module}.{name}.calls"] = "count"
            units[f"{module}.{name}.self_s"] = "s"
    for module in (*tracing.TRACED, "fft"):
        units[f"{module}.self_s"] = "s"
        units[f"{module}.share"] = "ratio"
    units.update({
        "fft.calls_per_step": "count",
        "fft.melems_per_step": "Melem",
        "fft.ms_per_call": "ms",
        "integrate.step_ms": "ms",
        "checkpoint.save_checkpoint.mb": "MB",
        "trace.overhead_frac": "ratio",
    })
    return units


PER_LAYER = _layer_units()


def run_child(workload, seed, traced, root, out, timeout):
    """Run one child to exit, killing it after `timeout` seconds; returns its
    timings, peak RSS and record."""
    os.makedirs(out)
    record_path = os.path.join(out, "child.json")
    command = [sys.executable, os.path.join(HERE, "child.py"), record_path,
               "1" if traced else "0", "--",
               *workload.cli_args(seed, root, out)]
    with open(os.path.join(out, "child.log"), "wb") as log:
        start = time.monotonic()
        proc = subprocess.Popen(command, cwd=root, stdout=log,
                                stderr=subprocess.STDOUT,
                                env=dict(os.environ, **CHILD_THREADS))
        previous = signal.signal(signal.SIGALRM, lambda *_: proc.kill())
        signal.alarm(max(1, int(timeout)))
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    try:
        with open(record_path) as handle:
            record = json.load(handle)
    except (OSError, ValueError):
        record = None
    ready = record and record.get("ready")
    return {
        "traced": traced,
        "code": proc.returncode,
        "wall_s": end - start,
        "setup_s": ready - start if ready else None,
        "peak_rss_mb": usage.ru_maxrss * 1024 / 1e6,
        "record": record,
    }


def measure(workload, seed, seconds, traced, root):
    """Set up, guard the datum, then run and verify children for `seconds`."""
    from verify import check_nonlinearity, verify_outputs
    from workloads import initial_state

    config = workload.load_config(seed, root)
    v0 = initial_state(config)
    ratio = check_nonlinearity(v0, config.params)
    os.makedirs(os.path.join(root, WORK_DIR), exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload.name}-",
                            dir=os.path.join(root, WORK_DIR))
    samples = []
    start = time.monotonic()
    try:
        while True:
            out = os.path.join(work, f"child{len(samples)}")
            sample = run_child(workload, seed, traced and len(samples) % 2 == 1,
                               root, out, RUN_LIMIT_S - (time.monotonic() - start))
            sample["failures"] = verify_outputs(workload, config, v0, out,
                                                sample["code"])
            if sample["failures"]:
                with open(os.path.join(out, "child.log"), errors="replace") as log:
                    tail = log.read()[-2000:]
                print(f"child {len(samples)} failed: {sample['failures']}\n{tail}",
                      file=sys.stderr)
            samples.append(sample)
            shutil.rmtree(out)
            elapsed = time.monotonic() - start
            typical = statistics.median(s["wall_s"] for s in samples)
            if len(samples) >= (2 if traced else 1) and elapsed + typical > seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.join(root, WORK_DIR))
        except OSError:
            pass  # another run still uses it
    return {"samples": samples, "nonlinearity_ratio": ratio,
            "initial_spectrum_sha256": hashlib.sha256(v0.data.tobytes()).hexdigest()}


def _usable(samples):
    good = [s for s in samples if not s["failures"]]
    usable = [s for s in (good or samples) if s["record"] and s["setup_s"]]
    if not usable:
        raise RuntimeError("no child produced a record to measure")
    return usable


def end_to_end_metrics(samples):
    """{name: (value, sample count)} over untraced children."""
    usable = _usable([s for s in samples if not s["traced"]])
    wall = statistics.median(s["wall_s"] for s in usable)
    steps = statistics.median(s["record"]["steps"] for s in usable)
    n = len(usable)
    return {
        "wall_s": (wall, n),
        "steps_per_s": (steps / wall, n),
        "setup_s": (statistics.median(s["setup_s"] for s in usable), n),
        "peak_rss_mb": (statistics.median(s["peak_rss_mb"] for s in usable), n),
    }


def _layer_values(sample):
    record = sample["record"]
    wall = sample["wall_s"]
    steps = record["steps"]
    functions = record["functions"]
    values = {}
    for module, names in tracing.TRACED.items():
        module_self = 0.0
        for name in names:
            entry = functions.get(f"{module}.{name}", {"calls": 0, "self_s": 0.0})
            values[f"{module}.{name}.calls"] = entry["calls"]
            values[f"{module}.{name}.self_s"] = entry["self_s"]
            module_self += entry["self_s"]
        values[f"{module}.self_s"] = module_self
        values[f"{module}.share"] = module_self / wall
    fft = record["fft"]
    values["fft.self_s"] = fft["self_s"]
    values["fft.share"] = fft["self_s"] / wall
    values["fft.calls_per_step"] = fft["step_calls"] / steps
    values["fft.melems_per_step"] = fft["step_elems"] / steps / 1e6
    values["fft.ms_per_call"] = 1e3 * fft["self_s"] / fft["calls"] if fft["calls"] else 0.0
    values["integrate.step_ms"] = 1e3 * record["step_s"] / steps
    values["checkpoint.save_checkpoint.mb"] = record["checkpoint_bytes"] / 1e6
    return values


def layer_metrics(samples):
    """{name: (value, sample count)}: medians over traced children, and the
    traced-over-untraced wall time ratio."""
    traced = _usable([s for s in samples if s["traced"]])
    plain = _usable([s for s in samples if not s["traced"]])
    per_child = [_layer_values(s) for s in traced]
    metrics = {name: (statistics.median(v[name] for v in per_child), len(traced))
               for name in per_child[0]}
    overhead = (statistics.median(s["wall_s"] for s in traced)
                / statistics.median(s["wall_s"] for s in plain) - 1.0)
    metrics["trace.overhead_frac"] = (overhead, len(traced) + len(plain))
    return metrics


def report(samples, traced):
    """Human-readable lines and the result object for one run."""
    if traced:
        metrics, units = layer_metrics(samples), PER_LAYER
    else:
        metrics, units = end_to_end_metrics(samples), END_TO_END
    failed = sum(1 for s in samples if s["failures"])
    lines = []
    for i, s in enumerate(samples):
        setup = f"{s['setup_s']:.3f} s" if s["setup_s"] else "-"
        verdict = "FAILED " + "; ".join(s["failures"]) if s["failures"] else "verified"
        lines.append(f"child {i}: {'traced' if s['traced'] else 'untraced'} "
                     f"wall {s['wall_s']:.3f} s, setup {setup}, peak rss "
                     f"{s['peak_rss_mb']:.1f} MB, exit {s['code']}, {verdict}")
    lines.append(f"{'metric':<40} {'value':>14} {'unit':<6} samples")
    for name, unit in units.items():
        value, n = metrics[name]
        lines.append(f"{name:<40} {value:>14.6g} {unit:<6} {n}")
    # Not a metric: it is 0 on a healthy run, and the result's failed and
    # attempted counts carry it.
    lines.append(f"{'failed_frac':<40} {failed / len(samples):>14.6g} "
                 f"{'ratio':<6} {len(samples)}")
    result = {
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": unit}
                    for name, unit in units.items()},
    }
    return lines, result


def _source_digest(root):
    digest = hashlib.sha256()
    package = os.path.join(root, "src", "fchsim")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(package, name), "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def _commit(root):
    if not os.path.exists(os.path.join(root, ".git")):
        return None
    done = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return done.stdout.strip() or None


def environment(root, seed):
    return {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "child_threads": CHILD_THREADS,
        "commit": _commit(root),
        "source_sha256": _source_digest(root),
        "seed": seed,
    }


def parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "fchsim", "__init__.py")):
        print("bench: src/fchsim not found; run from the root of an fchsim "
              "checkout", file=sys.stderr)
        return 2
    load_start = os.getloadavg()
    # Counted in this process too, so the record names the FFT module the
    # datum and the guard actually called.
    parent = tracing.Tracer()
    tracing.install_fft_counter(parent)
    sys.path.insert(0, os.path.join(root, "src"))
    args = parse_args(argv)

    from verify import GuardError
    from workloads import WORKLOADS

    try:
        run = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                      bool(args.trace), root)
    except GuardError as exc:
        print(f"bench: workload {args.workload} rejected: {exc}", file=sys.stderr)
        return 1
    fft_modules = set(parent.fft_modules)
    for s in run["samples"]:
        fft_modules.update((s["record"] or {}).get("fft_modules", ()))
    env = dict(environment(root, args.seed), workload=args.workload,
               trace=args.trace, fft_modules=sorted(fft_modules),
               nonlinearity_ratio=run["nonlinearity_ratio"],
               initial_spectrum_sha256=run["initial_spectrum_sha256"],
               loadavg_start=load_start, loadavg_end=os.getloadavg())
    print(json.dumps({"environment": env}))
    lines, result = report(run["samples"], bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
