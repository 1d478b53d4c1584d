#!/usr/bin/env python3
"""One run of the build/query/fix benchmark (see README.md).

    python3 perfbench/run.py --ref-nominal-ms X --workload build|query|fix \
        --seed N --seconds S --trace 0|1

Run from the repository root. It builds the measuring program from source
(cmake, into $CARGO_TARGET_DIR or .bench_build), prepares the seed's inputs
once in a process of their own, runs one measuring process, and prints that
process's result as the last line of standard output, completed with a 0
for every per-layer metric of a layer the workload does not run. It exits
non-zero without a result line when anything fails.
"""

import argparse
import contextlib
import fcntl
import gzip
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("build", "query", "fix")
BUILD_TIMEOUT_S = 840
RUN_GRACE_S = 120


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def run_command(cmd, timeout, capture=False):
    """Runs cmd in its own process group; kills the whole group on timeout
    (or when this process is terminated) and always waits for it, so no
    process outlives this call. Temporary files stay in the build dir."""
    tmp = os.path.join(build_dir(), "tmp")
    os.makedirs(tmp, exist_ok=True)
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True, text=True,
                            env=dict(os.environ, TMPDIR=tmp),
                            stdout=subprocess.PIPE if capture else sys.stderr,
                            stderr=sys.stderr)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    return proc.returncode, out


@contextlib.contextmanager
def locked(directory):
    """Serializes builds and input preparation between concurrent runs."""
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, "lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(lock, fcntl.LOCK_UN)


def build_program(out):
    """Configures and builds depsurf_perfbench; returns its path."""
    cmake_dir = os.path.join(out, "cmake")
    ninja = shutil.which("ninja") is not None
    generator = ["-G", "Ninja"] if ninja else []
    # Configure until a configure has succeeded, i.e. left a build file.
    if not os.path.exists(os.path.join(cmake_dir, "build.ninja" if ninja else "Makefile")):
        rc, _ = run_command(["cmake", "-S", HERE, "-B", cmake_dir,
                             "-DCMAKE_BUILD_TYPE=Release"] + generator, 300)
        if rc != 0:
            raise RuntimeError("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    rc, _ = run_command(["cmake", "--build", cmake_dir, "--target", "depsurf_perfbench",
                         "-j", jobs], BUILD_TIMEOUT_S)
    if rc != 0:
        raise RuntimeError("build failed")
    return os.path.join(cmake_dir, "depsurf_perfbench")


def prepare_inputs(program, out, seed, ref_nominal_ms):
    """Writes the seed's images, objects and dataset once; later runs with
    the same seed reuse them."""
    inputs = os.path.join(out, "inputs", "seed-%d" % seed)
    if os.path.exists(os.path.join(inputs, "manifest.txt")):
        return inputs
    staging = inputs + ".tmp"
    shutil.rmtree(staging, ignore_errors=True)
    shutil.rmtree(inputs, ignore_errors=True)
    os.makedirs(os.path.dirname(inputs), exist_ok=True)
    rc, _ = run_command([program, "prepare", "--seed", str(seed), "--ref-nominal-ms",
                         repr(ref_nominal_ms), "--out", staging], 300)
    if rc != 0:
        raise RuntimeError("prepare failed")
    os.rename(staging, inputs)
    return inputs


def setup(seed, ref_nominal_ms):
    """Builds the program and prepares the seed's inputs."""
    out = build_dir()
    with locked(out):
        program = build_program(out)
        return program, prepare_inputs(program, out, seed, ref_nominal_ms)


def measure(program, inputs, args, extra=()):
    """Runs one measuring process and returns its parsed result line."""
    cmd = [program, "run", "--workload", args.workload, "--inputs", inputs,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--ref-nominal-ms", repr(args.ref_nominal_ms)]
    cmd += list(extra)
    rc, stdout = run_command(cmd, args.seconds + RUN_GRACE_S, capture=True)
    lines = stdout.strip().splitlines()
    if rc != 0 or not lines:
        raise RuntimeError("measuring process failed (exit %d)" % rc)
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def compress(path):
    """Spans of a traced run run to tens of MB; keep them gzipped."""
    with open(path, "rb") as src, gzip.open(path + ".gz", "wb", compresslevel=1) as dst:
        shutil.copyfileobj(src, dst)
    os.remove(path)


def complete(result, spec, trace):
    """Checks the result against BENCHMARK.json: every metric it reports is
    declared with the same unit, and every end-to-end metric is present.
    Per-layer metrics of layers the workload bypasses read 0."""
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    metrics = result["metrics"]
    for name, metric in metrics.items():
        if units.get(name) != metric["unit"]:
            raise RuntimeError("metric %s (%s) is not declared" % (name, metric["unit"]))
    missing = [name for name in units if name not in metrics]
    if missing and not trace:
        raise RuntimeError("missing end-to-end metrics: %s" % ", ".join(missing))
    result["metrics"] = {name: metrics.get(name, {"value": 0, "unit": units[name]})
                         for name in units}
    return result


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=2025)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ref-nominal-ms", type=float, required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or not 0 < args.seconds <= 600 or not args.ref_nominal_ms > 0:
        parser.error("seed must be >= 0, seconds in (0, 600], ref-nominal-ms > 0")
    return args


def terminate(signum, frame):
    raise SystemExit(128 + signum)  # unwinds through run_command's cleanup


def main(argv):
    signal.signal(signal.SIGTERM, terminate)
    signal.signal(signal.SIGHUP, terminate)
    args = parse_args(argv)
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        program, inputs = setup(args.seed, args.ref_nominal_ms)
        trace_file = None
        if args.trace:
            traces = os.path.join(build_dir(), "traces")
            os.makedirs(traces, exist_ok=True)
            trace_file = os.path.join(traces, "%s-seed%d.jsonl" % (args.workload, args.seed))
        extra = ["--trace-out", trace_file] if trace_file else []
        result = complete(measure(program, inputs, args, extra), spec, args.trace)
        if trace_file and os.path.exists(trace_file):
            compress(trace_file)
    except Exception as e:  # every failure ends the run without a result line
        print("perfbench: %s" % e, file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
