#!/usr/bin/env python3
"""Build and run the repo benchmark.

    python3 rhobench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 rhobench/run.py --smoke

The first form builds the benchmark binary (rhobench/CMakeLists.txt,
which links the simulator libraries built from src/) into the build
directory, runs one workload and passes its output through. The last
line of standard output is the run's JSON result. Build output goes to
standard error. The exit code is 0 whenever the run completed; failed
correctness checks are reported in the JSON (`correct`, `failed`).

--smoke checks the benchmark itself at a tiny scale and exits non-zero
on any problem: BENCHMARK.json is well formed and round-trips; every
workload prints every metric it names, with its unit, untraced and
traced; every check passes; the work a run does is the same for two
seeds; a forced check failure is reported as one; and no run leaves a
file behind.

The build directory is $CARGO_TARGET_DIR (default .bench_build) under the
checkout root. Each run gets a temp directory inside it, removed when the
run ends, whatever way it ends.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def out_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return base if os.path.isabs(base) else os.path.join(ROOT, base)


def build_dir():
    return os.path.join(out_dir(), "rhobench")


def tmp_root():
    """Scratch space inside the checkout, for the compiler and the runs."""
    path = os.path.join(out_dir(), "tmp")
    os.makedirs(path, exist_ok=True)
    return path


def child_env():
    return dict(os.environ, TMPDIR=tmp_root())


def build():
    """Configure once, then build the binary; returns its path."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "rhobench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=child_env()).returncode:
            sys.exit("rhobench: build failed: " + " ".join(cmd))
    return os.path.join(out, "rhobench")


def source_id():
    """The git commit when the checkout is a repository, else a digest
    of src/."""
    try:
        if not os.path.exists(os.path.join(ROOT, ".git")):
            raise OSError("not a git checkout")
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        if head.returncode == 0 and head.stdout.strip():
            return head.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def run_binary(binary, workload, seed, seconds, trace, extra=(),
               capture=False):
    """Run one workload; returns (exit code, captured stdout or None,
    names left in its temp directory).

    The binary runs in its own process group (the service workload forks
    workers), so a run past the timeout is killed whole and reaped. Its
    temp directory is removed afterwards in every case.
    """
    tmp = os.path.join(tmp_root(), "run.%d" % os.getpid())
    os.makedirs(tmp, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--commit", source_id(), "--tmp", tmp]
    cmd += list(extra)
    proc = None
    try:
        proc = subprocess.Popen(cmd, cwd=ROOT, text=True,
                                start_new_session=True, env=child_env(),
                                stdout=subprocess.PIPE if capture else None)
        try:
            out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print("rhobench: run exceeded %d s" % RUN_TIMEOUT_S,
                  file=sys.stderr)
            return 1, None, []
        return proc.returncode, out, sorted(os.listdir(tmp))
    finally:
        if proc is not None and proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
        shutil.rmtree(tmp, ignore_errors=True)


# ---- smoke test ------------------------------------------------------

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def check_spec(spec):
    """Schema of BENCHMARK.json; returns a list of problems."""
    bad = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"}
    if set(spec) != keys:
        return ["top-level keys %s" % sorted(spec)]
    cmd = spec["command"]
    if not (1 <= len(cmd) <= 32 and all(isinstance(c, str) and len(c) <= 200
                                        for c in cmd)):
        bad.append("command")
    paths = spec["paths"]
    if not 1 <= len(paths) <= 16:
        bad.append("paths count")
    for p in paths:
        if not PATH.match(p) or p.startswith("/") or ".." in p.split("/"):
            bad.append("path " + p)
    if not (isinstance(spec["run_seconds"], int)
            and 1 <= spec["run_seconds"] <= 60):
        bad.append("run_seconds")
    names = set()

    def named(entry, fields):
        if set(entry) != fields:
            bad.append("fields of %s" % entry)
            return
        if not NAME.match(entry["name"]) or entry["name"] in names:
            bad.append("name " + entry["name"])
        names.add(entry["name"])

    if not 2 <= len(spec["workloads"]) <= 8:
        bad.append("workload count")
    for w in spec["workloads"]:
        named(w, {"name", "why"})
        if len(w.get("why", "")) > 200 or "\n" in w.get("why", ""):
            bad.append("why of " + w.get("name", "?"))
    if not 1 <= len(spec["end_to_end"]) <= 16:
        bad.append("end_to_end count")
    for m in spec["end_to_end"]:
        named(m, {"name", "unit", "better", "bound"})
        if not 0 < m.get("bound", 0) <= 0.25:
            bad.append("bound of " + m.get("name", "?"))
    if not 1 <= len(spec["per_layer"]) <= 128:
        bad.append("per_layer count")
    for m in spec["per_layer"]:
        named(m, {"name", "unit", "better"})
    for m in spec["end_to_end"] + spec["per_layer"]:
        if not UNIT.match(m.get("unit", "")):
            bad.append("unit of " + m.get("name", "?"))
        if m.get("better") not in ("higher", "lower"):
            bad.append("better of " + m.get("name", "?"))
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        bad.append("setup_s")
    elif setup[0]["bound"] < max(m["bound"] for m in spec["end_to_end"]):
        bad.append("setup_s does not carry the largest bound")
    return bad


def result_problems(tag, code, out, left, wanted):
    """Problems of one run's output; `wanted` maps metric name to unit."""
    if left:
        return ["%s: left %s in its temp directory" % (tag, left)]
    lines = (out or "").strip().splitlines()
    if code or not lines:
        return ["%s: exit %d" % (tag, code)]
    result = json.loads(lines[-1])
    if json.loads(json.dumps(result)) != result:
        return [tag + ": result does not round-trip"]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return [tag + ": result keys %s" % sorted(result)]
    bad = []
    if not result["correct"] or result["failed"]:
        bad.append("%s: %d of %d checks failed" %
                   (tag, result["failed"], result["attempted"]))
    got = result["metrics"]
    if set(got) != set(wanted):
        bad.append(tag + ": metrics differ: %s" %
                   sorted(set(got) ^ set(wanted)))
    for name, unit in wanted.items():
        m = got.get(name, {})
        if m.get("unit") != unit or not isinstance(m.get("value"),
                                                   (int, float)):
            bad.append(tag + ": bad metric " + name)
    return bad


def work_line(out):
    for line in (out or "").splitlines():
        if line.startswith("work: "):
            return line
    return None


def smoke():
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as f:
        text = f.read()
    spec = json.loads(text)
    problems = check_spec(spec)
    if json.loads(json.dumps(spec)) != spec:
        problems.append("BENCHMARK.json does not round-trip")
    if len(text.encode()) > 64 * 1024:
        problems.append("BENCHMARK.json is over 64 KiB")
    binary = build()
    tiny = ["--tiny"]
    for w in spec["workloads"]:
        works = []
        for trace, metrics in ((0, spec["end_to_end"]),
                               (1, spec["per_layer"])):
            tag = "%s --trace %d" % (w["name"], trace)
            code, out, left = run_binary(binary, w["name"], 7, 0.1, trace,
                                         tiny, capture=True)
            bad = result_problems(tag, code, out, left,
                                  {m["name"]: m["unit"] for m in metrics})
            problems += bad
            if trace == 0:
                works.append(work_line(out))
            print("smoke %-22s %s" % (tag, "FAILED" if bad else "ok"))
        # The same work, set-up included, for another seed.
        code, out, _ = run_binary(binary, w["name"], 8, 0.1, 0, tiny,
                                  capture=True)
        works.append(work_line(out))
        if None in works or works[0] != works[1]:
            problems.append("%s: work differs between seeds: %s" %
                            (w["name"], works))
    # A failed check must surface as one, and fail this test.
    w = spec["workloads"][0]["name"]
    code, out, left = run_binary(binary, w, 7, 0.1, 0,
                                 tiny + ["--fail-check"], capture=True)
    forced = result_problems("forced", code, out, left,
                             {m["name"]: m["unit"]
                              for m in spec["end_to_end"]})
    if not any("checks failed" in p for p in forced):
        problems.append("a forced check failure was not reported")
    for p in problems:
        print("SMOKE FAILED: " + p)
    print("smoke: %s" % ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    # A terminated launcher still kills its run and removes its temp
    # directory (the finally blocks above).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if args.smoke:
        return smoke()
    if args.workload is None or args.seed is None:
        ap.error("--workload and --seed are required")
    binary = build()
    return run_binary(binary, args.workload, args.seed, args.seconds,
                      args.trace)[0]


if __name__ == "__main__":
    sys.exit(main())
