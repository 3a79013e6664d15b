#!/usr/bin/env python3
"""Record the velobench trajectory point of a checkout: BENCH_velobench.json.

    python3 bench/trajectory.py

Runs the repository benchmark (bench/velobench/run.py, the command that
BENCHMARK.json names) on each of its four workloads, first untraced
(--trace 0: the end-to-end metrics) and then traced (--trace 1: the
per-layer metrics), with seed 1 and a 20 s window, and writes every result
document to BENCH_velobench.json at the root of the checkout, together with
the git revision, the host's CPU count and model, and the exact commands.
A change that claims speed, or risks it, regenerates the file so that its
diff shows the per-metric movement against the parent's.

Takes about ten minutes on a 4-CPU host, most of it the 20 s windows and the
set-ups. Exit status: 0 when every run produced a correct result, 1
otherwise (the file is still written, with each run's exit status).
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["paper-vtrc", "contended-text", "local-reduce", "serve-tenants"]
OUT = os.path.join(ROOT, "BENCH_velobench.json")


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git(*args):
    p = subprocess.run(["git"] + list(args), cwd=ROOT, capture_output=True,
                       text=True)
    return p.stdout.strip() if p.returncode == 0 else None


def run(workload, trace):
    cmd = ["python3", "bench/velobench/run.py", "--serve-mevps", "2.5",
           "--workload", workload, "--seed", "1", "--seconds", "20",
           "--trace", str(trace)]
    print("trajectory: " + " ".join(cmd), file=sys.stderr, flush=True)
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = p.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return {"workload": workload, "trace": trace, "command": " ".join(cmd),
            "exit": p.returncode, "result": result}


def main():
    runs = [run(w, t) for w in WORKLOADS for t in (0, 1)]
    status = git("status", "--porcelain", "--", ".",
                 ":(exclude)BENCH_velobench.json")
    doc = {
        "rev": git("rev-parse", "HEAD"),
        # True when the measured tree had changes not yet committed on rev.
        "dirty": bool(status) if status is not None else None,
        "cpus": os.cpu_count(),
        "cpu_model": cpu_model(),
        "runs": runs,
    }
    with open(OUT, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")
    ok = all(r["exit"] == 0 and r["result"] and r["result"].get("correct")
             for r in runs)
    print("trajectory: wrote %s (%s)" % (OUT, "all correct" if ok else
                                         "SOME RUNS FAILED"), file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
