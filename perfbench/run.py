#!/usr/bin/env python3
"""Build the simulator benchmark from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload fig3_invalidate --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

The last line of standard output is one JSON object with the keys
"correct", "attempted", "failed" and "metrics".  See perfbench/README.md.
"""

import json
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")


def commit():
    if not os.path.isdir(".git"):
        return "unknown"
    out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
    return out.stdout.strip() or "unknown"


def check_names(output):
    """Every metric declared in BENCHMARK.json prints with its unit."""
    with open("BENCHMARK.json") as f:
        declared = json.load(f)
    wanted = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    lines = [json.loads(l) for l in output.splitlines() if l.startswith('{"workload"')]
    ok = len(lines) == len(declared["workloads"])
    for line in lines:
        metrics = line["metrics"]
        for name, unit in wanted.items():
            got = metrics.get(name)
            if got is None or got["unit"] != unit:
                print("self-test FAILED: %s: metric %s [%s] printed as %r"
                      % (line["workload"], name, unit, got))
                ok = False
    return ok


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.stderr.write("perfbench: no dune-project and lib/ here; run from the repository root\n")
        return 2
    # TT_* switches change the program being measured: record and unset them
    stripped = sorted(k for k in os.environ if k.startswith("TT_"))
    if stripped:
        sys.stderr.write("perfbench: unset for this run: %s\n"
                         % " ".join("%s=%s" % (k, os.environ[k]) for k in stripped))
    env = {k: v for k, v in os.environ.items() if not k.startswith("TT_")}
    env["DUNE_CACHE"] = "disabled"
    build = subprocess.run(["dune", "build", "--root", ".", "./perfbench/perfbench.exe"],
                           env=env, stdout=sys.stderr)
    if build.returncode != 0:
        return build.returncode
    cmd = [EXE] + sys.argv[1:] + ["--commit", commit()]
    if "--self-test" not in sys.argv[1:]:
        return subprocess.run(cmd, env=env).returncode
    run = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(run.stdout)
    names_ok = check_names(run.stdout)
    print("metric names and units %s" % ("match BENCHMARK.json" if names_ok else "MISMATCH"))
    return run.returncode if run.returncode != 0 else (0 if names_ok else 1)


if __name__ == "__main__":
    sys.exit(main())
