"""Steadiness check: two interleaved sets of benchmark runs.

    python3 bench/steady.py

For every workload in BENCHMARK.json, runs ``bench/run.py`` ten times for
set A and ten times for set B, alternating A and B (and which goes
first), each run with its own seed and the run length BENCHMARK.json
gives, one run at a time.  For every end-to-end metric it
prints each set's median and quartiles, the spread (distance between the
quartiles as a share of the median) and the set-to-set change of the
median as a share of set A's, signed so that a positive change is a
worsening, against the metric's bound in BENCHMARK.json.  A spread
should stay below a third of the bound (setup_s is exempt) and a change
below the bound.  It also compares the share of failed ops of the sets.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

RUNS = 10  # per set and workload


def one_run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stdout}\n{proc.stderr}")
    return json.loads(lines[-1])


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3, (q3 - q1) / statistics.median(values)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    metrics = bench["end_to_end"]
    results = {}
    for w in (w["name"] for w in bench["workloads"]):
        sets = {"A": [], "B": []}
        for i in range(RUNS):
            order = ("A", "B") if i % 2 == 0 else ("B", "A")
            for name in order:
                seed = 1 + i if name == "A" else 1001 + i
                res = one_run(w, seed, bench["run_seconds"])
                if not res["correct"]:
                    raise RuntimeError(f"{w} seed {seed}: outputs failed their checks")
                sets[name].append(res)
                print(f"{w} set {name} seed {seed}: " + " ".join(
                    f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()),
                    flush=True)
        results[w] = sets

    print()
    print(f"{'workload':<14} {'metric':<12} {'set':<3} {'q1':>11} {'median':>11} "
          f"{'q3':>11} {'spread':>7} {'change':>7} {'bound':>6}  verdict")
    ok = True
    for w, sets in results.items():
        for m in metrics:
            name, bound = m["name"], m["bound"]
            stats = {s: spread([r["metrics"][name]["value"] for r in sets[s]]) for s in sets}
            change = stats["B"][1] / stats["A"][1] - 1.0
            if m["better"] == "higher":
                change = -change
            for s in ("A", "B"):
                q1, med, q3, spr = stats[s]
                steady = name == "setup_s" or spr < bound / 3.0
                line = (f"{w:<14} {name:<12} {s:<3} {q1:>11.5g} {med:>11.5g} {q3:>11.5g} "
                        f"{spr:>7.3f}")
                if s == "B":
                    verdict = ("ok" if steady and change <= bound else "NOT STEADY")
                    line += f" {change:>+7.3f} {bound:>6.2f}  {verdict}"
                    ok = ok and verdict == "ok"
                elif not steady:
                    line += f" {'':>7} {bound:>6.2f}  NOT STEADY"
                    ok = False
                print(line)
        shares = {s: sum(r["failed"] for r in sets[s]) / sum(r["attempted"] for r in sets[s])
                  for s in sets}
        print(f"{w:<14} failed share A {shares['A']:.6g} B {shares['B']:.6g}")
        ok = ok and shares["A"] == shares["B"]
    print("steady" if ok else "not steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
