"""Run every workload over several seeds and summarize the spread.

    python3 perfbench/record.py --seeds 10 --out perfbench/baseline.json

For each workload in BENCHMARK.json this makes one untraced run of
run_seconds per seed (seeds 0..N-1), one after another, then one traced
run at seed 0. It prints, per
end-to-end metric, the median, the quartiles and the interquartile
distance as a share of the median next to a third of the metric's bound
in BENCHMARK.json, and writes everything, with the host context, to
--out. A later change compares its own record against the committed one.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180,
                          cwd=ROOT)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("record: %s exited with %d\n%s" % (" ".join(cmd),
                                                    proc.returncode, proc.stderr))
    host = next((json.loads(l[5:]) for l in lines if l.startswith("host ")), {})
    return json.loads(lines[-1]), host


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = [w["name"] for w in bench["workloads"]]
    record = {"run_seconds": seconds, "seeds": list(range(args.seeds)),
              "workloads": {}}
    for name in names:
        runs, hosts = [], []
        for seed in range(args.seeds):
            result, host = run(name, seed, seconds, 0)
            runs.append(result)
            hosts.append(host)
            print("%s seed %d: %s" % (name, seed, json.dumps(
                {k: round(v["value"], 4) for k, v in result["metrics"].items()})),
                flush=True)
        traced, _ = run(name, 0, seconds, 1)
        summary = {}
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs]
            q1, q2, q3 = tracing.quartiles(values)
            spread = tracing.relative_spread(values)
            summary[metric] = {"unit": runs[0]["metrics"][metric]["unit"],
                               "median": q2, "q1": q1, "q3": q3,
                               "spread": spread, "bound": bound,
                               "values": values}
            print("%-13s %-20s median %12.5g  spread %.4f  (bound/3 %.4f)%s"
                  % (name, metric, q2, spread, bound / 3,
                     "" if spread < bound / 3 else "  WIDE"), flush=True)
        record["workloads"][name] = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": summary,
            "per_layer_seed0": {k: v["value"]
                                for k, v in traced["metrics"].items()},
            "host_probe_ms": [[h.get("probe_before_ms"), h.get("probe_after_ms")]
                              for h in hosts],
        }
        record["host"] = {k: v for k, v in hosts[0].items()
                          if not k.startswith("probe_")}
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True)
                                  + "\n")


if __name__ == "__main__":
    main()
