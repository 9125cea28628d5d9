"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/spread.py --seeds 1-10 [--workloads verify,scale] [--out FILE]

Runs `bench/run.py --trace 0` once per seed and workload, one run at a
time, for BENCHMARK.json's run_seconds.  For each metric it prints the
median, the quartiles (statistics.quantiles, n=4), the spread (quartile
distance over the median) and the bound, and writes the same as JSON.
A spread within a third of the bound is steady; within the bound, it is
accepted.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--out", type=Path, default=BENCH / "out" / "spread.json")
    args = p.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"run_seconds": spec["run_seconds"], "seeds": args.seeds, "workloads": {}}
    status = 0
    for name in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        for seed in args.seeds:
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
            lines = out.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if out.returncode != 0 or not result.get("correct"):
                print(f"{name} seed {seed}: run failed\n{out.stderr}", file=sys.stderr)
                return 1
            env = json.loads(lines[-2].removeprefix("env "))
            for key, metric in result["metrics"].items():
                values.setdefault(key, []).append(metric["value"])
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k} {m['value']:.4g}" for k, m in result["metrics"].items()), flush=True)
        rows = {}
        for key, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            median = statistics.median(vals)
            spread = (q3 - q1) / median
            rows[key] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                         "bound": bounds[key], "values": vals}
            verdict = "steady" if spread <= bounds[key] / 3 else (
                "accepted" if spread <= bounds[key] else "TOO WIDE")
            if key != "setup_s" and spread > bounds[key]:
                status = 1
            print(f"  {name:8} {key:14} median {median:10.4f}  quartiles {q1:10.4f} {q3:10.4f}"
                  f"  spread {spread:6.3f}  bound {bounds[key]:.2f}  {verdict}")
        summary["workloads"][name] = rows
        summary["env"] = env
    args.out.parent.mkdir(exist_ok=True)
    args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
