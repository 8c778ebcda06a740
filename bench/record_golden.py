"""Record the golden outputs the benchmark compares against.

Run from the repository root, on the commit whose output is the reference:

    python3 bench/record_golden.py

It runs every request of every workload, once per simulate seed in
SIM_SEEDS, as a fresh process, and writes bench/golden/. JSON goldens keep
only the compared fields (workloads.json_view). For finite-key it also
records the asymptotic rate r_inf that bounds each finite-key row.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import spawn  # noqa: E402
from workloads import FK_Q, GOLDEN_DIR, SIM_SEEDS, WORKLOADS, golden_path, json_view  # noqa: E402

TIMEOUT_S = 300.0


def cli(argv: tuple[str, ...]) -> str:
    run = spawn([sys.executable, "-m", "quditkd", *argv], TIMEOUT_S)
    if run.exit_code != 0:
        raise SystemExit(f"quditkd {' '.join(argv)} exited {run.exit_code}: {run.stderr.strip()}")
    return run.stdout


def main() -> None:
    r_inf: dict[str, float] = {}
    for name, wl in WORKLOADS.items():
        for base in wl.requests:
            seeded = [base.with_seed(s) for s in SIM_SEEDS] if base.argv[0] == "simulate" else [base]
            for req in seeded:
                out = cli(req.argv)
                if req.kind == "json":
                    out = json.dumps(json_view(json.loads(out)), sort_keys=True, separators=(",", ":")) + "\n"
                path = golden_path(name, req)
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(out, encoding="utf-8")
                print(f"wrote {path}")
            if base.kind == "finite-key":
                argv = dict(zip(base.argv[1::2], base.argv[2::2]))
                d, family = argv["--dim"], argv["--family"]
                table = cli(("asymptotic", "--dim", d, "--family", family, "--q", FK_Q))
                row = next(csv.DictReader(io.StringIO(table)))
                r_inf[f"{family},{d},{FK_Q}"] = float(row["r_inf"])
    path = GOLDEN_DIR / "finite-key" / "r_inf.json"
    path.write_text(json.dumps(r_inf, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
