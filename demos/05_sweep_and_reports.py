"""Parameter-grid sweeps with machine-readable reports and a persistent
value cache.

The same machinery backs the ``lcong`` command line; this script drives
it as a library.  Reports are deterministic: identical configs yield
byte-identical CSV files, and the only timestamp lives in the JSONL
header record.
"""

import io
from pathlib import Path

from lcong import BernoulliCache, SweepConfig, SweepJob, run_sweep
from lcong.sweep import table_text, write_csv
from lcong import valuecache

# Reports and the value cache go under the working directory.
workdir = Path("lcong-demo")
workdir.mkdir(exist_ok=True)
cache_file = workdir / "values.jsonl"

config = SweepConfig(
    jobs=(
        # Euler-number shift congruence over a small grid
        SweepJob("1.3", {"k": [0, 2, 4, 6], "n": [1, 2, 3], "q": [1, 3]}),
        # normalized L-value shift congruence for conductors 8 and 16;
        # same-parity k values are counted as hypothesis skips
        SweepJob("1.4", {"m": [3, 4], "k": [0, 1, 2, 3], "n": [1, 2], "q": [1]}),
        # the excluded-region probe: these failures are expected data
        SweepJob("2.1x", {"p": [2], "m": [1], "k": [1, 3], "n": [2, 3]}),
    ),
    csv_path=str(workdir / "report.csv"),
    records_path=str(workdir / "report.jsonl"),
    cache_path=str(cache_file),
)

# run_sweep handles every file the config names: it loads the value cache,
# runs the grid, appends the values it computed and writes both reports.
report = run_sweep(config, BernoulliCache())

print(table_text(report))
print()
print("per-id summary:")
for id_, row in sorted(report.summary["per_id"].items()):
    print(f"  {id_:6s} total={row['total']:3d} holds={row['holds']:3d} "
          f"fails={row['fails']:3d} skips={row['skips']:3d} min_margin={row['min_margin']}")

print()
print(f"reports in {workdir.resolve()}")
print(f"value cache: {valuecache.entry_count(cache_file)} entries, "
      f"{len(valuecache.verify(cache_file))} mismatches on re-verification")

# Determinism: a second run with a fresh cache produces the same CSV bytes.
# The report writers take any open text stream, here an in-memory one.
again = run_sweep(SweepConfig(jobs=config.jobs), cache=BernoulliCache())
rendered = io.StringIO()
write_csv(again, rendered)
print("second run byte-identical:",
      rendered.getvalue() == (workdir / "report.csv").read_text(encoding="utf-8"))
