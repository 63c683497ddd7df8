"""Parameter-grid sweeps with machine-readable reports and a persistent
value cache.

The same machinery backs the ``lcong`` command line; this script drives
it as a library.  Reports are deterministic: identical configs yield
byte-identical CSV files, and the only timestamp lives in the JSONL
header record.
"""

import tempfile
from pathlib import Path

from lcong import BernoulliCache, SweepConfig, SweepJob, run_sweep
from lcong.sweep import csv_text, table_text
from lcong import valuecache

workdir = Path(tempfile.mkdtemp(prefix="lcong-demo-"))

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
)

cache = BernoulliCache()
cache_file = workdir / "values.jsonl"
valuecache.load_into(cache_file, cache)

report = run_sweep(config, cache=cache)

written = valuecache.append_new(cache_file, cache)

print(table_text(report, max_rows=12))
print()
print("per-id summary:")
for id_, row in sorted(report.summary["per_id"].items()):
    print(f"  {id_:6s} total={row['total']:3d} holds={row['holds']:3d} "
          f"fails={row['fails']:3d} skips={row['skips']:3d} min_margin={row['min_margin']}")

print()
print(f"reports in {workdir}")
print(f"value cache: {written} new entries, "
      f"{len(valuecache.verify(cache_file))} mismatches on re-verification")

# Determinism: a second run with a fresh cache produces the same CSV bytes.
again = run_sweep(SweepConfig(jobs=config.jobs), cache=BernoulliCache())
print("second run byte-identical:", csv_text(again) == csv_text(report))
