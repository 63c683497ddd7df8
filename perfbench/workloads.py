"""Workload definitions for the `lcong sweep` benchmark, kept as data.

Each workload is one sweep config, run through the CLI exactly as a user
would write it.  An axis given as a `Sampled` value is redrawn by the
benchmark's `--seed` from fixed pools; seed 0 gives the defaults, whose
report digests are recorded in `references.json`.  Every pool holds only
values for which each verdict of the grid holds, and each draw keeps the
shape of the default (how many values are skipped for which prime), so
verdict and skip counts do not depend on the seed.  Jobs with a sampled
axis come last, so the report rows of the other jobs keep their place
and their bytes under every seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Sampled:
    """An axis redrawn per seed: `count` values from each pool, in order."""

    default: tuple
    pools: tuple[tuple[tuple, int], ...]

    def draw(self, rng: random.Random) -> list:
        out = []
        for pool, count in self.pools:
            out.extend(sorted(rng.sample(pool, count)))
        return out


def _primitive_two_power(m: int) -> tuple:
    # Image exponents (on -1, on 5) of the primitive characters mod 2^m:
    # the image on 5 must have full order 2^(m-2), i.e. be odd.
    return tuple((e1, e2) for e1 in (0, 1) for e2 in range(1, 2 ** (m - 2), 2))


# The moduli of the power-sum lemma acceptance grid (criterion 6).
_CRITERION6 = {2: [1, 2, 3], 3: [1, 2, 3], 5: [1, 2]}


def _lemma_jobs() -> list[dict]:
    jobs = []
    for id_ in ("2.1", "2.2", "2.4"):
        for p, ms in _CRITERION6.items():
            job = {"id": id_, "p": [p], "m": ms, "k": "0..8"}
            if id_ == "2.2":
                job["a"] = [1, 2, 3, 4]
            else:
                job["n"] = "1..3"
            jobs.append(job)
    jobs.append({"id": "2.5", "m": [1, 2, 3], "k": "0..8", "n": "1..3"})
    for p, ms in _CRITERION6.items():
        jobs.append({"id": "2.3", "p": [p], "m": ms})
    # Single characters at large moduli: enumerating them costs O(phi^2)
    # through the per-character lookup tables.
    jobs.append({
        "id": "2.2", "p": [2], "m": [9], "k": "0..3", "a": [3],
        "chi": Sampled(default=((1, 1),), pools=((_primitive_two_power(9), 1),)),
    })
    jobs.append({
        "id": "2.3", "p": [2], "m": [11],
        "chi": Sampled(default=((1, 1), (1, 3)), pools=((_primitive_two_power(11), 2),)),
    })
    return jobs


#: name -> workload.  `cache` is "warm" (a cache file built in set-up and
#: copied fresh into every run), "cold" (an empty cache path per run) or
#: None (no cache).  `history` lists the jobs that put entries for other
#: moduli into the warm cache before the workload's own cold run.
WORKLOADS: dict[str, dict] = {
    "odd-shift-warm": {
        "jobs": [{"id": "1.6", "p": [3, 5, 7], "m": [1, 2], "k": "0..2",
                  "n": [1, 2], "q": [1, 2]}],
        "cache": "warm",
        "history": [
            {"id": "ernvall", "chi_p": [2], "chi_m": [3, 4, 5, 6], "p": [3],
             "k": "1..24", "l": "1..24:23", "n": [1]},
            {"id": "ernvall", "chi_p": [11, 13, 17, 19], "chi_m": [1], "p": [3],
             "k": "1..30", "l": "1..30:29", "n": [1]},
        ],
    },
    "two-power-cold": {
        "jobs": [
            {"id": "1.4", "m": "3..5", "k": "0..20", "n": "1..3", "q": [1, 3]},
            {"id": "1.5", "m": "3..5", "k": "0..20", "l": "0..20", "n": "1..2"},
            # Two values prime to 6 and two even values prime to 3, so
            # that p = 2 skips exactly two of them and p = 3 none.
            {"id": "3.2", "p": [2, 3], "m": "1..3", "k": "0..12", "n": "2..4",
             "a": Sampled(default=(1, 2, 4, 5), pools=(
                 ((1, 5, 7, 11, 13, 17, 19, 23), 2),
                 ((2, 4, 8, 10, 14, 16, 20, 22), 2),
             ))},
        ],
        "parallelism": 2,
        "cache": "cold",
    },
    "lemma-wide": {
        "jobs": _lemma_jobs(),
        "cache": None,
    },
}


def _resolve(value, rng: random.Random | None):
    if not isinstance(value, Sampled):
        return value
    values = list(value.default) if rng is None else value.draw(rng)
    return [list(v) if isinstance(v, tuple) else v for v in values]


def sweep_config(name: str, seed: int) -> dict:
    """The JSON sweep config of a workload for one seed."""
    workload = WORKLOADS[name]
    rng = None if seed == 0 else random.Random(seed)
    jobs = [{key: _resolve(value, rng) for key, value in job.items()}
            for job in workload["jobs"]]
    config: dict = {"jobs": jobs}
    if "parallelism" in workload:
        config["parallelism"] = workload["parallelism"]
    return config


def _is_sampled(job: dict) -> bool:
    return any(isinstance(value, Sampled) for value in job.values())


def fixed_config(name: str) -> dict:
    """The config of the jobs the seed leaves alone (the leading ones)."""
    jobs = WORKLOADS[name]["jobs"]
    fixed = [job for job in jobs if not _is_sampled(job)]
    if jobs[:len(fixed)] != fixed:
        raise ValueError(f"{name}: jobs with a sampled axis must come last")
    return {"jobs": fixed}


def history_config(name: str) -> dict | None:
    """The config whose sweep fills the warm cache with other moduli."""
    history = WORKLOADS[name].get("history")
    return {"jobs": history} if history else None
