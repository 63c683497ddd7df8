"""Host-speed probe: a fixed pure-Python workload that never imports lcong.

    python3 perfbench/probe.py

The benchmark spawns it beside every timed sweep, as a fresh interpreter
like the sweep, and scales its times by how long the probe took (see
`run.py`).  Its work resembles a sweep's -- small integer vectors
multiplied and reduced, a dict memo, exact fractions, sorting -- so that
a host slowdown that hits the sweep hits the probe too.  Changing this
file changes the scale of every benchmark time: leave it alone.
"""

from fractions import Fraction


class Vec:
    __slots__ = ("c",)

    def __init__(self, c):
        self.c = c

    def __mul__(self, other):
        n = len(self.c)
        out = [0] * n
        for i, a in enumerate(self.c):
            if a:
                for j, b in enumerate(other.c):
                    k = i + j
                    if k >= n:
                        k -= n
                        out[k] -= a * b
                    else:
                        out[k] += a * b
        return Vec([x % 1_000_003 for x in out])


def main() -> int:
    x = Vec([1, 2, 0, 3, 0, 0, 1, 5])
    memo = {}
    for i in range(18_000):
        x = x * Vec([i % 7, 1, 0, 0, 2, 0, 0, 1])
        memo[tuple(x.c)] = i
    total = Fraction(0)
    for i in range(1, 1_700):
        total += Fraction(i % 5 + 1, i)
    big = 1
    for i in range(1, 2_400):
        big = big * (i | 1) % (1 << 3000)
    sorted((k * 2654435761) % 1_000_003 for k in range(400_000))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
