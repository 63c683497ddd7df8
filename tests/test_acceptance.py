"""Acceptance suite: one test per criterion, each printing a PASS line
with its runtime (run with ``pytest -s tests/test_acceptance.py`` to see
them).  Tolerances are exact congruence checks; runtime bounds are the
stated ones.

``test_criterion7_shift_iff_alignment_as_stated`` records a finding:
the odd-prime shift iff in its catalog-stated form (divisibility of h by
p^(n-1)) is refuted by exact computation, and the test asserts where it
fails, at exactly the points with val_p(h) = n - 1, each forced by the
1.7 shift congruence and the non-divisibility of L*_d.  The aligned form
(divisibility by p^n) is asserted in ``test_criterion7_odd_prime_shift``.
See the README, "Known results and sharpness data", for the analysis.
"""

import math
import random
import time
from fractions import Fraction
from lcong.bernoulli import BernoulliCache, ParityError, euler_number, l_value
from lcong.characters import (
    character,
    enumerate_characters,
    enumerate_primitive,
)
from lcong.congruences import (
    check_nondivisibility,
    unit_branch_witness,
    verify_character_orders,
    verify_floor_count,
    verify_lerch,
    verify_lvalue_shift_odd,
    verify_lvalue_shift_odd_iff,
    verify_lvalue_shift_two,
    verify_lvalue_shift_two_iff,
    verify_stern,
    verify_stern_iff,
    verify_sum_lift,
    verify_sum_twist,
    verify_sum_vanishing,
    verify_sum_vanishing_two,
    verify_sun,
    verify_twisted_voronoi,
    verify_voronoi,
)
from lcong.cyclotomic import p_content_valuation, rational_valuation
from lcong.power_sums import DomainError, power_sum
from lcong.sweep import SweepConfig, SweepJob, run_sweep, write_csv, write_records
from lcong import valuecache

from bernoulli_oracle import power_sum_via_bernoulli
from divisibility_oracle import squared_normalizer_divides_p
from fraction_oracle import coordinates
from moment_oracle import moment_twisted_bernoulli
from test_bernoulli import bernoulli_series_oracle, euler_series_oracle
from test_sweep import rendered


def report(criterion, detail, t0):
    print(f"\nPASS criterion {criterion}: {detail} ({time.perf_counter() - t0:.2f}s)")


def opposite_ks(chi, kmax):
    start = 0 if chi.is_odd() else 1
    return range(start, kmax + 1, 2)


def test_criterion1_identity_suite(chi4):
    t0 = time.perf_counter()
    from lcong.bernoulli import bernoulli_number

    b_oracle = bernoulli_series_oracle(31)
    assert all(bernoulli_number(k) == b_oracle[k] for k in range(31))
    e_oracle = euler_series_oracle(21)
    assert all(euler_number(k) == e_oracle[k] for k in range(21))
    for k in range(0, 31, 2):
        assert 2 * l_value(k, chi4) == euler_number(k)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"identity suite took {elapsed:.2f}s (budget 1s)"
    report(1, "Euler/L identity k<=30, series oracles for B_k (k<=30) and E_k (k<=20)", t0)


def test_criterion2_power_sum_oracle_equivalence():
    t0 = time.perf_counter()
    mismatches = 0
    total = 0
    for p, m in ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 1), (5, 2), (7, 1), (7, 2)):
        for chi in enumerate_characters(p, m):
            f = chi.modulus
            for k in range(13):
                for upper in (f, p * f):
                    total += 1
                    if power_sum(k, upper, chi) != power_sum_via_bernoulli(k, upper, chi):
                        mismatches += 1
    assert mismatches == 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 60, f"oracle equivalence took {elapsed:.1f}s"
    report(2, f"power-sum routes agree at {total} instances, 0 mismatches", t0)


def test_criterion3_stern_congruence():
    t0 = time.perf_counter()
    for k in range(0, 21, 2):
        for n in range(1, 7):
            for q in (1, 3, 5):
                assert verify_stern(k, n, q).holds, (k, n, q)
    rng = random.Random(20260808)
    checked = 0
    while checked < 100:
        n = rng.randint(1, 6)
        k = 2 * rng.randint(0, 40)
        l = 2 * rng.randint(0, 40)
        if (k - l) % 2**n == 0:
            continue
        v = verify_stern_iff(k, l, n)
        assert v.holds and not v.params["congruent"], (k, l, n)
        checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 10, f"Stern sweep took {elapsed:.1f}s (budget 10s)"
    report(3, "shift congruence on full grid; 100 violating pairs all non-congruent", t0)


def test_criterion4_two_power_shift_theorem(chi8):
    t0 = time.perf_counter()
    anchor = verify_lvalue_shift_two(chi8, 1, 1, 1)
    assert anchor.lhs == 24 and anchor.rhs == -8 and anchor.holds
    count = 0
    for m in (3, 4, 5):
        for chi in enumerate_primitive(2, m):
            ks = list(opposite_ks(chi, 20))
            for k in ks:
                for n in (1, 2, 3):
                    for q in (1, 3):
                        v = verify_lvalue_shift_two(chi, k, n, q)
                        assert v.holds and v.observed_margin >= n + 3, v.params
                        count += 1
            for k in ks:
                for l in ks:
                    for n in (1, 2, 3):
                        assert verify_lvalue_shift_two_iff(chi, k, l, n).holds, (chi.label(), k, l, n)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120, f"two-power grid took {elapsed:.1f}s (budget 2min)"
    report(4, f"{count} shift instances hold at margin >= n+3; iff agrees on full grid", t0)


def coprime_sample(p, size=4):
    out = []
    a = 1
    while len(out) < size:
        if a % p:
            out.append(a)
        a += 1
    return out


def test_criterion5_twisted_floor_sum_theorem(chi8):
    t0 = time.perf_counter()
    anchor = verify_twisted_voronoi(chi8, 3, 1, 3)
    assert anchor.lhs == -10 and anchor.rhs == -18 and anchor.holds
    count = 0
    for p in (2, 3, 5):
        max_m = {2: 3, 3: 3, 5: 2}[p]  # p^m <= 32
        for m in range(1, max_m + 1):
            for chi in enumerate_characters(p, m):
                for k in opposite_ks(chi, 12):
                    for n in range(m, 5):
                        if p in (2, 3) and n < 2:
                            continue
                        for a in coprime_sample(p):
                            v = verify_twisted_voronoi(chi, a, k, n)
                            assert v.holds, (p, m, chi.label(), a, k, n, v.observed_margin)
                            count += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 120, f"floor-sum grid took {elapsed:.1f}s (budget 2min)"
    report(5, f"{count} twisted floor-sum instances hold (p in 2,3,5, moduli <= 32)", t0)


def test_criterion6_power_sum_lemmas():
    t0 = time.perf_counter()
    moduli = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (5, 1), (5, 2)]

    checked = 0
    for p, m in moduli:
        for chi in enumerate_characters(p, m):
            for k in range(13):
                excluded = p == 2 and m == 1 and k % 2 == 1
                for n in range(m, 5):
                    if not excluded:
                        assert verify_sum_lift(chi, k, n).holds, ("lift", p, m, chi.label(), k, n)
                        checked += 1

    # excluded region of the lift congruence genuinely fails
    triv2 = character(2, 1, (0,))
    lift_failures = [
        (k, n)
        for k in (1, 3, 5)
        for n in (2, 3, 4)
        if not verify_sum_lift(triv2, k, n).holds
    ]
    assert lift_failures, "expected genuine failures for the parity-free character"

    for p, m in moduli:
        for chi in enumerate_primitive(p, m):
            for k in range(13):
                for a in coprime_sample(p, 4):
                    assert verify_sum_twist(chi, k, a).holds, ("twist", p, m, k, a)
                    checked += 1

    for p, m in moduli:
        fam = enumerate_characters(2, 1) if (p, m) == (2, 1) else enumerate_primitive(p, m)
        for chi in fam:
            for k in range(13):
                for n in range(max(m, 1), 5):
                    assert verify_sum_vanishing(chi, k, n).holds, ("vanish", p, m, k, n)
                    checked += 1
                if p == 2:
                    strengthened = m >= 3 or (m == 2 and k % 2 == 0) or (m == 1 and k % 2 == 1)
                    for n in range(max(m, 2), 5):
                        v = verify_sum_vanishing_two(chi, k, n)
                        if strengthened:
                            assert v.holds, ("vanish2", m, k, n)
                            checked += 1

    # both excluded cases of the strengthened vanishing genuinely fail
    chi4 = character(2, 2, (1,))
    assert not verify_sum_vanishing_two(chi4, 1, 2).holds
    assert not verify_sum_vanishing_two(triv2, 2, 2).holds

    # exact value orders for every primitive character with modulus <= 81
    order_checks = 0
    for p, m in ((2, 3), (2, 4), (2, 5), (2, 6), (3, 2), (3, 3), (3, 4), (5, 2), (7, 2)):
        for chi in enumerate_primitive(p, m):
            assert verify_character_orders(chi).holds, (p, m, chi.label())
            order_checks += 1
    report(6, f"{checked} lemma instances hold; excluded cases fail; {order_checks} order checks", t0)


def _branch_grid():
    for p in (3, 5, 7):
        for m in (1, 2):
            for chi in enumerate_primitive(p, m):
                for k in opposite_ks(chi, 12):
                    for n in (1, 2):
                        for q in (1, 2):
                            yield chi, k, n, q


def test_criterion7_odd_prime_shift():
    t0 = time.perf_counter()
    branch_i = []
    branch_ii = []
    skips = 0
    for chi, k, n, q in _branch_grid():
        try:
            v = verify_lvalue_shift_odd(chi, k, n, q)
        except DomainError:
            skips += 1
            continue
        (branch_i if v.branch == "i" else branch_ii).append(v)

    assert branch_i, "expected branch (i) instances on the grid"
    assert all(v.holds for v in branch_i), "branch (i) must hold as stated"

    # branch (ii): outcomes are reported data with margins recorded
    assert branch_ii
    margin_excess = {}
    for v in branch_ii:
        excess = v.observed_margin - v.required_modulus_exponent
        margin_excess[excess] = margin_excess.get(excess, 0) + 1

    # reproducibility: recompute a sample from scratch, bit-identical
    sample = branch_ii[:: max(1, len(branch_ii) // 8)]
    fresh = BernoulliCache()
    for v in sample:
        p, m, images = _params_to_char_key(v.params["chi"])
        chi = character(p, m, images)
        again = verify_lvalue_shift_odd(chi, v.params["k"], v.params["n"], v.params["q"], cache=fresh)
        assert again == v, "verdicts must reproduce bit-identically"

    # findings table
    print("\nodd-prime shift findings (branch ii):")
    print(f"  instances: {len(branch_ii)}, holds: {sum(v.holds for v in branch_ii)}, "
          f"margin excess distribution: {dict(sorted(margin_excess.items()))}")
    observations = {
        chi.label(): squared_normalizer_divides_p(chi)
        for p in (3, 5, 7)
        for chi in enumerate_primitive(p, 2)[:2]
    }
    print(f"  (1 - chi(p+1))^2 divides p (reported observation): {observations}")

    # the shift iff in its aligned form: congruence mod p^n <-> p^n | h,
    # asserted in both directions wherever the shift congruence holds
    iff_checked = 0
    seen = set()
    for v in branch_ii:
        if not v.holds:
            continue
        key = (v.params["chi"], v.params["k"], v.params["n"])
        if key in seen:
            continue
        seen.add(key)
        p, m, images = _params_to_char_key(v.params["chi"])
        chi = character(p, m, images)
        k, n = v.params["k"], v.params["n"]
        for h in (0, 1, p ** (n - 1), p**n, 2 * p**n):
            vv = verify_lvalue_shift_odd_iff(chi, k, h, n)
            assert vv.params["congruent"] == vv.params["expected_aligned"], (key, h)
            iff_checked += 1
    assert iff_checked
    report(7, f"branch i: {len(branch_i)} hold; branch ii: {len(branch_ii)} recorded; "
              f"aligned iff agrees at {iff_checked} points", t0)


def _params_to_char_key(label):
    modulus_text, _, images_text = label.partition(":")
    modulus = int(modulus_text)
    images = tuple(int(e) for e in images_text.split(","))
    p = min(q for q in range(2, modulus + 1) if modulus % q == 0)
    m = 0
    while modulus > 1:
        modulus //= p
        m += 1
    return p, m, images


def test_criterion7_shift_iff_alignment_as_stated():
    """The odd-prime shift iff in its catalog-stated form: congruence mod
    p^n iff h == 0 (mod p^(n-1)).

    Exact computation refutes this alignment at exactly the points with
    val_p(h) = n - 1, and the test asserts that disagreement set.  There
    h = p^(n-1) q with p not dividing q, and L*_(k+(p-1)h) - L*_k is the
    left side of the 1.7 shift congruence, which holds with a right side
    of content valuation exactly n - 1 (L*_d is sharply non-divisible,
    nondiv); so the difference has valuation n - 1, one power short of
    p^n.  Everywhere else the stated predicate agrees with the
    congruence, whose truth is checked against p-integrality of the
    difference over p^n, and at n = 1 the L* values are recomputed from
    the moment formula of tests/moment_oracle.py, a route independent of
    the Bernoulli-polynomial rows lcong uses.  The test fails if the printed
    alignment ever holds at a boundary point or fails anywhere else; see
    the README, "Known results and sharpness data".
    """
    t0 = time.perf_counter()
    points = 0
    boundary = set()
    disagreements = set()
    oracle_checks = 0
    for p in (3, 5, 7):
        for chi in enumerate_primitive(p, 2):
            k0 = 0 if chi.is_odd() else 1
            if unit_branch_witness(chi, k0) is not None:
                continue
            assert check_nondivisibility(chi, k0).holds, chi.label()  # d = k0 < p - 1
            normalizer = 1 - chi(p + 1)
            for n in (1, 2):
                for h in sorted({0, 1, p ** (n - 1), 2 * p ** (n - 1), p**n}):
                    point = (chi.label(), k0, n, h)
                    v = verify_lvalue_shift_odd_iff(chi, k0, h, n)
                    points += 1
                    diff = v.lhs - v.rhs
                    integral = all(c.denominator % p for c in coordinates(diff / p**n))
                    assert v.params["congruent"] == integral == v.params["expected_aligned"], point
                    vh = rational_valuation(h, p)  # INFINITE at h = 0, as is the margin
                    assert v.observed_margin == vh, point
                    if n == 1:  # h = 0 covers the right side, L*_k0
                        k = k0 + (p - 1) * h
                        l_moment = moment_twisted_bernoulli(chi, k + 1) * Fraction(-1, k + 1)
                        assert v.lhs == normalizer * l_moment, point
                        oracle_checks += 1
                    if v.params["expected"] != v.params["congruent"]:
                        disagreements.add(point)
                    if vh == n - 1:
                        boundary.add(point)
                        w = verify_lvalue_shift_odd(chi, k0, n, h // p ** (n - 1))
                        assert w.branch == "ii" and w.holds, point
                        assert w.lhs == diff, point
                        assert p_content_valuation(w.rhs, p) == n - 1, point

    holding_at_boundary = sorted(boundary - disagreements)
    failing_elsewhere = sorted(disagreements - boundary)
    assert boundary and disagreements == boundary, (
        f"the stated p^(n-1) alignment should fail at exactly the {len(boundary)} of "
        f"{points} points with val_p(h) = n-1; it holds at {holding_at_boundary[:3]} "
        f"and fails elsewhere at {failing_elsewhere[:3]}; see the README, "
        "\"Known results and sharpness data\""
    )
    report("7 (1.8 as stated)",
           f"printed alignment fails at exactly {len(disagreements)} of {points} points, "
           f"all val_p(h) = n-1, each forced by 1.7 (holds) and nondiv; "
           f"{oracle_checks} L* values match the moment-formula oracle", t0)


#: 1.8 sweeps at conductors 27, 81 and 125 (m = 3 and 4), with the number
#: of verdicts each gives.
_SHIFT_IFF_BEYOND_M2 = [
    ({"p": [3], "m": [3], "k": "0..4", "h": "1..9", "n": "1..3"}, 810),
    ({"p": [3], "m": [4], "k": "0..3", "h": "1..9", "n": "1..3"}, 1944),
    ({"p": [5], "m": [3], "k": "0..3", "h": "1..10", "n": "1..2"}, 2400),
]


def test_criterion7_shift_iff_valuation_beyond_m2():
    """The 1.8 finding at m = 3 and 4: at every verdict the difference
    L*_(k+(p-1)h) - L*_k has p-content valuation exactly val_p(h), so the
    congruence mod p^n holds iff p^n | h."""
    t0 = time.perf_counter()
    for params, count in _SHIFT_IFF_BEYOND_M2:
        report_ = run_sweep(SweepConfig(jobs=(SweepJob("1.8", params),)), cache=BernoulliCache())
        assert len(report_.verdicts) == count, params
        p = params["p"][0]
        for v in report_.verdicts:
            h, n = v.params["h"], v.params["n"]
            assert v.observed_margin == rational_valuation(h, p), v.params
            assert v.params["congruent"] == (h % p**n == 0), v.params
    report("7 (1.8 beyond m = 2)",
           "margin = val_p(h) and congruent iff p^n | h at all 5154 verdicts "
           "for conductors 27, 81, 125", t0)


#: Criterion 7's 1.6/1.7 grids beyond m = 2, every instance checked:
#: (p, m, k range, n values) -> {(branch, holds, margin - n): verdicts}
#: and the parity skips (q runs over 1 and 2 throughout).
_BRANCH_MARGINS_BEYOND_M2 = [
    ((3, 3, range(13), (1, 2, 3)), {("ii", True, 0): 468}, 468),
    ((3, 4, range(5), (1, 2)), {("ii", True, 0): 360}, 360),
    ((5, 3, range(5), (1, 2)), {("i", True, 0): 160, ("ii", True, 0): 640}, 800),
]


def test_criterion7_branch_margins_beyond_m2():
    """The 1.6/1.7 shift congruence at conductors 27, 81 and 125: every
    verdict holds with margin exactly n, in branch (ii) only at 27 and 81
    and in both branches at 125."""
    t0 = time.perf_counter()
    for (p, m, ks, ns), expected, parity_skips in _BRANCH_MARGINS_BEYOND_M2:
        cache, histogram, skips = BernoulliCache(), {}, 0
        for chi in enumerate_primitive(p, m):
            for k in ks:
                for n in ns:
                    for q in (1, 2):
                        try:
                            v = verify_lvalue_shift_odd(chi, k, n, q, cache=cache)
                        except ParityError:
                            skips += 1
                            continue
                        assert v.required_modulus_exponent == n, v.params
                        key = (v.branch, v.holds, v.observed_margin - n)
                        histogram[key] = histogram.get(key, 0) + 1
        assert histogram == expected, p**m
        assert skips == parity_skips, p**m
    report("7 (1.6/1.7 beyond m = 2)",
           "all 1628 verdicts hold with margin exactly n at conductors 27, 81, 125", t0)


def test_criterion8_classical_checks():
    t0 = time.perf_counter()
    for p in (5, 7, 11):
        for a in range(1, p):
            for k in range(2, 13, 2):
                if k % (p - 1) == 0:
                    continue
                assert verify_voronoi(a, p, k).holds, ("voronoi", a, p, k)
    for n in (5, 8, 9, 16, 27):
        for a in range(1, n):
            if math.gcd(a, n) == 1:
                assert verify_lerch(a, n).holds, ("lerch", a, n)
    for k in range(0, 13, 2):
        for n in range(1, 6):
            assert verify_sun(k, n).holds, ("sun", k, n)
    for m in (3, 4, 5, 6):
        assert verify_floor_count(m).holds
    elapsed = time.perf_counter() - t0
    assert elapsed < 30, f"classical checks took {elapsed:.1f}s (budget 30s)"
    report(8, "floor-sum congruences and floor-count parity all hold", t0)


def test_criterion9_infrastructure(tmp_path):
    t0 = time.perf_counter()
    config = SweepConfig(jobs=(
        SweepJob("1.4", {"m": [3, 4], "k": [0, 1, 2, 3], "n": [1, 2], "q": [1]}),
        SweepJob("1.3", {"k": [0, 2, 4], "n": [1, 2], "q": [1]}),
    ))

    # determinism: fresh caches, identical machine-readable reports
    first = run_sweep(config, cache=BernoulliCache())
    second = run_sweep(config, cache=BernoulliCache())
    assert rendered(write_csv, first) == rendered(write_csv, second)
    bodies = [rendered(write_records, r).split("\n", 1)[1] for r in (first, second)]
    assert bodies[0] == bodies[1]  # all but the timestamped header

    # cache soundness: after a sweep, every persisted value recomputes identically
    cache_file = tmp_path / "values.jsonl"
    run_sweep(SweepConfig(jobs=config.jobs, cache_path=str(cache_file)))
    assert valuecache.entry_count(cache_file) > 0
    assert valuecache.verify(cache_file) == []
    report(9, "deterministic reports, cache verifies clean", t0)
