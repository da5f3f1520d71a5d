"""Slow references for fast paths in `src/`, kept on the test side.

Each reference is the straightforward form of a fast path, kept unchanged so
that differential tests can hold the fast path to it.

`ReferencePairChecker` is the flag-driven one-pass checker that
`PairChecker.run` replaced: it decides every requested statement at every
step, keeps the difference profile d = n_R - n_L in an array, and keeps the
left neighbour's count at each k-th visit in one list per site and path.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort

from arrowwalk.verify import PairChecker, VerifyResult


class ReferencePairChecker(PairChecker):
    """`PairChecker` with the per-step loop it had before the five
    statements count dominance implies were deferred."""

    def run(self) -> dict[str, VerifyResult]:
        pos_l = self.positions_l
        pos_r = self.positions_r
        horizon = len(pos_l) - 1

        # One site of margin on each side, so i - 1 and i + 1 index the
        # arrays for every visited site's index i.
        lo = min(min(pos_l), min(pos_r)) - 1
        hi = max(max(pos_l), max(pos_r)) + 1
        off = -lo
        width = hi - lo + 1
        nl = [0] * width
        nr = [0] * width
        diff = [0] * width  # nr - nl per site
        plus: list[int] = []  # sites with diff > 0, sorted
        minus: list[int] = []  # sites with diff < 0, sorted

        # One flag per statement not yet failed; envelopes and hitting_order
        # fail together, so they share one.  `live` counts the flags set.
        checks = self.checks
        on_env = "envelopes" in checks or "hitting_order" in checks
        on_count = "count_dominance" in checks
        on_max = "max_visits" in checks
        on_nbr = "neighbour_interval" in checks
        on_kth = "kth_visit_counts" in checks
        on_rec = "record_lead" in checks
        live = on_env + on_count + on_max + on_nbr + on_kth + on_rec
        failures: dict[str, dict] = {}

        def fail(check: str, witness: dict) -> bool:
            """Record the witness; the new value of the check's flag."""
            nonlocal live
            failures[check] = witness
            live -= 1
            return False

        # per site index: the left neighbour's count at each visit
        kth_l: list[list[int]] = [[] for _ in range(width)] if on_kth else []
        kth_r: list[list[int]] = [[] for _ in range(width)] if on_kth else []

        max_l = max_r = min_l = min_r = 0
        hyp_plus = False  # some site ever had nr > nl
        hyp_rec = False
        hyp_kth = False

        for t in range(horizon + 1):
            a = pos_l[t]
            b = pos_r[t]

            if t and on_rec:
                if b > max_r:
                    hyp_rec = True
                    if b < a:
                        on_rec = fail("record_lead", {"t": t, "detail": f"R={b} < L={a} at R max record"})
                if a < min_l and on_rec:
                    hyp_rec = True
                    if a > b:
                        on_rec = fail("record_lead", {"t": t, "detail": f"L={a} > R={b} at L min record"})

            # count updates for time t
            ia = a + off
            nl[ia] += 1
            ib = b + off
            nr[ib] += 1
            if on_count or on_nbr:
                d = diff[ia]
                diff[ia] = d - 1
                if d == 1:
                    plus.pop(bisect_left(plus, a))
                elif d == 0:
                    insort(minus, a)
                d = diff[ib]
                diff[ib] = d + 1
                if d == -1:
                    minus.pop(bisect_left(minus, b))
                elif d == 0:
                    insort(plus, b)
                    hyp_plus = True

            if t:
                if a > max_l:
                    max_l = a
                elif a < min_l:
                    min_l = a
                if b > max_r:
                    max_r = b
                elif b < min_r:
                    min_r = b

            # A unit-step path from 0 has hit exactly the sites between its
            # running extremes, so R trails L's envelope exactly when L has
            # reached a positive site (or R a negative one) first.
            if on_env:
                if max_r < max_l:
                    failures["hitting_order"] = {"t": t, "x": max_l, "detail": "L reached a positive site before R"}
                    on_env = fail("envelopes", {"t": t, "detail": f"running max R={max_r} < L={max_l}"})
                elif min_r < min_l:
                    failures["hitting_order"] = {"t": t, "x": min_r, "detail": "R reached a negative site before L"}
                    on_env = fail("envelopes", {"t": t, "detail": f"running min R={min_r} < L={min_l}"})

            if on_count and plus and minus:
                x = plus[0]
                y = minus[-1]
                if x < y:
                    on_count = fail("count_dominance", {"t": t, "x": x, "detail": f"R leads visits at {x} but trails at {y}"})

            if on_max:
                i = max_r + off
                if nr[i] < nl[i]:
                    on_max = fail("max_visits", {"t": t, "x": max_r, "detail": "R visits its running max less than L does"})
                else:
                    i = min_l + off
                    if nl[i] < nr[i]:
                        on_max = fail("max_visits", {"t": t, "x": min_l, "detail": "L visits its running min less than R does"})

            if on_nbr:
                # at L's site, then at R's: R trails right of where it leads
                x = None
                d = diff[ia]
                if d < 0:
                    if diff[ia - 1] > 0:
                        x = a
                elif d > 0 and diff[ia + 1] < 0:
                    x = a + 1
                if x is None:
                    d = diff[ib]
                    if d < 0:
                        if diff[ib - 1] > 0:
                            x = b
                    elif d > 0 and diff[ib + 1] < 0:
                        x = b + 1
                if x is not None:
                    on_nbr = fail("neighbour_interval", {"t": t, "x": x, "detail": "R leads at left neighbour but trails here"})
                elif b < a and plus:
                    i = bisect_left(plus, b)
                    if i < len(plus) and plus[i] < a:
                        y0 = plus[i]
                        j = bisect_right(minus, a) - 1
                        if j >= 0 and minus[j] > y0:
                            on_nbr = fail("neighbour_interval", {
                                "t": t, "x": minus[j],
                                "detail": f"R trails at {minus[j]} inside lead interval [{y0}, {a}]",
                            })

            if on_kth:
                k = nl[ia]
                c = nl[ia - 1]
                kth_l[ia].append(c)
                other = kth_r[ia]
                if len(other) >= k:
                    hyp_kth = True
                    if other[k - 1] > c:
                        on_kth = fail("kth_visit_counts", {
                            "t": t, "x": a, "k": k,
                            "detail": f"R saw left neighbour {other[k - 1]} times vs L {c}",
                        })
                k = nr[ib]
                c = nr[ib - 1]
                kth_r[ib].append(c)
                other = kth_l[ib]
                if len(other) >= k:
                    hyp_kth = True
                    if on_kth and c > other[k - 1]:
                        on_kth = fail("kth_visit_counts", {
                            "t": t, "x": b, "k": k,
                            "detail": f"R saw left neighbour {c} times vs L {other[k - 1]}",
                        })

            if not live:
                break

        vacuous = {
            "envelopes": False,
            "max_visits": False,
            "hitting_order": max_l <= 0 and min_r >= 0,
            "count_dominance": not hyp_plus,
            "neighbour_interval": not hyp_plus,
            "kth_visit_counts": not hyp_kth,
            "record_lead": not hyp_rec,
        }
        results = {}
        for check in self.checks:
            witness = failures.get(check)
            results[check] = VerifyResult(
                statement=check,
                passed=witness is None,
                vacuous=witness is None and vacuous[check],
                witness=witness,
            )
        return results
