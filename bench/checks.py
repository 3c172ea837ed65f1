"""Correctness checks on the program's reports, run outside the timed region.

A query passes when its exit code is the expected one, every reference
field stored in the pool matches exactly, and every mechanism it returns
re-verifies: it is IC (``check_ic`` / ``check_ic_n``) and earns exactly the
value or payoff the report claims.  Mechanisms are re-verified rather than
compared, because an LP with several optima may return another vertex.
"""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np

# Report fields stored as exact references, per command.
EXPECT_FIELDS = {
    "inspect": ("rank", "independent", "expected_value", "labels_swapped",
                "expected_values", "vbar", "unbiased"),
    "check-ic": ("ic", "common_value"),
    "maximin": ("value",),
    "spans": ("spans",),
    "classify": ("maximal", "minimal", "rank"),
    "additivity": ("pi_additive", "residual_norm_sq"),
    "construct": ("profitable", "payoff"),
    "transport": ("value", "profitable"),
    "orthogonal": ("orthogonal",),
    "decompose": ("q",),
    "myo": ("best_value", "profitable"),
    "alloc-n": ("profitable", "vbar", "payoff", "exact_iff"),
    "oracle": ("value", "profitable", "baseline"),
}


class Checker:
    """Checks (query, exit code, output) triples against a pool.

    Call it only while the program's original, untraced functions are
    bound.  Identical outputs of one query are checked once.
    """

    def __init__(self, pool: dict):
        from icmech import core, ic, nalloc
        self.core, self.ic, self.nalloc = core, ic, nalloc
        self.pool = pool
        self._instances: dict = {}
        self._verdicts: dict = {}

    def check(self, qi: int, rc, out: str) -> str | None:
        """None if the output is correct, else the reason it is not."""
        key = (qi, rc, out)
        if key not in self._verdicts:
            try:
                self._verdicts[key] = self._check(self.pool["queries"][qi], rc, out)
            except (ValueError, KeyError, TypeError, ArithmeticError) as e:
                self._verdicts[key] = f"unreadable report: {e!r}"
        return self._verdicts[key]

    def _instance(self, key: str):
        if key not in self._instances:
            data = self.pool["files"][key]
            load = self.core.load_instance if "vL" in data else self.nalloc.load_allocation
            self._instances[key] = load(data)
        return self._instances[key]

    def _check(self, query: dict, rc, out: str) -> str | None:
        if rc != query["exit"]:
            return f"exit {rc!r}, expected {query['exit']}"
        if rc != 0:
            return None
        report = json.loads(out)
        for field, value in query["expect"].items():
            if report.get(field) != value:
                return f"{field} = {report.get(field)!r}, expected {value!r}"
        command, first = query["argv"][0], query["argv"][1][1:]
        if command == "oracle":
            return self._mechanism(first, report, report["value"])
        if command in ("construct", "alloc-n") and report["profitable"]:
            return self._mechanism(first, report, report["payoff"])
        if command == "transport":
            return self._transport(first, report)
        return None

    def _mechanism(self, key: str, report: dict, claimed: str) -> str | None:
        inst = self._instance(key)
        claimed = Fraction(claimed)
        if isinstance(inst, self.core.Instance):
            mech = self.core.load_mechanism(report["mechanism"], inst.space)
            if not self.ic.check_ic(mech, inst.dist).verdict:
                return "returned mechanism is not IC"
            earned = self.core.expectation(inst.dist, inst.v * mech.x)
        else:
            mech = self.nalloc.load_allocation_mechanism(report["mechanism"], inst)
            if not self.nalloc.check_ic_n(mech, inst).verdict:
                return "returned allocation mechanism is not IC"
            p = inst.dist.p
            earned = sum(p[idx] * v[idx] * x[idx]
                         for v, x in zip(inst.values, mech.x)
                         for idx in np.ndindex(*p.shape))
        if earned != claimed:
            return f"mechanism earns {earned}, report claims {claimed}"
        return None

    def _transport(self, key: str, report: dict) -> str | None:
        inst = self._instance(key)
        q = [[Fraction(v) for v in row] for row in report["optimizer"]]
        ml, mr = inst.dist.marginals()
        if any(v < 0 for row in q for v in row) \
                or [sum(row) for row in q] != list(ml) \
                or [sum(col) for col in zip(*q)] != list(mr):
            return "transport optimizer has the wrong marginals"
        p = inst.dist.p
        value = sum(q[i][j] * inst.v[i, j] * p[i, j] / (ml[i] * mr[j])
                    for i in range(len(ml)) for j in range(len(mr)))
        if value != Fraction(report["value"]):
            return f"transport optimizer attains {value}, report claims {report['value']}"
        return None
