"""Independent reference computations for the benchmark's output checks.

These work on the raw generated data (plain dicts and lists), never on the
package's objects, and recompute everything from scratch: the CF oracle
rebuilds neighbour lists, Pearson similarities and predictions for every
removed item, and the relaxation oracle derives the minimal relaxations
from each item's set of violated requirements in O(items x requirements),
not by subset search.

Degeneracy is defined as "a constant sample". The generator keeps every
rating on the 0.5 grid, where that coincides with the package's test.
"""

from __future__ import annotations

import math

from datagen import violates

RATING_MIN, RATING_MAX = 0.0, 5.0
DELTA_TOLERANCE = 1e-9


class NoBasis(Exception):
    """The user has no neighbour who rated the item."""


def rating_rows(data: dict, without: str | None = None) -> dict[str, dict[str, float]]:
    rows: dict[str, dict[str, float]] = {}
    for user, item, value in data["ratings"]:
        if item != without:
            rows.setdefault(user, {})[item] = float(value)
    return rows


def _mean(values: list[float]) -> float:
    return math.fsum(values) / len(values)


def _similarity(x: list[float], y: list[float]) -> float:
    if min(x) == max(x) or min(y) == max(y):
        return 0.0
    mx, my = _mean(x), _mean(y)
    dx = [a - mx for a in x]
    dy = [b - my for b in y]
    sxx = math.fsum(a * a for a in dx)
    syy = math.fsum(b * b for b in dy)
    return math.fsum(a * b for a, b in zip(dx, dy)) / math.sqrt(sxx * syy)


def neighbours(rows: dict, user: str, k: int) -> list[tuple[str, float]]:
    own = rows[user]
    scored = []
    for other in sorted(rows):
        if other == user:
            continue
        common = sorted(own.keys() & rows[other].keys())
        if len(common) < 2:
            continue
        scored.append(
            (other, _similarity([own[i] for i in common], [rows[other][i] for i in common]))
        )
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return scored[:k]


def predict(rows: dict, user: str, item: str, k: int) -> float:
    if user not in rows:
        raise NoBasis(user)
    raters = [(v, sim) for v, sim in neighbours(rows, user, k) if item in rows[v]]
    if not raters:
        raise NoBasis(user)
    numerator = math.fsum(sim * (rows[v][item] - _mean(list(rows[v].values())))
                          for v, sim in raters)
    denominator = math.fsum(abs(sim) for _, sim in raters)
    deviation = numerator / denominator if denominator > 0.0 else 0.0
    return min(RATING_MAX, max(RATING_MIN, _mean(list(rows[user].values())) + deviation))


def influence(data: dict, members: list[str], target: str, k: int = 2):
    """(base predictions, [(item, delta, basis_destroying)] in (-delta, item) order)."""
    rows = rating_rows(data)
    base = {}
    for member in members:
        try:
            base[member] = predict(rows, member, target, k)
        except NoBasis:
            pass
    candidates = sorted(
        {i for m in members for i in rows.get(m, {}) if i != target}
    )
    ranking = []
    for candidate in candidates:
        reduced = rating_rows(data, without=candidate)
        deltas, destroying = [], False
        for member, before in base.items():
            try:
                deltas.append(abs(predict(reduced, member, target, k) - before))
            except NoBasis:
                destroying = True
        delta = math.fsum(deltas) / len(deltas) if deltas else 0.0
        ranking.append((candidate, delta, destroying))
    ranking.sort(key=lambda row: (-row[1], row[0]))
    return base, ranking


def aggregate(scores: dict[str, float], strategy: str) -> tuple[float, list[str]]:
    if strategy == "avg":
        return math.fsum(scores.values()) / len(scores), sorted(scores)
    pick = min if strategy == "lms" else max
    value = pick(scores.values())
    return value, sorted(m for m, s in scores.items() if s == value)


def check_cf(data: dict, request: dict, output: dict) -> list[str]:
    """Mismatches between one cf-influence output and the oracle."""
    base, expected = influence(data, request["members"], request["target"])
    problems = []
    got = output["ranking"]
    if [row[0] for row in got] != [row[0] for row in expected]:
        problems.append("influence order differs")
    else:
        for (item, delta, flag), (_, want, want_flag) in zip(got, expected):
            if abs(delta - want) > DELTA_TOLERANCE:
                problems.append(f"delta of {item}: {delta!r} vs {want!r}")
            if flag != want_flag:
                problems.append(f"basis_destroying of {item}: {flag} vs {want_flag}")
    score, contributors = aggregate(base, request["strategy"])
    if abs(output["score"] - score) > DELTA_TOLERANCE:
        problems.append(f"group score {output['score']!r} vs {score!r}")
    if output["contributors"] != contributors:
        problems.append("aggregation contributors differ")
    return problems


def relaxations(items: dict, requirements: list[dict]) -> list[tuple[list[str], list[str]]]:
    """Minimal relaxations as (removed ids, surviving items), in library order.

    Removing a set R restores an item exactly when R holds every requirement
    the item violates, so the minimal R are the inclusion-minimal violation
    sets, and R's survivors are the items whose violation set lies inside R.
    """
    violated = {
        item_id: frozenset(
            req["id"]
            for req in requirements
            if violates(item["attributes"][req["attribute"]], req["operator"], req["bound"])
        )
        for item_id, item in items.items()
    }
    if any(not v for v in violated.values()):
        return []
    distinct = set(violated.values())
    minimal = [v for v in distinct if not any(o < v for o in distinct)]
    minimal.sort(key=lambda v: (len(v), sorted(v)))
    return [
        (sorted(v), sorted(i for i, own in violated.items() if own <= v))
        for v in minimal
    ]


def expected_relax(data: dict, request: dict) -> dict:
    """The constraint-relax output the oracle expects for one request."""
    by_id = {req["id"]: req for req in data["requirements"]}
    chosen = [by_id[rid] for rid in request["requirements"]]
    members = data["groups"][request["group"]]
    return {
        "proposals": [list(p) for p in relaxations(data["items"], chosen)],
        "relevance": {
            req["id"]: math.fsum(req["importance"][m] for m in members) / len(members)
            for req in chosen
        },
        "causal": {
            req["id"]: any(
                violates(item["attributes"][req["attribute"]], req["operator"], req["bound"])
                for item in data["items"].values()
            )
            for req in chosen
        },
    }


def check_relax(expected: dict, output: dict) -> list[str]:
    """Mismatches between one constraint-relax output and the oracle's."""
    return [f"{field} differ" for field in expected if output.get(field) != expected[field]]
