"""Seeded synthetic inputs for the benchmark workloads.

Everything here uses only stdlib ``random`` and never imports the package:
the program under test sees nothing but the dataset file and the request
list written by :func:`write_workload`. The same (workload, seed) pair
always yields byte-identical files.

Guarantees the generator establishes by construction, so that no request
fails on valid code:

* every user rates the same block of "popular" items, and every CF request
  and every item-bound CLI request on a CF mode targets one of them, so
  each member has neighbours (two or more co-rated items) who rated the
  target;
* tags sit only on popular items, and each member's ratings, each group's
  per-item mean row and each tag's shares over those items are
  non-constant as exact rationals, so every tag correlation is defined;
* every requirement set used by ``relax`` or ``constraint-relax`` is
  over-constrained, checked here by comparing attribute values directly.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

# Workload sizes. "popular" is the block every user rates; "extras" is the
# number of further items each user rates at random.
SIZES = {
    "cli-oneshot": dict(
        users=400, items=200, popular=10, extras=15, groups=25, group_size=4,
        attributes=6, requirements=8,
    ),
    "cf-influence": dict(
        users=30, items=60, popular=8, extras=10, groups=10, group_size=4,
        attributes=6, requirements=8,
    ),
    "constraint-relax": dict(
        users=40, items=200, popular=5, extras=5, groups=10, group_size=4,
        attributes=48, pairs=8,
    ),
}

# Requirement-set sizes of constraint-relax requests, used in this cyclic
# order so that every run sees the same mix whatever its length. Each set
# is one contradictory pair plus filters that each drop a fifth of the
# catalog, so the minimal relaxations are the two pair members and a
# request's cost depends on its size, not on the draw: the latency
# percentiles then sit inside one size class each and stay steady.
RELAX_SIZES = (8, 9, 10, 11, 12)
PAIR_BOUNDS = (30, 70)  # "a <= 30" and "a >= 70": no item meets both
FILTER_SHARE = 0.2

CF_GROUP_SIZE = 4  # members of each ad-hoc cf-influence group
# Distinct requests of each workload: a loop sends the list over and over,
# so that each request runs several times in one run (see ``record``).
# constraint-relax has 11 of each size, so that its median and its 90th
# percentile fall inside a size class, not on the edge between two, and a
# run has time for five or more runs of each.
REQUEST_COUNTS = {"cli-oneshot": 36, "cf-influence": 100, "constraint-relax": 55}

CATEGORIES = ("action", "comedy", "drama", "family", "science")
FEATURES = ("battery", "display", "lens", "size")
DIMENSIONS = ("comfort", "economy", "quality")
TAGS = ("classic", "cult", "indie", "loud", "slow", "witty")
NEIGHBOR_GROUPS = 6
OPERATORS = ("<=", ">=")


def _uid(index: int) -> str:
    return f"u{index:04d}"


def _iid(index: int) -> str:
    return f"i{index:03d}"


def _attr(index: int) -> str:
    return f"a{index:02d}"


def _half(value: float) -> float:
    """Round to the 0.5 grid inside [0.5, 5]; such values keep means exact."""
    return min(5.0, max(0.5, round(value * 2) / 2))


def violates(value: object, operator: str, bound: object) -> bool:
    """The generator's own predicate check, independent of the package."""
    if operator == "<=":
        return not value <= bound
    if operator == ">=":
        return not value >= bound
    return value != bound


def over_constrained(items: dict, requirements: list[dict]) -> bool:
    """True when every item violates at least one requirement."""
    return all(
        any(
            violates(item["attributes"][req["attribute"]], req["operator"], req["bound"])
            for req in requirements
        )
        for item in items.values()
    )


def _requirement(
    rng: random.Random, items: dict, attribute: str, share: float, rid: str
) -> dict:
    """A requirement on *attribute* that filters out about *share* of the items."""
    operator = rng.choice(OPERATORS)
    values = sorted(item["attributes"][attribute] for item in items.values())
    if operator == "<=":
        bound = values[int(len(values) * (1 - share))]
    else:
        bound = values[int(len(values) * share)]
    return {"id": rid, "attribute": attribute, "operator": operator, "bound": bound}


def _requirement_pool(rng: random.Random, items: dict, size: dict) -> list[dict]:
    """Contradictory pairs on the first attributes, then one filter per attribute."""
    pool = []
    for a in range(size["pairs"]):
        low, high = PAIR_BOUNDS
        pool.append({"attribute": _attr(a), "operator": "<=", "bound": low})
        pool.append({"attribute": _attr(a), "operator": ">=", "bound": high})
    for a in range(size["pairs"], size["attributes"]):
        pool.append(_requirement(rng, items, _attr(a), FILTER_SHARE, ""))
    return [{**req, "id": f"r{r:02d}"} for r, req in enumerate(pool)]


def _ratings(rng: random.Random, size: dict) -> dict[str, dict[str, float]]:
    popular = [_iid(i) for i in range(size["popular"])]
    others = [_iid(i) for i in range(size["popular"], size["items"])]
    quality = {_iid(i): rng.uniform(-1.0, 1.0) for i in range(size["items"])}
    rows: dict[str, dict[str, float]] = {}
    for u in range(size["users"]):
        bias = rng.uniform(-1.0, 1.0)
        chosen = popular + sorted(rng.sample(others, size["extras"]))
        rows[_uid(u)] = {
            i: _half(2.75 + bias + quality[i] + rng.gauss(0.0, 1.0)) for i in chosen
        }
    return rows


def _tags(rng: random.Random, popular: list[str]) -> dict[str, dict[str, int]]:
    while True:
        tags = {}
        for item in popular:
            counts = {tag: rng.randrange(10) for tag in TAGS}
            if sum(counts.values()) == 0:
                counts[TAGS[0]] = 1
            tags[item] = counts
        shares_vary = all(
            len({Fraction(tags[i][tag], sum(tags[i].values())) for i in popular}) > 1
            for tag in TAGS
        )
        if shares_vary:
            return tags


def _ratings_vary(rows: dict, groups: dict, popular: list[str]) -> bool:
    """Every user's ratings and every group's per-item mean over the popular items vary."""
    return all(len({row[i] for i in popular}) > 1 for row in rows.values()) and all(
        len({sum(Fraction(rows[m][i]) for m in members) for i in popular}) > 1
        for members in groups.values()
    )


def make_dataset(rng: random.Random, size: dict) -> dict:
    """A dataset with every section ``load_dataset`` knows filled."""
    users = [_uid(u) for u in range(size["users"])]
    popular = [_iid(i) for i in range(size["popular"])]
    items = {}
    for i in range(size["items"]):
        items[_iid(i)] = {
            "attributes": {_attr(a): rng.randrange(100) for a in range(size["attributes"])},
            "category_weights": {
                c: round(rng.random(), 2)
                for c in sorted(rng.sample(CATEGORIES, rng.randint(1, 3)))
            },
            "feature_sentiments": {f: round(rng.random(), 2) for f in FEATURES},
            "dimension_contributions": {d: round(rng.random(), 2) for d in DIMENSIONS},
        }
    while True:
        rows = _ratings(rng, size)
        groups = {
            f"g{g:02d}": sorted(rng.sample(users, size["group_size"]))
            for g in range(size["groups"])
        }
        if _ratings_vary(rows, groups, popular):
            break
    members = sorted({m for ms in groups.values() for m in ms})

    if size.get("pairs"):
        requirements = _requirement_pool(rng, items, size)
    else:
        while True:
            requirements = [
                _requirement(
                    rng, items, _attr(rng.randrange(size["attributes"])),
                    rng.uniform(0.3, 0.6), f"r{r:02d}",
                )
                for r in range(size["requirements"])
            ]
            if over_constrained(items, requirements):
                break
    for req in requirements:
        req["importance"] = {m: round(rng.random(), 2) for m in members}

    critiques = []
    for ms in groups.values():
        for member in ms:
            for _ in range(rng.randint(1, 2)):
                attribute = _attr(rng.randrange(size["attributes"]))
                critiques.append({
                    "author": member, "attribute": attribute,
                    "operator": rng.choice(OPERATORS), "bound": rng.randrange(100),
                })
    history = {}
    for member in members:
        decisions = rng.randint(1, 10)
        history[member] = [rng.randint(0, decisions), decisions]

    return {
        "scale": {"min": 0, "max": 5},
        "users": users,
        "items": items,
        "ratings": [[u, i, r] for u, row in rows.items() for i, r in row.items()],
        "tags": _tags(rng, popular),
        "groups": groups,
        "user_category_weights": {
            m: {c: round(rng.random(), 2) for c in CATEGORIES} for m in members
        },
        "group_sentiments": {
            g: {f: round(rng.random(), 2) for f in FEATURES} for g in groups
        },
        "member_sentiments": {
            m: {f: round(rng.random(), 2) for f in FEATURES} for m in members
        },
        "requirements": requirements,
        "dimensions": [
            {"id": d, "importance": {m: round(rng.random(), 2) for m in members}}
            for d in DIMENSIONS
        ],
        "critiques": critiques,
        "decision_history": {
            "counts": history,
            "weights": {
                m: {d: round(rng.random(), 2) for d in DIMENSIONS} for m in members
            },
        },
        "neighbor_group_ratings": {
            f"ng{n}": {i: _half(rng.uniform(0.5, 5.0)) for i in popular}
            for n in range(NEIGHBOR_GROUPS)
        },
    }


def cli_requests(rng: random.Random, data: dict, count: int) -> list[list[str]]:
    """argv lists cycling through every subcommand and mode but influence.

    Twelve (subcommand, mode) kinds times three formats make a 36-request
    cycle; ``relax`` has no chart, so it alternates text and json instead
    of taking svg.
    """
    groups = sorted(data["groups"])
    items = sorted(data["items"])
    popular = sorted(data["neighbor_group_ratings"]["ng0"])
    kinds = [
        lambda: ["explain-cf", "--mode", "aggregation", "--item", rng.choice(popular),
                 "--strategy", rng.choice(["avg", "lms", "mpl"]),
                 "--privacy", rng.choice(["named", "anonymous"])],
        lambda: ["explain-cf", "--mode", "histogram", "--item", rng.choice(popular),
                 "--nn-mode", rng.choice(["union", "intersection"])],
        lambda: ["explain-cf", "--mode", "group-histogram", "--item", rng.choice(popular)],
        lambda: ["explain-cf", "--mode", "spider", "--item", rng.choice(popular)],
        lambda: ["explain-cb", "--mode", "category", "--item", rng.choice(items)],
        lambda: ["explain-cb", "--mode", "opinion", "--item", rng.choice(items)],
        lambda: ["explain-cb", "--mode", "tags",
                 "--privacy", rng.choice(["named", "anonymous"])],
        lambda: ["explain-constraint", "--mode", "requirements"],
        lambda: ["explain-constraint", "--mode", "maut", "--item", rng.choice(items)],
        lambda: ["explain-critique", "--item", rng.choice(items)],
        lambda: ["fairness-adapt", "--privacy", rng.choice(["named", "anonymous"])],
        lambda: ["relax"],
    ]
    formats = ("text", "json", "svg")
    requests = []
    for index in range(count):
        argv = kinds[index % len(kinds)]()
        fmt = formats[(index // len(kinds)) % len(formats)]
        if argv[0] == "relax" and fmt == "svg":
            fmt = "json" if index % 2 else "text"
        if argv[0] != "relax":
            argv += ["--group", rng.choice(groups)]
        requests.append(argv + ["--format", fmt])
    return requests


def cf_requests(rng: random.Random, data: dict, count: int) -> list[dict]:
    """Ad-hoc groups with a popular target and an aggregation strategy."""
    popular = sorted(data["neighbor_group_ratings"]["ng0"])
    return [
        {
            "members": sorted(rng.sample(data["users"], CF_GROUP_SIZE)),
            "target": rng.choice(popular),
            "strategy": rng.choice(["avg", "lms", "mpl"]),
        }
        for _ in range(count)
    ]


def relax_requests(rng: random.Random, data: dict, count: int) -> list[dict]:
    """One contradictory pair of the pool plus filters, over-constrained."""
    pool = data["requirements"]
    pairs = SIZES["constraint-relax"]["pairs"]
    filters = pool[2 * pairs:]
    groups = sorted(data["groups"])
    requests = []
    for index in range(count):
        size = RELAX_SIZES[index % len(RELAX_SIZES)]
        pair = rng.randrange(pairs)
        chosen = pool[2 * pair:2 * pair + 2] + rng.sample(filters, size - 2)
        if not over_constrained(data["items"], chosen):
            raise RuntimeError("a contradictory pair must filter out every item")
        requests.append({
            "group": rng.choice(groups),
            "requirements": sorted(req["id"] for req in chosen),
        })
    return requests


_REQUESTS = {
    "cli-oneshot": cli_requests,
    "cf-influence": cf_requests,
    "constraint-relax": relax_requests,
}


def generate(workload: str, seed: int) -> tuple[dict, list]:
    """The dataset and the request list of one workload for one seed."""
    rng = random.Random(f"{workload}:{seed}")
    data = make_dataset(rng, SIZES[workload])
    return data, _REQUESTS[workload](rng, data, REQUEST_COUNTS[workload])


def describe(workload: str, data: dict, requests: list) -> dict:
    """Input sizes recorded with every result."""
    out = {
        "users": len(data["users"]),
        "items": len(data["items"]),
        "ratings": len(data["ratings"]),
        "requirements": len(data["requirements"]),
        "distinct_requests": len(requests),
    }
    if workload == "constraint-relax":
        out["requirements_per_request"] = list(RELAX_SIZES)
    if workload == "cf-influence":
        out["group_size"] = CF_GROUP_SIZE
    return out


def dump(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def write_workload(workload: str, seed: int, directory: Path) -> tuple[dict, list, Path, Path]:
    """Write ``dataset.json`` and ``requests.json`` into *directory*."""
    data, requests = generate(workload, seed)
    directory.mkdir(parents=True, exist_ok=True)
    data_path = directory / "dataset.json"
    requests_path = directory / "requests.json"
    data_path.write_text(dump(data), encoding="utf-8")
    requests_path.write_text(dump(requests), encoding="utf-8")
    return data, requests, data_path, requests_path
