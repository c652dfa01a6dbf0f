"""Deterministic workload inputs for the benchmark.

Two kinds of input are generated from a seed:

- archive tiers (``write_archive``): NDJSON archives shaped like
  ``ghreview.synthetic.random_corpus`` output, written directly so that the
  benchmark's inputs do not depend on the code being measured.  Per-repo
  issue counts are a seed-shuffled, evenly spaced ladder over the tier's
  range, so every seed yields the same total issue count and the same sum of
  squared repo sizes (which sets the cost of pairwise graph building).  The L
  tier adds a triage bot that comments once on every issue of its smallest
  repository, which makes that repository's reviewer-sharing graph complete.
- the REST dataset (``ingest_dataset``): two repositories served by
  ``restserver``, with a fixed request structure so every seed needs the
  same number of requests on a cold fetch.

The same seed always gives byte-identical archives and identical datasets.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone

DAY = 86400.0
HOUR = 3600.0
BASE_TIME = 1_500_000_000
CATEGORIES = ("Random", "ROS", "Popular")
BOT_LOGIN = "triage-bot"
BOT_BODY = "thanks for the report, triaging this now"

_WORDS = (
    "great good excellent thanks helpful clean works fine nice elegant "
    "bug error broken crash fails wrong annoying problem unclear worse "
    "the a this that it we you please see merge branch commit patch "
    "not never very really no cannot hardly extremely quite slightly"
).split()


@dataclass(frozen=True)
class Tier:
    n_repos: int
    issues_range: tuple[int, int]
    n_users: int
    mean_gap: float
    hub: bool


TIERS = {
    "L": Tier(n_repos=30, issues_range=(1000, 2000), n_users=2000, mean_gap=0.5 * DAY, hub=True),
    "M": Tier(n_repos=30, issues_range=(200, 600), n_users=300, mean_gap=0.5 * DAY, hub=False),
}


def issue_ladder(tier: Tier, rng: random.Random) -> list[int]:
    """Per-repo issue counts: an evenly spaced ladder over the range, shuffled."""
    lo, hi = tier.issues_range
    counts = [lo + (k * (hi - lo)) // tier.n_repos for k in range(tier.n_repos)]
    rng.shuffle(counts)
    return counts


def _dump(record: dict) -> str:
    return json.dumps(record, separators=(",", ":"))


def write_archive(path: str, tier_name: str, seed: int) -> dict:
    """Write one tier's archive for ``seed``; return its size counts.

    The returned dict holds repos, issues, comments, commits and users, plus
    ``hub_repo`` (the bot's repository id, or None) and per-category issue
    and repo counts used by the output checks.
    """
    tier = TIERS[tier_name]
    rng = random.Random(f"perfbench:{tier_name}:{seed}")
    users = [(f"user{k:04d}", rng.randrange(0, 500)) for k in range(tier.n_users)]
    logins = [login for login, _ in users]
    counts = issue_ladder(tier, rng)
    hub_index = counts.index(min(counts)) if tier.hub else None
    all_users = users + ([(BOT_LOGIN, 50)] if tier.hub else [])

    head: list[str] = [_dump({"kind": "meta", "version": 1})]
    head += [_dump({"kind": "user", "login": login, "followers": f}) for login, f in sorted(all_users)]
    body: list[str] = []
    sizes = {"repos": tier.n_repos, "issues": 0, "comments": 0, "commits": 0,
             "users": len(all_users), "hub_repo": None,
             "category_issues": {c: 0 for c in CATEGORIES},
             "category_repos": {c: 0 for c in CATEGORIES}}
    for r in range(tier.n_repos):
        category = CATEGORIES[r % len(CATEGORIES)]
        repo_id = f"org{r:02d}/repo{r:02d}"
        created = BASE_TIME + int(rng.uniform(0, 90 * DAY))
        team = rng.sample(logins, k=rng.randrange(2, 8))
        head.append(_dump({
            "kind": "repo", "id": repo_id, "category": category, "created_at": created,
            "owner": team[0], "contributors": sorted(team),
            "stargazers": rng.randrange(0, 3000), "forks": rng.randrange(0, 800),
            "watchers": rng.randrange(0, 1500),
        }))
        is_hub = r == hub_index
        if is_hub:
            sizes["hub_repo"] = repo_id
        t = created + rng.uniform(0.5 * DAY, 30 * DAY)
        last_issue = created
        for k in range(counts[r]):
            issue_id = f"{repo_id}#{k + 1}"
            opened = int(t)
            issue = {"kind": "issue", "id": issue_id, "repo": repo_id,
                     "opener": rng.choice(team), "created_at": opened,
                     "has_linked_code": rng.random() < 0.6}
            if rng.random() < 0.7:
                issue["closed_at"] = opened + int(rng.uniform(HOUR, 20 * DAY))
                issue["closer"] = rng.choice(team)
            body.append(_dump(issue))
            for _ in range(rng.randrange(0, 5)):
                text = " ".join(rng.choice(_WORDS) for _ in range(rng.randrange(3, 9)))
                body.append(_dump({"kind": "comment", "issue": issue_id,
                                   "author": rng.choice(logins),
                                   "created_at": opened + int(rng.uniform(HOUR, 3 * DAY)),
                                   "body": text}))
                sizes["comments"] += 1
            if is_hub:
                body.append(_dump({"kind": "comment", "issue": issue_id, "author": BOT_LOGIN,
                                   "created_at": opened + int(rng.uniform(60, 600)),
                                   "body": BOT_BODY}))
                sizes["comments"] += 1
            last_issue = opened
            t += rng.expovariate(1.0 / tier.mean_gap)
        t_commit = created + rng.uniform(0, 5 * DAY)
        while t_commit < last_issue + 30 * DAY:
            body.append(_dump({"kind": "commit", "repo": repo_id, "author": rng.choice(team),
                               "created_at": int(t_commit),
                               "lines_added": rng.randrange(0, 400),
                               "lines_removed": rng.randrange(0, 150)}))
            sizes["commits"] += 1
            t_commit += rng.expovariate(1.0 / (10 * DAY))
        sizes["issues"] += counts[r]
        sizes["category_issues"][category] += counts[r]
        sizes["category_repos"][category] += 1
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(head + body) + "\n")
    return sizes


# ---------------------------------------------------------------------------
# REST dataset for the ingest workload.

INGEST_REPOS = ("bench/alpha", "bench/beta")
INGEST_ISSUES = 300
INGEST_COMMITS = 300
INGEST_POOL = 80
PAGE_SIZE = 100  # the fetch command's default --page-size

_EPOCH = datetime(2021, 1, 1, tzinfo=timezone.utc)


def _iso(seconds: float) -> str:
    return (_EPOCH + timedelta(seconds=int(seconds))).strftime("%Y-%m-%dT%H:%M:%SZ")


def _pages(n: int) -> int:
    return max(1, -(-n // PAGE_SIZE))


def ingest_dataset(seed: int) -> dict:
    """Two repositories of issues, comments and commits for the REST server.

    Which issues carry comments, which commits lack an account, and which
    logins appear are fixed; the seed decides timestamps, logins' roles,
    comment counts and texts, and follower counts.
    """
    rng = random.Random(f"perfbench:ingest:{seed}")
    pool = [f"dev{k:03d}" for k in range(INGEST_POOL)]
    users = {login: rng.randrange(0, 5000) for login in pool}
    repos: dict[str, dict] = {}
    for r, slug in enumerate(INGEST_REPOS):
        order = pool[:]
        rng.shuffle(order)
        t = rng.uniform(0, 30 * DAY)
        issues: list[dict] = []
        comments: dict[int, list] = {}
        for i in range(1, INGEST_ISSUES + 1):
            t += rng.expovariate(1.0 / DAY)
            item = {"number": i, "user": {"login": order[i % INGEST_POOL]},
                    "created_at": _iso(t), "comments": 0}
            if rng.random() < 0.6:
                item["closed_at"] = _iso(t + rng.uniform(HOUR, 10 * DAY))
                item["closed_by"] = {"login": order[(i + 3) % INGEST_POOL]}
            if i % 4 == 0:
                item["pull_request"] = {"url": f"https://example.invalid/{slug}/pull/{i}"}
            if i % 3:
                thread = []
                for k in range(1 + rng.randrange(4)):
                    text = " ".join(rng.choice(_WORDS) for _ in range(rng.randrange(3, 9)))
                    thread.append({"user": {"login": rng.choice(pool)},
                                   "created_at": _iso(t + (k + 1) * rng.uniform(60, HOUR)),
                                   "body": text})
                comments[i] = thread
                item["comments"] = len(thread)
            issues.append(item)
        commits = []
        tc = 0.0
        for j in range(INGEST_COMMITS):
            tc += rng.expovariate(1.0 / DAY)
            author = None if j % 10 == 0 else {"login": order[j % INGEST_POOL]}
            commits.append({"author": author, "commit": {"author": {"date": _iso(tc)}},
                            "stats": {"additions": rng.randrange(0, 400),
                                      "deletions": rng.randrange(0, 150)}})
        owner = order[0]
        repos[slug] = {
            "payload": {"full_name": slug, "owner": {"login": owner}, "created_at": _iso(0),
                        "stargazers_count": rng.randrange(0, 3000),
                        "forks_count": rng.randrange(0, 800),
                        "subscribers_count": rng.randrange(0, 1500)},
            "contributors": [{"login": login} for login in order[:5]],
            "issues": issues,
            "comments": comments,
            "commits": commits,
        }
    return {"repos": repos, "users": users}


def _repo_logins(repo: dict) -> set[str]:
    logins = {repo["payload"]["owner"]["login"]}
    logins.update(c["login"] for c in repo["contributors"])
    for item in repo["issues"]:
        logins.add(item["user"]["login"])
        if "closed_by" in item:
            logins.add(item["closed_by"]["login"])
    logins.update(c["user"]["login"] for t in repo["comments"].values() for c in t)
    logins.update(c["author"]["login"] for c in repo["commits"] if c["author"] is not None)
    return logins


def ingest_sizes(dataset: dict) -> dict:
    """Record counts the fetched archive must hold, and cold-pass request counts.

    The fetcher resolves users once per repository, so a login seen in an
    earlier repository is revalidated (304) on a cold pass.
    """
    repos = dataset["repos"].values()
    requests = revalidated = 0
    seen: set[str] = set()
    for repo in repos:
        requests += 1 + _pages(len(repo["contributors"])) + _pages(len(repo["issues"]))
        requests += _pages(len(repo["commits"]))
        requests += sum(_pages(len(thread)) for thread in repo["comments"].values())
        logins = _repo_logins(repo)
        requests += len(logins)
        revalidated += len(logins & seen)
        seen |= logins
    return {
        "repos": len(dataset["repos"]),
        "issues": sum(len(r["issues"]) for r in repos),
        "comments": sum(len(t) for r in repos for t in r["comments"].values()),
        "commits": sum(1 for r in repos for c in r["commits"] if c["author"] is not None),
        "users": len(seen),
        "cold_requests": requests,
        "cold_not_modified": revalidated,
    }
