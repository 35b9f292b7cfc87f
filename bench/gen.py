"""Seeded workload generator: Spider-format corpora, model replies and the
outcome each example is designed to have.

The seed decides names, which database and table each example uses, and
the order of examples. How much work a corpus holds (schema widths, result
sizes, decomposition depths, refinement rounds, outcomes) is fixed by quotas,
so corpora from different seeds cost about the same to run; names are
words of one length for the same reason.

Each example's question carries a tag such as ``[q0042]`` (sub-questions
``[q0042.s2]``); the responder uses it to look the reply up in the plan.
"""

from __future__ import annotations

import json
import random
import sqlite3
from dataclasses import dataclass
from pathlib import Path

SMALL_ROWS = 40  # rows of an ordinary table: 8 groups of 5
FACT_ROWS = 10000  # rows of the first table of every database
GROUP_SIZE = 5

# Result sizes of the large-result examples, spread over 1k..10k rows.
LARGE_ROW_RANGE = (1000, 10000)
# A database with at least this many tables counts as a wide schema.
WIDE_TABLES = 15
CHEAP_TAIL = 3
EXTRA_COLUMNS = 3  # text columns per table beside the five base columns


@dataclass(frozen=True)
class Profile:
    """Shape of one corpus family; quotas are shares of ``examples``."""

    examples: int
    extra_examples: int  # appended after ``examples`` (the warm rerun's new questions)
    widths: tuple[int, ...]  # table count of each database
    large_share: float
    depth_shares: dict
    refine_shares: dict
    outcome_shares: dict  # (baseline_correct, module_correct) -> share
    ordered_share: float = 0.3
    join_share: float = 0.4
    fallback_share: float = 0.1  # table selection names no real table
    extraction_share: float = 0.34  # of refining examples: attempt 0 has no SQL
    complex_share: float = 0.5  # judge replies COMPLEX


_COMMON = dict(
    widths=(2, 3, 5, 8, 12, 17, 23, 30),
    depth_shares={1: 0.25, 2: 0.35, 3: 0.25, 4: 0.15},
    refine_shares={0: 0.6, 1: 0.3, 2: 0.1},
    outcome_shares={(1, 1): 0.4, (0, 1): 0.2, (1, 0): 0.15, (0, 0): 0.25},
)

PROFILES = {
    # scripted_both uses the first 100 examples; warm_rerun all 101.
    "cold": Profile(examples=100, extra_examples=1, large_share=0.08, **_COMMON),
    "http": Profile(examples=40, extra_examples=0, large_share=0.0, **_COMMON),
}

# Words of one length, so that prompt sizes do not depend on the seed.
_TABLE_WORDS = (
    "agency", "anchor", "basket", "branch", "bureau", "campus", "cinema", "client",
    "clinic", "colony", "convoy", "course", "cruise", "dealer", "debtor", "device",
    "docket", "domain", "estate", "fabric", "flight", "forest", "garage", "hangar",
    "harbor", "intake", "island", "jacket", "kernel", "ledger", "lesson", "market",
    "member", "museum", "parcel", "patent", "permit", "planet", "policy", "quarry",
    "record", "region", "report", "result", "sample", "school", "sensor", "signal",
    "studio", "survey", "tenant", "ticket", "tunnel", "vendor", "vessel", "worker",
)
_EXTRA_WORDS = (
    "color", "state", "notes", "phone", "email", "level", "stage", "title",
    "owner", "grade", "phase", "style", "place", "theme", "scale", "batch",
)
_BASE_COLUMNS = (
    ("id", "INTEGER"),
    ("ref_id", "INTEGER"),
    ("grp", "INTEGER"),
    ("amount", "REAL"),
    ("label", "TEXT"),
)

NO_SQL_REPLY = "I cannot tell from the schema how to answer this."


def error_sql(attempt: int) -> str:
    """A reply that fails in the engine; the responder reads the attempt back."""
    return f"SELECT T1.id FROM zz_missing_a{attempt} AS T1"


@dataclass
class Corpus:
    databases: list  # [{db_id, tables: [{name, columns, rows, mult}]}]
    examples: list  # Spider records: question, query, db_id
    plan: dict  # tag -> replies per stage
    expected: list  # designed outcome per example


def quota(n: int, shares: dict) -> list:
    """Exactly apportioned values (largest remainder), grouped by value."""
    keys = list(shares)
    raw = [shares[k] * n for k in keys]
    counts = [int(r) for r in raw]
    by_remainder = sorted(range(len(keys)), key=lambda i: raw[i] - counts[i], reverse=True)
    for i in by_remainder[: n - sum(counts)]:
        counts[i] += 1
    return [k for k, c in zip(keys, counts) for _ in range(c)]


def _databases(profile: Profile, rng: random.Random) -> list:
    databases = []
    for index, width in enumerate(profile.widths):
        words = rng.sample(_TABLE_WORDS, width)
        tables = []
        for position, word in enumerate(words):
            extras = rng.sample(_EXTRA_WORDS, EXTRA_COLUMNS)
            tables.append(
                {
                    "name": word,
                    "columns": list(_BASE_COLUMNS) + [(f"{e}_text", "TEXT") for e in extras],
                    "rows": FACT_ROWS if position == 0 else SMALL_ROWS,
                    "mult": rng.randrange(101, 997, 2),
                }
            )
        databases.append({"db_id": f"{words[0]}_db{index}", "tables": tables})
    return databases


def _large_rows(count: int) -> list[int]:
    low, high = LARGE_ROW_RANGE
    if count == 1:
        return [high]
    return [low + (high - low) * i // (count - 1) for i in range(count)]


def generate(seed: int, family: str) -> Corpus:
    """Build the corpus of one family for one seed (deterministic)."""
    profile = PROFILES[family]
    rng = random.Random(seed * 7919 + len(family))
    databases = _databases(profile, rng)
    n, total = profile.examples, profile.examples + profile.extra_examples
    count = len(databases)
    db_of = quota(n, {d: 1 / count for d in range(count)})
    rng.shuffle(db_of)

    def deal(shares: dict, indices: list) -> dict:
        """Quota values for ``indices``, dealt over the databases in turn
        (narrowest first) so that every database gets the same mix."""
        groups = [[i for i in indices if db_of[i] == d] for d in range(count)]
        for group in groups:
            rng.shuffle(group)
        order = [g[r] for r in range(max(map(len, groups))) for g in groups if r < len(g)]
        return dict(zip(order, quota(len(indices), shares)))

    def flags(share: float, indices: list) -> dict:
        return deal({True: share, False: 1.0 - share}, indices)

    # Large-result examples dominate the cost of a pass, so their shape is
    # fixed: they are spread over the databases in turn, and the j-th one in
    # corpus order reads the j-th size, is ordered when j is even and takes
    # the outcomes in turn.
    n_large = round(n * profile.large_share)
    chosen = set()
    for j in range(n_large):
        chosen.add(rng.choice([i for i in range(n) if db_of[i] == j % count and i not in chosen]))
    large_order = sorted(chosen)
    sizes = dict(zip(large_order, _large_rows(n_large)))
    large = [i in chosen for i in range(n)]

    # Every other property is dealt separately within the examples the judge
    # routes to each arm, so that what a routed run costs does not depend on
    # the seed either.
    complex_route = flags(profile.complex_share, list(range(n)))
    outcome, ordered, depth, refine, join, fallback, no_sql = {}, {}, {}, {}, {}, {}, {}
    for route in (True, False):
        group = [i for i in range(n) if complex_route[i] == route]
        small = [i for i in group if not large[i]]
        outcome.update(deal(profile.outcome_shares, small))
        ordered.update(flags(profile.ordered_share, small))
        depth.update(deal(profile.depth_shares, group))
        refine.update(deal(profile.refine_shares, group))
        join.update(flags(profile.join_share, group))
        fallback.update(flags(profile.fallback_share, group))
        no_sql.update(flags(profile.extraction_share, group))
    outcome_keys = list(profile.outcome_shares)
    for j, i in enumerate(large_order):
        outcome[i] = outcome_keys[j % len(outcome_keys)]
        ordered[i] = j % 2 == 0

    # Appended examples have one fixed shape on the middle database (only
    # names vary), so the quotas above describe exactly the first
    # ``examples`` entries.
    for i in range(n, total):
        db_of.append(count // 2)
        large.append(False)
        depth[i], refine[i], outcome[i] = 2, 0, (1, 0)
        for values in (ordered, join, fallback, no_sql, complex_route):
            values[i] = False

    # The corpus ends with a few cheap examples (baseline route, no
    # refinement, small result), so that with several workers the idle tail
    # of a pass is short and the same for every seed.
    cheap = [i for i in range(n) if not (complex_route[i] or refine[i] or large[i])][:CHEAP_TAIL]
    order = [i for i in range(n) if i not in cheap] + cheap + list(range(n, total))

    examples, plan, expected, golds = [], {}, [], set()
    for idx, src in enumerate(order):
        db = databases[db_of[src]]
        tables = db["tables"]
        tag = f"q{idx:04d}"
        if large[src]:
            main, parent = tables[0], None
            rows = sizes[src]
            cond = f"T1.id <= {rows}"
            select = "T1.id, T1.amount"
            source = f"{main['name']} AS T1"
            question = f"[{tag}] List the id and amount of the first {rows} {main['name']} records."
        else:
            # Each gold query occurs once (as far as the database allows).
            for _ in range(100):
                position = rng.randrange(1, len(tables))
                group = rng.randrange(SMALL_ROWS // GROUP_SIZE)
                key = (db["db_id"], position, group, join[src], ordered[src])
                if key not in golds:
                    break
            golds.add(key)
            main = tables[position]
            rows = GROUP_SIZE
            cond = f"T1.grp = {group}"
            if join[src]:
                parent = tables[position - 1]
                select = "T1.id, T2.amount"
                source = (
                    f"{main['name']} AS T1 JOIN {parent['name']} AS T2"
                    " ON T1.ref_id = T2.id"
                )
                question = (
                    f"[{tag}] For each {main['name']} record in group {group},"
                    f" give its id and the amount of its {parent['name']}."
                )
            else:
                parent = None
                select = "T1.id, T1.amount"
                source = f"{main['name']} AS T1"
                question = f"[{tag}] What are the ids and amounts of {main['name']} records in group {group}?"
        gold = f"SELECT {select} FROM {source} WHERE {cond}"
        if ordered[src]:
            gold += " ORDER BY T1.id"
            question = question.rstrip("?.") + ", ordered by id?"
        right = gold.replace(" WHERE ", " WHERE 1 = 1 AND ", 1)
        wrong = gold.replace(".amount", ".amount + 1", 1)
        baseline_bit, module_bit = outcome[src]
        baseline_sql = right if baseline_bit else wrong
        module_sql = right if module_bit else wrong

        r = refine[src]
        errors = [error_sql(a) for a in range(r)]
        if r and no_sql[src]:
            errors[0] = NO_SQL_REPLY
        d = depth[src]
        sub_texts = [
            f"[{tag}.s{i}] Count the {main['name']} records that satisfy the condition."
            for i in range(1, d)
        ] + [f"[{tag}.s{d}] Answer the original question about {main['name']}."]
        sub_replies = [[f"```sql\nSELECT COUNT(*) FROM {main['name']} AS T1 WHERE {cond}\n```"]
                       for _ in range(d - 1)] + [[f"```sql\n{module_sql}\n```"]]
        sub_replies[0] = errors + sub_replies[0]
        used = [main["name"]] + ([parent["name"]] if parent else [])
        # One spare table, never next to a used one: adjacent tables share a
        # foreign key, which would lengthen the reduced schema's prompts.
        near = {tables.index(t) + k for t in (main, parent) if t for k in (-1, 0, 1)}
        spare = [t["name"] for i, t in enumerate(tables) if i not in near]
        if spare:
            used.append(rng.choice(spare))
        plan[tag] = {
            "baseline": errors + [baseline_sql if idx % 2 else f"```sql\n{baseline_sql}\n```"],
            "table_selection": "(no table applies)" if fallback[src] else ", ".join(used),
            "decomposition": "\n".join(f"{i}. {t}" for i, t in enumerate(sub_texts, 1)),
            "subquery": sub_replies,
            "merge_planner": f"Take sub-query {d} as the final query; the earlier"
            " sub-queries only count the matching rows.",
            "merge_executor": [f"```sql\n{module_sql}\n```"],
            "column_selection": [module_sql],
            "judge": "COMPLEX" if complex_route[src] else "SIMPLE",
        }
        examples.append({"question": question, "query": gold, "db_id": db["db_id"]})
        expected.append(
            {
                "example_id": f"ex{idx:04d}",
                "baseline_correct": baseline_bit,
                "module_correct": module_bit,
                "route": "divide_and_merge" if complex_route[src] else "baseline",
                "result_rows": rows,
                "wide": len(tables) >= WIDE_TABLES,
                "refine_rounds": r,
                "depth": d,
            }
        )
    return Corpus(databases, examples, plan, expected)


def shares(expected: list) -> dict:
    """Share of large-result, wide-schema and refine-triggering examples."""
    n = len(expected)
    return {
        "large_result": sum(e["result_rows"] >= LARGE_ROW_RANGE[0] for e in expected) / n,
        "wide_schema": sum(e["wide"] for e in expected) / n,
        "refine": sum(e["refine_rounds"] > 0 for e in expected) / n,
    }


def _spider_record(db: dict) -> dict:
    columns: list = [[-1, "*"]]
    types = ["text"]
    primary_keys, foreign_keys = [], []
    id_columns = []
    for t_index, table in enumerate(db["tables"]):
        for name, sql_type in table["columns"]:
            if name == "id":
                id_columns.append(len(columns))
                primary_keys.append(len(columns))
            if name == "ref_id" and t_index > 0:
                foreign_keys.append([len(columns), id_columns[t_index - 1]])
            columns.append([t_index, name])
            types.append("number" if sql_type in ("INTEGER", "REAL") else "text")
    names = [t["name"] for t in db["tables"]]
    return {
        "db_id": db["db_id"],
        "table_names_original": names,
        "table_names": [n.replace("_", " ") for n in names],
        "column_names_original": columns,
        "column_names": [[t, n.replace("_", " ")] for t, n in columns],
        "column_types": types,
        "primary_keys": primary_keys,
        "foreign_keys": foreign_keys,
    }


def _write_database(path: Path, db: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    connection = sqlite3.connect(path)
    try:
        connection.execute("PRAGMA journal_mode = OFF")
        connection.execute("PRAGMA synchronous = OFF")
        tables = db["tables"]
        for position, table in enumerate(tables):
            column_sql = ", ".join(
                f"{name} {sql_type}" + (" PRIMARY KEY" if name == "id" else "")
                for name, sql_type in table["columns"]
            )
            connection.execute(f"CREATE TABLE {table['name']} ({column_sql})")
            parent_rows = tables[position - 1]["rows"] if position else table["rows"]
            groups = table["rows"] // GROUP_SIZE
            connection.execute(
                f"WITH RECURSIVE seq(i) AS (SELECT 1 UNION ALL SELECT i + 1 FROM seq"
                f" WHERE i < {table['rows']})"
                f" INSERT INTO {table['name']} (id, ref_id, grp, amount, label)"
                f" SELECT i, (i * 7) % {parent_rows} + 1, i % {groups},"
                f" ((i * {table['mult']}) % 1000) / 10.0, '{table['name']}-' || i FROM seq"
            )
        connection.commit()
    finally:
        connection.close()


def write_corpus(corpus: Corpus, root: Path, count: int) -> None:
    """Write the first ``count`` examples with their databases, plan and
    designed outcomes in the Spider layout under ``root``."""
    root.mkdir(parents=True, exist_ok=True)
    records = [_spider_record(db) for db in corpus.databases]
    (root / "tables.json").write_text(json.dumps(records, indent=1), encoding="utf-8")
    (root / "examples.json").write_text(
        json.dumps(corpus.examples[:count], indent=1), encoding="utf-8"
    )
    tags = {f"q{i:04d}" for i in range(count)}
    plan = {tag: replies for tag, replies in corpus.plan.items() if tag in tags}
    (root / "plan.json").write_text(json.dumps(plan, sort_keys=True), encoding="utf-8")
    (root / "expected.json").write_text(
        json.dumps(corpus.expected[:count], indent=1), encoding="utf-8"
    )
    for db in corpus.databases:
        _write_database(root / "database" / db["db_id"] / f"{db['db_id']}.sqlite", db)
