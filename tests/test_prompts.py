from __future__ import annotations

import json

import pytest
from hypothesis import example, given, settings, strategies as st

from splitsql.prompts import (
    _FENCE_RE,
    _SQL_START_RE,
    REQUIRED_PLACEHOLDERS,
    SqlExtractionError,
    builtin_template_dir,
    extract_sql,
    load_fewshot,
    load_templates,
    parse_subquestions,
    parse_table_list,
    render,
)

# ---------------------------------------------------------------------------
# render
# ---------------------------------------------------------------------------


def test_render_substitutes():
    assert render("Q: {question}", {"question": "x"}) == "Q: x"


def test_render_unbound_optional_becomes_empty():
    assert render("A{examples}B", {}) == "AB"


def test_render_includes_all_fewshot_pairs(tmp_path):
    pairs = [{"question": f"q{i}", "sql": f"SELECT {i}"} for i in range(3)]
    (tmp_path / "fewshot.json").write_text(json.dumps(pairs))
    rendered = render("{examples}", {"examples": load_fewshot(tmp_path / "fewshot.json")})
    assert rendered == "Question: q0\nSQL: SELECT 0\n\nQuestion: q1\nSQL: SELECT 1" \
        "\n\nQuestion: q2\nSQL: SELECT 2"


def test_template_body_must_contain_required_placeholders(tmp_path):
    for template in builtin_template_dir().glob("*.txt"):
        (tmp_path / template.name).write_bytes(template.read_bytes())
    (tmp_path / "judge.txt").write_text("Is {question} hard?")
    with pytest.raises(ValueError, match=r"judge\.txt: .*\['schema'\]"):
        load_templates(tmp_path)


@pytest.mark.parametrize(
    "content, problem",
    [
        ("[{", "not JSON"),
        ('{"question": "q", "sql": "SELECT 1"}', "expected a JSON array"),
        ('[{"question": "q"}]', "pair 0 needs"),
        ('[{"question": "q", "sql": "SELECT 1"}, {"question": 5, "sql": "SELECT 1"}]', "pair 1 needs"),
        ('[{"question": "", "sql": "SELECT 1"}]', "pair 0 needs"),
        ('["q"]', "pair 0 needs"),
    ],
    ids=["not-json", "object", "no-sql", "int-question", "empty-question", "string-row"],
)
def test_a_bad_fewshot_file_is_a_value_error_naming_it(tmp_path, content, problem):
    path = tmp_path / "fewshot.json"
    path.write_text(content)
    with pytest.raises(ValueError, match=f"fewshot.json: {problem}"):
        load_fewshot(path)


def test_render_is_idempotent_on_rendered_text():
    rendered = render("Q: {question} S: {schema}", {"question": "who?", "schema": "t (a)"})
    assert render(rendered, {}) == rendered


# ---------------------------------------------------------------------------
# parse_subquestions
# ---------------------------------------------------------------------------


def test_parse_subquestions_numbered_dot():
    assert parse_subquestions("1. A\n2. B") == ["A", "B"]


def test_parse_subquestions_numbered_paren_and_bullets():
    assert parse_subquestions("1) A\n2) B\n- C") == ["A", "B", "C"]


def test_parse_subquestions_labelled_style():
    text = (
        "Sub-question 1: Find the price of each product.\n"
        "Sub-question 2: Join the Orders and Order_Items tables to associate"
        " orders with their items."
    )
    parsed = parse_subquestions(text)
    assert len(parsed) == 2
    assert parsed[0] == "Find the price of each product."
    assert parsed[1].startswith("Join the Orders")


def test_parse_subquestions_fallback_whole_text():
    assert parse_subquestions("just do it") == ["just do it"]


def test_parse_subquestions_drops_empty_items():
    assert parse_subquestions("1. A\n\n2. B\n3. ") == ["A", "B"]


def test_parse_subquestions_ten_items_in_order():
    text = "\n".join(f"{i}. step number {i}" for i in range(1, 11))
    assert parse_subquestions(text) == [f"step number {i}" for i in range(1, 11)]


@given(st.text(min_size=1).filter(lambda s: s.strip()))
def test_parse_subquestions_never_empty_for_visible_text(text):
    assert parse_subquestions(text)


# ---------------------------------------------------------------------------
# extract_sql
# ---------------------------------------------------------------------------


def test_extract_sql_from_fence():
    assert extract_sql("```sql\nSELECT 1;\n```") == "SELECT 1;"


def test_extract_sql_fence_without_language_tag():
    assert extract_sql("```\nSELECT a FROM t\n```") == "SELECT a FROM t"


def test_extract_sql_fence_with_crlf():
    assert extract_sql("```sql\r\nSELECT 1;\r\n```") == "SELECT 1;"


def test_extract_sql_prose_prefix():
    text = "The answer is: SELECT AVG(p.product_price) FROM Products p"
    assert extract_sql(text) == "SELECT AVG(p.product_price) FROM Products p"


def test_extract_sql_drops_prose_after_semicolon():
    assert extract_sql("SELECT 1; hope that helps!") == "SELECT 1;"


def test_extract_sql_semicolon_inside_literal_kept():
    sql = "SELECT * FROM t WHERE a = ';' AND b = 1"
    assert extract_sql(sql) == sql


def test_extract_sql_with_cte():
    sql = "WITH x AS (SELECT 1) SELECT * FROM x"
    assert extract_sql("Sure:\n" + sql) == sql


def test_extract_sql_rejects_non_sql():
    with pytest.raises(SqlExtractionError):
        extract_sql("I cannot answer.")


def test_extract_sql_semicolon_inside_bracketed_identifier_kept():
    assert extract_sql("SELECT [a;b] FROM t; x") == "SELECT [a;b] FROM t;"


# extract_sql as it stood before it shared the executor's scanner, which
# also skips [...] identifiers; on text without "[" the two must agree.
def _reference_extract_sql(text: str) -> str:
    fence = _FENCE_RE.search(text)
    if fence:
        content = fence.group(1).strip()
        if content:
            return content
    match = _SQL_START_RE.search(text)
    if not match:
        raise SqlExtractionError("no SQL found in model output")
    return _reference_cut_after_statement(text[match.start() :]).strip()


def _reference_cut_after_statement(sql: str) -> str:
    i, n = 0, len(sql)
    while i < n:
        ch = sql[i]
        if ch == "'" or ch == '"' or ch == "`":
            i = _reference_skip_quoted(sql, i, ch)
        elif sql.startswith("--", i):
            end = sql.find("\n", i)
            i = n if end == -1 else end + 1
        elif sql.startswith("/*", i):
            end = sql.find("*/", i + 2)
            i = n if end == -1 else end + 2
        elif ch == ";":
            return sql[: i + 1]
        else:
            i += 1
    return sql


def _reference_skip_quoted(sql: str, start: int, quote: str) -> int:
    i = start + 1
    n = len(sql)
    while i < n:
        if sql[i] == quote:
            if i + 1 < n and sql[i + 1] == quote:
                i += 2
                continue
            return i + 1
        i += 1
    return n


def _extract_or_error(extract, text):
    try:
        return extract(text)
    except SqlExtractionError as exc:
        return ("error", str(exc))


# As for has_top_level_order_by's property, but without "[".
SCANNER_TOKENS = (
    list("'\"`]();-/*\n ")
    + ["''", '""', "``", "()", "--\n", "/*", "*/", "/**/"]
    + ["ORDER", "BY", "SELECT", "with", "SELECT a;"]
    + list("ab_")
    + ["é", "ß", "ı", "\x1c", "\u00a0"]
)


@settings(max_examples=1000, deadline=None)
@given(st.lists(st.sampled_from(SCANNER_TOKENS), max_size=40).map("".join))
@example("SELECT a /*/ ; b */ FROM t; x")
def test_extract_sql_matches_the_reference_scanner_without_brackets(text):
    assert _extract_or_error(extract_sql, text) == _extract_or_error(_reference_extract_sql, text)


GOLD_LIKE_QUERIES = [
    "SELECT name FROM singer WHERE age > 30",
    "SELECT COUNT(*) FROM concert",
    "SELECT T1.name, T2.title FROM artist AS T1 JOIN album AS T2 ON T1.id = T2.artist_id",
    "SELECT avg(salary), max(salary) FROM instructor",
    "SELECT name FROM department ORDER BY budget DESC LIMIT 1",
    "SELECT DISTINCT country FROM airlines",
    "SELECT name FROM student WHERE age < (SELECT AVG(age) FROM student)",
    "SELECT city, COUNT(*) FROM employee GROUP BY city HAVING COUNT(*) > 2",
    "SELECT name FROM track WHERE seating BETWEEN 4000 AND 90000",
    "SELECT winner_name FROM matches WHERE YEAR = 2013 INTERSECT SELECT winner_name FROM matches WHERE YEAR = 2016",
    "SELECT name FROM channel EXCEPT SELECT name FROM broadcast",
    "SELECT title FROM film WHERE rating = 'PG' OR rating = 'G'",
    "SELECT sum(population) FROM city WHERE district = 'Gelderland'",
    "SELECT lname FROM authors ORDER BY lname, fname",
    "SELECT name, capacity FROM stadium WHERE average > (SELECT avg(average) FROM stadium)",
    "SELECT min(Votes) FROM votes",
    "SELECT grape FROM grapes UNION SELECT appelation FROM appellations",
    "SELECT COUNT(DISTINCT bike_id) FROM trip",
    "SELECT name FROM museum WHERE num_of_staff > (SELECT min(num_of_staff) FROM museum WHERE open_year > 2010)",
    "SELECT document_name FROM documents GROUP BY document_type_code ORDER BY count(*) DESC LIMIT 3",
    "WITH totals AS (SELECT uid, COUNT(*) AS n FROM follows GROUP BY uid) SELECT uid FROM totals WHERE n >= 2",
    "SELECT name FROM people WHERE people_id NOT IN (SELECT people_id FROM poker_player)",
    "SELECT rank FROM faculty GROUP BY rank ORDER BY count(*) ASC LIMIT 1",
    "SELECT date_of_notes FROM notes WHERE note LIKE '%rescheduled%'",
    "SELECT max(milliseconds), min(milliseconds) FROM track",
    "SELECT name FROM editor WHERE age = 24 OR age = 25",
    "SELECT customer_name FROM customers WHERE payment_method = 'Cash'",
    "SELECT COUNT(*) FROM flights WHERE sourceairport = 'APG'",
    "SELECT partition_id FROM storage GROUP BY partition_id",
    "SELECT product_price FROM products ORDER BY product_price ASC",
]


def test_extract_sql_round_trips_gold_corpus(examples):
    pool = [example.gold_sql for example in examples] + GOLD_LIKE_QUERIES
    assert len(pool) >= 50
    for sql in pool:
        assert extract_sql(sql) == sql
        wrapped = f"Here is the query you asked for:\n\n{sql}"
        assert extract_sql(wrapped) == sql


# ---------------------------------------------------------------------------
# parse_table_list
# ---------------------------------------------------------------------------


def test_parse_table_list_commas_and_noise():
    assert parse_table_list("Orders, `Products` , Order_Items.") == [
        "Orders",
        "Products",
        "Order_Items",
    ]


def test_parse_table_list_numbered_lines():
    assert parse_table_list("1. Orders\n2. Products") == ["Orders", "Products"]


# ---------------------------------------------------------------------------
# shipped template set
# ---------------------------------------------------------------------------


def test_shipped_templates_load_and_bind():
    templates = load_templates()
    assert set(templates) == set(REQUIRED_PLACEHOLDERS)
    for stage, template in templates.items():
        assert template == (builtin_template_dir() / f"{stage}.txt").read_text(encoding="utf-8")


def test_shipped_fewshot_has_five_pairs():
    fewshot = load_fewshot()
    assert fewshot.count("Question: ") == fewshot.count("\nSQL: ") == 5
