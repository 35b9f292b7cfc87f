"""A miniature Spider-format corpus: five small SQLite databases with
matching ``tables.json``/``examples.json`` files.

Bundled so the test suite, the executor oracle suite, and CLI demos can run
without downloading a benchmark. ``build_corpus`` writes the standard layout
(``tables.json``, ``examples.json``, ``database/<db_id>/<db_id>.sqlite``)
into any directory.
"""

from __future__ import annotations

import json
import sqlite3
from pathlib import Path

# Per database: ordered tables as (name, [(column, sqlite type)], [pk columns]),
# name-based foreign keys as ((child table, child column), (parent table,
# parent column)), and rows keyed by table.
_DB_SPECS: dict[str, dict] = {
    "customer_orders": {
        "tables": [
            (
                "Products",
                [
                    ("product_id", "INTEGER"),
                    ("parent_product_id", "INTEGER"),
                    ("product_name", "TEXT"),
                    ("product_price", "REAL"),
                    ("product_color", "TEXT"),
                    ("product_size", "TEXT"),
                    ("product_description", "TEXT"),
                ],
                ["product_id"],
            ),
            (
                "Customers",
                [
                    ("customer_id", "INTEGER"),
                    ("gender_code", "TEXT"),
                    ("customer_first_name", "TEXT"),
                    ("customer_middle_initial", "TEXT"),
                    ("customer_last_name", "TEXT"),
                    ("email_address", "TEXT"),
                    ("login_name", "TEXT"),
                    ("login_password", "TEXT"),
                    ("phone_number", "TEXT"),
                    ("address_line_1", "TEXT"),
                    ("town_city", "TEXT"),
                    ("county", "TEXT"),
                    ("country", "TEXT"),
                ],
                ["customer_id"],
            ),
            (
                "Customer_Payment_Methods",
                [("customer_id", "INTEGER"), ("payment_method_code", "TEXT")],
                [],
            ),
            (
                "Invoices",
                [
                    ("invoice_number", "INTEGER"),
                    ("invoice_status_code", "TEXT"),
                    ("invoice_date", "TEXT"),
                ],
                ["invoice_number"],
            ),
            (
                "Orders",
                [
                    ("order_id", "INTEGER"),
                    ("customer_id", "INTEGER"),
                    ("order_status_code", "TEXT"),
                    ("date_order_placed", "TEXT"),
                ],
                ["order_id"],
            ),
            (
                "Order_Items",
                [
                    ("order_item_id", "INTEGER"),
                    ("product_id", "INTEGER"),
                    ("order_id", "INTEGER"),
                    ("order_item_status_code", "TEXT"),
                ],
                ["order_item_id"],
            ),
            (
                "Shipments",
                [
                    ("shipment_id", "INTEGER"),
                    ("order_id", "INTEGER"),
                    ("invoice_number", "INTEGER"),
                    ("shipment_tracking_number", "TEXT"),
                    ("shipment_date", "TEXT"),
                ],
                ["shipment_id"],
            ),
            (
                "Shipment_Items",
                [("shipment_id", "INTEGER"), ("order_item_id", "INTEGER")],
                [],
            ),
        ],
        "foreign_keys": [
            (("Customer_Payment_Methods", "customer_id"), ("Customers", "customer_id")),
            (("Orders", "customer_id"), ("Customers", "customer_id")),
            (("Order_Items", "product_id"), ("Products", "product_id")),
            (("Order_Items", "order_id"), ("Orders", "order_id")),
            (("Shipments", "order_id"), ("Orders", "order_id")),
            (("Shipments", "invoice_number"), ("Invoices", "invoice_number")),
            (("Shipment_Items", "shipment_id"), ("Shipments", "shipment_id")),
            (("Shipment_Items", "order_item_id"), ("Order_Items", "order_item_id")),
        ],
        "rows": {
            "Products": [
                (1, None, "Chocolate Bar", 10.0, "brown", "small", "Dark chocolate"),
                (2, None, "Coffee Beans", 20.0, "brown", "medium", "Arabica beans"),
                (3, None, "Green Tea", 30.0, "green", "small", "Loose leaf tea"),
                (4, None, "Truffle Box", 99.0, "gold", "large", "Assorted truffles"),
            ],
            "Customers": [
                (1, "F", "Alice", "M", "Smith", "alice@example.org", "alice", "pw1",
                 "555-0001", "1 Elm St", "Springfield", "Clark", "USA"),
                (2, "M", "Bob", "T", "Jones", "bob@example.org", "bob", "pw2",
                 "555-0002", "2 Oak Ave", "Shelbyville", "Davis", "USA"),
                (3, "F", "Cara", "E", "Dean", "cara@example.org", "cara", "pw3",
                 "555-0003", "3 Pine Rd", "Ogdenville", "Lane", "USA"),
                (4, "M", "Dan", "R", "Ford", "dan@example.org", "dan", "pw4",
                 "555-0004", "4 Birch Ln", "North Haverbrook", "Ward", "USA"),
            ],
            "Customer_Payment_Methods": [(1, "credit"), (2, "debit"), (3, "credit")],
            "Invoices": [
                (301, "Paid", "2024-01-05"),
                (302, "Issued", "2024-02-11"),
            ],
            "Orders": [
                (101, 1, "Delivered", "2024-01-02"),
                (102, 1, "Delivered", "2024-01-10"),
                (103, 1, "Shipped", "2024-02-01"),
                (104, 2, "Delivered", "2024-01-03"),
                (105, 2, "Cancelled", "2024-01-21"),
                (106, 3, "Delivered", "2024-01-04"),
                (107, 3, "Shipped", "2024-02-02"),
                (108, 3, "Packing", "2024-02-05"),
            ],
            "Order_Items": [
                (1, 1, 101, "Delivered"),
                (2, 2, 101, "Delivered"),
                (3, 1, 102, "Delivered"),
                (4, 3, 103, "Shipped"),
                (5, 2, 106, "Delivered"),
            ],
            "Shipments": [
                (201, 101, 301, "TRK001", "2024-01-04"),
                (202, 102, 302, "TRK002", "2024-01-12"),
            ],
            "Shipment_Items": [(201, 1), (201, 2), (202, 3)],
        },
    },
    "city_channels": {
        "tables": [
            (
                "city_channel",
                [
                    ("ID", "INTEGER"),
                    ("City", "TEXT"),
                    ("Station_name", "TEXT"),
                    ("Owned_Since", "INTEGER"),
                    ("Affiliation", "TEXT"),
                ],
                ["ID"],
            ),
            (
                "radio",
                [
                    ("Radio_ID", "INTEGER"),
                    ("Transmitter", "TEXT"),
                    ("Radio_MHz", "REAL"),
                    ("FM2_MHz", "REAL"),
                    ("RnaG_MHz", "REAL"),
                    ("Lyric_FM_MHz", "REAL"),
                    ("ERP_kW", "REAL"),
                ],
                ["Radio_ID"],
            ),
            (
                "tv_show",
                [
                    ("tv_show_ID", "INTEGER"),
                    ("tv_show_name", "TEXT"),
                    ("Sub_title", "TEXT"),
                    ("Next_show_name", "TEXT"),
                    ("Original_Airdate", "TEXT"),
                ],
                ["tv_show_ID"],
            ),
            (
                "city_channel_radio",
                [
                    ("City_channel_ID", "INTEGER"),
                    ("Radio_ID", "INTEGER"),
                    ("Is_online", "TEXT"),
                ],
                [],
            ),
            (
                "city_channel_tv_show",
                [
                    ("City_channel_ID", "INTEGER"),
                    ("tv_show_ID", "INTEGER"),
                    ("Is_online", "TEXT"),
                    ("Is_free", "TEXT"),
                ],
                [],
            ),
        ],
        "foreign_keys": [
            (("city_channel_radio", "City_channel_ID"), ("city_channel", "ID")),
            (("city_channel_radio", "Radio_ID"), ("radio", "Radio_ID")),
            (("city_channel_tv_show", "City_channel_ID"), ("city_channel", "ID")),
            (("city_channel_tv_show", "tv_show_ID"), ("tv_show", "tv_show_ID")),
        ],
        "rows": {
            "city_channel": [
                (1, "Dublin", "Channel One", 1998, "ABC"),
                (2, "Cork", "Harbor TV", 2004, "ABC"),
                (3, "Galway", "West Station", 2010, "ABC"),
                (4, "Limerick", "Shannon View", 2001, "NBC"),
                (5, "Waterford", "Crystal TV", 1995, "CBS"),
            ],
            "radio": [
                (1, "Mount Leinster", 88.6, 90.4, 92.6, 96.0, 40.0),
                (2, "Three Rock", 89.1, 91.1, 93.1, 96.7, 16.0),
            ],
            "tv_show": [
                (1, "Morning Glory", "Sunrise edition", "Noon News", "2011-03-08"),
                (2, "Quiz Night", "Finals", "Late Movie", "2012-09-14"),
            ],
            "city_channel_radio": [(1, 1, "Yes"), (2, 2, "No")],
            "city_channel_tv_show": [(1, 1, "Yes", "Yes"), (2, 2, "No", "Yes")],
        },
    },
    "client_agencies": {
        "tables": [
            ("Agencies", [("agency_id", "INTEGER"), ("agency_details", "TEXT")], ["agency_id"]),
            (
                "Staff",
                [("staff_id", "INTEGER"), ("agency_id", "INTEGER"), ("staff_details", "TEXT")],
                ["staff_id"],
            ),
            (
                "Clients",
                [
                    ("client_id", "INTEGER"),
                    ("agency_id", "INTEGER"),
                    ("sic_code", "TEXT"),
                    ("client_details", "TEXT"),
                ],
                ["client_id"],
            ),
            (
                "Invoices",
                [
                    ("invoice_id", "INTEGER"),
                    ("client_id", "INTEGER"),
                    ("invoice_status", "TEXT"),
                    ("invoice_details", "TEXT"),
                ],
                ["invoice_id"],
            ),
            (
                "Meetings",
                [
                    ("meeting_id", "INTEGER"),
                    ("client_id", "INTEGER"),
                    ("meeting_outcome", "TEXT"),
                    ("meeting_type", "TEXT"),
                    ("billable_yn", "TEXT"),
                    ("start_date_time", "TEXT"),
                    ("end_date_time", "TEXT"),
                    ("purpose_of_meeting", "TEXT"),
                    ("other_details", "TEXT"),
                ],
                ["meeting_id"],
            ),
            (
                "Payments",
                [("payment_id", "INTEGER"), ("invoice_id", "INTEGER"), ("payment_details", "TEXT")],
                ["payment_id"],
            ),
            (
                "Staff_in_Meetings",
                [("meeting_id", "INTEGER"), ("staff_id", "INTEGER")],
                [],
            ),
        ],
        "foreign_keys": [
            (("Staff", "agency_id"), ("Agencies", "agency_id")),
            (("Clients", "agency_id"), ("Agencies", "agency_id")),
            (("Invoices", "client_id"), ("Clients", "client_id")),
            (("Meetings", "client_id"), ("Clients", "client_id")),
            (("Payments", "invoice_id"), ("Invoices", "invoice_id")),
            (("Staff_in_Meetings", "meeting_id"), ("Meetings", "meeting_id")),
            (("Staff_in_Meetings", "staff_id"), ("Staff", "staff_id")),
        ],
        "rows": {
            "Agencies": [(1, "Bright Media"), (2, "Quick Placements")],
            "Staff": [(1, 1, "Senior agent"), (2, 1, "Analyst"), (3, 2, "Agent")],
            "Clients": [
                (1, 1, "7372", "Acme Corp"),
                (2, 1, "2711", "Beta LLC"),
                (3, 1, "3559", "Gamma Inc"),
                (4, 2, "7372", "Delta Co"),
            ],
            "Invoices": [(1, 1, "Paid", "January retainer"), (2, 2, "Due", "Campaign work")],
            "Meetings": [
                (1, 1, "Positive", "Kickoff", "Y", "2024-01-08 09:00",
                 "2024-01-08 10:00", "Scope the campaign", ""),
                (2, 3, "Neutral", "Review", "N", "2024-02-01 14:00",
                 "2024-02-01 15:00", "Quarterly review", ""),
            ],
            "Payments": [(1, 1, "Wire transfer")],
            "Staff_in_Meetings": [(1, 1), (1, 2), (2, 3)],
        },
    },
    "region_buildings": {
        "tables": [
            (
                "building",
                [
                    ("Building_ID", "INTEGER"),
                    ("Region_ID", "INTEGER"),
                    ("Name", "TEXT"),
                    ("Address", "TEXT"),
                    ("Number_of_Stories", "INTEGER"),
                    ("Completed_Year", "INTEGER"),
                ],
                ["Building_ID"],
            ),
            (
                "region",
                [
                    ("Region_ID", "INTEGER"),
                    ("Name", "TEXT"),
                    ("Capital", "TEXT"),
                    ("Area", "REAL"),
                    ("Population", "INTEGER"),
                ],
                ["Region_ID"],
            ),
        ],
        "foreign_keys": [(("building", "Region_ID"), ("region", "Region_ID"))],
        "rows": {
            "building": [
                (1, 1, "Corso Tower", "1 Corso Way", 12, 1979),
                (2, 1, "Casa Bianca", "9 Via Roma", 5, 1988),
                (3, 2, "Tevere House", "3 River Rd", 9, 1995),
            ],
            "region": [
                (1, "Abruzzo", "L'Aquila", 10763.0, 1311580),
                (2, "Lazio", "Rome", 17236.0, 5879082),
            ],
        },
    },
    "measurement_lab": {
        "tables": [
            (
                "sample_groups",
                [("group_name", "TEXT"), ("description", "TEXT")],
                ["group_name"],
            ),
            (
                "samples",
                [
                    ("sample_id", "INTEGER"),
                    ("group_name", "TEXT"),
                    ("value", "REAL"),
                    ("note", "TEXT"),
                ],
                ["sample_id"],
            ),
        ],
        "foreign_keys": [(("samples", "group_name"), ("sample_groups", "group_name"))],
        "rows": {
            "sample_groups": [
                ("alpha", "Control group"),
                ("beta", "Treatment group"),
                ("gamma", "Calibration group"),
            ],
            "samples": [
                (1, "alpha", 0.1, "ok"),
                (2, "alpha", 0.2, "ok"),
                (3, "beta", 4.5, "ok"),
                (4, "beta", 4.5, "duplicate reading"),
                (5, "gamma", None, "sensor offline"),
                (6, "gamma", 7.25, "ok"),
            ],
        },
    },
}

DB_IDS = tuple(sorted(_DB_SPECS))

# The 20 bundled benchmark examples, over three of the five schemas.
EXAMPLES: list[dict] = [
    {
        "db_id": "customer_orders",
        "question": "How many customers are there?",
        "query": "SELECT COUNT(*) FROM Customers",
    },
    {
        "db_id": "customer_orders",
        "question": "List the first names of all customers in alphabetical order.",
        "query": "SELECT customer_first_name FROM Customers ORDER BY customer_first_name",
    },
    {
        "db_id": "customer_orders",
        "question": "What is the price of all products being ordered on average?",
        "query": (
            "SELECT AVG(p.product_price) FROM Order_Items oi "
            "JOIN Products p ON oi.product_id = p.product_id"
        ),
    },
    {
        "db_id": "customer_orders",
        "question": (
            "List the id, first name and last name of the customers who both have "
            "placed more than 2 orders and have bought at least 3 items."
        ),
        "query": (
            "SELECT customer_id, customer_first_name, customer_last_name FROM Customers "
            "WHERE customer_id IN ("
            "SELECT c.customer_id FROM Customers c JOIN Orders o "
            "ON c.customer_id = o.customer_id GROUP BY c.customer_id "
            "HAVING COUNT(o.order_id) > 2 "
            "INTERSECT "
            "SELECT c.customer_id FROM Customers c JOIN Orders o "
            "ON c.customer_id = o.customer_id JOIN Order_Items oi "
            "ON o.order_id = oi.order_id GROUP BY c.customer_id "
            "HAVING COUNT(oi.order_item_id) >= 3)"
        ),
    },
    {
        "db_id": "customer_orders",
        "question": "What are the names of products that cost more than 15?",
        "query": "SELECT product_name FROM Products WHERE product_price > 15",
    },
    {
        "db_id": "customer_orders",
        "question": "How many orders has each customer placed? Show the customer id and the count.",
        "query": "SELECT customer_id, COUNT(*) FROM Orders GROUP BY customer_id",
    },
    {
        "db_id": "customer_orders",
        "question": "What is the name of the most expensive product?",
        "query": "SELECT product_name FROM Products ORDER BY product_price DESC LIMIT 1",
    },
    {
        "db_id": "customer_orders",
        "question": "How many items are in each order? Show the order id and the count.",
        "query": "SELECT order_id, COUNT(*) FROM Order_Items GROUP BY order_id",
    },
    {
        "db_id": "city_channels",
        "question": "Please show the most common affiliation for city channels.",
        "query": (
            "SELECT Affiliation FROM city_channel GROUP BY Affiliation "
            "ORDER BY COUNT(*) DESC LIMIT 1"
        ),
    },
    {
        "db_id": "city_channels",
        "question": "How many city channels are there?",
        "query": "SELECT COUNT(*) FROM city_channel",
    },
    {
        "db_id": "city_channels",
        "question": "List the station names of all city channels.",
        "query": "SELECT Station_name FROM city_channel",
    },
    {
        "db_id": "city_channels",
        "question": "Show the distinct affiliations of city channels.",
        "query": "SELECT DISTINCT Affiliation FROM city_channel",
    },
    {
        "db_id": "city_channels",
        "question": "What are the names of all tv shows?",
        "query": "SELECT tv_show_name FROM tv_show",
    },
    {
        "db_id": "city_channels",
        "question": "Show the station names of channels owned since before 2000.",
        "query": "SELECT Station_name FROM city_channel WHERE Owned_Since < 2000",
    },
    {
        "db_id": "region_buildings",
        "question": 'Return the number of stories for each building in the region named "Abruzzo".',
        "query": (
            "SELECT b.Number_of_Stories FROM building b "
            "JOIN region r ON b.Region_ID = r.Region_ID WHERE r.Name = 'Abruzzo'"
        ),
    },
    {
        "db_id": "region_buildings",
        "question": "How many buildings are there?",
        "query": "SELECT COUNT(*) FROM building",
    },
    {
        "db_id": "region_buildings",
        "question": "What is the name of the region with the largest population?",
        "query": "SELECT Name FROM region ORDER BY Population DESC LIMIT 1",
    },
    {
        "db_id": "region_buildings",
        "question": "List the names of buildings with more than 6 stories.",
        "query": "SELECT Name FROM building WHERE Number_of_Stories > 6",
    },
    {
        "db_id": "region_buildings",
        "question": "What is the average number of stories across all buildings?",
        "query": "SELECT AVG(Number_of_Stories) FROM building",
    },
    {
        "db_id": "region_buildings",
        "question": "Show each region name and the number of buildings in it.",
        "query": (
            "SELECT r.Name, COUNT(b.Building_ID) FROM region r "
            "JOIN building b ON r.Region_ID = b.Region_ID GROUP BY r.Name"
        ),
    },
]


def _spider_type(sqlite_type: str) -> str:
    return "number" if sqlite_type in ("INTEGER", "REAL") else "text"


def _spider_record(db_id: str, spec: dict) -> dict:
    table_names = [table[0] for table in spec["tables"]]
    column_names: list = [[-1, "*"]]
    column_types = ["text"]
    global_ids: dict[tuple[str, str], int] = {}
    for table_index, (table_name, columns, _pks) in enumerate(spec["tables"]):
        for column_name, sqlite_type in columns:
            global_ids[(table_name, column_name)] = len(column_names)
            column_names.append([table_index, column_name])
            column_types.append(_spider_type(sqlite_type))

    primary_keys = [
        global_ids[(table_name, pk)]
        for table_name, _columns, pks in spec["tables"]
        for pk in pks
    ]
    foreign_keys = [
        [global_ids[child], global_ids[parent]]
        for child, parent in spec["foreign_keys"]
    ]
    return {
        "db_id": db_id,
        "table_names_original": table_names,
        "table_names": [name.lower().replace("_", " ") for name in table_names],
        "column_names_original": column_names,
        "column_names": [
            [t, name.lower().replace("_", " ")] for t, name in column_names
        ],
        "column_types": column_types,
        "primary_keys": primary_keys,
        "foreign_keys": foreign_keys,
    }


def _build_database(path: Path, spec: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    if path.exists():
        path.unlink()
    connection = sqlite3.connect(path)
    try:
        for table_name, columns, pks in spec["tables"]:
            column_sql = [f"{name} {sqlite_type}" for name, sqlite_type in columns]
            if pks:
                column_sql.append(f"PRIMARY KEY ({', '.join(pks)})")
            connection.execute(f"CREATE TABLE {table_name} ({', '.join(column_sql)})")
            rows = spec["rows"].get(table_name, [])
            if rows:
                placeholders = ", ".join("?" for _ in columns)
                connection.executemany(
                    f"INSERT INTO {table_name} VALUES ({placeholders})", rows
                )
        connection.commit()
    finally:
        connection.close()


def build_corpus(root: str | Path) -> Path:
    """Write the full mini corpus into ``root`` and return its path."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    records = [_spider_record(db_id, _DB_SPECS[db_id]) for db_id in DB_IDS]
    (root / "tables.json").write_text(json.dumps(records, indent=2), encoding="utf-8")
    (root / "examples.json").write_text(json.dumps(EXAMPLES, indent=2), encoding="utf-8")
    for db_id in DB_IDS:
        _build_database(db_path(root, db_id), _DB_SPECS[db_id])
    return root


def db_path(root: str | Path, db_id: str) -> Path:
    return Path(root) / "database" / db_id / f"{db_id}.sqlite"
