"""The docs cannot drift from what they describe; clock-free.

Every cell of docs/performance.md's *Current numbers* table is
recomputed from the BENCH document it cites, and every claim cell of
EXPERIMENTS.md from VERDICTS.json; every repo path named in
``docs/*.md``, README.md and the verify skill exists; every doc section
cited by name from ``src``, ``tests`` or the CI workflow still exists,
and so does every ROADMAP item they or the docs cite.
(``tests/perf/test_cli.py`` parses the docs' command lines.)
"""

from __future__ import annotations

import glob
import json
import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PROSE = sorted(glob.glob(os.path.join(ROOT, "docs", "*.md"))) + [
    os.path.join(ROOT, "README.md"), os.path.join(ROOT, ".claude", "skills", "verify", "SKILL.md")]


def read(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def ratio(calls: int, per: int) -> str:
    return f"{calls / per:.3f}" if per else "—"


def expected_cells(name_cell: str, rows) -> list:
    """A benchmark's counts and its calls per event and per packet; for
    ``A − B``, the difference of the two rows' calls per packet."""
    names = re.findall(r"`(\w+)`", name_cell)
    if " − " in name_cell:
        armed, unarmed = (rows[name]["calls"] / rows[name]["packets"] for name in names)
        return [name_cell, "", "", "", "", f"{armed - unarmed:.3f}"]
    row = rows[names[0]]
    return [name_cell, str(row["events"]), str(row["packets"]), str(row["calls"]),
            ratio(row["calls"], row["events"]), ratio(row["calls"], row["packets"])]


def test_current_numbers_are_the_bench_file():
    text = read(os.path.join(ROOT, "docs", "performance.md"))
    text = text.split("\n## Current numbers\n")[1].split("\n## ")[0]
    (cited,) = set(re.findall(r"`(BENCH_\d+\.json)`", text))
    rows = json.loads(read(os.path.join(ROOT, cited)))["benchmarks"]
    cells = [[cell.strip() for cell in line.strip("|").split("|")]
             for line in text.splitlines() if line.startswith("| `")]
    assert [c for c in cells if c != expected_cells(c[0], rows)] == []
    assert [c[0] for c in cells if " − " not in c[0]] == [f"`{name}`" for name in sorted(rows)]


def claim_cells(record: dict) -> list:
    """A claim row's last four cells: the claim (and the golden row where it
    is tightest), its value, its bound and its margin."""
    def number(x) -> str:
        return str(x) if x is None else f"{x:.4g}"
    where = f" at {record['where']}" if record["where"] else ""
    margin = "—" if record["margin"] is None else number(record["margin"])
    return [f"`{record['id']}`{where}", number(record["value"]),
            f"{record['op']} {number(record['bound'])}", margin]


def test_claim_cells_are_the_verdicts_file():
    """Each claim row ``<stem>.<row>`` shows its claim with the smallest
    relative margin, every row of the file is shown exactly once, and
    every claim id the doc names is in the file."""
    claims = sorted(json.loads(read(os.path.join(ROOT, "VERDICTS.json"))),
                    key=lambda c: (c["rel_margin"] is None, c["rel_margin"] or 0, c["id"]))
    tightest = {}
    for record in claims:
        tightest.setdefault(".".join(record["id"].split(".")[:2]), record)
    text = read(os.path.join(ROOT, "EXPERIMENTS.md"))
    rows = [[cell.strip() for cell in line.strip("|").split("|")][-4:]
            for line in text.splitlines()
            if re.match(r"\|.*\| `[a-z0-9]+\.[\w.]+`( at \S+)? \|", line)]
    keys = [".".join(re.match(r"`([\w.]+)`", row[0]).group(1).split(".")[:2]) for row in rows]
    assert sorted(keys) == sorted(tightest)
    named = {name for name in re.findall(r"`([a-z0-9]+\.[a-z][\w.]*)`", text)
             if name.split(".")[0] in {key.split(".")[0] for key in tightest}}
    assert sorted(named - {record["id"] for record in claims}) == []
    assert [(row, claim_cells(tightest[key])) for row, key in zip(rows, keys)
            if row != claim_cells(tightest[key])] == []


#: A path under a top-level directory (``repro/`` under ``src``) or a
#: top-level file such as ``BENCH_22.json``; a glob must match something.
PATH = re.compile(
    r"(?<![\w./<-])((?:src|tests|docs|examples|benchmarks|\.github|repro)/[\w./*-]*[\w*]"
    r"|[A-Z]{2,}[A-Z0-9_]*(?:_[a-z0-9]+)?\.(?:md|json))")


def test_paths_named_in_the_docs_exist():
    missing = [f"{os.path.relpath(path, ROOT)}: {name}" for path in PROSE
               for name in sorted(set(PATH.findall(read(path))))
               if not glob.glob(os.path.join(ROOT, "src" if name.startswith("repro/") else "",
                                             name))]
    assert missing == []


#: The doc's path, a comma, the title in asterisks or quotes (across a
#: line break and its comment markers).
CITATION = re.compile(r"docs/(\w+\.md),\s*(?:#:?\s*)*[*\"]([A-Z][^*\"]+?)[*\"]")


def test_cited_doc_sections_exist():
    sources = glob.glob(os.path.join(ROOT, "src", "**", "*.py"), recursive=True)
    sources += glob.glob(os.path.join(ROOT, "tests", "**", "*.py"), recursive=True)
    sources.append(os.path.join(ROOT, ".github", "workflows", "ci.yml"))
    cited = {(doc, re.sub(r"\s*\n\s*(?:#:?\s*)*", " ", title))
             for path in sources for doc, title in CITATION.findall(read(path))}
    assert {("performance.md", "Cold start"), ("performance.md", "Current numbers")} <= cited
    assert [(doc, title) for doc, title in sorted(cited)
            if not re.search(rf"^#+ {re.escape(title)}\s*$",
                             read(os.path.join(ROOT, "docs", doc)), re.M)] == []


#: ``ROADMAP`` then an item number, optionally a letter: ``ROADMAP 1``,
#: ``ROADMAP item 6(a)``, also across a line break and its comment markers.
ROADMAP_CITATION = re.compile(r"\bROADMAP\s+(?:#:?\s*)*(?:items?\s+)?(\d+)(?:\(([a-z])\))?")


def open_items() -> dict:
    """Item number -> text, for each numbered item under *Open items*."""
    text = read(os.path.join(ROOT, "ROADMAP.md")).split("\n## Open items\n")[1]
    text = text.split("\n## ")[0]
    parts = re.split(r"^(\d+)\. ", text, flags=re.M)
    return dict(zip(parts[1::2], parts[2::2]))


def test_cited_roadmap_items_exist():
    sources = [path for pattern in ("src/**/*.py", "tests/**/*.py", "docs/*.md",
                                    "README.md", ".github/workflows/*.yml")
               for path in glob.glob(os.path.join(ROOT, pattern), recursive=True)]
    cited = {(os.path.relpath(path, ROOT), number, letter) for path in sources
             for number, letter in ROADMAP_CITATION.findall(read(path))}
    items = open_items()
    # ci.yml wraps its citation across a comment line.
    assert (os.path.join(".github", "workflows", "ci.yml"), "15", "") in cited
    assert [c for c in sorted(cited) if c[1] not in items
            or (c[2] and f"({c[2]})" not in items[c[1]])] == []
