"""Documentation consistency: links resolve, bench verbs documented.

Thin pytest wrapper around :mod:`tools.check_docs` so the tier-1 run
catches doc drift the same way CI does.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "tools"))

import check_docs  # noqa: E402


def test_internal_markdown_links_resolve():
    assert check_docs.check_links() == []


def test_every_bench_verb_is_documented_and_vice_versa():
    assert check_docs.check_bench_docs() == []


def test_cli_help_lists_every_experiment():
    assert check_docs.check_cli_help() == []


def test_observability_vocabulary_is_documented_both_ways():
    assert check_docs.check_observability_docs() == []


def test_lint_rule_table_matches_the_registry_both_ways():
    assert check_docs.check_analysis_docs() == []


def test_code_mentions_of_markdown_files_resolve():
    assert check_docs.check_md_mentions() == []


def test_a_dangling_markdown_mention_is_reported(tmp_path):
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "BENCH.md").write_text("# bench\n", encoding="utf-8")
    (tmp_path / "src").mkdir()
    # Built from parts so this test file itself mentions no missing doc.
    missing = "NO_SUCH_DOC"
    (tmp_path / "src" / "mod.py").write_text(
        f'"""See docs/BENCH.md, BENCH.md, and {missing}.md."""\n',
        encoding="utf-8",
    )
    assert check_docs.check_md_mentions(tmp_path) == [
        f"src/mod.py: mentions missing file {missing}.md"
    ]
