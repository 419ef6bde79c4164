#!/usr/bin/env python3
"""Documentation consistency checks (run by CI and the test suite).

Seven checks, all filesystem/CLI-only:

1. **Internal links resolve** — every relative markdown link in
   ``README.md`` and ``docs/*.md`` points at a file that exists.
2. **Bench verbs documented** — every experiment id registered in
   ``repro.bench.experiments.EXPERIMENTS`` appears in ``docs/BENCH.md``,
   and every ``experiment-id``-looking verb documented there is
   actually registered or a known extra CLI verb (docs and CLI cannot
   drift apart).
3. **CLI help lists the verbs** — ``python -m repro.bench --help``
   mentions every registered experiment id and extra verb.
4. **Observability vocabulary documented** — the metric/span/event name
   tables in ``docs/OBSERVABILITY.md`` match
   ``repro.telemetry.naming.METRICS``/``SPANS`` and
   ``repro.telemetry.events.EVENTS`` in both directions, so a new
   metric cannot ship undocumented and doc rows cannot go stale.
5. **HTTP endpoints documented** — the endpoint table in
   ``docs/OBSERVABILITY.md`` matches
   ``repro.telemetry.server.ENDPOINTS`` in both directions.
6. **Lint rules documented** — the rule table in ``docs/ANALYSIS.md``
   matches the ``tools/analysis`` rule registry in both directions, so
   a quasii-lint rule cannot ship undocumented and a doc row cannot
   outlive its rule.
7. **Code mentions of markdown files resolve** — every ``*.md`` name a
   ``.py`` file under ``src/``, ``tests/``, or ``tools/`` mentions (in
   a docstring, comment, or string) names a file in the repo, so code
   cannot point readers at a document that does not exist.

Exit status 0 when everything holds; 1 with a per-problem report
otherwise.  Run from the repository root::

    PYTHONPATH=src python tools/check_docs.py
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: Markdown files whose relative links must resolve.
LINKED_DOCS = [
    "README.md",
    "docs/ANALYSIS.md",
    "docs/ARCHITECTURE.md",
    "docs/BENCH.md",
    "docs/OBSERVABILITY.md",
]

_LINK = re.compile(r"\[[^\]]+\]\(([^)#\s]+)(?:#[^)\s]*)?\)")

#: First-column backticked ids in markdown tables: ``| `name` | ...``.
#: The metric charset (dots/underscores) is disjoint from the verb
#: charset (hyphens), so each check sees only its own vocabulary.
_VERB_ROW = re.compile(r"^\| `([a-z0-9-]+)` \|", re.MULTILINE)
_NAME_ROW = re.compile(r"^\| `([a-z0-9_.]+)` \|", re.MULTILINE)
#: Endpoint paths start with a slash, so neither charset above sees them.
_ENDPOINT_ROW = re.compile(r"^\| `(/[a-z0-9_./-]*)` \|", re.MULTILINE)
#: Lint rule ids are uppercase, disjoint from every charset above.
_RULE_ROW = re.compile(r"^\| `(QL\d{3})` \|", re.MULTILINE)

#: Source trees whose ``.py`` files may only mention existing ``*.md``.
MD_MENTION_ROOTS = ("src", "tests", "tools")

#: A markdown file name, optionally with a relative directory prefix.
_MD_MENTION = re.compile(r"(?<![\w./-])([\w./-]*\w\.md)\b")


def check_links() -> list[str]:
    """Relative markdown links in the documented files must resolve."""
    problems = []
    for name in LINKED_DOCS:
        doc = REPO / name
        if not doc.is_file():
            problems.append(f"{name}: file missing")
            continue
        for target in _LINK.findall(doc.read_text(encoding="utf-8")):
            if "://" in target or target.startswith("mailto:"):
                continue
            resolved = (doc.parent / target).resolve()
            if not resolved.exists():
                problems.append(f"{name}: broken link -> {target}")
    return problems


def check_bench_docs() -> list[str]:
    """docs/BENCH.md and the EXPERIMENTS registry must agree."""
    from repro.bench.cli import EXTRA_VERBS
    from repro.bench.experiments import EXPERIMENTS, SCALES

    problems = []
    bench_md = REPO / "docs" / "BENCH.md"
    if not bench_md.is_file():
        return ["docs/BENCH.md: file missing"]
    text = bench_md.read_text(encoding="utf-8")
    documented = set(_VERB_ROW.findall(text))
    registered = set(EXPERIMENTS)
    for verb in sorted(registered - documented):
        problems.append(f"docs/BENCH.md: experiment {verb!r} is not documented")
    # Scale presets and extra CLI verbs ('report') are documented in the
    # same table style; they are known ids, not unknown experiments.
    for verb in sorted(
        documented - registered - set(SCALES) - set(EXTRA_VERBS)
    ):
        problems.append(
            f"docs/BENCH.md: documents unknown experiment {verb!r}"
        )
    return problems


def check_cli_help() -> list[str]:
    """``python -m repro.bench --help`` must list every experiment id."""
    from repro.bench.cli import EXTRA_VERBS, build_parser
    from repro.bench.experiments import EXPERIMENTS

    # argparse wraps long id lists and may break them at hyphens
    # ("mixed-\nworkload"); squash all whitespace before matching.
    help_text = re.sub(r"\s+", "", build_parser().format_help())
    return [
        f"bench --help does not mention verb {verb!r}"
        for verb in sorted([*EXPERIMENTS, *EXTRA_VERBS])
        if verb not in help_text
    ]


def check_observability_docs() -> list[str]:
    """docs/OBSERVABILITY.md tables must match the code registries.

    Both directions, for all three vocabularies: every canonical
    metric/span/event name needs a doc row and every documented name
    must exist in a registry; the same holds for the HTTP endpoint
    table against ``repro.telemetry.server.ENDPOINTS``.  Metric names
    contain dots and endpoints contain slashes, so the verb tables of
    BENCH.md never collide here.
    """
    from repro.telemetry.events import EVENTS
    from repro.telemetry.naming import METRICS, SPANS
    from repro.telemetry.server import ENDPOINTS

    obs_md = REPO / "docs" / "OBSERVABILITY.md"
    if not obs_md.is_file():
        return ["docs/OBSERVABILITY.md: file missing"]
    text = obs_md.read_text(encoding="utf-8")
    problems = []

    documented = set(_NAME_ROW.findall(text))
    canonical = set(METRICS) | set(SPANS) | set(EVENTS)
    for name in sorted(canonical - documented):
        problems.append(
            f"docs/OBSERVABILITY.md: metric/span/event {name!r} is not "
            "documented"
        )
    for name in sorted(documented - canonical):
        problems.append(
            "docs/OBSERVABILITY.md: documents unknown metric/span/event "
            f"{name!r}"
        )

    documented_paths = set(_ENDPOINT_ROW.findall(text))
    for path in sorted(set(ENDPOINTS) - documented_paths):
        problems.append(
            f"docs/OBSERVABILITY.md: endpoint {path!r} is not documented"
        )
    for path in sorted(documented_paths - set(ENDPOINTS)):
        problems.append(
            f"docs/OBSERVABILITY.md: documents unknown endpoint {path!r}"
        )
    return problems


def check_analysis_docs() -> list[str]:
    """docs/ANALYSIS.md's rule table must match the lint registry.

    ``tools/analysis`` is importable as the top-level ``analysis``
    package because this script's own directory (``tools/``) is on
    ``sys.path`` — both when run as a script and via the test suite's
    explicit insert.
    """
    from analysis.rules import RULES

    analysis_md = REPO / "docs" / "ANALYSIS.md"
    if not analysis_md.is_file():
        return ["docs/ANALYSIS.md: file missing"]
    documented = set(_RULE_ROW.findall(analysis_md.read_text(encoding="utf-8")))
    problems = []
    for rule_id in sorted(set(RULES) - documented):
        problems.append(
            f"docs/ANALYSIS.md: lint rule {rule_id!r} is not documented"
        )
    for rule_id in sorted(documented - set(RULES)):
        problems.append(
            f"docs/ANALYSIS.md: documents unknown lint rule {rule_id!r}"
        )
    return problems


def check_md_mentions(repo: Path = REPO) -> list[str]:
    """``*.md`` names mentioned in code must resolve to repo files.

    A mention resolves when some markdown file's repo-relative path
    equals it or ends with it after a ``/`` — so ``BENCH.md``,
    ``docs/BENCH.md``, and ``README.md`` all count, while a name no
    file carries does not.  Hidden directories are ignored on both
    sides.
    """

    def visible(path: Path) -> bool:
        return not any(p.startswith(".") for p in path.relative_to(repo).parts)

    docs = {
        p.relative_to(repo).as_posix()
        for p in repo.rglob("*.md")
        if visible(p)
    }
    problems = []
    for root in MD_MENTION_ROOTS:
        for source in sorted((repo / root).rglob("*.py")):
            if not visible(source):
                continue
            text = source.read_text(encoding="utf-8")
            for name in sorted(set(_MD_MENTION.findall(text))):
                if not any(d == name or d.endswith("/" + name) for d in docs):
                    rel = source.relative_to(repo).as_posix()
                    problems.append(f"{rel}: mentions missing file {name}")
    return problems


def main() -> int:
    problems = (
        check_links()
        + check_bench_docs()
        + check_cli_help()
        + check_observability_docs()
        + check_analysis_docs()
        + check_md_mentions()
    )
    for problem in problems:
        print(f"docs-check: {problem}", file=sys.stderr)
    if problems:
        print(f"docs-check: {len(problems)} problem(s)", file=sys.stderr)
        return 1
    print(
        "docs-check: README/docs links, BENCH.md verbs, CLI help, "
        "OBSERVABILITY.md metric/span/event/endpoint tables, the "
        "ANALYSIS.md lint-rule table, and code mentions of *.md files "
        "all consistent"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
