"""Documentation integrity: links resolve, CLI docs cover every command.

The same link checker runs in the CI ``docs`` job (``tools/check_docs.py``);
running it here too keeps tier-1 self-contained — a PR cannot merge a
dangling cross-reference even if it skips the docs job.
"""

import re
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

import check_docs  # noqa: E402

pytestmark = pytest.mark.smoke


def test_all_markdown_links_resolve():
    problems = []
    for path in check_docs.doc_files():
        problems.extend(check_docs.check_file(path))
    assert not problems, "\n".join(
        f"{p.relative_to(REPO_ROOT)}: {link!r}: {why}" for p, link, why in problems
    )


def test_doc_suite_is_present():
    names = {p.relative_to(REPO_ROOT).as_posix() for p in check_docs.doc_files()}
    for required in (
        "README.md",
        "PERFORMANCE.md",
        "EXPERIMENTS.md",
        "docs/ARCHITECTURE.md",
        "docs/CLI.md",
    ):
        assert required in names


#: ``repro <command>`` as the docs spell an invocation (``python -m repro
#: analyze``, ``$ repro cache gc``)
_REPRO_COMMAND = re.compile(r"(?<![\w./-])repro ([a-z][\w-]*)")


def test_cli_doc_covers_every_subcommand():
    from repro.cli import build_parser

    # the subparser choices are the authoritative command list
    parser = build_parser()
    subparsers = next(
        a for a in parser._actions if hasattr(a, "choices") and a.choices
    )
    commands = set(subparsers.choices)
    cli_md = (REPO_ROOT / "docs" / "CLI.md").read_text()
    headings = {
        line.lstrip("#").strip()
        for line in cli_md.splitlines()
        if line.startswith("## ")
    }
    missing = commands - headings
    assert not missing, f"docs/CLI.md lacks a section for: {sorted(missing)}"

    # ...and the other direction: no doc advertises a command that is gone
    docs = [
        REPO_ROOT / "README.md",
        REPO_ROOT / "EXPERIMENTS.md",
        REPO_ROOT / "PERFORMANCE.md",
        REPO_ROOT / ".claude" / "skills" / "verify" / "SKILL.md",
        *sorted((REPO_ROOT / "docs").glob("*.md")),
    ]
    unknown = sorted(
        f"{path.relative_to(REPO_ROOT)}: repro {name}"
        for path in docs
        if path.is_file()
        for name in set(_REPRO_COMMAND.findall(path.read_text()))
        if name not in commands
    )
    assert not unknown, "docs name commands the CLI lacks:\n" + "\n".join(unknown)


def test_quickstart_extraction_yields_runnable_commands():
    # the CI docs job executes exactly this extraction, so it must be
    # non-empty and contain the analyze invocation the README documents
    script = check_docs.quickstart_commands()
    assert "race.prob" in script
    assert "python -m repro analyze" in script
    assert "python -m repro exact" in script
    # every non-empty line is a command, not markdown leakage
    for line in script.splitlines():
        assert not line.startswith(("#", "```", "|", "[")), line


def test_github_slugging_matches_expectations():
    assert check_docs.github_slug("The layer stack") == "the-layer-stack"
    assert check_docs.github_slug("`compile`") == "compile"
    assert check_docs.github_slug("Where new work plugs in") == "where-new-work-plugs-in"


#: the README's Race(40, 0) quickstart program
RACE = (
    "x := 40\ny := 0\nwhile x <= 99 and y <= 99:\n    if prob(0.5):\n"
    "        x, y := x + 1, y + 2\n    else:\n        x := x + 1\nassert x >= 100\n"
)


def test_cli_certificate_sample_lists_every_check(tmp_path, capsys):
    # docs/CLI.md's verify-certificate sample must show, in order, the
    # checks an honest Race(40, 0) certificate reports
    from repro.cli import main

    cli_md = (REPO_ROOT / "docs" / "CLI.md").read_text()
    sample = cli_md.split("$ repro verify-certificate race.cert.json\n", 1)[1]
    documented = [
        line for line in sample.split("```", 1)[0].splitlines() if line.startswith("ok ")
    ]
    program = tmp_path / "race.prob"
    program.write_text(RACE)
    cert = tmp_path / "race.cert.json"
    assert main(["exact", str(program), "--certificate", str(cert)]) == 0
    capsys.readouterr()
    assert main(["verify-certificate", str(cert)]) == 0
    reported = [
        line for line in capsys.readouterr().out.splitlines() if line.startswith("ok ")
    ]
    assert documented == reported


def test_cli_selftest_sample_names_the_families_selftest_runs(capsys):
    # docs/CLI.md's selftest sample must list, in order, the families a
    # real run reports, and the same "k/k families ok" count
    from repro.cli import main

    def families(text):
        *rows, summary = [line.split() for line in text.splitlines() if line.strip()]
        return [row[0] for row in rows], summary[1]

    cli_md = (REPO_ROOT / "docs" / "CLI.md").read_text()
    sample = cli_md.split("$ repro selftest\n", 1)[1].split("```", 1)[0]
    assert main(["selftest"]) == 0
    assert families(sample) == families(capsys.readouterr().out)
