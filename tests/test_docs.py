"""Docs stay true: links resolve, public modules are documented, CLI help
matches the reference.

This is the tier-1 twin of CI's docs smoke step: if a file rename orphans a
README link, a new subcommand ships without a ``docs/CLI.md`` section, or a
public module loses its docstring, a test fails here rather than a reader
finding out.
"""

import argparse
import importlib
import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "scripts"))

import check_docs  # noqa: E402  (scripts/check_docs.py)

#: The public surfaces the ISSUE requires module docstrings on, plus the new
#: store/search modules.
DOCUMENTED_MODULES = (
    "repro.experiments.scheduler",
    "repro.experiments.sweep",
    "repro.experiments.registry",
    "repro.experiments.store",
    "repro.experiments.search",
    "repro.experiments.shard",
    "repro.tensor.synth",
    "repro.tensor.kernels",
    "repro.tensor.corpus",
    "repro.utils.faults",
    "repro.utils.retry",
)


def _documented_cli_flags(text=None):
    """Every ``--flag`` spelled anywhere in ``text`` (default: CLI.md)."""
    if text is None:
        text = (REPO_ROOT / "docs" / "CLI.md").read_text()
    return sorted(set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", text)))


def _cli_option_strings(parser=None):
    """The option strings of ``parser`` and all its nested subparsers."""
    if parser is None:
        from repro.cli import build_parser

        parser = build_parser()
    options = set()
    for action in parser._actions:
        options.update(action.option_strings)
        if isinstance(action, argparse._SubParsersAction):
            for subparser in action.choices.values():
                options |= _cli_option_strings(subparser)
    return options


class TestDocFiles:
    def test_architecture_and_cli_docs_exist(self):
        assert (REPO_ROOT / "docs" / "ARCHITECTURE.md").exists()
        assert (REPO_ROOT / "docs" / "CLI.md").exists()

    def test_all_relative_links_resolve(self):
        problems = check_docs.check_docs(REPO_ROOT)
        assert problems == []

    def test_readme_links_the_docs(self):
        readme = (REPO_ROOT / "README.md").read_text()
        assert "docs/ARCHITECTURE.md" in readme
        assert "docs/CLI.md" in readme

    def test_architecture_names_every_layer(self):
        text = (REPO_ROOT / "docs" / "ARCHITECTURE.md").read_text()
        for layer in ("repro.tensor", "repro.tiling", "repro.buffers",
                      "repro.core", "repro.model", "repro.accelerator",
                      "repro.energy", "repro.experiments"):
            assert layer.split(".", 1)[1] in text, layer
        # The contracts the store relies on are walked through explicitly.
        assert "cache_token" in text or "cache token" in text
        assert "suite_from_token" in text

    def test_server_doc_names_every_request_field(self):
        """docs/SERVER.md's body-key table covers the whole request schema."""
        from dataclasses import fields

        from repro.experiments.schema import (
            GridRequest,
            RunRequest,
            SearchRequest,
        )

        text = (REPO_ROOT / "docs" / "SERVER.md").read_text()
        for cls in (GridRequest, SearchRequest, RunRequest):
            for spec in fields(cls):
                assert f"`{spec.name}`" in text, (
                    f"docs/SERVER.md lacks the {cls.__name__} field "
                    f"`{spec.name}`")

    def test_cli_doc_covers_every_subcommand(self):
        from repro.cli import build_parser

        text = (REPO_ROOT / "docs" / "CLI.md").read_text()
        parser = build_parser()
        subparsers = next(
            action for action in parser._actions
            if isinstance(action, __import__("argparse")._SubParsersAction))
        for name in subparsers.choices:
            assert f"`{name}`" in text, f"docs/CLI.md lacks `{name}`"
        # The overwrite guard is documented (ISSUE satellite).
        assert "--force" in text and "--resume" in text

    @pytest.mark.parametrize("flag", _documented_cli_flags())
    def test_cli_doc_flag_is_accepted(self, flag):
        """A row for a removed option fails here instead of misleading."""
        assert flag in _cli_option_strings(), (
            f"docs/CLI.md names {flag}, which no repro subcommand accepts")

    def test_stale_flag_row_would_be_caught(self):
        stale = "| `--workers N` | ... |\n| `--retired-option` | gone |\n"
        flags = _documented_cli_flags(stale)
        assert flags == ["--retired-option", "--workers"]
        assert [flag for flag in flags
                if flag not in _cli_option_strings()] == ["--retired-option"]

    def test_broken_link_detected(self, tmp_path):
        (tmp_path / "docs").mkdir()
        page = tmp_path / "docs" / "page.md"
        page.write_text("see [missing](nonesuch.md) and "
                        "[ok](https://example.com) and [anchor](#section)\n"
                        "```\n[in a fence](also-missing.md)\n```\n")
        problems = check_docs.check_file(page, tmp_path)
        assert problems == ["docs/page.md: broken link -> nonesuch.md"]


class TestModuleDocstrings:
    @pytest.mark.parametrize("module_name", DOCUMENTED_MODULES)
    def test_public_surface_has_a_real_docstring(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__ and len(module.__doc__.strip()) > 200, (
            f"{module_name} needs a substantive module docstring")


class TestCliHelp:
    def test_python_m_repro_help_runs(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro", "--help"],
            capture_output=True, text=True, timeout=120,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin"},
            cwd=REPO_ROOT)
        assert result.returncode == 0, result.stderr
        for name in ("list", "run", "sweep", "search", "store"):
            assert name in result.stdout
