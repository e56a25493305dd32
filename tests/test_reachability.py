"""The reachability report (``scripts/reachability.py``) keeps working.

CI runs the full report as information only, so nothing else would notice
if the tracer or the report broke; one cheap entry point traced end to end
and the static line/function tables pin it.  The entry-point table must
also keep following CI's smoke commands.
"""

import os
import shlex
import subprocess
import sys
import textwrap
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "scripts"))

import reachability  # noqa: E402  (scripts/reachability.py)

#: Shell tokens that end a command on a CI ``run:`` line.
_SHELL_ENDS = {"|", "||", "&", "&&", ";", ">", "2>"}


def test_static_tables(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(textwrap.dedent('''\
        X = 1


        def outer(value):
            def inner():
                return value
            return inner()


        class Box:
            def size(self):
                return [x for x in range(3)]
        '''))
    lines = reachability.executable_lines(source)
    assert {1, 4, 5, 6, 7, 10, 11, 12} <= lines
    found = {qualname: (first, name, count, nested)
             for first, name, qualname, count, nested
             in reachability.functions(source)}
    assert set(found) == {"outer", "outer.<locals>.inner", "Box.size"}
    assert found["outer"][:3] == (4, "outer", 4)
    assert found["outer"][3] == {(5, "inner")}
    assert found["Box.size"][:3] == (11, "size", 2)


def test_one_entry_point_end_to_end(tmp_path):
    trace = tmp_path / "trace.json"
    done = subprocess.run(
        [sys.executable, str(REPO_ROOT / "scripts" / "reachability.py"),
         "--trace-into", str(trace), "--", "-m", "repro", "list"],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    report = reachability.report(REPO_ROOT, [trace]).splitlines()
    assert report[0].startswith("Unreached executable lines: ")
    rows = {line.split()[0]: line.split()[1:] for line in report[3:]
            if line.startswith("repro/")}
    # `repro list` runs the CLI but never the shared-memory exporter.
    assert "repro/cli.py" in rows
    assert rows["repro/cli.py"][0] != rows["repro/cli.py"][1]
    unreached, total = rows["repro/tensor/shm.py"]
    assert unreached == total
    assert any(line.startswith("Functions never entered: ") for line in report)
    assert any(line.strip().startswith("repro/tensor/shm.py:") for line in report)


def _command_key(tokens):
    """``(positional words, option names)`` of a ``repro`` command line."""
    positional = []
    for token in tokens:
        if token.startswith("-"):
            break
        positional.append(token)
    return tuple(positional), {token for token in tokens if token.startswith("--")}


def _ci_repro_commands():
    workflow = REPO_ROOT / ".github" / "workflows" / "ci.yml"
    for line in workflow.read_text().splitlines():
        if "python -m repro" not in line:
            continue
        tokens = shlex.split(line.strip().removeprefix("run:"))
        starts = [index + 3 for index in range(len(tokens))
                  if tokens[index:index + 3] == ["python", "-m", "repro"]]
        if not starts:  # e.g. a pgrep pattern that names the command
            continue
        start = starts[0]
        end = next((index for index in range(start, len(tokens))
                    if tokens[index] in _SHELL_ENDS), len(tokens))
        yield line.strip(), tokens[start:end]


def test_entry_points_follow_ci_smoke_commands():
    """Every ``python -m repro`` command CI runs has an entry point with the
    same subcommand and positional words and at least its options."""
    traced = [_command_key(argv[2:]) for _, argv, _, _ in reachability.ENTRY_POINTS
              if argv[:2] == ("-m", "repro")]
    traced.append(_command_key(reachability.SERVE_ARGV[2:]))
    commands = list(_ci_repro_commands())
    assert len(commands) > 20
    missing = []
    for line, tokens in commands:
        positional, options = _command_key(tokens)
        if not any(positional == words and options <= names
                   for words, names in traced):
            missing.append(line)
    assert not missing, ("ci.yml runs repro commands that "
                         f"reachability.ENTRY_POINTS does not trace: {missing}")
