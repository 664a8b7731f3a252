"""README.md is a user's guide that runs: every example in it, and what it names.

The ``bash`` blocks run in order through ``asmux.cli.main`` in one
temporary directory, in process, so the ``asmux`` console script need not
be installed; ``pip`` and ``pytest`` lines are skipped.  The ``python``
blocks run with ``exec`` in one namespace.  The drift guards check that
README lists the subcommands the parser has, names exactly its flags,
states each option's default as the parser has it and the CSV columns as
the writer has them, and quotes no timing: a timing depends on the
machine, and no test could check it.
"""
import re
import shlex
from pathlib import Path

from asmux.cli import _COMMANDS, main
from asmux.experiments import CSV_COLUMNS

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
SKIPPED = ("pip", "pytest")
# a number of seconds, milliseconds or microseconds, or a rate per second
TIMING = re.compile(r"µs|\bms\b|ops/s|\d s\b")
# a whole flag: "--n" inside "--n-ref" is "--n-ref"
FLAG = re.compile(r"(?<![\w-])--[a-z][a-z-]*")
# "`--flag`" or "`--flag {a,b}`", then "(... default `value`": the default the README states
DEFAULT = re.compile(r"`(--[a-z][a-z-]*)[^`]*`\s+\((?:[^()]*?,\s+)?default\s+`([^`]+)`")


def blocks(language: str, text: str = README) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```", text, flags=re.MULTILINE | re.DOTALL)


def command_lines(text: str = README) -> list[list[str]]:
    """The shell lines of the ``bash`` blocks, continuations joined and comments dropped."""
    lines = []
    for block in blocks("bash", text):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words and words[0] not in SKIPPED:
                lines.append(words)
    return lines


def options() -> dict[str, list]:
    """Every flag of the parser, with the options that declare it."""
    found: dict[str, list] = {}
    for _, _, opts in _COMMANDS.values():
        for option in opts:
            found.setdefault(option.flag, []).append(option)
    return found


def test_every_command_example_exits_zero(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    runs = []
    for words in command_lines():
        assert words[0] == "asmux", words
        code = main(words[1:])
        out, err = capsys.readouterr()
        assert code == 0, (words, err)
        runs.append((words, out))
    # the stored profile re-evaluates to find-n's p1, bit for bit
    (search,) = [out for words, out in runs if words[1] == "find-n"]
    (again,) = [out for words, out in runs if "--pump-file" in words]
    p1 = re.search(r"^p1 (\S+)$", search, flags=re.MULTILINE).group(1)
    assert re.search(r"^P_1 (\S+)$", again, flags=re.MULTILINE).group(1) == p1


def test_quick_start_reaches_the_headline_optimum(capsys):
    namespace: dict = {}
    for block in blocks("python"):
        exec(compile(block, "README.md", "exec"), namespace)
    capsys.readouterr()
    search = namespace["search"]
    assert search.n_opt == 16
    assert abs(search.p1_max - 0.935) <= 0.002  # acceptance criterion 2


def test_subcommands_are_the_parsers():
    (listing,) = blocks("text")
    names = [line.split()[1] for line in listing.splitlines() if line.startswith("asmux ")]
    assert names == list(_COMMANDS)


def test_named_flags_are_the_parsers():
    prose = "\n".join(line for line in README.splitlines() if not line.startswith(SKIPPED))
    assert sorted(set(FLAG.findall(prose))) == sorted(options())


def test_stated_defaults_are_the_parsers():
    stated = DEFAULT.findall(README)
    by_flag = options()
    for flag, text in stated:
        assert all(option.read(text) == option.default for option in by_flag[flag]), flag
    # every option that takes a value and has a default states it
    valued = {
        flag
        for flag, opts in by_flag.items()
        if any(option.default is not None and option.action is None for option in opts)
    }
    assert sorted(flag for flag, _ in stated) == sorted(valued)


def test_csv_columns_are_the_writers():
    section = README.split("\n## CSV columns\n", 1)[1]
    columns = blocks("", section)[0]  # the first bare block after the heading
    assert tuple(columns.replace(",", " ").split()) == CSV_COLUMNS


def test_no_timings():
    assert TIMING.findall(README) == []
