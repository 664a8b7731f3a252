"""Every command-line value has one converter, ``cli._Option.read``.

A flag's text and a config-file value reach the same converter, so they
are refused with the same message.  argparse only collects a flag's
text: no ``add_argument`` call in ``cli.py`` passes ``type=`` or
``choices=``, which would convert or check a flag a second time.
"""
import ast
from pathlib import Path

import asmux

CLI = Path(asmux.__file__).resolve().parent / "cli.py"
CONVERTING = {"type", "choices"}


def _name(node):
    """The name a node reads: a variable's, or an attribute's last part."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def converters(source: str) -> list[tuple[str, int]]:
    """(top-level definition, line) of each ``add_argument`` that may convert.

    That is a call with a ``type=`` or ``choices=`` keyword or a ``**``
    mapping, which may hold either, and a read of ``add_argument`` that
    is not a call, whose later calls cannot be checked.
    """
    found = []
    for top in ast.parse(source).body:
        owner = getattr(top, "name", "<module>")
        calls = [
            node for node in ast.walk(top)
            if isinstance(node, ast.Call) and _name(node.func) == "add_argument"
        ]
        for call in calls:
            if any(k.arg is None or k.arg in CONVERTING for k in call.keywords):
                found.append((owner, call.lineno))
        called = {id(call.func) for call in calls}
        found += [
            (owner, node.lineno) for node in ast.walk(top)
            if _name(node) == "add_argument" and id(node) not in called
        ]
    return found


def test_argparse_converts_no_value():
    assert converters(CLI.read_text()) == []


def test_the_check_sees_each_spelling():
    copies = [
        'parser.add_argument("--n", type=int)',
        "parser.add_argument(self.flag, dest=self.dest, choices=self.choices)",
        'parser.add_argument("--x", **options)',
        'parser.add_argument_group("g").add_argument("--x", type=float)',
        'add_argument("--format", choices=("csv", "json"), help="output format")',
        "add = parser.add_argument",
    ]
    for copy in copies:
        assert converters(f"def add_to(parser):\n    {copy}\n") == [("add_to", 2)], copy
    clean = (
        'parser.add_argument("--x", dest="x", action="append", metavar="{a,b}", help="h")\n'
        'sub = parser.add_subparsers(dest="command", required=True)\n'
        'p = sub.add_parser("eval", help="evaluate")\n'
        "out = option.type(text)\n"
        "parser.add_argument_group('g')\n"
    )
    assert converters(clean) == []
