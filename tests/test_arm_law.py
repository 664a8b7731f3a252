"""The arm law has one home: only ``multiplexer.py`` raises ``v_r`` to a power.

Every arm transmission comes from ``multiplexer._arms``.  A second copy
of ``v_r ** (n - 1)`` elsewhere, say a Python scalar power beside a numpy
array power, may round differently in the last bit, and a reported P1
would then no longer re-evaluate to itself.
"""
import ast
from pathlib import Path

import asmux

PACKAGE = Path(asmux.__file__).resolve().parent
HOME = "multiplexer.py"


def _name(node):
    """The name a node reads: a variable's, or an attribute's last part."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def powers_of_v_r(source: str) -> list[int]:
    """Lines where ``v_r`` is the base of ``**``, ``**=``, ``pow``, ``power`` or ``float_power``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            base = node.left
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Pow):
            base = node.target
        elif isinstance(node, ast.Call) and node.args and _name(node.func) in (
            "pow", "power", "float_power"
        ):
            base = node.args[0]
        else:
            continue
        if _name(base) == "v_r":
            lines.append(node.lineno)
    return lines


def test_only_the_multiplexer_raises_v_r_to_a_power():
    copies = [
        f"{path.name}:{line}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != HOME
        for line in powers_of_v_r(path.read_text())
    ]
    assert copies == []
    assert powers_of_v_r((PACKAGE / HOME).read_text())  # the law itself is still seen


def test_the_check_sees_each_spelling_of_a_power():
    copies = [
        "spec.v_b * spec.v_r ** (sizes - 1.0)",
        "v_r ** k",
        "np.power(self.v_r, n)",
        "math.pow(spec.v_r, 2)",
        "np.float_power(v_r, n)",
        "x = 1.0\nv_r **= 2",
    ]
    for copy in copies:
        assert powers_of_v_r(copy), copy
    assert powers_of_v_r("spec.v_t ** 2\nv_r * 2\nnp.power(v, n)") == []
