"""The Monte Carlo sampler shares no law with the analytic model.

The sampler validates the model only while it computes its counts
another way: it may read the model's inputs from ``statistics``
(``DetectionStrategy``, ``PumpProfile``) and their check
(``_validate_pump``), and nothing else.  A sampler that read a pmf, a
weight or a chain sum from there would agree with the model by
construction, whatever either got wrong.  ``compare_with_analytic``
pairs the two, so it is not a sampler function.
"""
import ast
from pathlib import Path

import asmux

PACKAGE = Path(asmux.__file__).resolve().parent
SAMPLER = {"simulate", "_pair_histogram", "_thin", "_poisson_hazard", "_check_pair_groups"}
ALLOWED = {"DetectionStrategy", "PumpProfile", "_validate_pump"}


def _from_statistics(node) -> bool:
    return isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "statistics"


def statistics_reads(source: str) -> dict[str, set[str]]:
    """Names each top-level function reads from ``statistics``.

    A name counts when the module or the function imports it from
    ``statistics``, or when the function reads it as an attribute of a
    module bound to ``statistics``, by ``from . import statistics`` or
    ``import asmux.statistics as ...``.
    """
    tree = ast.parse(source)
    imported, modules = set(), set()
    for node in ast.walk(tree):
        if _from_statistics(node):
            imported |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            modules |= {alias.asname or alias.name for alias in node.names if alias.name == "statistics"}
        elif isinstance(node, ast.Import):
            modules |= {
                alias.asname for alias in node.names if alias.name.endswith(".statistics") and alias.asname
            }
    reads = {}
    for top in tree.body:
        if not isinstance(top, ast.FunctionDef):
            continue
        found = set()
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and node.id in imported:
                found.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id in modules or node.value.id == "statistics":
                    found.add(node.attr)
            elif _from_statistics(node):
                found |= {alias.name for alias in node.names}
        reads[top.name] = found
    return reads


def calls_within(source: str, start: str) -> set[str]:
    """The top-level functions ``start`` reaches through calls in its module."""
    tree = ast.parse(source)
    bodies = {top.name: top for top in tree.body if isinstance(top, ast.FunctionDef)}
    reached, todo = set(), [start]
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        todo += [
            node.id for node in ast.walk(bodies[name]) if isinstance(node, ast.Name) and node.id in bodies
        ]
    return reached


def test_the_sampler_reads_only_the_models_inputs_from_statistics():
    source = (PACKAGE / "montecarlo.py").read_text()
    reads = statistics_reads(source)
    assert SAMPLER <= reads.keys()
    assert {name: reads[name] - ALLOWED for name in SAMPLER} == {name: set() for name in SAMPLER}


def test_the_sampler_is_every_function_simulate_reaches():
    # a new helper of the sampler joins SAMPLER, and so falls under the check above
    assert calls_within((PACKAGE / "montecarlo.py").read_text(), "simulate") == SAMPLER


def test_the_check_sees_each_spelling():
    header = "from .statistics import PumpProfile, output_distribution\n"
    copies = [
        "dist = output_distribution(spec, pump, strategy)",
        "from .statistics import _count_pmf",
        "from asmux.statistics import source_pmf as pmf",
        "from . import statistics\n    statistics.acceptance_weights(s, v, 3)",
        "import asmux.statistics as model\n    model._chain(q, t)",
        "law = output_distribution",
    ]
    for copy in copies:
        reads = statistics_reads(f"{header}def _thin():\n    {copy}\n")
        assert reads["_thin"] - ALLOWED, copy
    clean = f"{header}def _thin():\n    pump = PumpProfile((1.0,))\n    rng.binomial(3, 0.5)\n"
    assert statistics_reads(clean) == {"_thin": {"PumpProfile"}}
