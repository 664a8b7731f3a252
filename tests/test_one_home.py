"""The count law and the chain sum each have one home in ``statistics.py``.

Every Poisson or geometric pmf row, of pairs or of kept photons, comes
from ``statistics._count_pmf``, and every running product over the units
from ``statistics._chain``.  A second copy of either, with the same
operations in another order, may round differently in the last bit, and
a reported P1 or distribution would then no longer re-evaluate to
itself.  So only ``_count_pmf`` and ``_binom_pmf`` read the log-factorial
table, and only ``_chain`` calls ``cumprod``.

The optimizer reads its closed forms through ``_Chain.terms`` only, so
the count of its calls per P1 batch sees every evaluation.

The sampler draws only in ``_pair_histogram`` and ``_thin``, so the
frozen stream digests and the property test of the thinning walk see
every draw site.  Only ``_pair_histogram`` reads ``_poisson_hazard``, so
its per-run memo is the one home of the sampler's hazards, and each is
summed once per run and mean.

Only ``multiplexer._integer`` calls ``int`` on a caller's value: a
function's parameter, a field read through it, or an item drawn from
either.  So no entry point truncates a float or parses a string into a
count; the text parsers convert parts of a string they split.
"""
import ast
from pathlib import Path

import asmux

PACKAGE = Path(asmux.__file__).resolve().parent
CUMPROD = ({"cumprod", "nancumprod"}, {"_chain"})
LOG_FACTORIALS = ({"_log_factorials"}, {"_count_pmf", "_binom_pmf"})
# in optimize.py: its import, and the one method that calls it
EVALUATOR = ({"one_photon_terms"}, ["<module>", "_Chain.terms"])
# in montecarlo.py: the pair histogram and the thinning walk
DRAWS = ({"binomial"}, {"_pair_histogram", "_thin"})
# in montecarlo.py: the pair histogram, which keeps each run's hazards
HAZARDS = ({"_poisson_hazard"}, {"_pair_histogram"})


def _name(node):
    """The name a node reads: a variable's, or an attribute's last part."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def mentions(source: str, spellings: set[str]) -> list[tuple[str, int]]:
    """(top-level definition, line) of each read or import of a name in ``spellings``.

    A method of a top-level class is its own definition, ``Class.method``.
    ``multiply.accumulate`` is spelled ``cumprod``.
    """
    found = []
    for top in ast.parse(source).body:
        owner = getattr(top, "name", "<module>")
        methods = {}
        if isinstance(top, ast.ClassDef):
            for item in top.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    methods.update((id(node), f"{owner}.{item.name}") for node in ast.walk(item))
        for node in ast.walk(top):
            if isinstance(node, ast.alias):
                name = node.name
            elif _name(node) == "accumulate" and _name(node.value) == "multiply":
                name = "cumprod"
            else:
                name = _name(node)
            if name in spellings:
                found.append((methods.get(id(node), owner), node.lineno))
    return found


def _reads_a_parameter(node, params) -> bool:
    """True if ``node`` is one of ``params`` or an attribute of one (``self.field``)."""
    if isinstance(node, ast.Attribute):
        node = node.value
    return isinstance(node, ast.Name) and node.id in params


def int_of_parameters(source: str) -> set[tuple[str, int]]:
    """(function, line) of each ``int(x)`` with ``x`` a caller's value.

    That is a parameter of a function around the call, an attribute of
    one, or the variable of a comprehension over either.
    """
    found = set()
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = func.args
        params = {
            arg.arg
            for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
            if arg
        }
        params |= {
            node.target.id
            for node in ast.walk(func)
            if isinstance(node, ast.comprehension)
            and isinstance(node.target, ast.Name)
            and _reads_a_parameter(node.iter, params)
        }
        found |= {
            (func.name, node.lineno)
            for node in ast.walk(func)
            if isinstance(node, ast.Call)
            and _name(node.func) == "int"
            and len(node.args) == 1
            and _reads_a_parameter(node.args[0], params)
        }
    return found


def _copies(rule) -> list[str]:
    spellings, homes = rule
    return [
        f"{path.name}:{line} {owner}"
        for path in sorted(PACKAGE.glob("*.py"))
        for owner, line in mentions(path.read_text(), spellings)
        if not (path.name == "statistics.py" and owner in homes)
    ]


def test_only_the_chain_sum_calls_cumprod():
    assert _copies(CUMPROD) == []
    statistics = (PACKAGE / "statistics.py").read_text()
    assert {owner for owner, _ in mentions(statistics, CUMPROD[0])} == CUMPROD[1]


def test_only_the_count_law_and_the_binomial_read_the_log_factorials():
    assert _copies(LOG_FACTORIALS) == []
    statistics = (PACKAGE / "statistics.py").read_text()
    assert {owner for owner, _ in mentions(statistics, LOG_FACTORIALS[0])} == LOG_FACTORIALS[1]


def test_only_the_chain_calls_the_closed_forms_in_the_optimizer():
    optimize = (PACKAGE / "optimize.py").read_text()
    assert sorted(owner for owner, _ in mentions(optimize, EVALUATOR[0])) == EVALUATOR[1]


def test_only_the_histogram_and_the_thinning_walk_draw_binomials():
    montecarlo = (PACKAGE / "montecarlo.py").read_text()
    assert {owner for owner, _ in mentions(montecarlo, DRAWS[0])} == DRAWS[1]


def test_only_the_histogram_reads_the_poisson_hazard():
    montecarlo = (PACKAGE / "montecarlo.py").read_text()
    assert {owner for owner, _ in mentions(montecarlo, HAZARDS[0])} == HAZARDS[1]


def test_only_the_integer_rule_converts_a_callers_value():
    found = {
        (path.name, owner)
        for path in sorted(PACKAGE.glob("*.py"))
        for owner, _ in int_of_parameters(path.read_text())
    }
    assert found == {("multiplexer.py", "_integer")}


def test_the_check_sees_each_spelling():
    cumprods = [
        "prefix = np.cumprod(quiet, axis=1)",
        "numpy.cumprod(q, out=p)",
        "p = quiet.cumprod(axis=-1)",
        "from numpy import cumprod",
        "np.nancumprod(q)",
        "np.multiply.accumulate(q, axis=1)",
        "product = np.cumprod",
    ]
    for copy in cumprods:
        assert mentions(f"def _scalar_p1_batch():\n    {copy}\n", CUMPROD[0]) == [
            ("_scalar_p1_batch", 2)
        ], copy
    tables = [
        "lf = _log_factorials(end)",
        "rows -= statistics._log_factorials(l_max)",
        "from .statistics import _log_factorials",
        "table = _log_factorials",
    ]
    for copy in tables:
        assert mentions(copy, LOG_FACTORIALS[0]) == [("<module>", 1)], copy
    for method, body in (
        ("terms", "return one_photon_terms(lam, v)"),
        ("capped", "return statistics.one_photon_terms(lam, v)"),
        ("terms", "return one_photon_terms"),
    ):
        copy = f"class _Chain:\n    def {method}(self):\n        {body}\n"
        assert mentions(copy, EVALUATOR[0]) == [(f"_Chain.{method}", 3)], copy
    draws = [
        "moved = rng.binomial(below_cap, p)",
        "drawn = binomial(n, p)",
        "binomial = rng.binomial",
        "np.random.binomial(n, p)",
        "from numpy.random import binomial",
    ]
    for copy in draws:
        assert set(mentions(f"def simulate():\n    {copy}\n", DRAWS[0])) == {("simulate", 2)}, copy
    hazards = [
        "hazard = _poisson_hazard(lam, len(groups))",
        "known.append(montecarlo._poisson_hazard(lam, pairs))",
        "series = _poisson_hazard",
        "from .montecarlo import _poisson_hazard",
    ]
    for copy in hazards:
        assert mentions(f"def simulate():\n    {copy}\n", HAZARDS[0]) == [("simulate", 2)], copy
    conversions = [
        "i_max = int(i_max)",
        "return cls((lam,) * int(n_units))",
        "members = frozenset(int(j) for j in self.accepted)",
        "return cls(frozenset(int(c) for c in counts))",
        "n = int(self.n_units)",
        "first = int(sizes[0]) if sizes else int(default)",
    ]
    for copy in conversions:
        source = f"def f(self, i_max, n_units, counts, *sizes, default=1):\n    {copy}\n"
        assert int_of_parameters(source) == {("f", 2)}, copy
    assert int_of_parameters(
        "def parse(text):\n    return [int(p) for p in text.split(',')]\n"
        "def end(sizes):\n    return int(sizes[-1]) + int(sizes.max())\n"
    ) == set()
    clean = (
        "np.cumsum(q)\nnp.multiply.outer(a, b)\nnp.add.accumulate(q)\n_log_factorial_table\n"
        "rng.multinomial(n, p)\nrng.negative_binomial(n, p)\n_binom_pmf(n, v)\n"
        "hazards[lam][pairs]\n_thermal_hazard(lam)"
    )
    assert mentions(clean, CUMPROD[0] | LOG_FACTORIALS[0] | DRAWS[0] | HAZARDS[0]) == []
