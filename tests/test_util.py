import ast
import hashlib
import re
from pathlib import Path

import numpy as np
import pytest

from distspec.util import _sfc64_rng, derive_seed, make_rng

SRC = Path(__file__).resolve().parents[1] / "src" / "distspec"
MASK64 = (1 << 64) - 1
INT_SEEDS = [0, 1, 7, -1, -(2**63), 2**63, MASK64, 2**64 + 5, 10**30, np.int64(-3),
             np.uint64(2**64 - 2), np.int8(5)]
BAD_SEEDS = [1.5, 1.0, True, False, "1", None, np.float64(2.0), np.bool_(True)]


@pytest.mark.parametrize("build", [make_rng, _sfc64_rng, lambda seed: derive_seed(seed, "x")])
@pytest.mark.parametrize("seed", BAD_SEEDS)
def test_a_seed_that_is_not_an_integer_is_rejected(build, seed):
    # make_rng(1.5) was make_rng(1), and True was read as 1.
    with pytest.raises(ValueError, match=re.escape(f"seed must be an integer, got {seed!r}")):
        build(seed)


@pytest.mark.parametrize("seed", INT_SEEDS)
def test_every_integer_seed_keeps_its_stream(seed):
    key = int(seed) & MASK64
    philox = np.random.Generator(np.random.Philox(key=key))
    assert np.array_equal(make_rng(seed).integers(0, 2**63, size=9),
                          philox.integers(0, 2**63, size=9))
    sfc = np.random.Generator(np.random.SFC64(key))
    assert np.array_equal(_sfc64_rng(seed).random(9), sfc.random(9))
    digest = hashlib.sha256(f"label:{key}".encode()).digest()
    assert derive_seed(seed, "label") == int.from_bytes(digest[:8], "little")


def _generator_calls(path: Path) -> list[str]:
    """Names of the ``numpy.random`` callables a module calls, whatever it
    imported them as."""
    tree = ast.parse(path.read_text())
    numpy, random, direct = set(), set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "numpy":
                    numpy.add(alias.asname or "numpy")
                elif alias.name == "numpy.random":
                    (random if alias.asname else numpy).add(alias.asname or "numpy")
        elif isinstance(node, ast.ImportFrom) and node.module in ("numpy", "numpy.random"):
            for alias in node.names:
                if node.module == "numpy" and alias.name == "random":
                    random.add(alias.asname or "random")
                elif node.module == "numpy.random":
                    direct[alias.asname or alias.name] = alias.name

    def is_random(expr) -> bool:
        if isinstance(expr, ast.Name):
            return expr.id in random
        return (isinstance(expr, ast.Attribute) and expr.attr == "random"
                and isinstance(expr.value, ast.Name) and expr.value.id in numpy)

    calls = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and is_random(func.value):
            calls.append(func.attr)
        elif isinstance(func, ast.Name) and func.id in direct:
            calls.append(direct[func.id])
    return calls


def test_generators_are_built_only_in_util():
    # One module holds the rule for which stream gets Philox and which SFC64.
    assert sorted(_generator_calls(SRC / "util.py")) == \
        ["Generator", "Generator", "Philox", "SFC64"]
    others = {path.name: calls for path in sorted(SRC.glob("*.py"))
              if path.name != "util.py" and (calls := _generator_calls(path))}
    assert others == {}


def test_the_generator_scan_sees_every_import_form(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "import numpy as np\nimport numpy.random as npr\nimport numpy\n"
        "from numpy import random as nr\nfrom numpy.random import default_rng as rng, PCG64\n"
        "np.random.Generator(np.random.Philox(1))\nnpr.SFC64(2)\nnumpy.random.MT19937(3)\n"
        "nr.RandomState(4)\nrng(5)\nPCG64(6)\nx = np.random\nnp.zeros(3)\n")
    assert sorted(_generator_calls(module)) == \
        ["Generator", "MT19937", "PCG64", "Philox", "RandomState", "SFC64", "default_rng"]
