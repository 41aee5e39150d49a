"""The shared test module itself: its oracles stay off the library's
private code, and its call counter hands a running profiler back.  Also
the code-line count of `tests/codelines.py`."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import oracles
from codelines import code_lines

TESTS = Path(oracles.__file__).resolve().parent


def is_private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_oracles_import_no_private_systolic_name():
    """`tests/oracles.py` reaches the library only through public names: it
    imports no `_`-prefixed name from `systolic`, and reads none off a
    name it imports from there."""
    tree = ast.parse((TESTS / "oracles.py").read_text())
    bound, private = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {a.asname or a.name.split(".")[0] for a in node.names
                      if a.name.split(".")[0] == "systolic"}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "systolic":
            bound |= {a.asname or a.name for a in node.names}
            private += [f"{node.module}.{a.name}" for a in node.names if is_private(a.name)]
    for node in ast.walk(tree):
        root = node
        while isinstance(root, ast.Attribute):
            root = root.value
        if (isinstance(node, ast.Attribute) and isinstance(root, ast.Name)
                and root.id in bound and is_private(node.attr)):
            private.append(f"line {node.lineno}: {ast.unparse(node)}")
    assert bound and private == []


PROFILED = """
import cProfile, pstats
from oracles import counting_calls

def counted():
    pass

def later():
    pass

profiler = cProfile.Profile()
profiler.enable()
with counting_calls({"counted": counted}) as calls:
    counted()
later()
profiler.disable()
ncalls = {func[2]: stat[1] for func, stat in pstats.Stats(profiler).stats.items()}
print(dict(calls), ncalls.get("later"))
"""


def test_counting_calls_hands_a_c_profiler_back():
    """Under cProfile, `counting_calls` counts, and on exit the profiler
    runs again: it records a call made after the count.  Run in a child
    process, so that no profiler of this run is touched."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (
        str(TESTS), str(TESTS.parent / "src"), os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-c", PROFILED], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "{'counted': 1} 1\n"


CODE = '''"""A module docstring
over two lines."""

# a comment


def f(x):
    """A function docstring."""
    y = (x +  # a trailing comment
         1)
    return """not a docstring"""


class C:
    "A class docstring."
    z = 0
'''


def test_code_lines_skip_docstrings_comments_and_blank_lines():
    """Counted: `def f`, both lines of y's statement, the return (its
    string is no docstring), `class C` and `z = 0`."""
    assert code_lines(CODE) == 6
    assert code_lines("") == 0
